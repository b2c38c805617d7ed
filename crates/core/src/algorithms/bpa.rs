//! The Best Position Algorithm (Section 4).

use topk_lists::source::SourceSet;
use topk_lists::tracker::{PositionTracker, TrackerKind};
use topk_lists::{Position, Score};

use crate::algorithms::{collect_stats, TopKAlgorithm};
use crate::error::TopKError;
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::topk_buffer::TopKBuffer;

/// The Best Position Algorithm — the paper's first contribution.
///
/// BPA scans like TA (sorted access at each position of every list, plus
/// `m - 1` random accesses per item seen) but it additionally records every
/// position it sees, under sorted *or* random access, in a per-list
/// [`PositionTracker`]. Its stopping threshold is the *best positions
/// overall score* `λ = f(s₁(bp₁), …, s_m(bp_m))`, where `bp_i` is the
/// greatest position of list `i` such that all positions `1..=bp_i` have
/// been seen. Because `bp_i` is never smaller than the current sorted-scan
/// depth, `λ ≤ δ` and BPA stops at least as early as TA (Lemma 1), up to
/// `m - 1` times earlier (Lemma 3).
///
/// The trackers — and the local scores of the seen positions — live at the
/// *query originator*: BPA's random accesses ask every source for the
/// item's position, the very communication burden Section 5 criticises and
/// BPA2 removes by keeping best positions source-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bpa {
    /// Strategy used to maintain the best positions (Section 5.2).
    pub tracker: TrackerKind,
}

impl Default for Bpa {
    fn default() -> Self {
        Bpa {
            tracker: TrackerKind::BitArray,
        }
    }
}

impl Bpa {
    /// BPA with an explicit best-position tracking strategy.
    pub fn with_tracker(tracker: TrackerKind) -> Self {
        Bpa { tracker }
    }
}

impl TopKAlgorithm for Bpa {
    fn name(&self) -> &'static str {
        "bpa"
    }

    fn execute(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        let m = sources.num_lists();
        let n = sources.num_items();

        // Originator-side bookkeeping: one tracker and one
        // position -> local-score store per list. Every score at a marked
        // position was observed by the access that marked it, so λ can be
        // recomputed without touching the lists again.
        let mut trackers: Vec<Box<dyn PositionTracker>> =
            (0..m).map(|_| self.tracker.create(n)).collect();
        let mut seen_scores: Vec<SeenScores> = (0..m).map(|_| SeenScores::new(n)).collect();
        let mut buffer = TopKBuffer::new(query.k());
        let mut stop_position = n;
        // Scratch rows reused for the whole query: the local scores of the
        // item being resolved, and the best-position scores λ combines.
        let mut locals = vec![Score::ZERO; m];
        let mut lambda_scores = Vec::with_capacity(m);

        'rounds: for pos in 1..=n {
            sources.begin_round();
            let position = Position::new(pos).expect("pos >= 1");
            for i in 0..m {
                let entry = sources
                    .source(i)
                    .sorted_access(position, false)
                    .expect("position within list bounds");
                trackers[i].mark_seen(entry.position);
                seen_scores[i].record(entry.position, entry.score);

                // Like TA's literal accounting, each sorted access triggers
                // m - 1 random accesses; BPA additionally asks for the
                // positions those random accesses reveal.
                locals[i] = entry.score;
                sources.prefetch_random(entry.item, i, true, false);
                for j in 0..m {
                    if j == i {
                        continue;
                    }
                    let ps = sources
                        .source(j)
                        .random_access(entry.item, true, false)
                        .expect("every item appears in every list");
                    let p = ps.position.expect("position requested");
                    locals[j] = ps.score;
                    trackers[j].mark_seen(p);
                    seen_scores[j].record(p, ps.score);
                }
                buffer.offer(entry.item, query.combine(&locals));
            }

            // Best positions overall score λ, from the originator's own
            // view of the seen positions and their scores.
            if let Some(lambda) =
                best_positions_score(&trackers, &seen_scores, query, &mut lambda_scores)
            {
                if buffer.has_k_at_or_above(lambda) {
                    stop_position = pos;
                    break 'rounds;
                }
            }
        }

        let stats = collect_stats(
            sources,
            Some(stop_position),
            stop_position as u64,
            buffer.offered_count(),
        );
        // Every position up to bp_i holds a resolved item (it was seen
        // under sorted access — resolved on the spot — or under a random
        // access issued while resolving another item), so the scores at
        // the final best positions bound every unresolved item's locals.
        let bounds: Option<Vec<Score>> = trackers
            .iter()
            .zip(&seen_scores)
            .map(|(tracker, scores)| tracker.best_position().map(|bp| scores.at(bp)))
            .collect();
        let (ranked, certificate) = buffer.finish(bounds);
        Ok(TopKResult::new(ranked, stats).with_certificate(certificate))
    }
}

/// Positions per chunk of a [`SeenScores`] store.
const CHUNK: usize = 256;

/// The local scores an originator has seen in one list, by position:
/// chunks of [`CHUNK`] positions, each allocated when a position in it is
/// first seen. A scan touches only the chunks its sorted and random
/// accesses reach, so a short query pays for a few chunks rather than a
/// zeroed array of all `n` positions.
#[derive(Debug)]
struct SeenScores {
    chunks: Vec<Option<Box<[Score]>>>,
}

impl SeenScores {
    fn new(n: usize) -> Self {
        SeenScores {
            chunks: vec![None; n.div_ceil(CHUNK)],
        }
    }

    fn record(&mut self, position: Position, score: Score) {
        let i = position.index();
        let chunk = self.chunks[i / CHUNK]
            .get_or_insert_with(|| vec![Score::ZERO; CHUNK].into_boxed_slice());
        chunk[i % CHUNK] = score;
    }

    /// The score recorded at a seen `position`.
    fn at(&self, position: Position) -> Score {
        let i = position.index();
        self.chunks[i / CHUNK]
            .as_ref()
            .expect("seen positions have recorded scores")[i % CHUNK]
    }
}

/// Computes `λ = f(s₁(bp₁), …, s_m(bp_m))` in the `scores` scratch row, or
/// `None` if some list has no best position yet (i.e. its position 1 has
/// not been seen).
fn best_positions_score(
    trackers: &[Box<dyn PositionTracker>],
    seen_scores: &[SeenScores],
    query: &TopKQuery,
    scores: &mut Vec<Score>,
) -> Option<Score> {
    scores.clear();
    for (tracker, scores_of_list) in trackers.iter().zip(seen_scores) {
        scores.push(scores_of_list.at(tracker.best_position()?));
    }
    Some(query.combine(scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{NaiveScan, Ta};
    use crate::examples_paper::{figure1_database, figure2_database};
    use crate::scoring::{Average, Min};

    #[test]
    fn example3_stops_at_position_3_with_the_papers_access_counts() {
        // "BPA stops at position 3 … the number of sorted accesses and
        // random accesses is 3·3 = 9 and 9·2 = 18, respectively."
        let db = figure1_database();
        let result = Bpa::default().run(&db, &TopKQuery::top(3)).unwrap();
        let stats = result.stats();
        assert_eq!(stats.stop_position, Some(3));
        assert_eq!(stats.accesses.sorted, 9);
        assert_eq!(stats.accesses.random, 18);
        let ids: Vec<u64> = result.item_ids().iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![8, 3, 5]);
    }

    #[test]
    fn figure2_bpa_stops_at_position_7_with_63_accesses() {
        // "If we apply BPA on this example, it stops at position 7, so it
        // does 7·3 sorted accesses and 7·3·2 random accesses … 63."
        let db = figure2_database();
        let result = Bpa::default().run(&db, &TopKQuery::top(3)).unwrap();
        let stats = result.stats();
        assert_eq!(stats.stop_position, Some(7));
        assert_eq!(stats.accesses.sorted, 21);
        assert_eq!(stats.accesses.random, 42);
        assert_eq!(stats.total_accesses(), 63);
    }

    #[test]
    fn stops_no_later_than_ta_and_finds_the_same_scores() {
        for db in [figure1_database(), figure2_database()] {
            for k in 1..=12 {
                let query = TopKQuery::top(k);
                let bpa = Bpa::default().run(&db, &query).unwrap();
                let ta = Ta::literal().run(&db, &query).unwrap();
                assert!(
                    bpa.stats().stop_position.unwrap() <= ta.stats().stop_position.unwrap(),
                    "Lemma 1 violated at k = {k}"
                );
                assert!(bpa.stats().accesses.sorted <= ta.stats().accesses.sorted);
                assert!(bpa.stats().accesses.random <= ta.stats().accesses.random);
                assert!(bpa.scores_match(&ta, 1e-9), "k = {k}");
            }
        }
    }

    #[test]
    fn all_tracker_kinds_produce_identical_runs() {
        let db = figure1_database();
        let query = TopKQuery::top(3);
        let baseline = Bpa::default().run(&db, &query).unwrap();
        for kind in TrackerKind::ALL {
            let run = Bpa::with_tracker(kind).run(&db, &query).unwrap();
            assert_eq!(run.stats().accesses, baseline.stats().accesses, "{kind:?}");
            assert_eq!(run.stats().stop_position, baseline.stats().stop_position);
            assert!(run.scores_match(&baseline, 1e-9));
        }
    }

    #[test]
    fn agrees_with_the_naive_scan_under_other_functions() {
        let db = figure2_database();
        for k in [1, 4, 9] {
            for query in [TopKQuery::new(k, Min), TopKQuery::new(k, Average)] {
                let bpa = Bpa::default().run(&db, &query).unwrap();
                let naive = NaiveScan.run(&db, &query).unwrap();
                assert!(bpa.scores_match(&naive, 1e-9), "k = {k}");
            }
        }
    }

    #[test]
    fn random_access_count_is_m_minus_one_per_sorted_access() {
        let db = figure2_database();
        let result = Bpa::default().run(&db, &TopKQuery::top(2)).unwrap();
        assert_eq!(
            result.stats().accesses.random,
            result.stats().accesses.sorted * 2
        );
    }

    #[test]
    fn invalid_k_is_rejected() {
        let db = figure1_database();
        assert!(Bpa::default().run(&db, &TopKQuery::top(0)).is_err());
    }
}
