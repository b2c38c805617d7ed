//! BPA2 (Section 5).

use topk_lists::source::SourceSet;
use topk_lists::tracker::TrackerKind;
use topk_lists::Score;

use crate::algorithms::{collect_stats, TopKAlgorithm};
use crate::error::TopKError;
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::topk_buffer::TopKBuffer;

/// BPA2 — the paper's second contribution.
///
/// BPA2 keeps the best positions *at the sources* (Section 5.1: "the best
/// positions are managed by the list owners") and replaces sorted access
/// by *direct access* to position `bp_i + 1`, which is always the smallest
/// unseen position of list `i`. Each direct access reveals an item that
/// has never been seen before (its positions in the other lists would
/// otherwise already be marked), so BPA2 never accesses a position twice
/// (Theorem 5) and its total number of accesses can be about `m - 1` times
/// lower than BPA's (Theorem 8). It shares BPA's stopping condition, so it
/// stops at the same best positions and returns the same answers.
///
/// The only state kept at the originator is the answer buffer `Y` and the
/// local scores of the `m` current best positions — updated from the
/// scores the sources piggyback whenever an access moves their best
/// position (step 3). Random accesses are *tracked* so the sources mark
/// the revealed positions; rounds process the lists sequentially, so a
/// position revealed by a random access earlier in the same round is
/// never targeted again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bpa2 {
    /// Strategy used by the sources (list owners) to maintain their best
    /// positions (Section 5.2).
    pub tracker: TrackerKind,
}

impl Default for Bpa2 {
    fn default() -> Self {
        Bpa2 {
            tracker: TrackerKind::BitArray,
        }
    }
}

impl Bpa2 {
    /// BPA2 with an explicit best-position tracking strategy.
    pub fn with_tracker(tracker: TrackerKind) -> Self {
        Bpa2 { tracker }
    }
}

impl TopKAlgorithm for Bpa2 {
    fn name(&self) -> &'static str {
        "bpa2"
    }

    fn preferred_tracker(&self) -> TrackerKind {
        self.tracker
    }

    fn execute(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        let m = sources.num_lists();

        let mut buffer = TopKBuffer::new(query.k());
        // The local score at each source's current best position, updated
        // from the piggybacked replies (Section 5.1, step 3).
        let mut best_scores: Vec<Option<Score>> = vec![None; m];
        // Scratch rows reused for the whole query: the local scores of the
        // item being resolved, and the best-position scores λ combines.
        let mut locals = vec![Score::ZERO; m];
        let mut lambda_scores = Vec::with_capacity(m);
        let mut rounds = 0u64;

        loop {
            rounds += 1;
            sources.begin_round();
            let mut any_access = false;
            for i in 0..m {
                // Step 2: direct access to bp_i + 1, the smallest unseen
                // position of list i (the source recomputes it after the
                // random accesses performed earlier in this round).
                let Some(entry) = sources.source(i).direct_access_next() else {
                    continue; // every position of this list has been seen
                };
                any_access = true;
                if let Some(best) = entry.best_position_score {
                    best_scores[i] = Some(best);
                }

                // The item at an unseen position has never been resolved
                // (otherwise a random access would have marked this
                // position), so it always needs m - 1 random accesses.
                locals[i] = entry.score;
                sources.prefetch_random(entry.item, i, false, true);
                for j in 0..m {
                    if j == i {
                        continue;
                    }
                    let ps = sources
                        .source(j)
                        .random_access(entry.item, false, true)
                        .expect("every item appears in every list");
                    locals[j] = ps.score;
                    if let Some(best) = ps.best_position_score {
                        best_scores[j] = Some(best);
                    }
                }
                let fresh = buffer.offer(entry.item, query.combine(&locals));
                debug_assert!(
                    fresh,
                    "BPA2 direct access revealed an already-resolved item"
                );
            }

            // Step 4: best positions overall score λ (same condition as
            // BPA), from the piggybacked best-position scores.
            lambda_scores.clear();
            lambda_scores.extend(best_scores.iter().map_while(|s| *s));
            if lambda_scores.len() == m {
                let lambda = query.combine(&lambda_scores);
                if buffer.has_k_at_or_above(lambda) {
                    break;
                }
            }
            if !any_access {
                // Every position of every list has been seen; λ is then the
                // score of the last entries and the condition above holds
                // for any monotone function, so this is only a safety net.
                break;
            }
        }

        let stop_position = (0..m)
            .filter_map(|i| sources.source_ref(i).best_position())
            .map(|p| p.get())
            .max();
        let stats = collect_stats(sources, stop_position, rounds, buffer.offered_count());
        // Seen positions only ever hold resolved items (direct access
        // resolves on the spot; tracked random accesses mark positions of
        // the item being resolved), so the final best-position scores
        // bound every unresolved item's locals. On the safety-net exit
        // some list may lack a piggybacked score, but then every position
        // was seen and the buffer has resolved every item.
        let bounds: Option<Vec<Score>> = best_scores.iter().copied().collect();
        let (ranked, certificate) = buffer.finish(bounds);
        Ok(TopKResult::new(ranked, stats).with_certificate(certificate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bpa, NaiveScan};
    use crate::examples_paper::{figure1_database, figure2_database};
    use crate::scoring::Min;

    #[test]
    fn figure2_does_36_accesses_versus_bpa_63() {
        // "If we apply BPA2, it does direct access to positions 1, 2, 3 and
        // 7 in all lists, so a total of 4·3 direct accesses and 4·3·2 random
        // accesses … 36. Therefore nbpa ≈ 2·nbpa2."
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let bpa2 = Bpa2::default().run(&db, &query).unwrap();
        let stats = bpa2.stats();
        assert_eq!(stats.accesses.direct, 12);
        assert_eq!(stats.accesses.random, 24);
        assert_eq!(stats.accesses.sorted, 0);
        assert_eq!(stats.total_accesses(), 36);
        assert_eq!(stats.rounds, 4);

        let bpa = Bpa.run(&db, &query).unwrap();
        assert_eq!(bpa.stats().total_accesses(), 63);
        assert!(bpa2.scores_match(&bpa, 1e-9));
    }

    #[test]
    fn figure1_returns_the_same_answers_with_fewer_or_equal_accesses() {
        let db = figure1_database();
        for k in 1..=12 {
            let query = TopKQuery::top(k);
            let bpa2 = Bpa2::default().run(&db, &query).unwrap();
            let bpa = Bpa.run(&db, &query).unwrap();
            assert!(
                bpa2.stats().total_accesses() <= bpa.stats().total_accesses(),
                "Theorem 7 violated at k = {k}"
            );
            assert!(bpa2.scores_match(&bpa, 1e-9), "k = {k}");
        }
    }

    #[test]
    fn never_accesses_a_position_twice() {
        // Theorem 5, checked structurally: the total number of accesses to
        // each list cannot exceed n if every access targets a fresh position.
        let db = figure2_database();
        let result = Bpa2::default().run(&db, &TopKQuery::top(3)).unwrap();
        for per_list in &result.stats().per_list {
            assert!(per_list.total() <= db.num_items() as u64);
        }
    }

    #[test]
    fn stops_at_the_same_best_position_as_bpa() {
        // "BPA2 has the same stopping mechanism as BPA. Thus, they both stop
        // at the same (best) position."
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let bpa2 = Bpa2::default().run(&db, &query).unwrap();
        // On Figure 2 both algorithms have seen every position when they
        // stop, so the final best position is n = 12.
        assert_eq!(bpa2.stats().stop_position, Some(12));
    }

    #[test]
    fn agrees_with_the_naive_scan() {
        for db in [figure1_database(), figure2_database()] {
            for k in [1, 3, 7, 12] {
                let query = TopKQuery::top(k);
                let bpa2 = Bpa2::default().run(&db, &query).unwrap();
                let naive = NaiveScan.run(&db, &query).unwrap();
                assert!(bpa2.scores_match(&naive, 1e-9), "k = {k}");
            }
        }
    }

    #[test]
    fn all_tracker_kinds_produce_identical_runs() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let baseline = Bpa2::default().run(&db, &query).unwrap();
        for kind in TrackerKind::ALL {
            let algorithm = Bpa2::with_tracker(kind);
            assert_eq!(algorithm.preferred_tracker(), kind);
            let run = algorithm.run(&db, &query).unwrap();
            assert_eq!(run.stats().accesses, baseline.stats().accesses, "{kind:?}");
            assert!(run.scores_match(&baseline, 1e-9));
        }
    }

    #[test]
    fn supports_other_monotone_functions() {
        let db = figure1_database();
        let query = TopKQuery::new(2, Min);
        let bpa2 = Bpa2::default().run(&db, &query).unwrap();
        let naive = NaiveScan.run(&db, &query).unwrap();
        assert!(bpa2.scores_match(&naive, 1e-9));
    }

    #[test]
    fn invalid_k_is_rejected() {
        let db = figure1_database();
        assert!(Bpa2::default().run(&db, &TopKQuery::top(0)).is_err());
        assert!(Bpa2::default().run(&db, &TopKQuery::top(999)).is_err());
    }
}
