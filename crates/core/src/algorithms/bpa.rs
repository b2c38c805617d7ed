//! The Best Position Algorithm (Section 4).

use topk_lists::source::SourceSet;
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
/// position it sees, under sorted *or* random access, with the local score
/// found there. Its stopping threshold is the *best positions overall
/// score* `λ = f(s₁(bp₁), …, s_m(bp_m))`, where `bp_i` is the greatest
/// position of list `i` such that all positions `1..=bp_i` have been seen.
/// Because `bp_i` is never smaller than the current sorted-scan depth,
/// `λ ≤ δ` and BPA stops at least as early as TA (Lemma 1), up to `m - 1`
/// times earlier (Lemma 3).
///
/// The seen positions — and their local scores — live at the *query
/// originator*, one row per list that advances `bp_i` with the bit-array
/// loop of Section 5.2.1. BPA's random accesses ask every source for the
/// item's position, the very communication burden Section 5 criticises
/// and BPA2 removes by keeping best positions source-side (where the
/// tracking strategy is selectable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bpa;

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

        // Originator-side bookkeeping: one seen-score row per list. Every
        // score at a seen position was observed by the access that saw
        // it, so λ can be recomputed without touching the lists again.
        let mut rows: Vec<SeenRow> = (0..m).map(|_| SeenRow::new(n)).collect();
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
                rows[i].record(entry.position, entry.score);

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
                    rows[j].record(p, ps.score);
                }
                buffer.offer(entry.item, query.combine(&locals));
            }

            // Best positions overall score λ, from the originator's own
            // view of the seen positions and their scores.
            if let Some(lambda) = best_positions_score(&rows, query, &mut lambda_scores) {
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
        let bounds: Option<Vec<Score>> = rows.iter().map(SeenRow::best_score).collect();
        let (ranked, certificate) = buffer.finish(bounds);
        Ok(TopKResult::new(ranked, stats).with_certificate(certificate))
    }
}

/// Positions per chunk of a [`SeenRow`].
const CHUNK: usize = 256;

/// What the originator has seen of one list: the local score at every
/// seen position, and the best position `bp`.
///
/// Scores live in chunks of [`CHUNK`] positions, each allocated — filled
/// with NaN, meaning "unseen" — when a position in it is first recorded.
/// A real score is never NaN ([`Score::new`] rejects it), so one slot
/// holds both the bit of Section 5.2.1's bit array and the score λ reads.
/// A scan touches only the chunks its sorted and random accesses reach,
/// so a short query pays for a few chunks rather than all `n` positions.
#[derive(Debug)]
struct SeenRow {
    chunks: Vec<Option<Box<[f64; CHUNK]>>>,
    /// Length of the seen prefix: positions `1..=bp` are all seen.
    bp: usize,
}

impl SeenRow {
    fn new(n: usize) -> Self {
        SeenRow {
            chunks: vec![None; n.div_ceil(CHUNK)],
            bp: 0,
        }
    }

    /// Records the local score seen at `position` (idempotent: a position
    /// always holds the same score within a query) and advances `bp` over
    /// the newly contiguous prefix.
    #[inline]
    fn record(&mut self, position: Position, score: Score) {
        let at = position.index();
        let chunk = self.chunks[at / CHUNK].get_or_insert_with(|| Box::new([f64::NAN; CHUNK]));
        chunk[at % CHUNK] = score.value();
        if at == self.bp {
            self.advance();
        }
    }

    /// The bit-array loop `while B[bp + 1] = 1 do bp := bp + 1`, with a
    /// score in each slot; stops at the first unseen slot or unallocated
    /// chunk (past position `n`, slots are never recorded).
    fn advance(&mut self) {
        while let Some(chunk) = self.chunks.get(self.bp / CHUNK).and_then(Option::as_deref) {
            if chunk[self.bp % CHUNK].is_nan() {
                break;
            }
            self.bp += 1;
        }
    }

    /// The local score at the best position, or `None` until position 1
    /// has been seen.
    fn best_score(&self) -> Option<Score> {
        let at = self.bp.checked_sub(1)?;
        self.chunks[at / CHUNK]
            .as_deref()
            .map(|chunk| Score::from_f64(chunk[at % CHUNK]))
    }
}

/// Computes `λ = f(s₁(bp₁), …, s_m(bp_m))` in the `scores` scratch row, or
/// `None` if some list has no best position yet (i.e. its position 1 has
/// not been seen).
fn best_positions_score(
    rows: &[SeenRow],
    query: &TopKQuery,
    scores: &mut Vec<Score>,
) -> Option<Score> {
    scores.clear();
    for row in rows {
        scores.push(row.best_score()?);
    }
    Some(query.combine(scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{NaiveScan, Ta};
    use crate::examples_paper::{figure1_database, figure2_database};
    use crate::scoring::{Average, Min};
    use proptest::prelude::*;
    use topk_lists::tracker::{BitArrayTracker, PositionTracker};

    #[test]
    fn example3_stops_at_position_3_with_the_papers_access_counts() {
        // "BPA stops at position 3 … the number of sorted accesses and
        // random accesses is 3·3 = 9 and 9·2 = 18, respectively."
        let db = figure1_database();
        let result = Bpa.run(&db, &TopKQuery::top(3)).unwrap();
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
        let result = Bpa.run(&db, &TopKQuery::top(3)).unwrap();
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
                let bpa = Bpa.run(&db, &query).unwrap();
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
    fn agrees_with_the_naive_scan_under_other_functions() {
        let db = figure2_database();
        for k in [1, 4, 9] {
            for query in [TopKQuery::new(k, Min), TopKQuery::new(k, Average)] {
                let bpa = Bpa.run(&db, &query).unwrap();
                let naive = NaiveScan.run(&db, &query).unwrap();
                assert!(bpa.scores_match(&naive, 1e-9), "k = {k}");
            }
        }
    }

    #[test]
    fn random_access_count_is_m_minus_one_per_sorted_access() {
        let db = figure2_database();
        let result = Bpa.run(&db, &TopKQuery::top(2)).unwrap();
        assert_eq!(
            result.stats().accesses.random,
            result.stats().accesses.sorted * 2
        );
    }

    #[test]
    fn invalid_k_is_rejected() {
        let db = figure1_database();
        assert!(Bpa.run(&db, &TopKQuery::top(0)).is_err());
    }

    /// The score a test script finds at `p` in a list of `n` items: fixed
    /// per position, descending, and `0.0` at the last position (a score
    /// a zero-filled store could not tell from "unseen").
    fn score_at(n: usize, p: usize) -> Score {
        Score::from_f64((n - p) as f64 * 0.5)
    }

    /// Turns a raw script into positions of a list of `n` items: the next
    /// 1 to 32 positions of a sorted scan (wrapping at `n`), a uniform
    /// position, a position beside a chunk edge, or a repeat of the
    /// previous one.
    fn positions(n: usize, script: &[(usize, usize)]) -> Vec<usize> {
        let mut scan = 0;
        let mut out = vec![];
        for &(op, raw) in script {
            match op {
                0 => {
                    for _ in 0..=raw % 32 {
                        scan = scan % n + 1;
                        out.push(scan);
                    }
                }
                1 => out.push(raw % n + 1),
                2 => {
                    let edge = CHUNK * (raw % (n / CHUNK + 1));
                    out.push((edge + raw / 7 % 4).clamp(2, n + 1) - 1);
                }
                _ => out.push(out.last().copied().unwrap_or(1)),
            }
        }
        out
    }

    /// Records the same positions in a [`SeenRow`] and in the reference
    /// [`BitArrayTracker`]; after every record both report the same best
    /// position, the row's best score is the one recorded there, and the
    /// allocated chunks are exactly the chunks touched so far.
    fn check_row_against_tracker(n: usize, positions: &[usize]) {
        let mut row = SeenRow::new(n);
        let mut tracker = BitArrayTracker::new(n);
        let mut touched = vec![false; n.div_ceil(CHUNK)];
        for &p in positions {
            let position = Position::new(p).unwrap();
            row.record(position, score_at(n, p));
            tracker.mark_seen(position);
            touched[position.index() / CHUNK] = true;
            let bp = tracker.best_position();
            assert_eq!(Position::new(row.bp), bp, "n = {n}, after {p}");
            assert_eq!(row.best_score(), bp.map(|bp| score_at(n, bp.get())));
            let allocated: Vec<bool> = row.chunks.iter().map(Option::is_some).collect();
            assert_eq!(allocated, touched, "n = {n}, after {p}");
        }
    }

    #[test]
    fn seen_row_advances_across_chunk_edges() {
        check_row_against_tracker(1, &[1, 1]);
        // Out of order across the first chunk edge, then a prefix fill.
        let mut script = vec![257, 256, 258, 1000];
        script.extend(1..=255);
        script.extend([255, 259]);
        check_row_against_tracker(1000, &script);
        check_row_against_tracker(257, &(1..=257).rev().collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Seeded position scripts — sorted-scan steps, uniform and
        /// chunk-edge positions, repeats — at list sizes on both sides
        /// of a chunk: the row tracks exactly what the bit array does.
        #[test]
        fn seen_row_matches_the_bit_array_tracker(
            (size, script) in (
                0usize..5,
                proptest::collection::vec((0usize..4, 0usize..2000), 0..=300),
            ),
        ) {
            let n = [1, 255, 256, 257, 1000][size];
            check_row_against_tracker(n, &positions(n, &script));
        }
    }
}
