//! The naive full-scan baseline.

use std::collections::HashMap;

use topk_lists::source::SourceSet;
use topk_lists::{ItemId, Position, Score};

use crate::algorithms::{collect_stats, TopKAlgorithm};
use crate::error::TopKError;
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::topk_buffer::TopKBuffer;

/// Scans every list from beginning to end, computes every item's overall
/// score and returns the k best — the O(m·n) baseline the paper's
/// introduction dismisses as "inefficient for very large lists".
///
/// It performs exactly `m·n` sorted accesses and no random accesses, and is
/// used throughout the test-suite as ground truth for the other algorithms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveScan;

impl TopKAlgorithm for NaiveScan {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn execute(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        let m = sources.num_lists();
        let n = sources.num_items();

        // The m full scans are mutually independent — no scan ever waits
        // for another list's reply — so the whole scatter is ONE
        // originator round: a distributed backend can stream all m lists
        // concurrently, and the per-round overlap accounting credits the
        // scan with an ~m× overlapped speedup accordingly.
        sources.begin_round();
        let mut locals: HashMap<ItemId, Vec<Score>> = HashMap::with_capacity(n);
        let mut tail_scores = vec![Score::ZERO; m];
        for (i, tail) in tail_scores.iter_mut().enumerate() {
            for pos in 1..=n {
                let entry = sources
                    .source(i)
                    .sorted_access(Position::new(pos).expect("pos >= 1"), false)
                    .expect("position within list bounds");
                locals
                    .entry(entry.item)
                    .or_insert_with(|| vec![Score::ZERO; m])[i] = entry.score;
                *tail = entry.score;
            }
        }

        // Score in item-id order, not hash order: the buffer's tie-break
        // between equal overall scores is offer order, so iterating the
        // HashMap directly would let the per-map hash seed pick the
        // answer set among tied items.
        let mut locals: Vec<(ItemId, Vec<Score>)> = locals.into_iter().collect();
        locals.sort_unstable_by_key(|(item, _)| *item);

        let items_scored = locals.len();
        let mut buffer = TopKBuffer::new(query.k(), n);
        for (item, scores) in &locals {
            buffer.offer(*item, query.combine(scores));
        }
        let stats = collect_stats(sources, None, 1, items_scored);
        // The scan resolves *every* item; the tail scores still make a
        // valid (vacuous) bound for the certificate's consumers.
        let (ranked, certificate) = buffer.finish(Some(tail_scores));
        Ok(TopKResult::new(ranked, stats).with_certificate(certificate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{figure1_database, figure2_database};
    use crate::scoring::{Max, Min};

    #[test]
    fn finds_the_figure1_top3() {
        let db = figure1_database();
        let result = NaiveScan.run(&db, &TopKQuery::top(3)).unwrap();
        let ids: Vec<u64> = result.item_ids().iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![8, 3, 5]);
        let scores: Vec<f64> = result.scores().iter().map(|s| s.value()).collect();
        assert_eq!(scores, vec![71.0, 70.0, 70.0]);
    }

    #[test]
    fn finds_the_figure2_top3() {
        let db = figure2_database();
        let result = NaiveScan.run(&db, &TopKQuery::top(3)).unwrap();
        let ids: Vec<u64> = result.item_ids().iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![3, 4, 6]);
    }

    #[test]
    fn performs_exactly_m_times_n_sorted_accesses() {
        let db = figure1_database();
        let result = NaiveScan.run(&db, &TopKQuery::top(1)).unwrap();
        let stats = result.stats();
        assert_eq!(stats.accesses.sorted, (3 * 12) as u64);
        assert_eq!(stats.accesses.random, 0);
        assert_eq!(stats.accesses.direct, 0);
        assert_eq!(stats.items_scored, 12);
        assert_eq!(stats.stop_position, None);
        assert_eq!(
            stats.rounds, 1,
            "the m independent scans form a single scatter round"
        );
    }

    #[test]
    fn supports_other_monotone_functions() {
        let db = figure1_database();
        let by_min = NaiveScan.run(&db, &TopKQuery::new(1, Min)).unwrap();
        // max over items of min local score: d8 has min(23, 20, 28) = 20.
        assert_eq!(by_min.items()[0].item.0, 8);
        assert_eq!(by_min.items()[0].score.value(), 20.0);
        let by_max = NaiveScan.run(&db, &TopKQuery::new(1, Max)).unwrap();
        // Several items share the maximal local score of 30 (d1 and d3);
        // any of them is a valid top-1 answer, so only the score is checked.
        assert_eq!(by_max.items()[0].score.value(), 30.0);
        assert!([1, 3].contains(&by_max.items()[0].item.0));
    }

    #[test]
    fn k_equal_to_n_returns_every_item() {
        let db = figure1_database();
        let result = NaiveScan.run(&db, &TopKQuery::top(12)).unwrap();
        assert_eq!(result.len(), 12);
    }

    #[test]
    fn invalid_k_is_rejected() {
        let db = figure1_database();
        assert!(NaiveScan.run(&db, &TopKQuery::top(0)).is_err());
        assert!(NaiveScan.run(&db, &TopKQuery::top(13)).is_err());
    }
}
