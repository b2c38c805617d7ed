//! Fagin's Algorithm (Section 3.1).

use std::collections::HashMap;

use topk_lists::source::SourceSet;
use topk_lists::{ItemId, Position, Score};

use crate::algorithms::{collect_stats, TopKAlgorithm};
use crate::error::TopKError;
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::topk_buffer::TopKBuffer;

/// Fagin's Algorithm: scan all lists in parallel under sorted access until
/// at least `k` items have been seen in *every* list, then resolve the
/// remaining local scores of every seen item by random access and return
/// the k best.
///
/// FA predates TA and stops later than it on every database (the paper's
/// Figure 1 example: FA stops at position 8 where TA stops at 6); it is
/// implemented here as the historical baseline of Section 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fa;

impl TopKAlgorithm for Fa {
    fn name(&self) -> &'static str {
        "fa"
    }

    fn execute(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        let m = sources.num_lists();
        let n = sources.num_items();
        let k = query.k();

        // Phase 1: sorted access in parallel until >= k items are seen in
        // every list. `seen[item][i]` holds the local score of `item` in
        // list `i` if it has been seen there under sorted access.
        let mut seen: HashMap<ItemId, Vec<Option<Score>>> = HashMap::new();
        let mut fully_seen = 0usize;
        let mut stop_position = n;
        let mut last_scores = vec![Score::ZERO; m];
        'scan: for pos in 1..=n {
            sources.begin_round();
            let position = Position::new(pos).expect("pos >= 1");
            for i in 0..m {
                let entry = sources
                    .source(i)
                    .sorted_access(position, false)
                    .expect("position within list bounds");
                last_scores[i] = entry.score;
                let locals = seen.entry(entry.item).or_insert_with(|| vec![None; m]);
                if locals[i].is_none() {
                    locals[i] = Some(entry.score);
                    if locals.iter().all(Option::is_some) {
                        fully_seen += 1;
                    }
                }
            }
            if fully_seen >= k {
                stop_position = pos;
                break 'scan;
            }
        }

        // Phase 2: random access for the missing local scores of every seen
        // item, then keep the k best overall scores.
        sources.begin_round();
        let mut buffer = TopKBuffer::new(k, n);
        let items_scored = seen.len();
        // Resolve in item-id order, not hash order: the *sequence* of
        // random accesses must be deterministic so that physical-layer
        // observers (the paged backend's cache hit/miss counters) see
        // identical runs, not just identical totals.
        let mut seen: Vec<(ItemId, Vec<Option<Score>>)> = seen.into_iter().collect();
        seen.sort_unstable_by_key(|(item, _)| *item);
        for (item, mut locals) in seen {
            for (i, slot) in locals.iter_mut().enumerate() {
                if slot.is_none() {
                    let ps = sources
                        .source(i)
                        .random_access(item, false, false)
                        .expect("every item appears in every list");
                    *slot = Some(ps.score);
                }
            }
            let resolved: Vec<Score> = locals
                .into_iter()
                .map(|s| s.expect("all local scores resolved"))
                .collect();
            buffer.offer(item, query.combine(&resolved));
        }

        let stats = collect_stats(
            sources,
            Some(stop_position),
            stop_position as u64,
            items_scored,
        );
        // An item FA never resolved was seen in *no* list, so it sits
        // below the stopping position everywhere and `last_scores` bounds
        // its local scores.
        let (ranked, certificate) = buffer.finish(Some(last_scores));
        Ok(TopKResult::new(ranked, stats).with_certificate(certificate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::NaiveScan;
    use crate::examples_paper::figure1_database;

    #[test]
    fn stops_at_position_8_on_the_figure1_database() {
        // "At position 8, the number of data items which are seen in all
        // lists is 5 … thus FA stops doing sorted access to the lists."
        let db = figure1_database();
        let result = Fa.run(&db, &TopKQuery::top(3)).unwrap();
        assert_eq!(result.stats().stop_position, Some(8));
        assert_eq!(result.stats().accesses.sorted, 8 * 3);
        let ids: Vec<u64> = result.item_ids().iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![8, 3, 5]);
    }

    #[test]
    fn agrees_with_the_naive_scan() {
        let db = figure1_database();
        for k in 1..=12 {
            let fa = Fa.run(&db, &TopKQuery::top(k)).unwrap();
            let naive = NaiveScan.run(&db, &TopKQuery::top(k)).unwrap();
            assert!(fa.scores_match(&naive, 1e-9), "k = {k}");
        }
    }

    #[test]
    fn top_1_stops_as_soon_as_one_item_is_seen_everywhere() {
        let db = figure1_database();
        let result = Fa.run(&db, &TopKQuery::top(1)).unwrap();
        // d5 and d8 are the first items seen in all three lists (position 7).
        assert_eq!(result.stats().stop_position, Some(7));
    }

    #[test]
    fn random_accesses_only_resolve_partially_seen_items() {
        let db = figure1_database();
        let result = Fa.run(&db, &TopKQuery::top(3)).unwrap();
        let stats = result.stats();
        // Every random access resolves a missing (item, list) pair, so the
        // count is bounded by items_scored * (m - 1).
        assert!(stats.accesses.random <= (stats.items_scored as u64) * 2);
        assert!(stats.accesses.random > 0);
        assert_eq!(stats.accesses.direct, 0);
    }

    #[test]
    fn k_equal_to_n_scans_all_lists() {
        let db = figure1_database();
        let result = Fa.run(&db, &TopKQuery::top(12)).unwrap();
        assert_eq!(result.len(), 12);
        assert_eq!(result.stats().stop_position, Some(12));
    }

    #[test]
    fn invalid_k_is_rejected() {
        let db = figure1_database();
        assert!(Fa.run(&db, &TopKQuery::top(0)).is_err());
    }
}
