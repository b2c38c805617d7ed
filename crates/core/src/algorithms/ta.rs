//! The Threshold Algorithm (Section 3.2).

use topk_lists::source::SourceSet;
use topk_lists::{Position, Score};

use crate::algorithms::{collect_stats, TopKAlgorithm};
use crate::error::TopKError;
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::topk_buffer::TopKBuffer;

/// The Threshold Algorithm of Fagin/Güntzer/Nepal — the baseline the paper
/// improves on.
///
/// At each position (round) TA reads the entry at that position of every
/// list under sorted access; for each item read it performs `m - 1` random
/// accesses to obtain its other local scores and computes its overall
/// score. It stops as soon as the buffer `Y` holds `k` items whose overall
/// scores reach the threshold `δ = f(s₁, …, s_m)` computed from the last
/// scores seen under sorted access.
///
/// Two accounting modes are provided:
///
/// * [`Ta::literal`] (the default and the variant used in the paper's own
///   cost accounting, e.g. Example 2's "18 sorted and 36 random accesses"):
///   every sorted access triggers `m - 1` random accesses, even when the
///   item's overall score is already known.
/// * [`Ta::memoizing`]: random accesses are skipped for items that were
///   already resolved. This is *not* the paper's TA — it is provided as an
///   ablation to quantify how much of BPA's gain is attributable to the
///   position-aware threshold rather than to avoiding repeated resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ta {
    memoize: bool,
}

impl Default for Ta {
    fn default() -> Self {
        Ta::literal()
    }
}

impl Ta {
    /// TA with the paper's literal access accounting.
    pub fn literal() -> Self {
        Ta { memoize: false }
    }

    /// TA that never re-resolves an item it has already scored.
    pub fn memoizing() -> Self {
        Ta { memoize: true }
    }

    /// Whether this instance memoizes resolved items.
    pub fn is_memoizing(&self) -> bool {
        self.memoize
    }
}

impl TopKAlgorithm for Ta {
    fn name(&self) -> &'static str {
        if self.memoize {
            "ta-cached"
        } else {
            "ta"
        }
    }

    fn execute(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        let m = sources.num_lists();
        let n = sources.num_items();

        let mut buffer = TopKBuffer::new(query.k());
        let mut stop_position = n;
        let mut last_scores = vec![Score::ZERO; m];
        // One scratch row of local scores for the whole query: every
        // resolution overwrites all m slots.
        let mut locals = vec![Score::ZERO; m];

        'rounds: for pos in 1..=n {
            sources.begin_round();
            let position = Position::new(pos).expect("pos >= 1");
            for i in 0..m {
                let entry = sources
                    .source(i)
                    .sorted_access(position, false)
                    .expect("position within list bounds");
                last_scores[i] = entry.score;

                if self.memoize && buffer.was_offered(entry.item) {
                    continue;
                }
                locals[i] = entry.score;
                sources.prefetch_random(entry.item, i, false, false);
                for j in (0..m).filter(|&j| j != i) {
                    let ps = sources
                        .source(j)
                        .random_access(entry.item, false, false)
                        .expect("every item appears in every list");
                    locals[j] = ps.score;
                }
                buffer.offer(entry.item, query.combine(&locals));
            }

            // Threshold from the last scores seen under sorted access.
            let threshold = query.combine(&last_scores);
            if buffer.has_k_at_or_above(threshold) {
                stop_position = pos;
                break 'rounds;
            }
        }

        let stats = collect_stats(
            sources,
            Some(stop_position),
            stop_position as u64,
            buffer.offered_count(),
        );
        // Any unresolved item sits below the stopping position in every
        // list, so `last_scores` bounds its local scores (the fact behind
        // the δ stopping rule, recorded for standing queries).
        let (ranked, certificate) = buffer.finish(Some(last_scores));
        Ok(TopKResult::new(ranked, stats).with_certificate(certificate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::NaiveScan;
    use crate::examples_paper::{figure1_database, figure2_database};
    use crate::scoring::{Average, Min};

    #[test]
    fn example2_stops_at_position_6_with_the_papers_access_counts() {
        // "TA stops at position 6 … the total number of sorted accesses is
        // 6·3 = 18 and the number of random accesses is 18·2 = 36."
        let db = figure1_database();
        let result = Ta::literal().run(&db, &TopKQuery::top(3)).unwrap();
        let stats = result.stats();
        assert_eq!(stats.stop_position, Some(6));
        assert_eq!(stats.accesses.sorted, 18);
        assert_eq!(stats.accesses.random, 36);
        assert_eq!(stats.accesses.direct, 0);
        let ids: Vec<u64> = result.item_ids().iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![8, 3, 5]);
        let scores: Vec<f64> = result.scores().iter().map(|s| s.value()).collect();
        assert_eq!(scores, vec![71.0, 70.0, 70.0]);
    }

    #[test]
    fn memoizing_variant_reduces_random_accesses_only() {
        let db = figure1_database();
        let literal = Ta::literal().run(&db, &TopKQuery::top(3)).unwrap();
        let cached = Ta::memoizing().run(&db, &TopKQuery::top(3)).unwrap();
        // Same stopping position (the threshold does not depend on
        // memoization), same answers, fewer or equal random accesses.
        assert_eq!(literal.stats().stop_position, cached.stats().stop_position);
        assert!(cached.scores_match(&literal, 1e-9));
        assert_eq!(
            literal.stats().accesses.sorted,
            cached.stats().accesses.sorted
        );
        assert!(cached.stats().accesses.random < literal.stats().accesses.random);
        assert!(Ta::memoizing().is_memoizing());
        assert!(!Ta::literal().is_memoizing());
        assert_eq!(Ta::default(), Ta::literal());
        assert_eq!(Ta::literal().name(), "ta");
        assert_eq!(Ta::memoizing().name(), "ta-cached");
    }

    #[test]
    fn agrees_with_the_naive_scan_on_both_fixtures() {
        for db in [figure1_database(), figure2_database()] {
            for k in [1, 2, 3, 5, 9, 12] {
                let ta = Ta::literal().run(&db, &TopKQuery::top(k)).unwrap();
                let naive = NaiveScan.run(&db, &TopKQuery::top(k)).unwrap();
                assert!(ta.scores_match(&naive, 1e-9), "k = {k}");
            }
        }
    }

    #[test]
    fn works_with_other_monotone_functions() {
        let db = figure1_database();
        for k in [1, 3] {
            let by_min = Ta::literal().run(&db, &TopKQuery::new(k, Min)).unwrap();
            let naive_min = NaiveScan.run(&db, &TopKQuery::new(k, Min)).unwrap();
            assert!(by_min.scores_match(&naive_min, 1e-9));
            let by_avg = Ta::literal().run(&db, &TopKQuery::new(k, Average)).unwrap();
            let naive_avg = NaiveScan.run(&db, &TopKQuery::new(k, Average)).unwrap();
            assert!(by_avg.scores_match(&naive_avg, 1e-9));
        }
    }

    #[test]
    fn stops_no_later_than_fa() {
        use crate::algorithms::Fa;
        let db = figure1_database();
        for k in 1..=6 {
            let ta = Ta::literal().run(&db, &TopKQuery::top(k)).unwrap();
            let fa = Fa.run(&db, &TopKQuery::top(k)).unwrap();
            assert!(
                ta.stats().stop_position.unwrap() <= fa.stats().stop_position.unwrap(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn random_access_count_is_m_minus_one_per_sorted_access() {
        let db = figure2_database();
        let result = Ta::literal().run(&db, &TopKQuery::top(3)).unwrap();
        let stats = result.stats();
        assert_eq!(stats.accesses.random, stats.accesses.sorted * 2);
    }

    #[test]
    fn invalid_k_is_rejected() {
        let db = figure1_database();
        assert!(Ta::literal().run(&db, &TopKQuery::top(0)).is_err());
        assert!(Ta::literal().run(&db, &TopKQuery::top(100)).is_err());
    }
}
