//! The Three-Phase Uniform Threshold algorithm (TPUT), the related-work
//! baseline discussed in Section 7 of the paper.
//!
//! TPUT (Cao & Wang, PODC 2004) answers top-k queries with a bounded number
//! of round trips: phase 1 fetches the top-k of every list and computes a
//! lower bound `τ₁` on the k-th best overall score from partial sums;
//! phase 2 fetches from every list all entries whose local score is at
//! least the *uniform threshold* `T = τ₁ / m` and re-estimates the bound as
//! `τ₂`; phase 3 resolves, by random access, the exact score of every
//! remaining candidate whose upper bound reaches `τ₂`.
//!
//! The paper contrasts it with BPA/BPA2: "there are many databases over
//! which TPUT is not instance optimal … if one of the lists has n data
//! items with a fixed value that is just over the threshold of TPUT, then
//! all data items must be retrieved". The tests below include exactly that
//! pathological family.
//!
//! TPUT's pruning rule is specific to the **sum** scoring function, so this
//! implementation rejects queries that use any other function (via the
//! typed [`ScoringFunction::supports_partial_sums`] capability, not the
//! display name). Unlike the original formulation, which assumes
//! non-negative frequencies, the score bounds here fall back to list-tail
//! floors so the algorithm stays correct on negative local scores (e.g.
//! the Gaussian workload family).
//!
//! [`ScoringFunction::supports_partial_sums`]: crate::scoring::ScoringFunction::supports_partial_sums

use std::collections::HashMap;

use topk_lists::source::SourceSet;
use topk_lists::{ItemId, Position, Score};

use crate::algorithms::{collect_stats, TopKAlgorithm};
use crate::error::TopKError;
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::topk_buffer::TopKBuffer;

/// The Three-Phase Uniform Threshold algorithm (sum scoring only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tput;

/// Per-item bookkeeping across the three phases.
#[derive(Debug, Clone)]
struct Candidate {
    /// Known local scores (`None` where the item has not been seen).
    locals: Vec<Option<Score>>,
}

impl Candidate {
    fn new(m: usize) -> Self {
        Candidate {
            locals: vec![None; m],
        }
    }

    /// Lower bound on the overall (sum) score. Unknown scores count as
    /// `floors[i]`: 0 where list `i` is non-negative (the classic TPUT
    /// bound — TPUT was designed for frequency counts), otherwise the
    /// list's tail score, which stays sound when local scores can be
    /// negative (e.g. the Gaussian workload family).
    fn lower_bound(&self, floors: &[f64]) -> f64 {
        self.locals
            .iter()
            .zip(floors)
            .map(|(s, &floor)| s.map(|s| s.value()).unwrap_or(floor))
            .sum()
    }

    /// Upper bound on the overall (sum) score: unknown scores count as the
    /// phase-2 threshold `t` (no unseen local score can reach `t`, otherwise
    /// phase 2 would have returned it).
    fn upper_bound(&self, t: f64) -> f64 {
        self.locals
            .iter()
            .map(|s| s.map(|s| s.value()).unwrap_or(t))
            .sum()
    }
}

/// The k-th largest value of `values` (or the smallest value when fewer
/// than k are present), used for the τ₁ / τ₂ bounds.
fn kth_largest(values: &mut [f64], k: usize) -> f64 {
    values.sort_by(|a, b| b.total_cmp(a));
    if values.is_empty() {
        0.0
    } else {
        values[(k - 1).min(values.len() - 1)]
    }
}

impl TopKAlgorithm for Tput {
    fn name(&self) -> &'static str {
        "tput"
    }

    fn execute(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        // Typed capability check, NOT a name comparison: a scorer merely
        // *named* "sum" must still be rejected, otherwise TPUT's uniform
        // threshold prunes unsoundly.
        if !query.scoring().supports_partial_sums() {
            return Err(TopKError::UnsupportedScoring {
                algorithm: "tput",
                scoring: query.scoring().name().to_owned(),
            });
        }
        let m = sources.num_lists();
        let n = sources.num_items();
        let k = query.k();

        let mut candidates: HashMap<ItemId, Candidate> = HashMap::new();
        // How deep phase 1/2 has read each list under sorted access, so
        // phase 2 continues where phase 1 stopped instead of re-reading.
        let mut depth = vec![0usize; m];
        // Per-list floor for unseen local scores: 0 for non-negative lists
        // (canonical TPUT), the tail score where scores go negative. Tail
        // scores are catalog metadata (the minimum of a sorted list), not
        // accounted accesses.
        let floors: Vec<f64> = (0..m)
            .map(|i| sources.source_ref(i).tail_score().value().min(0.0))
            .collect();

        // Phase 1: top-k of every list.
        sources.begin_round();
        for (i, list_depth) in depth.iter_mut().enumerate() {
            for pos in 1..=k.min(n) {
                let entry = sources
                    .source(i)
                    .sorted_access(Position::new(pos).expect("pos >= 1"), false)
                    .expect("position within list bounds");
                candidates
                    .entry(entry.item)
                    .or_insert_with(|| Candidate::new(m))
                    .locals[i] = Some(entry.score);
                *list_depth = pos;
            }
        }
        let mut lower_bounds: Vec<f64> = candidates
            // lint:allow(deterministic-iteration) -- folded to the k-th largest scalar; order unobservable
            .values()
            .map(|c| c.lower_bound(&floors))
            .collect();
        let tau1 = kth_largest(&mut lower_bounds, k);
        // The uniform threshold τ₁/m. It must NOT be clamped to 0: with
        // negative local scores a negative τ₁ genuinely requires reading
        // further down the lists (an item unseen everywhere only has
        // overall score < m·T = τ₁ if phase 2 ran down to T).
        let threshold = tau1 / m as f64;

        // Phase 2: every entry with a local score >= T, per list.
        sources.begin_round();
        for (i, list_depth) in depth.iter_mut().enumerate() {
            let mut pos = *list_depth + 1;
            while pos <= n {
                let entry = sources
                    .source(i)
                    .sorted_access(Position::new(pos).expect("pos >= 1"), false)
                    .expect("position within list bounds");
                *list_depth = pos;
                if entry.score.value() < threshold {
                    break;
                }
                candidates
                    .entry(entry.item)
                    .or_insert_with(|| Candidate::new(m))
                    .locals[i] = Some(entry.score);
                pos += 1;
            }
        }
        let mut lower_bounds: Vec<f64> = candidates
            // lint:allow(deterministic-iteration) -- folded to the k-th largest scalar; order unobservable
            .values()
            .map(|c| c.lower_bound(&floors))
            .collect();
        let tau2 = kth_largest(&mut lower_bounds, k);

        // Phase 3: prune by upper bound, then resolve the survivors exactly.
        sources.begin_round();
        let mut buffer = TopKBuffer::new(k, n);
        let mut items_scored = 0usize;
        // Resolve in item-id order, not hash order: the *sequence* of
        // random accesses must be deterministic so that physical-layer
        // observers (the paged backend's cache hit/miss counters) see
        // identical runs, not just identical totals.
        let mut survivors: Vec<(&ItemId, &Candidate)> = candidates.iter().collect();
        survivors.sort_unstable_by_key(|(item, _)| **item);
        for (item, candidate) in survivors {
            if candidate.upper_bound(threshold) < tau2 {
                continue;
            }
            let mut locals = Vec::with_capacity(m);
            for (i, local) in candidate.locals.iter().enumerate() {
                match local {
                    Some(score) => locals.push(*score),
                    None => {
                        let ps = sources
                            .source(i)
                            .random_access(*item, false, false)
                            .expect("every item appears in every list");
                        locals.push(ps.score);
                    }
                }
            }
            items_scored += 1;
            buffer.offer(*item, query.combine(&locals));
        }

        let stats = collect_stats(
            sources,
            Some(*depth.iter().max().expect("m >= 1")),
            3,
            items_scored,
        );
        Ok(TopKResult::new(buffer.into_ranked(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bpa2, NaiveScan};
    use crate::examples_paper::{figure1_database, figure2_database};
    use crate::scoring::Min;
    use topk_lists::Database;

    #[test]
    fn agrees_with_the_naive_scan_on_the_fixtures() {
        for db in [figure1_database(), figure2_database()] {
            for k in [1, 3, 7, 12] {
                let query = TopKQuery::top(k);
                let tput = Tput.run(&db, &query).unwrap();
                let naive = NaiveScan.run(&db, &query).unwrap();
                assert!(tput.scores_match(&naive, 1e-9), "k = {k}");
            }
        }
    }

    #[test]
    fn runs_three_phases() {
        let db = figure1_database();
        let result = Tput.run(&db, &TopKQuery::top(3)).unwrap();
        assert_eq!(result.stats().rounds, 3);
        assert!(
            result.stats().accesses.sorted >= 9,
            "phase 1 reads top-3 of each list"
        );
        assert_eq!(Tput.name(), "tput");
    }

    #[test]
    fn rejects_non_sum_scoring() {
        let db = figure1_database();
        let err = Tput.run(&db, &TopKQuery::new(2, Min)).unwrap_err();
        assert!(matches!(
            err,
            TopKError::UnsupportedScoring {
                algorithm: "tput",
                ..
            }
        ));
        assert!(err.to_string().contains("tput"));
    }

    /// Regression test for the scoring gate: a scorer that *calls itself*
    /// "sum" but computes something else must still be rejected. The old
    /// gate compared `scoring().name() != "sum"` and would have run TPUT's
    /// sum-specific pruning over min scoring, silently returning wrong
    /// answers.
    #[test]
    fn rejects_a_mis_named_non_sum_scorer() {
        use crate::scoring::ScoringFunction;
        use topk_lists::Score;

        struct MisnamedMin;
        impl ScoringFunction for MisnamedMin {
            fn combine(&self, locals: &[Score]) -> Score {
                locals.iter().copied().min().unwrap_or(Score::ZERO)
            }
            fn name(&self) -> &str {
                "sum" // lies about its identity
            }
        }

        let db = figure1_database();
        let query = TopKQuery::new(3, MisnamedMin);
        assert_eq!(query.scoring().name(), "sum");
        let err = Tput.run(&db, &query).unwrap_err();
        assert!(
            matches!(
                err,
                TopKError::UnsupportedScoring {
                    algorithm: "tput",
                    ..
                }
            ),
            "typed gate must not trust the display name, got {err:?}"
        );
    }

    #[test]
    fn invalid_k_is_rejected() {
        let db = figure1_database();
        assert!(Tput.run(&db, &TopKQuery::top(0)).is_err());
    }

    /// Regression test: with negative local scores (the Gaussian workload
    /// family) the classic "unknown counts as 0" lower bound and a
    /// 0-clamped uniform threshold both over-prune and silently returned
    /// wrong answers. The bounds must fall back to the list tails.
    #[test]
    fn agrees_with_naive_on_negative_scores() {
        let mut state = 0xBADC_0FFE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2_000) as f64 / 100.0 - 10.0 // [-10, 10)
        };
        let lists: Vec<Vec<(u64, f64)>> = (0..3)
            .map(|_| (0..80u64).map(|item| (item, next())).collect())
            .collect();
        let db = Database::from_unsorted_lists(lists).unwrap();
        for k in [1, 5, 40, 80] {
            let query = TopKQuery::top(k);
            let tput = Tput.run(&db, &query).unwrap();
            let naive = NaiveScan.run(&db, &query).unwrap();
            assert!(tput.scores_match(&naive, 1e-9), "k = {k}");
        }
    }

    /// When the overall winners sit at the top of every list, TPUT's
    /// uniform threshold is high, phase 2 returns almost nothing and TPUT
    /// is far cheaper than a full scan.
    #[test]
    fn well_behaved_database_is_cheap() {
        let n = 400u64;
        let lists: Vec<Vec<(u64, f64)>> = (0..2)
            .map(|_| {
                (0..n)
                    .map(|d| match d {
                        0 => (0, 100.0),
                        1 => (1, 99.0),
                        _ => (d, 1.0 - d as f64 * 1e-4),
                    })
                    .collect()
            })
            .collect();
        let db = Database::from_unsorted_lists(lists).unwrap();
        let query = TopKQuery::top(2);
        let tput = Tput.run(&db, &query).unwrap();
        let naive = NaiveScan.run(&db, &query).unwrap();
        assert!(tput.scores_match(&naive, 1e-9));
        assert!(tput.stats().total_accesses() * 10 < naive.stats().total_accesses());
    }

    /// The non-instance-optimality example of Section 7: one list holds a
    /// long plateau of items whose fixed value is just over TPUT's uniform
    /// threshold, forcing phase 2 to retrieve essentially the whole list,
    /// while BPA2 stops after a handful of positions.
    #[test]
    fn pathological_database_shows_non_instance_optimality() {
        let n = 400u64;
        let k = 2usize;
        // List 1: the true winners d0, d1 on top, then a long plateau of
        // scores ~5. List 2: its own top entries (d2, d3) are modest, the
        // winners sit a little below them, everything else is tiny. Phase 1
        // therefore sees partial sums of at most 10, giving the uniform
        // threshold T = tau1 / m = 4.5 — just below the plateau, so phase 2
        // must fetch the entire plateau of list 1.
        let list1: Vec<(u64, f64)> = (0..n)
            .map(|d| match d {
                0 => (0, 10.0),
                1 => (1, 9.0),
                _ => (d, 5.0 - d as f64 * 1e-5),
            })
            .collect();
        let list2: Vec<(u64, f64)> = (0..n)
            .map(|d| match d {
                2 => (2, 5.5),
                3 => (3, 5.4),
                0 => (0, 4.9),
                1 => (1, 4.8),
                _ => (d, 0.2 - d as f64 * 1e-5),
            })
            .collect();
        let db = Database::from_unsorted_lists(vec![list1, list2]).unwrap();
        let query = TopKQuery::top(k);

        let tput = Tput.run(&db, &query).unwrap();
        let bpa2 = Bpa2.run(&db, &query).unwrap();
        let naive = NaiveScan.run(&db, &query).unwrap();

        // Both are correct (top-2 = d0 with 14.9, d1 with 13.8)...
        assert!(tput.scores_match(&naive, 1e-9));
        assert!(bpa2.scores_match(&naive, 1e-9));
        assert_eq!(naive.items()[0].item, ItemId(0));

        // ...but TPUT reads the whole plateau of list 1 while BPA2's best
        // positions let it stop within the first few positions.
        assert!(
            tput.stats().accesses.sorted as usize >= db.num_items(),
            "phase 2 should have read (at least) all of list 1"
        );
        assert!(
            tput.stats().total_accesses() > 10 * bpa2.stats().total_accesses(),
            "TPUT did {} accesses, BPA2 only {}",
            tput.stats().total_accesses(),
            bpa2.stats().total_accesses()
        );
    }
}
