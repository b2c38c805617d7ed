//! Graceful degradation: certified best-effort answers when a list is
//! irrecoverably down.
//!
//! The fail-stop contract turns a dead list owner into a typed
//! [`TopKError::Source`] — but refusing the whole query because one of
//! `m` sites is down wastes the `m − 1` sites that still answer. In the
//! spirit of consistent query answering over inconsistent data (answer
//! what you can, with sound guarantees), [`run_on_degraded`] executes
//! the query over the **surviving** lists and returns a
//! [`DegradedAnswer`]: the best-effort top-k by surviving score, plus a
//! sound per-item interval on the *true* overall score obtained by
//! bracketing every dead list's contribution with its [`ListOutage`]
//! bounds — `[floor, ceiling]` = `[tail score, last seen (or top)
//! score]`, catalog facts that hold for every item of a sorted list.
//!
//! Soundness (additive scoring): for any item `d` with surviving partial
//! score `S(d)`, its true overall score lies in
//! `[S(d) + Σ floor_i, S(d) + Σ ceiling_i]` over the dead lists `i`,
//! because each dead list scores `d` somewhere between its tail and its
//! deepest *unseen* bound. The intervals require the query's scoring
//! function to be the plain sum
//! ([`ScoringFunction::supports_partial_sums`](crate::scoring::ScoringFunction::supports_partial_sums));
//! any other function yields [`TopKError::UnsupportedScoring`].
//!
//! The [`RunCertificate`](crate::RunCertificate) bound machinery
//! supplies the flip side: when
//! the surviving run certifies per-list bounds on unresolved items,
//! [`DegradedAnswer::unresolved_ceiling`] caps the true score of every
//! item the answer does *not* contain, so a caller can even tell when
//! the degraded ranking is provably exact.

use topk_lists::source::SourceSet;
use topk_lists::Score;

use crate::algorithms::TopKAlgorithm;
use crate::error::TopKError;
use crate::query::TopKQuery;
use crate::result::RankedItem;
use crate::stats::RunStats;

/// The catalog bracket for one irrecoverably dead list: every item of
/// that list has a local score in `[floor, ceiling]`.
///
/// `floor` is the list's tail score and `ceiling` its top score — both
/// catalog metadata known at registration time — or a tighter `ceiling`
/// when the failed session had already seen a sorted prefix (the score
/// at the deepest position seen bounds every *unseen* item; items seen
/// in the prefix score at most the top score, so a sound caller only
/// tightens `ceiling` to the last seen score when the returned items
/// were not among the seen prefix — the catalog top score is always
/// safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListOutage {
    /// 0-based index of the dead list *in the full (pre-outage) layout*.
    pub list: usize,
    /// Lower bound on any item's local score in the dead list.
    pub floor: Score,
    /// Upper bound on any item's local score in the dead list.
    pub ceiling: Score,
}

/// A sound bracket on one returned item's true overall score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreInterval {
    /// The true score is at least this (surviving score + dead floors).
    pub lo: Score,
    /// The true score is at most this (surviving score + dead ceilings).
    pub hi: Score,
}

impl ScoreInterval {
    /// Whether `score` lies within the bracket (inclusive).
    pub fn contains(&self, score: Score) -> bool {
        self.lo <= score && score <= self.hi
    }

    /// Width of the bracket — the score uncertainty the outage costs.
    pub fn width(&self) -> f64 {
        self.hi.value() - self.lo.value()
    }
}

/// The certified best-effort answer of a query run with dead lists.
///
/// `items` rank by **surviving** partial score (descending, ties by
/// ascending item id); each item's true overall score is bracketed by
/// the matching entry of `intervals`. The ranking itself is best-effort:
/// a dead list could reorder items whose intervals overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedAnswer {
    /// Best-effort top-k, scored over the surviving lists only.
    pub items: Vec<RankedItem>,
    /// One sound true-score bracket per entry of `items`.
    pub intervals: Vec<ScoreInterval>,
    /// The outage brackets the answer was computed under.
    pub outages: Vec<ListOutage>,
    /// Upper bound on the true score of every item **not** in `items`,
    /// when the surviving run produced per-list certificate bounds:
    /// an unreturned item either went unresolved (surviving score at
    /// most the sum of the certificate's per-list bounds) or was
    /// resolved but lost the top-k cut (surviving score at most the
    /// k-th returned surviving score) — the larger of the two, plus
    /// the dead ceilings, caps both cases. `None` when the algorithm
    /// offers no certificate (e.g. TPUT).
    pub unresolved_ceiling: Option<Score>,
    /// Statistics of the surviving run.
    pub stats: RunStats,
}

impl DegradedAnswer {
    /// Whether the degraded ranking is provably the true top-k set: the
    /// lowest returned lower bound dominates the ceiling of every
    /// unreturned item. (`false` when no certificate was available —
    /// "unproven", not "wrong".)
    pub fn provably_complete(&self) -> bool {
        match (self.intervals.last(), self.unresolved_ceiling) {
            (Some(last), Some(ceiling)) => last.lo >= ceiling,
            _ => false,
        }
    }
}

/// Runs `algorithm` over the surviving sources and certifies the answer
/// against the dead lists' `outages` brackets.
///
/// `sources` must contain **only the surviving lists**; `outages`
/// describes the dead ones (in the full layout's indexing, for
/// reporting). Requires an additive scoring function
/// ([`ScoringFunction::supports_partial_sums`](crate::scoring::ScoringFunction::supports_partial_sums)) —
/// interval addition is unsound for anything else — and at least one
/// outage (with none, call
/// [`run_on`](crate::algorithms::TopKAlgorithm::run_on)), each naming a
/// different list: a repeated list would add its bracket twice, and the
/// lower bound could then exceed the true score.
pub fn run_on_degraded(
    algorithm: &dyn TopKAlgorithm,
    sources: &mut dyn SourceSet,
    query: &TopKQuery,
    outages: &[ListOutage],
) -> Result<DegradedAnswer, TopKError> {
    assert!(
        !outages.is_empty(),
        "no outages: run the query through run_on instead"
    );
    let distinct: std::collections::BTreeSet<usize> = outages.iter().map(|o| o.list).collect();
    assert_eq!(
        distinct.len(),
        outages.len(),
        "an outage names a list twice: its bracket would be added twice"
    );
    if !query.scoring().supports_partial_sums() {
        return Err(TopKError::UnsupportedScoring {
            algorithm: "run_on_degraded",
            scoring: query.scoring().name().to_string(),
        });
    }
    let result = algorithm.run_on(sources, query)?;
    let floor_sum: f64 = outages.iter().map(|o| o.floor.value()).sum();
    let ceiling_sum: f64 = outages.iter().map(|o| o.ceiling.value()).sum();
    let intervals = result
        .items()
        .iter()
        .map(|r| ScoreInterval {
            lo: Score::from_f64(r.score.value() + floor_sum),
            hi: Score::from_f64(r.score.value() + ceiling_sum),
        })
        .collect();
    let unresolved_ceiling = result
        .certificate()
        .and_then(|c| c.bounds.as_ref())
        .map(|bounds| {
            let unresolved: f64 = bounds.iter().map(|b| b.value()).sum();
            let cut = result.min_score().map_or(0.0, |s| s.value());
            Score::from_f64(unresolved.max(cut) + ceiling_sum)
        });
    if topk_trace::active() {
        topk_trace::record(topk_trace::TraceEvent::DegradedServe {
            dead_lists: outages.len() as u64,
            k: query.k() as u64,
        });
    }
    Ok(DegradedAnswer {
        items: result.items().to_vec(),
        intervals,
        outages: outages.to_vec(),
        unresolved_ceiling,
        stats: result.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AlgorithmKind, NaiveScan};
    use crate::scoring::Average;
    use topk_lists::source::Sources;
    use topk_lists::{Database, ItemId};

    fn db() -> Database {
        Database::from_unsorted_lists(vec![
            vec![(1, 30.0), (2, 11.0), (3, 26.0), (4, 5.0)],
            vec![(1, 21.0), (2, 28.0), (3, 14.0), (4, 9.0)],
            vec![(1, 10.0), (2, 25.0), (3, 12.0), (4, 2.0)],
        ])
        .unwrap()
    }

    /// The surviving view: lists of `db` minus `dead`, with the outage
    /// bracket built from the dead list's catalog (tail/top scores).
    fn surviving(database: &Database, dead: usize) -> (Database, ListOutage) {
        let lists: Vec<Vec<(u64, f64)>> = (0..database.num_lists())
            .filter(|&l| l != dead)
            .map(|l| {
                let list = database.list(l).unwrap();
                (1..=list.len())
                    .map(|p| {
                        let e = list
                            .entry_at(topk_lists::Position::new(p).unwrap())
                            .unwrap();
                        (e.item.0, e.score.value())
                    })
                    .collect()
            })
            .collect();
        let dead_list = database.list(dead).unwrap();
        let outage = ListOutage {
            list: dead,
            floor: dead_list.last_entry().score,
            ceiling: dead_list
                .entry_at(topk_lists::Position::FIRST)
                .unwrap()
                .score,
        };
        (Database::from_unsorted_lists(lists).unwrap(), outage)
    }

    fn true_score(database: &Database, item: ItemId) -> f64 {
        database
            .local_scores(item)
            .unwrap()
            .iter()
            .map(|s| s.value())
            .sum()
    }

    #[test]
    fn intervals_contain_the_true_scores_for_every_algorithm_and_outage() {
        let full = db();
        let query = TopKQuery::top(2);
        for dead in 0..full.num_lists() {
            let (alive, outage) = surviving(&full, dead);
            for kind in AlgorithmKind::ALL {
                let mut sources = Sources::in_memory(&alive);
                let answer =
                    run_on_degraded(kind.create().as_ref(), &mut sources, &query, &[outage])
                        .unwrap();
                assert_eq!(answer.items.len(), 2, "{kind:?} dead={dead}");
                for (r, interval) in answer.items.iter().zip(&answer.intervals) {
                    let truth = Score::from_f64(true_score(&full, r.item));
                    assert!(
                        interval.contains(truth),
                        "{kind:?} dead={dead} item={:?}: {truth:?} outside \
                         [{:?}, {:?}]",
                        r.item,
                        interval.lo,
                        interval.hi
                    );
                    assert!(interval.width() >= 0.0);
                }
                // Unreturned items respect the certified ceiling.
                if let Some(ceiling) = answer.unresolved_ceiling {
                    let returned: Vec<ItemId> = answer.items.iter().map(|r| r.item).collect();
                    for id in 1..=4u64 {
                        let item = ItemId(id);
                        if !returned.contains(&item) {
                            assert!(
                                Score::from_f64(true_score(&full, item)) <= ceiling,
                                "{kind:?} dead={dead}: unreturned {item:?} beats the ceiling"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_additive_scoring_is_rejected() {
        let full = db();
        let (alive, outage) = surviving(&full, 0);
        let mut sources = Sources::in_memory(&alive);
        let query = TopKQuery::new(2, Average);
        let err = run_on_degraded(&NaiveScan, &mut sources, &query, &[outage]).unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedScoring { .. }));
    }

    #[test]
    #[should_panic(expected = "no outages")]
    fn empty_outages_are_a_caller_bug() {
        let full = db();
        let mut sources = Sources::in_memory(&full);
        let _ = run_on_degraded(&NaiveScan, &mut sources, &TopKQuery::top(1), &[]);
    }

    #[test]
    #[should_panic(expected = "names a list twice")]
    fn repeated_outages_are_a_caller_bug() {
        let full = db();
        let (alive, outage) = surviving(&full, 2);
        let mut sources = Sources::in_memory(&alive);
        let _ = run_on_degraded(
            &NaiveScan,
            &mut sources,
            &TopKQuery::top(1),
            &[outage, outage],
        );
    }

    #[test]
    fn provably_complete_when_the_bracket_separates() {
        let full = db();
        // Dead list 2's scores are small (2..=25); a naive scan of the
        // survivors resolves every item, so the certificate separates
        // whenever the k-th lower bound beats the unresolved ceiling.
        let (alive, outage) = surviving(&full, 2);
        let mut sources = Sources::in_memory(&alive);
        let answer =
            run_on_degraded(&NaiveScan, &mut sources, &TopKQuery::top(2), &[outage]).unwrap();
        // NaiveScan certifies zero bounds for unresolved items (it
        // resolves everything), so the ceiling is just the dead one.
        assert!(answer.unresolved_ceiling.is_some());
        assert_eq!(answer.outages, vec![outage]);
    }
}
