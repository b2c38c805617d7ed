//! Standing top-k queries over updatable lists: serve the cached answer,
//! absorb the updates that provably cannot change it, re-run only when one
//! might.
//!
//! A monitoring workload asks the *same* top-k query again and again while
//! the lists mutate underneath it. Re-running an algorithm per read is
//! wasted work: the stopping conditions of the threshold family prove more
//! than the answer — they prove every unseen item is bounded away from it.
//! [`StandingQuery`] keeps that proof (the run's
//! [`RunCertificate`](crate::result::RunCertificate)) together with the
//! answer and the per-list [epochs](topk_lists::SortedList::epoch) it was
//! computed at, and classifies every incoming [`UpdateEvent`]:
//!
//! * **Absorbed** — the update provably leaves the top-k unchanged (its
//!   item's overall score, or a monotone upper bound on it built from the
//!   certificate's per-list bounds, still loses to the cached k-th
//!   answer). Nothing is executed and **no list is accessed**; only the
//!   cached epochs and side-books advance.
//! * **Needs refresh** — the update might beat the cached threshold (or
//!   epoch continuity broke because events were missed), so the next read
//!   re-runs the planner-chosen algorithm from scratch.
//!
//! Reads go through [`StandingQuery::serve`]: when the cached epochs match
//! the sources' observed epochs the cached answer is returned without a
//! single list access; any `k' ≤ k` prefix is served the same way
//! ([`StandingQuery::prefix`]), since the top-`k'` answer is exactly the
//! first `k'` entries of the cached top-k.
//!
//! Absorption is deliberately conservative — `refresh when in doubt` — so
//! served answers are **bit-identical** to a from-scratch run at every
//! step. The rules, for an update of item `d` (never in the cached
//! answer; answer items always refresh):
//!
//! * a score *decrease* always absorbs: `d`'s overall score was at most
//!   the k-th answer's and monotonicity keeps it there;
//! * if the run *resolved* `d` and the scoring is the plain sum, the new
//!   overall score is recomputed by exact delta (with a rounding-safe
//!   margin) and compared against the k-th answer;
//! * if `d` was *unresolved*, its overall score is upper-bounded by
//!   substituting the certificate's per-list bounds for the coordinates
//!   not known exactly (the updated coordinate itself is exact, as are
//!   coordinates remembered from previously absorbed events);
//! * inserts carry their full score vector, so the comparison is exact;
//!   deletes of non-answer items absorb outright.

use topk_lists::source::SourceSet;
use topk_lists::{ItemId, ItemMap, Score, ScoreUpdate};

use crate::algorithms::AlgorithmKind;
use crate::error::TopKError;
use crate::planner::plan_and_run_on;
use crate::query::TopKQuery;
use crate::result::{RankedItem, TopKResult};
use crate::stats::DatabaseStats;

/// One observed mutation of the underlying database, as fed to
/// [`StandingQuery::ingest`]. Events must be delivered in mutation order;
/// a gap in the per-list epochs marks the cache dirty (conservative, not
/// an error).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateEvent {
    /// One item's local score changed in one list (the receipt returned
    /// by `update_score` on either backend).
    Score {
        /// The mutated list.
        list: usize,
        /// The mutation receipt, including the list's new epoch.
        update: ScoreUpdate,
    },
    /// A new item was inserted with one local score per list (every
    /// list's epoch advanced by one).
    Insert {
        /// The inserted item.
        item: ItemId,
        /// Its local scores, in list order.
        scores: Vec<Score>,
        /// The per-list epochs after the insert.
        epochs: Vec<u64>,
    },
    /// An item was deleted from every list (every list's epoch advanced
    /// by one).
    Delete {
        /// The deleted item.
        item: ItemId,
        /// The per-list epochs after the delete.
        epochs: Vec<u64>,
    },
}

/// How [`StandingQuery::ingest`] classified an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The update provably cannot change the cached answer; it was
    /// absorbed without accessing any list.
    Absorbed,
    /// The update might change the answer (or continuity broke); the next
    /// [`serve`](StandingQuery::serve) re-runs the planner-chosen
    /// algorithm. The string says why, for diagnostics.
    NeedsRefresh(&'static str),
}

impl IngestOutcome {
    /// Whether the update was absorbed.
    pub fn is_absorbed(&self) -> bool {
        matches!(self, IngestOutcome::Absorbed)
    }
}

/// Updates absorbed without any execution, broken down by the kind of
/// [`UpdateEvent`] that was absorbed. Score changes split by direction
/// because the absorption argument differs: decreases of non-answer
/// items are always safe, increases need a bound check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsorbedBreakdown {
    /// Score increases of non-answer items absorbed after a bound check.
    pub score_ups: u64,
    /// Score decreases of non-answer items (always safe to absorb).
    pub score_downs: u64,
    /// Inserts whose exact overall score cannot enter the answer.
    pub inserts: u64,
    /// Deletes of non-answer items (with more than `k` items remaining).
    pub deletes: u64,
}

impl AbsorbedBreakdown {
    /// Total updates absorbed across all kinds.
    pub fn total(&self) -> u64 {
        self.score_ups + self.score_downs + self.inserts + self.deletes
    }
}

/// Everything cached from the last execution: the answer, the evidence,
/// and the side-books that absorbed events maintain.
#[derive(Debug, Clone)]
struct CacheEntry {
    result: TopKResult,
    algorithm: AlgorithmKind,
    /// Per-list epochs the cache is valid at (advanced by absorbed
    /// events).
    epochs: Vec<u64>,
    /// The k-th (weakest) cached answer — the bar an update must beat.
    kth: RankedItem,
    /// Certificate bounds: per-list upper bounds on unresolved items'
    /// local scores, when the algorithm proved them.
    bounds: Option<Vec<Score>>,
    /// Upper bounds on the overall scores of items the run resolved
    /// (exact at refresh time; kept as sound upper bounds as decreases
    /// are absorbed).
    resolved: ItemMap<Score>,
    /// Exactly-known local scores learned from absorbed events (inserted
    /// items know every coordinate; updated items know the updated ones).
    known_locals: ItemMap<Vec<Option<Score>>>,
    /// Current number of items per list (maintained across absorbed
    /// inserts/deletes).
    num_items: usize,
}

/// A registered top-k query served incrementally against an updatable
/// database. See the [module docs](self) for the absorption rules.
#[derive(Debug, Clone)]
pub struct StandingQuery {
    query: TopKQuery,
    pinned: Option<AlgorithmKind>,
    cache: Option<CacheEntry>,
    dirty: bool,
    cache_hits: u64,
    absorbed: AbsorbedBreakdown,
    refreshes: u64,
}

impl StandingQuery {
    /// Registers a standing query. No work happens until the first
    /// [`serve`](StandingQuery::serve) (or explicit
    /// [`refresh`](StandingQuery::refresh)).
    pub fn new(query: TopKQuery) -> Self {
        StandingQuery {
            query,
            pinned: None,
            cache: None,
            dirty: true,
            cache_hits: 0,
            absorbed: AbsorbedBreakdown::default(),
            refreshes: 0,
        }
    }

    /// Pins refreshes to one algorithm instead of re-planning each time
    /// (tests and ablation benches; production callers let the planner
    /// choose).
    pub fn pin_algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.pinned = Some(algorithm);
        self
    }

    /// The registered query.
    pub fn query(&self) -> &TopKQuery {
        &self.query
    }

    /// The cached answer, if it is currently valid.
    pub fn answer(&self) -> Option<&TopKResult> {
        if self.dirty {
            return None;
        }
        self.cache.as_ref().map(|c| &c.result)
    }

    /// Serves the top `k'` (`1 ≤ k' ≤ k`) from the cache without any
    /// execution: the top-`k'` answer is the first `k'` entries of the
    /// cached top-k (both use the same descending-score, ascending-id
    /// order). `None` when the cache is invalid or `k'` is out of range.
    pub fn prefix(&self, k: usize) -> Option<&[RankedItem]> {
        let result = self.answer()?;
        (k >= 1 && k <= result.len()).then(|| &result.items()[..k])
    }

    /// The per-list epochs the cached answer is valid at.
    pub fn epochs(&self) -> Option<&[u64]> {
        self.cache.as_ref().map(|c| c.epochs.as_slice())
    }

    /// The algorithm the last refresh executed.
    pub fn algorithm(&self) -> Option<AlgorithmKind> {
        self.cache.as_ref().map(|c| c.algorithm)
    }

    /// Reads served straight from the cache (no execution, no accesses).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Updates absorbed without any execution (all kinds combined).
    pub fn absorbed_updates(&self) -> u64 {
        self.absorbed.total()
    }

    /// Updates absorbed without any execution, by [`UpdateEvent`] kind.
    pub fn absorbed_breakdown(&self) -> AbsorbedBreakdown {
        self.absorbed
    }

    /// Full re-executions performed.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Classifies one observed mutation: absorb it into the cache if it
    /// provably cannot change the answer, otherwise mark the cache dirty
    /// so the next [`serve`](StandingQuery::serve) re-executes. Never
    /// accesses a list either way.
    pub fn ingest(&mut self, event: &UpdateEvent) -> IngestOutcome {
        let kind = match event {
            UpdateEvent::Score { update, .. } if update.is_decrease() => "score_down",
            UpdateEvent::Score { .. } => "score_up",
            UpdateEvent::Insert { .. } => "insert",
            UpdateEvent::Delete { .. } => "delete",
        };
        let outcome = self.classify(event);
        match outcome {
            IngestOutcome::Absorbed => {
                let slot = match kind {
                    "score_down" => &mut self.absorbed.score_downs,
                    "score_up" => &mut self.absorbed.score_ups,
                    "insert" => &mut self.absorbed.inserts,
                    _ => &mut self.absorbed.deletes,
                };
                *slot += 1;
            }
            IngestOutcome::NeedsRefresh(_) => self.dirty = true,
        }
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::StandingIngest {
                kind,
                absorbed: outcome.is_absorbed(),
            });
        }
        outcome
    }

    /// Whether a [`serve`](StandingQuery::serve) against sources
    /// observing these epochs would re-execute instead of answering from
    /// the cache. Lets callers refresh statistics only when an execution
    /// is actually coming.
    pub fn needs_refresh(&self, observed: &[u64]) -> bool {
        self.dirty || self.cache.as_ref().map_or(true, |c| c.epochs != observed)
    }

    /// Serves the answer: straight from the cache when it is valid and
    /// its epochs match the sources' observed epochs (zero accesses), via
    /// a full [`refresh`](StandingQuery::refresh) otherwise.
    pub fn serve(
        &mut self,
        sources: &mut dyn SourceSet,
        stats: &DatabaseStats,
    ) -> Result<&TopKResult, TopKError> {
        let observed = sources.epochs();
        if !self.needs_refresh(&observed) {
            self.cache_hits += 1;
            if topk_trace::active() {
                topk_trace::record(topk_trace::TraceEvent::StandingServe { refreshed: false });
            }
            return Ok(&self.cache.as_ref().expect("checked above").result);
        }
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::StandingServe { refreshed: true });
        }
        self.refresh(sources, stats)
    }

    /// Unconditionally re-executes the query (planner-chosen algorithm,
    /// or the pinned one) and rebuilds the cache from the fresh result
    /// and its certificate. The sources are reset first, so tracker state
    /// from earlier runs cannot leak in.
    pub fn refresh(
        &mut self,
        sources: &mut dyn SourceSet,
        stats: &DatabaseStats,
    ) -> Result<&TopKResult, TopKError> {
        sources.reset();
        let (algorithm, result) = match self.pinned {
            Some(kind) => (kind, kind.create().run_on(sources, &self.query)?),
            None => {
                let (plan, result) = plan_and_run_on(sources, stats, &self.query)?;
                (plan.choice(), result)
            }
        };
        let kth = *result
            .items()
            .last()
            .expect("a validated top-k answer holds k >= 1 items");
        let certificate = result.certificate();
        let bounds = certificate.and_then(|c| c.bounds.clone());
        let resolved = certificate.map(|c| c.resolved.clone()).unwrap_or_default();
        self.cache = Some(CacheEntry {
            algorithm,
            epochs: sources.epochs(),
            kth,
            bounds,
            resolved,
            known_locals: ItemMap::default(),
            num_items: sources.num_items(),
            result,
        });
        self.dirty = false;
        self.refreshes += 1;
        Ok(&self.cache.as_ref().expect("just stored").result)
    }

    /// The classification rules (module docs). Split from `ingest` so the
    /// borrow on the cache entry stays local.
    fn classify(&mut self, event: &UpdateEvent) -> IngestOutcome {
        use IngestOutcome::NeedsRefresh;
        if self.dirty {
            return NeedsRefresh("no valid cached answer");
        }
        let Some(cache) = self.cache.as_mut() else {
            return NeedsRefresh("no valid cached answer");
        };
        let m = cache.epochs.len();
        let exact_delta = self.query.scoring().supports_partial_sums();

        match event {
            UpdateEvent::Score { list, update } => {
                let Some(&cached_epoch) = cache.epochs.get(*list) else {
                    return NeedsRefresh("unknown list index");
                };
                if update.epoch != cached_epoch + 1 {
                    return NeedsRefresh("missed events: epoch continuity broken");
                }
                let d = update.item;
                if cache.result.items().iter().any(|r| r.item == d) {
                    return NeedsRefresh("the updated item is in the answer");
                }
                if update.is_decrease() {
                    // A non-answer item's overall score is at most the
                    // k-th answer's; monotone decrease keeps it there (a
                    // tie was already excluded at the same (score, id)
                    // key). Tighten the books while we're here.
                    if let Some(bound) = cache.resolved.get_mut(&d) {
                        if exact_delta {
                            let tighter = sum_delta_upper(
                                bound.value(),
                                update.old_score.value(),
                                update.new_score.value(),
                                cache.kth.score.value(),
                                m,
                            );
                            *bound = (*bound).min(tighter);
                        }
                    } else {
                        known_coordinate(&mut cache.known_locals, d, *list, m, update.new_score);
                    }
                    cache.epochs[*list] = update.epoch;
                    return IngestOutcome::Absorbed;
                }
                // A score increase of a non-answer item: bound its new
                // overall score and compare against the k-th answer.
                let upper = if let Some(&overall) = cache.resolved.get(&d) {
                    if !exact_delta {
                        return NeedsRefresh(
                            "increase of a resolved item under a non-sum scoring function",
                        );
                    }
                    sum_delta_upper(
                        overall.value(),
                        update.old_score.value(),
                        update.new_score.value(),
                        cache.kth.score.value(),
                        m,
                    )
                } else {
                    let Some(bounds) = cache.bounds.as_deref() else {
                        return NeedsRefresh("the run certified no per-list bounds");
                    };
                    let known = cache.known_locals.get(&d);
                    let locals: Vec<Score> = (0..m)
                        .map(|j| {
                            if j == *list {
                                update.new_score
                            } else {
                                known.and_then(|v| v[j]).unwrap_or(bounds[j])
                            }
                        })
                        .collect();
                    self.query.combine(&locals)
                };
                if beats(upper, d, cache.kth) {
                    return NeedsRefresh("the update may beat the cached threshold");
                }
                if let Some(overall) = cache.resolved.get_mut(&d) {
                    *overall = upper;
                } else {
                    known_coordinate(&mut cache.known_locals, d, *list, m, update.new_score);
                }
                cache.epochs[*list] = update.epoch;
                IngestOutcome::Absorbed
            }
            UpdateEvent::Insert {
                item,
                scores,
                epochs,
            } => {
                if !contiguous(&cache.epochs, epochs) {
                    return NeedsRefresh("missed events: epoch continuity broken");
                }
                if scores.len() != m {
                    return NeedsRefresh("insert score count does not match the list count");
                }
                // The full score vector is known, so this comparison is
                // exact — the same `combine` over the same coordinates a
                // fresh run would use.
                let overall = self.query.combine(scores);
                if beats(overall, *item, cache.kth) {
                    return NeedsRefresh("the inserted item enters the answer");
                }
                cache
                    .known_locals
                    .insert(*item, scores.iter().map(|&s| Some(s)).collect());
                cache.num_items += 1;
                cache.epochs.copy_from_slice(epochs);
                IngestOutcome::Absorbed
            }
            UpdateEvent::Delete { item, epochs } => {
                if !contiguous(&cache.epochs, epochs) {
                    return NeedsRefresh("missed events: epoch continuity broken");
                }
                if cache.result.items().iter().any(|r| r.item == *item) {
                    return NeedsRefresh("the deleted item is in the answer");
                }
                if cache.num_items <= self.query.k() {
                    return NeedsRefresh("the delete shrinks the database below k");
                }
                // Deleting a non-answer item leaves every other item's
                // scores — and therefore the top-k — untouched.
                cache.resolved.remove(item);
                cache.known_locals.remove(item);
                cache.num_items -= 1;
                cache.epochs.copy_from_slice(epochs);
                IngestOutcome::Absorbed
            }
        }
    }
}

impl topk_trace::MetricSource for StandingQuery {
    fn record_metrics(&self, registry: &mut topk_trace::MetricsRegistry) {
        registry.counter_add("standing.cache_hits", self.cache_hits);
        registry.counter_add("standing.refreshes", self.refreshes);
        registry.counter_add("standing.absorbed.score_up", self.absorbed.score_ups);
        registry.counter_add("standing.absorbed.score_down", self.absorbed.score_downs);
        registry.counter_add("standing.absorbed.insert", self.absorbed.inserts);
        registry.counter_add("standing.absorbed.delete", self.absorbed.deletes);
    }
}

/// Whether an item whose overall score is at most `upper` would displace
/// the cached k-th answer under the deterministic (descending score,
/// ascending id) order.
fn beats(upper: Score, item: ItemId, kth: RankedItem) -> bool {
    upper > kth.score || (upper == kth.score && item < kth.item)
}

/// Records one exactly-known local score in the side-book.
fn known_coordinate(
    known_locals: &mut ItemMap<Vec<Option<Score>>>,
    item: ItemId,
    list: usize,
    m: usize,
    score: Score,
) {
    known_locals.entry(item).or_insert_with(|| vec![None; m])[list] = Some(score);
}

/// Whether `next` is exactly one mutation past `current` on every list
/// (inserts and deletes touch all lists at once).
fn contiguous(current: &[u64], next: &[u64]) -> bool {
    current.len() == next.len()
        && current
            .iter()
            .zip(next)
            .all(|(&have, &now)| now == have + 1)
}

/// A sound upper bound on `resolved + (new - old)` under plain-sum
/// scoring: the delta path re-associates the float sum, so the result can
/// differ from a from-scratch `combine` by a few ulps — the margin keeps
/// the bound on the safe (refuse-to-absorb) side.
fn sum_delta_upper(resolved: f64, old: f64, new: f64, scale: f64, m: usize) -> Score {
    let raw = resolved + (new - old);
    let margin = (m as f64 + 2.0) * 4.0 * f64::EPSILON * raw.abs().max(scale.abs()).max(1.0);
    Score::from_f64(raw + margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{NaiveScan, TopKAlgorithm};
    use crate::scoring::Min;
    use topk_lists::source::Sources;
    use topk_lists::Database;

    /// 2 lists, 8 items, identical rankings; sum overalls are
    /// 120, 105, 90, 75, 60, 45, 30, 15 for items 1..=8.
    fn db() -> Database {
        Database::from_unsorted_lists(vec![
            (1..=8u64).map(|i| (i, 90.0 - 10.0 * i as f64)).collect(),
            (1..=8u64).map(|i| (i, 45.0 - 5.0 * i as f64)).collect(),
        ])
        .unwrap()
    }

    fn naive_truth(db: &Database, k: usize) -> TopKResult {
        NaiveScan.run(db, &TopKQuery::top(k)).unwrap()
    }

    fn score_event(db: &Database, list: usize, update: ScoreUpdate) -> UpdateEvent {
        let _ = db;
        UpdateEvent::Score { list, update }
    }

    #[test]
    fn below_threshold_updates_absorb_with_zero_accesses() {
        let mut db = db();
        let mut stats = DatabaseStats::collect(&db);
        // Pin TA so deep items stay unresolved and the bounds path runs.
        let mut standing = StandingQuery::new(TopKQuery::top(2)).pin_algorithm(AlgorithmKind::Ta);

        let first = {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap().clone()
        };
        assert_eq!(standing.refreshes(), 1);
        assert_eq!(standing.algorithm(), Some(AlgorithmKind::Ta));
        assert!(first.scores_match(&naive_truth(&db, 2), 0.0));

        // TA(k=2) stops at position 2: bounds are the scores there
        // (70, 35). Item 5 is unresolved; raising its list-0 score from
        // 40 to 45 bounds its overall at 45 + 35 = 80 < 105.
        let update = db.update_score(0, ItemId(5), 45.0).unwrap();
        assert_eq!(
            standing.ingest(&score_event(&db, 0, update)),
            IngestOutcome::Absorbed
        );

        // The cached answer is served without touching a single list.
        stats.ensure_fresh(&db);
        let mut sources = Sources::in_memory(&db);
        let served = standing.serve(&mut sources, &stats).unwrap().clone();
        assert_eq!(sources.total_counters().total(), 0, "zero accesses");
        assert_eq!(standing.cache_hits(), 1);
        assert_eq!(standing.refreshes(), 1, "no re-execution");
        // Bit-identical to a from-scratch run over the mutated data.
        let truth = naive_truth(&db, 2);
        assert_eq!(served.item_ids(), truth.item_ids());
        assert_eq!(served.scores(), truth.scores());
    }

    #[test]
    fn beating_updates_trigger_a_refresh_with_matching_answers() {
        let mut db = db();
        let mut stats = DatabaseStats::collect(&db);
        let mut standing = StandingQuery::new(TopKQuery::top(2)).pin_algorithm(AlgorithmKind::Ta);
        {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap();
        }

        // 90 + bound 35 = 125 > 105: may beat the cached k-th answer.
        let update = db.update_score(0, ItemId(5), 90.0).unwrap();
        assert_eq!(
            standing.ingest(&score_event(&db, 0, update)),
            IngestOutcome::NeedsRefresh("the update may beat the cached threshold")
        );
        assert!(standing.answer().is_none(), "dirty cache serves nothing");

        stats.ensure_fresh(&db);
        let mut sources = Sources::in_memory(&db);
        let served = standing.serve(&mut sources, &stats).unwrap().clone();
        assert_eq!(standing.refreshes(), 2);
        let truth = naive_truth(&db, 2);
        assert_eq!(served.item_ids(), truth.item_ids());
        assert_eq!(served.scores(), truth.scores());
        // Item 5 now scores 90 + 20 = 110 and displaces item 2.
        assert_eq!(served.item_ids(), vec![ItemId(1), ItemId(5)]);
    }

    #[test]
    fn updates_to_answer_items_always_refresh() {
        let mut db = db();
        let stats = DatabaseStats::collect(&db);
        let mut standing = StandingQuery::new(TopKQuery::top(2)).pin_algorithm(AlgorithmKind::Ta);
        {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap();
        }
        // Even a decrease: the answer's scores must stay bit-fresh.
        let update = db.update_score(1, ItemId(1), 39.0).unwrap();
        assert_eq!(
            standing.ingest(&score_event(&db, 1, update)),
            IngestOutcome::NeedsRefresh("the updated item is in the answer")
        );
    }

    #[test]
    fn decreases_absorb_even_without_certificates_or_sum_scoring() {
        let mut db = db();
        let mut stats = DatabaseStats::collect(&db);
        // Min scoring: no exact deltas. Overall(min) for item i is its
        // list-1 score (always the smaller); top-2 = items 1 (40), 2 (35).
        let mut standing =
            StandingQuery::new(TopKQuery::new(2, Min)).pin_algorithm(AlgorithmKind::Ta);
        {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap();
        }
        let update = db.update_score(0, ItemId(4), 35.0).unwrap();
        assert!(update.is_decrease());
        assert_eq!(
            standing.ingest(&score_event(&db, 0, update)),
            IngestOutcome::Absorbed
        );
        stats.ensure_fresh(&db);
        let mut sources = Sources::in_memory(&db);
        let served = standing.serve(&mut sources, &stats).unwrap().clone();
        assert_eq!(sources.total_counters().total(), 0);
        let truth = NaiveScan.run(&db, &TopKQuery::new(2, Min)).unwrap();
        assert_eq!(served.item_ids(), truth.item_ids());
        assert_eq!(served.scores(), truth.scores());
    }

    #[test]
    fn inserts_and_deletes_flow_through_the_cache() {
        let mut db = db();
        let mut stats = DatabaseStats::collect(&db);
        let mut standing = StandingQuery::new(TopKQuery::top(2));
        {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap();
        }

        // A losing insert (overall 6 + 3 = 9) absorbs.
        db.insert_item(ItemId(20), &[6.0, 3.0]).unwrap();
        let event = UpdateEvent::Insert {
            item: ItemId(20),
            scores: vec![Score::from_f64(6.0), Score::from_f64(3.0)],
            epochs: db.epochs(),
        };
        assert_eq!(standing.ingest(&event), IngestOutcome::Absorbed);

        // Deleting that non-answer item absorbs too.
        db.delete_item(ItemId(20)).unwrap();
        let event = UpdateEvent::Delete {
            item: ItemId(20),
            epochs: db.epochs(),
        };
        assert_eq!(standing.ingest(&event), IngestOutcome::Absorbed);
        assert_eq!(standing.absorbed_updates(), 2);

        stats.ensure_fresh(&db);
        {
            let mut sources = Sources::in_memory(&db);
            let served = standing.serve(&mut sources, &stats).unwrap().clone();
            assert_eq!(sources.total_counters().total(), 0);
            let truth = naive_truth(&db, 2);
            assert_eq!(served.item_ids(), truth.item_ids());
        }

        // A winning insert (overall 200) forces a refresh.
        db.insert_item(ItemId(21), &[150.0, 50.0]).unwrap();
        let event = UpdateEvent::Insert {
            item: ItemId(21),
            scores: vec![Score::from_f64(150.0), Score::from_f64(50.0)],
            epochs: db.epochs(),
        };
        assert_eq!(
            standing.ingest(&event),
            IngestOutcome::NeedsRefresh("the inserted item enters the answer")
        );
        stats.ensure_fresh(&db);
        let mut sources = Sources::in_memory(&db);
        let served = standing.serve(&mut sources, &stats).unwrap().clone();
        assert_eq!(served.item_ids()[0], ItemId(21));
        let truth = naive_truth(&db, 2);
        assert_eq!(served.scores(), truth.scores());
    }

    #[test]
    fn missed_events_invalidate_via_epoch_continuity() {
        let mut db = db();
        let mut stats = DatabaseStats::collect(&db);
        let mut standing = StandingQuery::new(TopKQuery::top(2));
        {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap();
        }
        // Two mutations, only the second ingested: continuity breaks.
        db.update_score(0, ItemId(7), 21.0).unwrap();
        let update = db.update_score(0, ItemId(7), 22.0).unwrap();
        assert_eq!(
            standing.ingest(&score_event(&db, 0, update)),
            IngestOutcome::NeedsRefresh("missed events: epoch continuity broken")
        );
        // serve() notices and re-runs instead of lying from the cache.
        stats.ensure_fresh(&db);
        let mut sources = Sources::in_memory(&db);
        let served = standing.serve(&mut sources, &stats).unwrap().clone();
        assert_eq!(standing.refreshes(), 2);
        let truth = naive_truth(&db, 2);
        assert_eq!(served.scores(), truth.scores());
    }

    #[test]
    fn prefix_reads_come_from_the_cache() {
        let db = db();
        let stats = DatabaseStats::collect(&db);
        let mut standing = StandingQuery::new(TopKQuery::top(4));
        {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap();
        }
        let top2 = standing.prefix(2).unwrap();
        assert_eq!(top2.len(), 2);
        let truth = naive_truth(&db, 2);
        assert_eq!(
            top2.iter().map(|r| r.item).collect::<Vec<_>>(),
            truth.item_ids()
        );
        assert_eq!(standing.prefix(4).unwrap().len(), 4);
        assert!(standing.prefix(0).is_none());
        assert!(standing.prefix(5).is_none());
        assert_eq!(standing.query().k(), 4);
        assert_eq!(standing.epochs(), Some(&[0u64, 0][..]));
    }

    #[test]
    fn repeated_absorbed_updates_compose_via_the_side_books() {
        let mut db = db();
        let mut stats = DatabaseStats::collect(&db);
        let mut standing = StandingQuery::new(TopKQuery::top(2)).pin_algorithm(AlgorithmKind::Ta);
        {
            let mut sources = Sources::in_memory(&db);
            standing.serve(&mut sources, &stats).unwrap();
        }
        // Walk item 6 (unresolved) up in both lists, always below the
        // threshold; each absorbed event refines the known coordinates,
        // so the bound for the next one uses exact values, not the
        // per-list bounds.
        for (list, score) in [
            (0usize, 40.0),
            (1usize, 20.0),
            (0usize, 55.0),
            (1usize, 30.0),
        ] {
            let update = db.update_score(list, ItemId(6), score).unwrap();
            assert_eq!(
                standing.ingest(&score_event(&db, list, update)),
                IngestOutcome::Absorbed,
                "list {list} -> {score}"
            );
        }
        // After the book-keeping: item 6 is known at (55, 30) = 85 < 105.
        // Note 55 is *above* bound 35 in list 1's terms — only the exact
        // coordinates make this absorbable.
        stats.ensure_fresh(&db);
        let mut sources = Sources::in_memory(&db);
        let served = standing.serve(&mut sources, &stats).unwrap().clone();
        assert_eq!(sources.total_counters().total(), 0);
        assert_eq!(standing.refreshes(), 1);
        let truth = naive_truth(&db, 2);
        assert_eq!(served.item_ids(), truth.item_ids());
        assert_eq!(served.scores(), truth.scores());
    }
}
