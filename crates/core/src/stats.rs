//! Statistics: per-run measurements (access counts, stopping depth,
//! wall-clock time) and per-database summaries collected by a cheap
//! sampling pass over any backend ([`DatabaseStats`], the input of the
//! [`planner`](crate::planner)).

use std::collections::HashMap;
use std::time::Duration;

use topk_lists::database::sample_items;
use topk_lists::source::{ListSource, SourceEntry, SourceSet, Sources};
use topk_lists::{AccessCounters, Database, ItemId, Position, Score};

use crate::cost::CostModel;
use crate::error::{catch_source_error, TopKError};
use crate::scoring::ScoringFunction;

/// Everything measured about one algorithm run, covering the three metrics
/// of the paper's evaluation (execution cost, number of accesses, response
/// time) plus the stopping depth used in the analysis sections.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Aggregate access counts over all lists.
    pub accesses: AccessCounters,
    /// Access counts per list, in list order.
    pub per_list: Vec<AccessCounters>,
    /// The depth at which the algorithm stopped:
    ///
    /// * for the scan-based algorithms (FA, TA, BPA) the last position read
    ///   under sorted access,
    /// * for BPA2 the largest best position over all lists when it stopped,
    /// * `None` for the naive full scan (it has no early stop).
    pub stop_position: Option<usize>,
    /// Number of originator rounds the algorithm performed: one per
    /// sorted-access position for the threshold family (FA's random-access
    /// resolution phase is demarcated but not counted here), one per loop
    /// iteration for BPA2, one per phase for TPUT, and one per streamed
    /// list for the naive scan.
    pub rounds: u64,
    /// Number of distinct data items whose overall score was computed.
    pub items_scored: usize,
    /// Wall-clock time of the run. Stamped by `run_on` around the whole
    /// execution — algorithm bodies never read the clock (enforced by
    /// topk-lint's `no-wall-clock` rule), so within `execute` this is
    /// zero.
    pub elapsed: Duration,
}

impl RunStats {
    /// Total number of accesses of any mode (the paper's *number of
    /// accesses* metric).
    pub fn total_accesses(&self) -> u64 {
        self.accesses.total()
    }

    /// Execution cost under the given cost model.
    pub fn execution_cost(&self, model: &CostModel) -> f64 {
        model.execution_cost(&self.accesses)
    }

    /// Response time in milliseconds (the paper's third metric).
    pub fn response_time_ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

impl topk_trace::MetricSource for RunStats {
    fn record_metrics(&self, registry: &mut topk_trace::MetricsRegistry) {
        registry.counter_add("run.sorted_accesses", self.accesses.sorted);
        registry.counter_add("run.random_accesses", self.accesses.random);
        registry.counter_add("run.direct_accesses", self.accesses.direct);
        registry.counter_add("run.rounds", self.rounds);
        registry.counter_add("run.items_scored", self.items_scored as u64);
        for counters in &self.per_list {
            registry.histogram_record(
                "run.per_list_accesses",
                topk_trace::ACCESS_BUCKETS,
                counters.total(),
            );
        }
    }
}

/// Default number of sampled positions per list in the score profile grid.
const DEFAULT_PROFILE_LEN: usize = 48;
/// Default number of sampled items used for overall-score estimates.
const DEFAULT_ITEM_SAMPLES: usize = 512;
/// Default prefix length over which list-head overlap is measured.
const DEFAULT_HEAD_LEN: usize = 64;
/// Seed of the deterministic sampling pass (statistics are reproducible
/// database to database; callers needing independent samples can use
/// [`DatabaseStats::collect_with`]).
const DEFAULT_STATS_SEED: u64 = 0x5EED_57A7;

/// Summary statistics of a database, collected by a cheap sampling pass
/// through the same [`SourceSet`] access model queries use, so any backend
/// (in-memory, sharded, paged, cluster) can be planned over without an
/// in-memory copy.
///
/// These are the per-database inputs of the cost-based
/// [`planner`](crate::planner): dimensions (`m`, `n`), a geometric grid of
/// per-list score profiles (from which stop-depth thresholds are
/// estimated), per-list head skew, the cross-list head overlap (a proxy for
/// the correlation of the database families of Section 6.1), and a uniform
/// sample of local-score vectors (from which the k-th best overall score is
/// estimated for any scoring function).
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseStats {
    /// Number of lists (`m`).
    pub num_lists: usize,
    /// Number of items per list (`n`).
    pub num_items: usize,
    /// Sampled 1-based positions, ascending; always starts at 1 and ends
    /// at `n`.
    pub positions: Vec<usize>,
    /// `profiles[i][j]` is the local score of list `i` at `positions[j]`.
    pub profiles: Vec<Vec<Score>>,
    /// Per-list head skew in `[0, 1]`: the fraction of the list's full
    /// score range already spent at the midpoint (≈ 0.5 for uniform
    /// scores, → 1 for steep Zipf-like heads, → 0 for heavy tails).
    pub head_skew: Vec<f64>,
    /// Fraction of the first `min(64, n)` positions whose items appear in
    /// the head of *every* list — close to 1 on strongly correlated
    /// databases, close to 0 on independent ones.
    pub head_overlap: f64,
    /// Local-score vectors (one score per list) of the sampled items.
    pub sample_locals: Vec<Vec<Score>>,
    /// Per-list epochs of the database at collection time. Lists are
    /// updatable, so statistics go stale: [`DatabaseStats::staleness`]
    /// compares this tag against a source set's observed epochs, and
    /// [`plan_and_run_on`](crate::planner::plan_and_run_on) refuses to
    /// plan from stale statistics.
    pub epochs: Vec<u64>,
}

impl DatabaseStats {
    /// Collects statistics from an in-memory database with the default
    /// sampling budgets (≈ 48 grid positions, 512 sampled items, 64-position
    /// head window).
    pub fn collect(database: &Database) -> Self {
        Self::collect_on(&mut Sources::in_memory(database)).expect("in-memory sources never fail")
    }

    /// Collects statistics through any backend with the default sampling
    /// budgets; see [`DatabaseStats::collect_with`].
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::Source`] when a backend access fails.
    pub fn collect_on(sources: &mut dyn SourceSet) -> Result<Self, TopKError> {
        Self::collect_with(
            sources,
            DEFAULT_PROFILE_LEN,
            DEFAULT_ITEM_SAMPLES,
            DEFAULT_STATS_SEED,
        )
    }

    /// Collects statistics with explicit sampling budgets.
    ///
    /// `profile_len` sizes the per-list position grid (at least 2, at most
    /// `profile_len + 1` positions — the last grid entry is always `n`),
    /// `item_samples` bounds the number of sampled items, and `seed`
    /// drives the deterministic item sample.
    ///
    /// The pass reads the lists with ordinary counted accesses — grid
    /// positions and list 0's sampled items by untracked sorted access,
    /// the samples' other local scores by random access ([`sample_items`]),
    /// each list's head by one [`ListSource::sorted_block`] — then
    /// [`reset`](SourceSet::reset)s the set.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::Source`] when a backend access fails; as after
    /// a failed query, reset the set before reusing it.
    pub fn collect_with(
        sources: &mut dyn SourceSet,
        profile_len: usize,
        item_samples: usize,
        seed: u64,
    ) -> Result<Self, TopKError> {
        catch_source_error(|| {
            let m = sources.num_lists();
            let n = sources.num_items();
            let positions = geometric_grid(n, profile_len.max(2));
            let stats = DatabaseStats {
                num_lists: m,
                num_items: n,
                profiles: score_profile(sources, &positions),
                positions,
                head_skew: score_profile(sources, &[1, n.div_ceil(2), n])
                    .iter()
                    .map(|probe| head_skew(probe))
                    .collect(),
                head_overlap: head_overlap(sources, m, n),
                sample_locals: sample_items(sources, item_samples, seed)
                    .into_iter()
                    .map(|(_, locals)| locals)
                    .collect(),
                epochs: sources.epochs(),
            };
            sources.reset();
            Ok(stats)
        })
    }

    /// Whether these statistics are stale against the observed per-list
    /// epochs of a source set: returns the first offending
    /// `(list, stats_epoch, observed_epoch)`, or `None` when fresh.
    ///
    /// A source reporting epoch 0 never flags staleness — 0 is what
    /// immutable backends (cluster, paged) report for any content, so it
    /// carries no mutation information.
    pub fn staleness(&self, observed: &[u64]) -> Option<(usize, u64, u64)> {
        if self.epochs.len() != observed.len() {
            return Some((0, self.epochs.first().copied().unwrap_or(0), 0));
        }
        self.epochs
            .iter()
            .zip(observed)
            .enumerate()
            .find(|&(_, (&have, &seen))| seen != 0 && seen != have)
            .map(|(list, (&have, &seen))| (list, have, seen))
    }

    /// The invalidation/refresh hook for the in-memory backend: if the
    /// database has been mutated since collection, re-collects with the
    /// default budgets and returns `true`; otherwise leaves the
    /// statistics untouched and returns `false`.
    pub fn ensure_fresh(&mut self, database: &Database) -> bool {
        if self.staleness(&database.epochs()).is_none() {
            return false;
        }
        *self = DatabaseStats::collect(database);
        true
    }

    /// Mean head skew over all lists.
    pub fn mean_head_skew(&self) -> f64 {
        self.head_skew.iter().sum::<f64>() / self.head_skew.len() as f64
    }

    /// The threshold `δ(p) = f(s₁(p), …, s_m(p))` at sampled grid index
    /// `j` — the value TA compares its buffer against after reading
    /// position `positions[j]` of every list.
    pub fn threshold_at(&self, scoring: &dyn ScoringFunction, j: usize) -> f64 {
        let locals: Vec<Score> = self.profiles.iter().map(|profile| profile[j]).collect();
        scoring.combine(&locals).value()
    }

    /// Estimates the k-th best overall score under `scoring` from the item
    /// sample: the sample's `⌈k·|sample|/n⌉`-th largest overall score
    /// (exact when the sample covers the whole database).
    ///
    /// With an empty item sample (a zero `item_samples` budget) there is no
    /// information about overall scores, so the estimate degrades to
    /// [`f64::NEG_INFINITY`] — downstream stop-depth estimates then assume
    /// the deepest (most conservative) scan.
    pub fn estimated_kth_score(&self, scoring: &dyn ScoringFunction, k: usize) -> f64 {
        let mut overall: Vec<f64> = self
            .sample_locals
            .iter()
            .map(|locals| scoring.combine(locals).value())
            .collect();
        if overall.is_empty() {
            return f64::NEG_INFINITY;
        }
        overall.sort_by(|a, b| b.total_cmp(a));
        let k = k.clamp(1, self.num_items);
        // ⌈k · |sample| / n⌉ without floating point; n ≥ 1 by construction.
        let rank = (k * overall.len())
            .div_ceil(self.num_items)
            .clamp(1, overall.len());
        overall[rank - 1]
    }
}

/// Geometric (log-spaced) grid of 1-based positions: 1, …, n with ratio
/// chosen so at most `len + 1` positions are produced (the final position
/// `n` is appended when the log-spaced walk does not land on it); always
/// contains 1 and n.
fn geometric_grid(n: usize, len: usize) -> Vec<usize> {
    let mut positions = Vec::with_capacity(len);
    let ratio = (n as f64).powf(1.0 / (len.saturating_sub(1)).max(1) as f64);
    let mut p = 1.0f64;
    for _ in 0..len {
        let pos = (p.round() as usize).clamp(1, n);
        if positions.last() != Some(&pos) {
            positions.push(pos);
        }
        p = (p * ratio).max(p + 1.0);
    }
    if positions.last() != Some(&n) {
        positions.push(n);
    }
    positions
}

/// Untracked sorted access to a 1-based position known to be in bounds.
fn read_sorted(source: &mut dyn ListSource, position: usize) -> SourceEntry {
    let entry = source.sorted_access(Position::from_index(position - 1), false);
    entry.expect("sampled positions lie within 1..=n")
}

/// The local score of every list at each of the given 1-based positions,
/// one vector per list, in list order.
fn score_profile(sources: &mut dyn SourceSet, positions: &[usize]) -> Vec<Vec<Score>> {
    (0..sources.num_lists())
        .map(|i| {
            let source = sources.source(i);
            positions
                .iter()
                .map(|&p| read_sorted(source, p).score)
                .collect()
        })
        .collect()
}

/// Head skew of one list from its `(top, mid, last)` probe: the fraction
/// of the full score range spent by the list midpoint. Flat lists (zero
/// range) report 0.
fn head_skew(probe: &[Score]) -> f64 {
    let (top, mid, last) = (probe[0].value(), probe[1].value(), probe[2].value());
    let range = top - last;
    if range <= 0.0 {
        0.0
    } else {
        ((top - mid) / range).clamp(0.0, 1.0)
    }
}

/// Fraction of the first `min(DEFAULT_HEAD_LEN, n)` positions whose items
/// sit in the head of every list.
fn head_overlap(sources: &mut dyn SourceSet, m: usize, n: usize) -> f64 {
    let h = DEFAULT_HEAD_LEN.min(n);
    let mut seen: HashMap<ItemId, usize> = HashMap::with_capacity(h * m);
    for i in 0..m {
        for entry in sources.source(i).sorted_block(Position::FIRST, h, false) {
            *seen.entry(entry.item).or_insert(0) += 1;
        }
    }
    seen.values().filter(|&&count| count == m).count() as f64 / h as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RunStats {
        RunStats {
            accesses: AccessCounters {
                sorted: 18,
                random: 36,
                direct: 0,
            },
            per_list: vec![
                AccessCounters {
                    sorted: 6,
                    random: 12,
                    direct: 0
                };
                3
            ],
            stop_position: Some(6),
            rounds: 6,
            items_scored: 13,
            elapsed: Duration::from_micros(1500),
        }
    }

    #[test]
    fn total_accesses_sums_all_modes() {
        assert_eq!(stats().total_accesses(), 54);
    }

    #[test]
    fn execution_cost_delegates_to_the_model() {
        let model = CostModel::new(1.0, 2.0, 2.0);
        assert_eq!(stats().execution_cost(&model), 18.0 + 72.0);
    }

    #[test]
    fn response_time_is_reported_in_milliseconds() {
        assert!((stats().response_time_ms() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn per_list_counters_are_preserved() {
        let s = stats();
        assert_eq!(s.per_list.len(), 3);
        assert_eq!(s.per_list[0].sorted, 6);
        assert_eq!(s.stop_position, Some(6));
        assert_eq!(s.rounds, 6);
        assert_eq!(s.items_scored, 13);
    }

    mod database_stats {
        use super::super::*;
        use crate::examples_paper::figure1_database;
        use crate::scoring::Sum;

        #[test]
        fn collect_reports_dimensions_and_full_coverage_on_small_databases() {
            let db = figure1_database();
            let stats = DatabaseStats::collect(&db);
            assert_eq!(stats.num_lists, 3);
            assert_eq!(stats.num_items, 12);
            assert_eq!(stats.positions.first(), Some(&1));
            assert_eq!(stats.positions.last(), Some(&12));
            assert!(stats.positions.windows(2).all(|w| w[0] < w[1]));
            // 12 items fit in the default sample budget, so estimates are exact.
            assert_eq!(stats.sample_locals.len(), 12);
            for locals in &stats.sample_locals {
                assert_eq!(locals.len(), 3);
            }
        }

        #[test]
        fn kth_score_estimate_is_exact_on_fully_sampled_databases() {
            let db = figure1_database();
            let stats = DatabaseStats::collect(&db);
            // Figure 1 top-3 overall scores are 71, 70, 70.
            assert_eq!(stats.estimated_kth_score(&Sum, 1), 71.0);
            assert_eq!(stats.estimated_kth_score(&Sum, 3), 70.0);
            // k beyond n clamps instead of panicking.
            assert_eq!(
                stats.estimated_kth_score(&Sum, 100),
                stats.estimated_kth_score(&Sum, 12)
            );
        }

        #[test]
        fn thresholds_decrease_along_the_grid() {
            let db = figure1_database();
            let stats = DatabaseStats::collect(&db);
            let thresholds: Vec<f64> = (0..stats.positions.len())
                .map(|j| stats.threshold_at(&Sum, j))
                .collect();
            assert!(thresholds.windows(2).all(|w| w[0] >= w[1]));
        }

        #[test]
        fn head_overlap_separates_correlated_from_reversed_lists() {
            let aligned: Vec<Vec<(u64, f64)>> = vec![
                (0..100).map(|i| (i, (100 - i) as f64)).collect(),
                (0..100).map(|i| (i, (100 - i) as f64 * 2.0)).collect(),
            ];
            let db = Database::from_unsorted_lists(aligned).unwrap();
            let stats = DatabaseStats::collect(&db);
            assert_eq!(
                stats.head_overlap, 1.0,
                "identically ranked lists fully overlap"
            );

            let reversed: Vec<Vec<(u64, f64)>> = vec![
                (0..200).map(|i| (i, (200 - i) as f64)).collect(),
                (0..200).map(|i| (i, i as f64)).collect(),
            ];
            let db = Database::from_unsorted_lists(reversed).unwrap();
            let stats = DatabaseStats::collect(&db);
            assert_eq!(
                stats.head_overlap, 0.0,
                "opposed rankings share no head items"
            );
        }

        #[test]
        fn head_skew_reflects_the_score_distribution() {
            // Linear scores: midpoint sits halfway through the range.
            let linear: Vec<(u64, f64)> = (0..101).map(|i| (i, i as f64)).collect();
            let db = Database::from_unsorted_lists(vec![linear]).unwrap();
            let stats = DatabaseStats::collect(&db);
            assert!((stats.mean_head_skew() - 0.5).abs() < 0.02);

            // Flat scores: zero range, skew reports 0.
            let flat: Vec<(u64, f64)> = (0..10).map(|i| (i, 1.0)).collect();
            let db = Database::from_unsorted_lists(vec![flat]).unwrap();
            assert_eq!(DatabaseStats::collect(&db).mean_head_skew(), 0.0);

            // Zipf-like head: most of the range is gone by the midpoint.
            let zipf: Vec<(u64, f64)> = (0..100).map(|i| (i, 1.0 / (i + 1) as f64)).collect();
            let db = Database::from_unsorted_lists(vec![zipf]).unwrap();
            assert!(DatabaseStats::collect(&db).mean_head_skew() > 0.9);
        }

        #[test]
        fn collect_with_respects_the_budgets() {
            let lists: Vec<Vec<(u64, f64)>> = vec![
                (0..500).map(|i| (i, (i * 13 % 500) as f64)).collect(),
                (0..500).map(|i| (i, (i * 7 % 500) as f64)).collect(),
            ];
            let db = Database::from_unsorted_lists(lists).unwrap();
            let collect = |seed| {
                DatabaseStats::collect_with(&mut Sources::in_memory(&db), 8, 32, seed).unwrap()
            };
            let stats = collect(1);
            assert!(
                stats.positions.len() <= 9,
                "grid capped near the requested length"
            );
            assert_eq!(stats.sample_locals.len(), 32);
            assert_eq!(stats, collect(1), "collection is deterministic");
            let other = collect(2).sample_locals;
            assert_ne!(
                stats.sample_locals, other,
                "seeds pick different strata members"
            );
        }

        #[test]
        fn zero_sample_budget_degrades_instead_of_panicking() {
            let db = figure1_database();
            let stats = DatabaseStats::collect_with(&mut Sources::in_memory(&db), 8, 0, 1).unwrap();
            assert!(stats.sample_locals.is_empty());
            assert_eq!(stats.estimated_kth_score(&Sum, 3), f64::NEG_INFINITY);
        }

        #[test]
        fn epoch_tags_flag_staleness_and_refresh_on_mutation() {
            let mut db = figure1_database();
            let mut stats = DatabaseStats::collect(&db);
            assert_eq!(stats.epochs, vec![0, 0, 0]);
            assert_eq!(stats.staleness(&db.epochs()), None);
            assert!(!stats.ensure_fresh(&db), "fresh stats are left untouched");

            db.update_score(1, ItemId(3), 31.0).unwrap();
            assert_eq!(stats.staleness(&db.epochs()), Some((1, 0, 1)));
            assert!(stats.ensure_fresh(&db), "stale stats are re-collected");
            assert_eq!(stats.epochs, vec![0, 1, 0]);
            assert_eq!(stats.staleness(&db.epochs()), None);

            // Zero observed epochs (immutable backends) never flag.
            assert_eq!(stats.staleness(&[0, 0, 0]), None);
            // A length mismatch always flags.
            assert!(stats.staleness(&[0, 1]).is_some());
        }

        #[test]
        fn single_item_database_does_not_panic() {
            let db = Database::from_unsorted_lists(vec![vec![(0, 1.0)]]).unwrap();
            let stats = DatabaseStats::collect(&db);
            assert_eq!(stats.num_items, 1);
            assert_eq!(stats.positions, vec![1]);
            assert_eq!(stats.estimated_kth_score(&Sum, 1), 1.0);
            assert_eq!(stats.threshold_at(&Sum, 0), 1.0);
        }

        #[test]
        fn profiles_are_list_scores_at_the_grid_and_the_set_is_reset() {
            let db = figure1_database();
            let mut sources = Sources::in_memory(&db);
            let stats = DatabaseStats::collect_on(&mut sources).unwrap();
            for (i, profile) in stats.profiles.iter().enumerate() {
                let list = db.list(i).unwrap();
                for (&p, &score) in stats.positions.iter().zip(profile) {
                    assert_eq!(list.score_at(Position::new(p).unwrap()), Some(score));
                }
            }
            assert_eq!(sources.total_counters(), AccessCounters::default());
        }
    }
}
