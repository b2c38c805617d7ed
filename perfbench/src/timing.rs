//! The benchmark's instrumentation: latency samples, clock calibration and
//! the observation-only [`Timed`] source-set adapter that splits a query's
//! wall time between the algorithm and its list sources.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use topk_lists::source::{CacheCounters, ListSource, SourceEntry, SourceScore, SourceSet};
use topk_lists::{AccessCounters, ItemId, Position, Score};

/// Wall time of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Nanoseconds in a duration, as the `u64` every accumulator uses.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Median of a non-empty list of values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Latency samples of one kind of op, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, d: Duration) {
        self.0.push(nanos(d));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile (`p` in `(0, 1]`) in microseconds, or `None`
    /// without samples.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1] as f64 / 1e3)
    }
}

/// The cost of one `Instant::now()` in nanoseconds: the median of several
/// rounds of back-to-back reads. Every timed call in [`Timed`] costs about
/// two reads, which the per-layer split subtracts.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = black_box(Instant::now());
            }
            nanos(last - start) as f64 / f64::from(READS)
        })
        .collect();
    median(&rounds)
}

/// What the reference kernel takes on an undisturbed host, in µs.
const REFERENCE_US: f64 = 1000.0;
/// How often the loops re-measure the host's speed.
const SPEED_PERIOD: Duration = Duration::from_millis(250);

/// One table of a reference kernel: an item index and its entries.
type Table = (HashMap<u64, (u32, f64)>, Vec<(u64, f64)>);

/// How much memory the host-speed reference sweeps, matched to a
/// workload's per-op working set: co-tenants slow code that lives in the
/// core's private L2 cache differently from code that lives in the shared
/// L3.
#[derive(Debug, Clone, Copy)]
pub enum WorkingSet {
    /// One kernel over one 20 000-entry table (well under a MiB).
    FitsL2,
    /// That kernel and one over six 20 000-entry tables (a few MiB, like
    /// six in-memory lists), combined by geometric mean: scans, trackers
    /// and allocations stay in L2 while random lookups go to L3.
    Mixed,
}

/// A fixed loop with the shape of the algorithms' inner loops: per round,
/// six hash lookups with a sequential read each and one small allocation.
struct Kernel {
    tables: Vec<Table>,
    rounds: usize,
}

impl Kernel {
    const KEYS: u64 = 20_000;

    fn new(tables: u64, rounds: usize) -> Self {
        Kernel {
            tables: (1..=tables)
                .map(|t| {
                    let index = (0..Self::KEYS)
                        .map(|i| ((i * 7_919 + t) % Self::KEYS, (i as u32, (i * t) as f64)))
                        .collect();
                    let entries = (0..Self::KEYS).map(|i| (i, i as f64)).collect();
                    (index, entries)
                })
                .collect(),
            rounds,
        }
    }

    fn run(&self) -> f64 {
        let mut x = 0x9E37_79B9_u64;
        let mut total = 0.0;
        for round in 0..self.rounds {
            let mut locals = Vec::with_capacity(6);
            for (index, entries) in self.tables.iter().cycle().take(6) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if let Some(&(position, score)) = index.get(&(x % Self::KEYS)) {
                    locals.push(score + f64::from(position) + entries[round % entries.len()].1);
                }
            }
            total += black_box(locals).iter().sum::<f64>();
        }
        total
    }

    /// Runs once to warm the caches, then once timed; µs.
    fn time_us(&self) -> f64 {
        black_box(self.run());
        let (total, took) = timed(|| self.run());
        black_box(total);
        took.as_secs_f64() * 1e6
    }
}

/// The host-speed reference that end-to-end times are scaled by.
///
/// The benchmark runs on shared virtual machines where co-tenants slow
/// memory- and branch-heavy code by up to 2x for seconds to minutes at a
/// time. Between ops, the loops re-run fixed kernels owned by the
/// benchmark at most every [`SPEED_PERIOD`], over a [`WorkingSet`] like
/// the workload's. Each op's wall time is multiplied by
/// `REFERENCE_US / kernel time` (median of the last three readings), which
/// cancels the host's slowdowns but not the program's. The kernels never
/// call program code, so a change to the program moves only the
/// numerator.
pub struct Speed {
    kernels: Vec<Kernel>,
    measured: Instant,
    /// Kernel times measured so far, in µs.
    readings: Vec<f64>,
}

impl Speed {
    pub fn new(working_set: WorkingSet) -> Self {
        // Rounds chosen so each kernel takes about REFERENCE_US undisturbed.
        let mut kernels = vec![Kernel::new(1, 8_000)];
        if let WorkingSet::Mixed = working_set {
            kernels.push(Kernel::new(6, 3_000));
        }
        let mut speed = Speed {
            kernels,
            measured: Instant::now(),
            readings: Vec::new(),
        };
        speed.measure();
        speed
    }

    /// Times every kernel and records their geometric mean.
    pub fn measure(&mut self) {
        let log_sum: f64 = self.kernels.iter().map(|k| k.time_us().ln()).sum();
        self.readings
            .push((log_sum / self.kernels.len() as f64).exp());
        self.measured = Instant::now();
    }

    /// Re-measures when the last reading is older than the period; call
    /// between ops, outside timed regions.
    pub fn tick(&mut self) {
        if self.measured.elapsed() >= SPEED_PERIOD {
            self.measure();
        }
    }

    /// The factor for a time measured now: reference / kernel time (the
    /// median of the last three readings).
    pub fn scale(&self) -> f64 {
        self.median_scale_since(self.readings.len().saturating_sub(3))
    }

    /// `d` scaled to the reference speed.
    pub fn scaled(&self, d: Duration) -> Duration {
        d.mul_f64(self.scale())
    }

    /// The median factor over the readings from index `from` on.
    pub fn median_scale_since(&self, from: usize) -> f64 {
        REFERENCE_US / median(&self.readings[from.min(self.readings.len() - 1)..])
    }

    /// Readings taken so far (to mark the start of a phase).
    pub fn readings(&self) -> usize {
        self.readings.len()
    }
}

/// The list-access entry points [`Timed`] tells apart.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    /// `ListSource::sorted_access`.
    Sorted,
    /// `ListSource::random_access`.
    Random,
    /// `ListSource::direct_access_next`.
    Direct,
    /// `ListSource::sorted_block`.
    Block,
}

/// Calls and wall nanoseconds per [`Call`] kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallTimes {
    /// Calls, indexed by `Call as usize`.
    pub calls: [u64; 4],
    /// Wall nanoseconds inside those calls (clock reads included).
    pub nanos: [u64; 4],
}

impl CallTimes {
    /// Adds another tally into this one.
    pub fn add(&mut self, other: &CallTimes) {
        for i in 0..4 {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Calls of every kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// An observation-only [`SourceSet`] adapter over any backend.
///
/// `source(i)` records `i` and hands out the adapter itself as the
/// `ListSource`; each access method then forwards to list `i` of the inner
/// set between two clock reads. Catalog reads (`source_ref`, counters,
/// epochs) go straight to the inner set. Answers, counters and tracker
/// state are therefore those of the wrapped backend; only time is added.
pub struct Timed<S> {
    inner: S,
    current: usize,
    times: CallTimes,
}

impl<S: SourceSet> Timed<S> {
    /// Wraps a source set.
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            current: 0,
            times: CallTimes::default(),
        }
    }

    /// The wrapped set.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Calls and nanoseconds recorded so far.
    pub fn times(&self) -> CallTimes {
        self.times
    }

    fn list(&mut self) -> &mut dyn ListSource {
        self.inner.source(self.current)
    }

    fn list_ref(&self) -> &dyn ListSource {
        self.inner.source_ref(self.current)
    }

    fn record(&mut self, call: Call, start: Instant) {
        let i = call as usize;
        self.times.calls[i] += 1;
        self.times.nanos[i] += nanos(start.elapsed());
    }
}

impl<S> std::fmt::Debug for Timed<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timed")
            .field("current", &self.current)
            .field("times", &self.times)
            .finish()
    }
}

impl<S: SourceSet> SourceSet for Timed<S> {
    fn num_lists(&self) -> usize {
        self.inner.num_lists()
    }

    fn source(&mut self, i: usize) -> &mut dyn ListSource {
        assert!(i < self.inner.num_lists(), "list {i} out of range");
        self.current = i;
        self
    }

    fn source_ref(&self, i: usize) -> &dyn ListSource {
        self.inner.source_ref(i)
    }

    fn begin_round(&mut self) {
        self.inner.begin_round();
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl<S: SourceSet> ListSource for Timed<S> {
    fn len(&self) -> usize {
        self.list_ref().len()
    }

    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        let start = Instant::now();
        let out = self.list().sorted_access(position, track);
        self.record(Call::Sorted, start);
        out
    }

    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        let start = Instant::now();
        let out = self.list().random_access(item, with_position, track);
        self.record(Call::Random, start);
        out
    }

    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        let start = Instant::now();
        let out = self.list().direct_access_next();
        self.record(Call::Direct, start);
        out
    }

    fn sorted_block(&mut self, start_at: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        let start = Instant::now();
        let out = self.list().sorted_block(start_at, len, track);
        self.record(Call::Block, start);
        out
    }

    fn begin_round(&mut self) {
        self.list().begin_round();
    }

    fn best_position(&self) -> Option<Position> {
        self.list_ref().best_position()
    }

    fn epoch(&self) -> u64 {
        self.list_ref().epoch()
    }

    fn tail_score(&self) -> Score {
        self.list_ref().tail_score()
    }

    fn counters(&self) -> AccessCounters {
        self.list_ref().counters()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.list_ref().cache_counters()
    }

    fn reset(&mut self) {
        self.list().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::{AlgorithmKind, TopKQuery, TopKResult};
    use topk_datagen::{DatabaseKind, DatabaseSpec};
    use topk_distributed::{ClusterRuntime, LatencyModel};
    use topk_lists::sharded::ShardedDatabase;
    use topk_lists::source::Sources;
    use topk_lists::{Database, TrackerKind};
    use topk_pool::ThreadPool;
    use topk_storage::{CacheCapacity, PageLayout, PagedDatabase, ScratchDir};

    /// Every algorithm the workloads run, including the planner's scan.
    const KINDS: [AlgorithmKind; 6] = [
        AlgorithmKind::Naive,
        AlgorithmKind::Ta,
        AlgorithmKind::Bpa,
        AlgorithmKind::Bpa2,
        AlgorithmKind::Tput,
        AlgorithmKind::Fa,
    ];

    fn answer(result: &TopKResult) -> Vec<(u64, u64)> {
        result
            .items()
            .iter()
            .map(|r| (r.item.0, r.score.value().to_bits()))
            .collect()
    }

    /// Runs every algorithm over `open()` bare and wrapped, asserting the
    /// same answer bits, per-list per-mode counters and cache counters.
    fn assert_observation_only<S: SourceSet>(label: &str, open: impl Fn() -> S) {
        let query = TopKQuery::top(10);
        for kind in KINDS {
            let mut bare = open();
            let expected = kind.create().run_on(&mut bare, &query).unwrap();
            let mut wrapped = Timed::new(open());
            let got = kind.create().run_on(&mut wrapped, &query).unwrap();
            assert_eq!(answer(&got), answer(&expected), "{label} {kind:?} answer");
            assert_eq!(
                wrapped.per_list_counters(),
                bare.per_list_counters(),
                "{label} {kind:?} counters"
            );
            assert_eq!(got.stats().accesses, expected.stats().accesses);
            assert_eq!(
                wrapped.per_list_cache_counters(),
                bare.per_list_cache_counters(),
                "{label} {kind:?} cache counters"
            );
            let times = wrapped.times();
            assert!(times.total_calls() > 0, "{label} {kind:?} was not observed");
        }
    }

    fn database() -> Database {
        DatabaseSpec::new(DatabaseKind::Uniform, 4, 600).generate(11)
    }

    #[test]
    fn in_memory_is_unchanged_by_the_adapter() {
        let db = database();
        assert_observation_only("in-memory", || {
            Sources::in_memory_with_tracker(&db, TrackerKind::BitArray)
        });
    }

    #[test]
    fn sharded_is_unchanged_by_the_adapter() {
        let db = database();
        let pool = ThreadPool::new(1);
        let sharded = ShardedDatabase::new(&db, 4);
        assert_observation_only("sharded", || sharded.sources(&pool));
    }

    #[test]
    fn paged_is_unchanged_by_the_adapter() {
        let db = database();
        let dir = ScratchDir::new("perfbench-adapter");
        let paged =
            PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(512)).unwrap();
        assert_observation_only("paged", || paged.sources(CacheCapacity::Pages(2)).unwrap());
    }

    #[test]
    fn cluster_is_unchanged_by_the_adapter() {
        let db = database();
        let runtime = ClusterRuntime::with_latency(
            &db,
            TrackerKind::BitArray,
            LatencyModel::lan(db.num_lists(), 3),
        );
        assert_observation_only("cluster", || runtime.connect());
        // The session's network accounting is unchanged too.
        let query = TopKQuery::top(10);
        let mut bare = runtime.connect();
        AlgorithmKind::Bpa2
            .create()
            .run_on(&mut bare, &query)
            .unwrap();
        let mut wrapped = Timed::new(runtime.connect());
        AlgorithmKind::Bpa2
            .create()
            .run_on(&mut wrapped, &query)
            .unwrap();
        assert_eq!(wrapped.inner().network(), bare.network());
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let mut samples = Samples::default();
        for us in 1..=100u64 {
            samples.push(Duration::from_micros(us));
        }
        assert_eq!(samples.percentile_us(0.5), Some(50.0));
        assert_eq!(samples.percentile_us(0.9), Some(90.0));
        assert_eq!(samples.percentile_us(1.0), Some(100.0));
        assert_eq!(Samples::default().percentile_us(0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
