//! `correlated_paged`: short planned queries over disk. Correlated data
//! (α = 0.01, m = 8, n = 100 000) stored as paged files (4 KiB pages,
//! 16 cached pages per list, cold for every query); batches of planned
//! queries on a one-worker pool whose submitter helps, so two threads run.
//! Fixed per-query costs dominate: opening files, allocating trackers,
//! planning, page misses and pool dispatch.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use topk_core::{
    AlgorithmKind, DatabaseStats, NaiveScan, Planner, QueryBatch, TopKAlgorithm, TopKQuery,
};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_lists::source::{ListSource, SourceSet, Sources};
use topk_pool::ThreadPool;
use topk_storage::{CacheCapacity, PageLayout, PagedDatabase, DEFAULT_PAGE_SIZE};

use crate::alloc::thread_allocations;
use crate::report::{answer_bits, end_to_end, tail_ops, Layers, Measured, Outcome};
use crate::timing::{clock_read_ns, nanos, timed, Samples, Speed, Timed, WorkingSet};
use crate::{setup, Args, Budget, DriftCheck, Schedule, PROBED};

const LISTS: usize = 8;
const ITEMS: usize = 100_000;
const ALPHA: f64 = 0.01;
const KS: [usize; 3] = [10, 20, 50];
const CACHE: CacheCapacity = CacheCapacity::Pages(16);
/// Independently generated databases; batch `b` runs on database
/// `b % DATASETS`, so one seed's figures average over several datasets.
const DATASETS: usize = 4;
const BATCH: usize = 8;
/// Fixed prefix (in queries) that deterministic counts cover: three
/// batches on every dataset.
const PREFIX_OPS: u64 = (3 * DATASETS * BATCH) as u64;
/// The tail percentile: about the highest with ten samples beyond it in a
/// 20 s run (~2 400 queries); the loop runs at least `tail_ops(TAIL)` ops.
const TAIL: f64 = 0.99;
/// Warm-up batches: 24 queries, so the measured queries start on a
/// boundary of the k stream.
const WARMUP_BATCHES: u64 = 3;
const SETUPS: usize = 3;
/// Where the paged files live, relative to the working directory.
const DATA_DIR: &str = ".bench_data";

/// A directory of paged list files, removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new(name: &str) -> Self {
        DataDir(Path::new(DATA_DIR).join(format!("{name}-{}", std::process::id())))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(DATA_DIR); // only succeeds once empty
    }
}

/// One paged database with its statistics and expected answers.
struct Dataset {
    paged: PagedDatabase,
    stats: DatabaseStats,
    expected: Vec<Vec<(u64, u64)>>,
    _dir: DataDir,
}

struct Fixture {
    datasets: Vec<Dataset>,
    pool: ThreadPool,
}

/// The in-memory database `d` of a seed (distinct seeds never share one).
fn generate(seed: u64, d: usize) -> topk_lists::Database {
    let seed = seed.wrapping_mul(DATASETS as u64).wrapping_add(d as u64);
    DatabaseSpec::new(DatabaseKind::Correlated { alpha: ALPHA }, LISTS, ITEMS).generate(seed)
}

pub fn run(args: Args) -> Outcome {
    let mut speed = Speed::new(WorkingSet::FitsL2);
    let mut builds = 0;
    let repeats = if args.trace { 1 } else { SETUPS };
    let ((built, pool), setup_s) = setup(repeats, &mut speed, || {
        builds += 1;
        let layout = PageLayout::with_page_size(DEFAULT_PAGE_SIZE);
        let built: Vec<_> = (0..DATASETS)
            .map(|d| {
                let db = generate(args.seed, d);
                let dir = DataDir::new(&format!("correlated_paged-{builds}-{d}"));
                let paged =
                    PagedDatabase::create(&dir.0, &db, layout).expect("write the paged lists");
                (paged, DatabaseStats::collect(&db), dir)
            })
            .collect();
        (built, ThreadPool::new(1))
    });
    // The oracle scans an in-memory copy of each database, one at a time.
    let datasets = built
        .into_iter()
        .enumerate()
        .map(|(d, (paged, stats, dir))| {
            let db = generate(args.seed, d);
            let expected = KS
                .iter()
                .map(|&k| {
                    answer_bits(&NaiveScan.run(&db, &TopKQuery::top(k)).expect("oracle scan"))
                })
                .collect();
            Dataset {
                paged,
                stats,
                expected,
                _dir: dir,
            }
        })
        .collect();
    let fixture = Fixture { datasets, pool };
    let mut out = Outcome::default();
    let mut drift = DriftCheck::default();

    if !args.trace {
        let min_ops = PREFIX_OPS.max(tail_ops(TAIL));
        let loop_ = untraced(&fixture, args, min_ops, &mut drift, &mut out, &mut speed);
        let [ta, bpa, bpa2] = &loop_.probes;
        out.metrics = end_to_end(Measured {
            setup_s,
            latency: &loop_.latency,
            tail: TAIL,
            busy_nanos: loop_.batch_nanos,
            access_nanos: loop_.service_nanos,
            accesses: loop_.accesses,
            accesses_per_op: loop_.prefix_accesses as f64 / PREFIX_OPS as f64,
            per_algorithm: [ta, bpa, bpa2],
        });
    } else {
        let clock = clock_read_ns();
        let half = Args {
            seconds: args.seconds / 2.0,
            ..args
        };
        let plain = untraced(&fixture, half, PREFIX_OPS, &mut drift, &mut out, &mut speed);
        let phase = speed.readings();
        let (layers, counts) = traced(&fixture, half, &mut out, &mut speed);
        let plain_mean = plain.batch_nanos as f64 / plain.latency.len() as f64;
        let traced_mean =
            layers.batch_nanos as f64 / layers.ops as f64 * speed.median_scale_since(phase);
        out.metrics = layers.metrics(&counts, clock, traced_mean / plain_mean);
    }
    out.speed_scale = speed.median_scale_since(0);
    out
}

/// The loop budget in batches for at least `min_ops` measured queries.
fn budget(args: Args, min_ops: u64) -> Budget {
    Budget::new(WARMUP_BATCHES, args.seconds, min_ops.div_ceil(BATCH as u64))
}

/// The k index of every query of the next batch, from a stream that
/// holds each k once in every three queries.
fn next_batch(stream: &mut Schedule) -> Vec<usize> {
    (0..BATCH).map(|_| stream.draw().1).collect()
}

/// A pass-through source set that stamps when it was opened and dropped,
/// i.e. when its query started and finished inside a batch.
struct Stamped<'a> {
    inner: Sources<'static>,
    opened: Instant,
    sink: &'a Mutex<Vec<(Instant, Instant)>>,
}

impl Drop for Stamped<'_> {
    fn drop(&mut self) {
        let stamp = (self.opened, Instant::now());
        self.sink.lock().expect("a query panicked").push(stamp);
    }
}

impl SourceSet for Stamped<'_> {
    fn num_lists(&self) -> usize {
        self.inner.num_lists()
    }
    fn source(&mut self, i: usize) -> &mut dyn ListSource {
        self.inner.source(i)
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

struct Untraced {
    /// Per query: from batch submission to its result.
    latency: Samples,
    /// Per-algorithm probe latencies (TA, BPA, BPA2).
    probes: [Samples; 3],
    batch_nanos: u64,
    /// Per query: from opening its sources to its result.
    service_nanos: u64,
    accesses: u64,
    prefix_accesses: u64,
}

fn untraced(
    fixture: &Fixture,
    args: Args,
    min_ops: u64,
    drift: &mut DriftCheck<(usize, usize)>,
    out: &mut Outcome,
    speed: &mut Speed,
) -> Untraced {
    let mut stream = Schedule::new(args.seed, 1, KS.len());
    let mut loop_ = Untraced {
        latency: Samples::default(),
        probes: Default::default(),
        batch_nanos: 0,
        service_nanos: 0,
        accesses: 0,
        prefix_accesses: 0,
    };
    let mut budget = budget(args, min_ops);
    let mut batches = 0;
    while budget.more(batches) {
        speed.tick();
        let d = batches as usize % DATASETS;
        let data = &fixture.datasets[d];
        let ks = next_batch(&mut stream);
        let batch: QueryBatch = ks.iter().map(|&k| TopKQuery::top(KS[k])).collect();
        let stamps = Mutex::new(Vec::with_capacity(BATCH));
        let open = || {
            let opened = Instant::now();
            Stamped {
                inner: data.paged.sources(CACHE).expect("open the paged lists"),
                opened,
                sink: &stamps,
            }
        };
        let submitted = Instant::now();
        let outcomes = batch.run_planned(&fixture.pool, &data.stats, open);
        let took = submitted.elapsed();
        let record = budget.measured(batches);
        batches += 1;
        let Ok(outcomes) = outcomes else {
            for _ in &ks {
                out.op(false);
            }
            continue;
        };
        for (&k, (plan, result)) in ks.iter().zip(&outcomes) {
            let accesses = result.stats().accesses;
            let same = answer_bits(result) == data.expected[k];
            let choice = plan.choice() as u64;
            let signature = vec![choice, accesses.sorted, accesses.random, accesses.direct];
            let steady = drift.check((d, k), signature, out);
            out.op(same && steady);
            if record {
                if (loop_.latency.len() as u64) < PREFIX_OPS {
                    loop_.prefix_accesses += accesses.total();
                }
                loop_.accesses += accesses.total();
            }
        }
        if record {
            let probed = loop_.probes.iter().map(Samples::len).sum();
            let (a, probe_took) = probe(fixture, probed, speed, out);
            loop_.probes[a].push(probe_took);
            loop_.batch_nanos += nanos(speed.scaled(took));
            for (opened, done) in stamps.into_inner().expect("a query panicked") {
                loop_.latency.push(speed.scaled(done - submitted));
                loop_.service_nanos += nanos(speed.scaled(done - opened));
            }
        }
    }
    loop_
}

/// Runs probe number `index` alone on the submitting thread, cycling
/// through TA, BPA and BPA2, then the k values, then the datasets; each
/// over freshly opened, cold paged sources.
fn probe(fixture: &Fixture, index: usize, speed: &Speed, out: &mut Outcome) -> (usize, Duration) {
    let a = index % PROBED.len();
    let k = index / PROBED.len() % KS.len();
    let data = &fixture.datasets[index / (PROBED.len() * KS.len()) % DATASETS];
    let algorithm = PROBED[a].create();
    let query = TopKQuery::top(KS[k]);
    let (result, took) = timed(|| {
        let mut sources = data.paged.sources(CACHE).expect("open the paged lists");
        algorithm.run_on(&mut sources, &query)
    });
    out.op(result.is_ok_and(|r| answer_bits(&r) == data.expected[k]));
    (a, speed.scaled(took))
}

/// One query of a traced batch, as its job measured it.
struct QueryTrace {
    started: Instant,
    finished: Instant,
    /// The job's own tally (open, plan, run, sources, cache, allocations).
    layers: Layers,
    outcome: Result<(AlgorithmKind, topk_core::TopKResult), topk_core::TopKError>,
}

/// The traced loop: each batch is dispatched with `ThreadPool::scope_run`
/// directly, one job per query doing what `QueryBatch::run_planned` does
/// (open, plan, run), with each step timed and the sources wrapped in the
/// timing adapter.
fn traced(fixture: &Fixture, args: Args, out: &mut Outcome, speed: &mut Speed) -> (Layers, Layers) {
    // Traced signatures also cover page hits and misses.
    let mut drift = DriftCheck::default();
    let mut stream = Schedule::new(args.seed, 1, KS.len());
    let planner = Planner::paper_default(ITEMS);
    let mut layers = Layers::default();
    let mut counts = None;
    let mut budget = budget(args, PREFIX_OPS);
    let mut batches = 0;
    while budget.more(batches) {
        speed.tick();
        let d = batches as usize % DATASETS;
        let data = &fixture.datasets[d];
        let ks = next_batch(&mut stream);
        let queries: Vec<TopKQuery> = ks.iter().map(|&k| TopKQuery::top(KS[k])).collect();
        let planner = &planner;
        let jobs: Vec<_> = queries
            .iter()
            .map(|query| {
                move || {
                    let started = Instant::now();
                    let (sources, open) = timed(|| data.paged.sources(CACHE));
                    let mut sources = Timed::new(sources.expect("open the paged lists"));
                    let (plan, plan_time) = timed(|| planner.plan(&data.stats, query));
                    let algorithm = plan.choice().create();
                    let allocs = thread_allocations();
                    let (result, run) = timed(|| algorithm.run_on(&mut sources, query));
                    let allocs = thread_allocations() - allocs;
                    let layers = Layers {
                        ops: 1,
                        run_nanos: nanos(run),
                        calls: sources.times(),
                        accesses: result.as_ref().map_or(0, |r| r.stats().accesses.total()),
                        allocs,
                        opens: 1,
                        open_nanos: nanos(open),
                        storage_opens: 1,
                        storage_open_nanos: nanos(open),
                        cache: sources.total_cache_counters(),
                        plans: 1,
                        plan_nanos: nanos(plan_time),
                        ..Layers::default()
                    };
                    drop(sources);
                    QueryTrace {
                        started,
                        finished: Instant::now(),
                        layers,
                        outcome: result.map(|r| (plan.choice(), r)),
                    }
                }
            })
            .collect();
        let tasks = fixture.pool.tasks_executed();
        let submitted = Instant::now();
        let traces = fixture.pool.scope_run(jobs);
        let took = submitted.elapsed();
        let tasks = fixture.pool.tasks_executed() - tasks;
        let record = budget.measured(batches);
        batches += 1;
        for (&k, trace) in ks.iter().zip(&traces) {
            let ok = match &trace.outcome {
                Ok((choice, result)) => {
                    let cache = trace.layers.cache;
                    let accesses = result.stats().accesses;
                    let signature = vec![
                        *choice as u64,
                        accesses.sorted,
                        accesses.random,
                        accesses.direct,
                        cache.hits,
                        cache.misses,
                    ];
                    let steady = drift.check((d, k), signature, out);
                    steady && answer_bits(result) == data.expected[k]
                }
                Err(_) => false,
            };
            out.op(ok);
            if record {
                layers.add(&Layers {
                    op_nanos: nanos(trace.finished - submitted),
                    queue_waits: 1,
                    queue_wait_nanos: nanos(trace.started - submitted),
                    batch_query_nanos: nanos(trace.finished - trace.started),
                    ..trace.layers.clone()
                });
            }
        }
        if record {
            layers.batches += 1;
            layers.batch_nanos += nanos(took);
            layers.tasks += tasks as u64;
            if layers.ops == PREFIX_OPS {
                counts = Some(layers.clone());
            }
        }
    }
    (layers, counts.expect("the budget runs at least the prefix"))
}
