//! Batch-scaling sweep: batched top-k throughput over in-memory sources
//! executed on the in-tree work-stealing pool, one pool job per query,
//! against a sequential single-thread baseline.
//!
//! ```sh
//! cargo bench --bench batch_scaling                        # paper scale
//! TOPK_BENCH_SCALE=smoke cargo bench --bench batch_scaling # CI smoke
//! ```
//!
//! Two speedup figures are reported per configuration:
//!
//! * **wall** — measured wall-clock throughput relative to the sequential
//!   baseline. A hardware report: it depends on how many cores the
//!   machine actually has (a CI container frequently has one, where no
//!   wall-clock speedup is physically possible). A `threads = 1` row runs
//!   on two lanes: the one worker plus the submitting thread, which runs
//!   queued jobs while it waits in `scope_run`, so its wall speedup can
//!   reach ~2 on a machine with two cores.
//! * **modelled** — the deterministic schedule model of
//!   `topk_pool::model`: the batch's *measured per-query access costs*
//!   placed on `threads` lanes by the greedy rule work stealing
//!   approximates, exactly as `topk_distributed::LatencyModel` prices the
//!   network backend. Reproducible on any machine.
//!
//! The `tasks` column counts tasks dispatched through the pool's queues
//! (`ThreadPool::tasks_executed`, deterministic — task submission does
//! not depend on scheduling): `QueryBatch` submits one job per query and
//! nothing else, so it must equal the batch size exactly.
//!
//! The target **exits non-zero** when the acceptance bar is missed:
//! batched-query throughput at ≥ 4 threads must beat the single-thread
//! schedule by ≥ 1.5× (modelled), every configuration must dispatch
//! exactly one pool job per query, and every configuration must stay
//! **bit-identical** to sequential planning on plans, answers and
//! per-list, per-mode access counters.

use std::time::{Duration, Instant};

use topk_bench::config::BENCH_SEED;
use topk_bench::{print_header, BenchReport, BenchScale, TrendReport, WallClock};
use topk_core::batch::QueryBatch;
use topk_core::{plan_and_run_on, AlgorithmKind, DatabaseStats, TopKQuery, TopKResult};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_lists::source::Sources;
use topk_lists::AccessCounters;
use topk_pool::{model, ThreadPool};

/// The acceptance configuration: ≥ 1.5× at ≥ 4 threads.
const GATE_THREADS: usize = 4;
const GATE_SPEEDUP: f64 = 1.5;

/// Number of lists (`m`) of the benchmark database.
const NUM_LISTS: usize = 4;

/// One batch of standing queries: k cycles over {10, 20, 40}, the
/// monitoring-dashboard shape (many widgets, one database).
fn queries(batch_size: usize) -> Vec<TopKQuery> {
    (0..batch_size)
        .map(|i| TopKQuery::top(10 << (i % 3)))
        .collect()
}

/// Fingerprint of one query outcome for the bit-identical check: the
/// plan, the answer items and score bits, and the per-list counters.
type Fingerprint = (AlgorithmKind, Vec<u64>, Vec<u64>, Vec<AccessCounters>);

fn fingerprint(choice: AlgorithmKind, result: &TopKResult) -> Fingerprint {
    (
        choice,
        result.item_ids().iter().map(|i| i.0).collect(),
        result
            .scores()
            .iter()
            .map(|s| s.value().to_bits())
            .collect(),
        result.stats().per_list.clone(),
    )
}

struct ConfigRow {
    batch_size: usize,
    threads: usize,
    elapsed: Duration,
    wall_speedup: f64,
    modelled_speedup: f64,
    pool_tasks: usize,
    identical: bool,
}

fn throughput(batch_size: usize, elapsed: Duration) -> f64 {
    batch_size as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn main() {
    let scale = BenchScale::from_env();
    print_header(
        "Batch scaling",
        "batched top-k throughput: one pool job per query on the work-stealing pool",
        scale.label(),
    );

    let n = scale.default_n();
    let db = DatabaseSpec::new(DatabaseKind::Uniform, NUM_LISTS, n).generate(BENCH_SEED);
    let stats = DatabaseStats::collect(&db);
    println!(
        "uniform database: m = {NUM_LISTS}, n = {n}; planner-selected algorithm per query; \
         k cycles over 10/20/40"
    );

    let batch_sizes = [8usize, 32];
    let thread_counts = [1usize, 2, 4, 8];

    // Trace the whole sweep (pool dispatches, per-job query spans) under
    // the bench-only wall clock; counts go in the ungated trace section,
    // wall nanos in TREND_batch_scaling.json.
    let trace_session = topk_trace::TraceSession::begin_with_clock(Box::new(WallClock::new()));
    let mut rows: Vec<ConfigRow> = Vec::new();
    let mut baselines: Vec<(usize, Duration)> = Vec::new();
    let mut access_totals: Vec<(usize, u64)> = Vec::new();

    for &batch_size in &batch_sizes {
        let batch_queries = queries(batch_size);

        // Single-thread baseline: the same queries, planned and executed
        // one after another on the calling thread.
        let started = Instant::now();
        let reference: Vec<Fingerprint> = batch_queries
            .iter()
            .map(|query| {
                let (plan, result) = plan_and_run_on(&mut Sources::in_memory(&db), &stats, query)
                    .expect("baseline query");
                fingerprint(plan.choice(), &result)
            })
            .collect();
        let baseline_elapsed = started.elapsed();
        baselines.push((batch_size, baseline_elapsed));
        let batch_accesses: u64 = reference
            .iter()
            .flat_map(|(_, _, _, per_list)| per_list.iter().map(AccessCounters::total))
            .sum();
        access_totals.push((batch_size, batch_accesses));

        for &threads in &thread_counts {
            let pool = ThreadPool::new(threads);
            let batch = QueryBatch::with_queries(batch_queries.clone());

            let started = Instant::now();
            let outcomes = batch
                .run_planned(&pool, &stats, || Sources::in_memory(&db))
                .expect("batched query");
            let elapsed = started.elapsed();
            let pool_tasks = pool.tasks_executed();

            let identical = outcomes.len() == reference.len()
                && outcomes
                    .iter()
                    .zip(&reference)
                    .all(|((plan, result), expected)| {
                        &fingerprint(plan.choice(), result) == expected
                    });

            // Deterministic schedule model over the batch's measured
            // per-query access costs.
            let costs: Vec<u64> = outcomes
                .iter()
                .map(|(_, result)| result.stats().total_accesses())
                .collect();
            let modelled_speedup = model::speedup(&costs, threads);
            let wall_speedup = baseline_elapsed.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);

            rows.push(ConfigRow {
                batch_size,
                threads,
                elapsed,
                wall_speedup,
                modelled_speedup,
                pool_tasks,
                identical,
            });
        }
    }

    println!();
    println!(
        "{:>6} {:>8}  {:>10} {:>10} {:>6}  {:>9} {:>7} {:>10}",
        "batch", "threads", "wall ms", "queries/s", "wall x", "model x", "tasks", "identical"
    );
    for (batch_size, elapsed) in &baselines {
        println!(
            "{:>6} {:>8}  {:>10.2} {:>10.0} {:>6}  {:>9} {:>7} {:>10}",
            batch_size,
            "seq",
            elapsed.as_secs_f64() * 1e3,
            throughput(*batch_size, *elapsed),
            "1.00",
            "1.00",
            "-",
            "baseline"
        );
    }
    for row in &rows {
        println!(
            "{:>6} {:>8}  {:>10.2} {:>10.0} {:>6.2}  {:>9.2} {:>7} {:>10}",
            row.batch_size,
            row.threads,
            row.elapsed.as_secs_f64() * 1e3,
            throughput(row.batch_size, row.elapsed),
            row.wall_speedup,
            row.modelled_speedup,
            row.pool_tasks,
            if row.identical { "yes" } else { "NO" },
        );
    }

    println!();
    println!(
        "wall x is hardware (this machine runs the pool on however many cores it has); \
         model x is the deterministic greedy schedule of topk_pool::model over the \
         measured per-query access costs — the reproducible figure CI gates on. \
         tasks counts pool-dispatched jobs: exactly one per query. A 1-thread row is one \
         worker plus the submitting thread, which helps run queued jobs while it waits, \
         so its wall x can exceed 1 where model x reads 1.00."
    );

    // Acceptance: bit-identical everywhere, one pool job per query, and
    // the modelled batched throughput at the gate configurations beats
    // single-thread by 1.5x.
    let mut failed = false;
    if let Some(broken) = rows.iter().find(|row| !row.identical) {
        eprintln!(
            "FAILED: batched run diverged from sequential planning at batch {} / {} threads",
            broken.batch_size, broken.threads
        );
        failed = true;
    }
    // Fewer tasks than queries means queries ran inline (no parallelism);
    // more means something besides the queries was dispatched. Task
    // submission is deterministic (one job per query, whatever the
    // scheduling), so this check cannot flake.
    for row in rows.iter().filter(|row| row.pool_tasks != row.batch_size) {
        eprintln!(
            "FAILED: {} pool tasks for {} query jobs at batch {} / {} threads",
            row.pool_tasks, row.batch_size, row.batch_size, row.threads
        );
        failed = true;
    }
    let gate = rows
        .iter()
        .filter(|row| row.threads >= GATE_THREADS)
        .min_by(|a, b| a.modelled_speedup.total_cmp(&b.modelled_speedup));
    match gate {
        Some(row) => {
            println!(
                "gate: worst modelled speedup at >= {GATE_THREADS} threads is {:.2}x \
                 (batch {}, {} threads; acceptance: >= {GATE_SPEEDUP}x)",
                row.modelled_speedup, row.batch_size, row.threads
            );
            if row.modelled_speedup < GATE_SPEEDUP {
                eprintln!("FAILED: batched throughput below the {GATE_SPEEDUP}x acceptance bar");
                failed = true;
            }
        }
        None => {
            eprintln!("FAILED: no configuration at the gate point was measured");
            failed = true;
        }
    }

    // Machine-readable summary: only the deterministic figures (modelled
    // speedups, pool task counts, access totals) — never wall-clock.
    let mut summary = BenchReport::new("batch_scaling", scale.label());
    for (batch_size, accesses) in &access_totals {
        summary.push(&format!("total_accesses.b{batch_size}"), *accesses as f64);
    }
    if let Some(row) = gate {
        summary.push("gate_worst_model_speedup", row.modelled_speedup);
    }
    for row in &rows {
        let key = format!("b{}.t{}", row.batch_size, row.threads);
        summary.push(&format!("model_x.{key}"), row.modelled_speedup);
        summary.push(&format!("pool_tasks.{key}"), row.pool_tasks as f64);
    }
    let trace = trace_session.finish();
    summary.attach_trace_summary(&trace);
    summary.emit().expect("writing the bench JSON report");

    let mut trend = TrendReport::new("batch_scaling", scale.label());
    trend.push("sweep_wall_nanos", trace.clock_nanos);
    trend.emit().expect("writing the trend JSON report");

    if failed {
        eprintln!("batch scaling FAILED the acceptance bar");
        std::process::exit(1);
    }
    println!("batch scaling passed");
}
