//! Tracing is observation-only (the PR 9 acceptance property): wrapping
//! a run in a [`TraceSession`] — with the `.traced()` source decorator
//! where one applies — must leave everything the run *computes*
//! bit-identical to the untraced run. Answers (exact score bits),
//! `RunStats` (everything but the wall-clock `elapsed`), the paged
//! backend's cache counters and the cluster backend's `NetworkStats`
//! are all compared across every one of the seven algorithms on the
//! in-memory, sharded, paged and cluster backends.
//!
//! The flip side is pinned too: the trace itself is deterministic —
//! running the same traced workload twice yields byte-identical
//! `Trace::to_json()` exports, pool fan-out and LRU eviction included.

use bpa_topk::distributed::ClusterRuntime;
use bpa_topk::lists::{ShardedDatabase, Sources};
use bpa_topk::pool::ThreadPool;
use bpa_topk::prelude::*;
use bpa_topk::trace::{Trace, TraceSession};
use topk_core::examples_paper::figure1_database;

/// Everything observable about a run except wall-clock time: answers
/// (with exact score bits) and the non-wall fields of `RunStats`.
type Essence = (
    Vec<(ItemId, u64)>,
    AccessCounters,
    Vec<AccessCounters>,
    Option<usize>,
    u64,
    usize,
);

fn essence(result: &TopKResult) -> Essence {
    (
        result
            .items()
            .iter()
            .map(|r| (r.item, r.score.value().to_bits()))
            .collect(),
        result.stats().accesses,
        result.stats().per_list.clone(),
        result.stats().stop_position,
        result.stats().rounds,
        result.stats().items_scored,
    )
}

fn test_databases() -> Vec<(&'static str, Database)> {
    vec![
        ("figure1", figure1_database()),
        (
            "uniform",
            DatabaseSpec::new(DatabaseKind::Uniform, 4, 400).generate(42),
        ),
    ]
}

/// In-memory and sharded backends: tracing through the `.traced()`
/// decorator (and the instrumented `run_on`/pool paths underneath)
/// changes no answer and no counter, for any algorithm.
#[test]
fn tracing_leaves_in_memory_and_sharded_runs_bit_identical() {
    let pool = ThreadPool::new(3);
    for (name, db) in test_databases() {
        let sharded = ShardedDatabase::new(&db, 4);
        let query = TopKQuery::top(5.min(db.num_items()));
        for algorithm in AlgorithmKind::ALL {
            let mut plain = Sources::in_memory(&db);
            let untraced = algorithm.create().run_on(&mut plain, &query).unwrap();
            let mut plain_sharded = sharded.sources(&pool);
            let untraced_sharded = algorithm
                .create()
                .run_on(&mut plain_sharded, &query)
                .unwrap();

            let session = TraceSession::begin();
            let mut traced_sources = Sources::in_memory(&db).traced();
            let traced = algorithm
                .create()
                .run_on(&mut traced_sources, &query)
                .unwrap();
            let mut traced_sharded_sources = sharded.sources(&pool).traced();
            let traced_sharded = algorithm
                .create()
                .run_on(&mut traced_sharded_sources, &query)
                .unwrap();
            let trace = session.finish();

            assert_eq!(
                essence(&traced),
                essence(&untraced),
                "{algorithm:?} on {name}: tracing perturbed the in-memory run"
            );
            assert_eq!(
                essence(&traced_sharded),
                essence(&untraced_sharded),
                "{algorithm:?} on {name}: tracing perturbed the sharded run"
            );
            assert!(
                trace.count_kind("query_begin") == 2 && trace.count_kind("query_end") == 2,
                "{algorithm:?} on {name}: both traced runs must appear in the trace"
            );
        }
    }
}

/// Paged backend: answers, `RunStats` *and the LRU hit/miss counters*
/// are bit-identical traced vs untraced — the cache events are recorded
/// off the same code path that counts, never a second one.
#[test]
fn tracing_leaves_paged_runs_and_cache_counters_bit_identical() {
    for (name, db) in test_databases() {
        let dir = ScratchDir::new(&format!("trace-observation-{name}"));
        let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(64)).unwrap();
        let query = TopKQuery::top(5.min(db.num_items()));
        for algorithm in AlgorithmKind::ALL {
            for capacity in [CacheCapacity::Pages(2), CacheCapacity::Unbounded] {
                let mut plain = paged.sources(capacity).unwrap();
                let untraced = algorithm.create().run_on(&mut plain, &query).unwrap();
                let untraced_cache = plain.total_cache_counters();

                let session = TraceSession::begin();
                let mut traced_sources = paged.sources(capacity).unwrap().traced();
                let traced = algorithm
                    .create()
                    .run_on(&mut traced_sources, &query)
                    .unwrap();
                let traced_cache = traced_sources.total_cache_counters();
                let trace = session.finish();

                assert_eq!(
                    essence(&traced),
                    essence(&untraced),
                    "{algorithm:?} on {name} {capacity:?}: tracing perturbed the paged run"
                );
                assert_eq!(
                    traced_cache, untraced_cache,
                    "{algorithm:?} on {name} {capacity:?}: tracing perturbed the cache"
                );
                assert_eq!(
                    trace.count_kind("cache_miss"),
                    traced_cache.misses,
                    "{algorithm:?} on {name} {capacity:?}: one cache_miss event per miss"
                );
            }
        }
    }
}

/// Cluster backend: tracing changes neither the answers nor a single
/// field of the `NetworkStats` — message counts, payload units and the
/// simulated schedule are untouched by observation.
#[test]
fn tracing_leaves_cluster_runs_and_network_stats_bit_identical() {
    for (name, db) in test_databases() {
        let runtime = ClusterRuntime::spawn(&db);
        let query = TopKQuery::top(3.min(db.num_items()));
        for algorithm in AlgorithmKind::ALL {
            let mut plain = runtime.connect();
            let untraced = algorithm.create().run_on(&mut plain, &query).unwrap();
            let untraced_network = plain.network();

            let session = TraceSession::begin();
            let mut traced_session = runtime.connect();
            let traced = algorithm
                .create()
                .run_on(&mut traced_session, &query)
                .unwrap();
            let traced_network = traced_session.network();
            session.finish();

            assert_eq!(
                essence(&traced),
                essence(&untraced),
                "{algorithm:?} on {name}: tracing perturbed the cluster run"
            );
            assert_eq!(
                traced_network, untraced_network,
                "{algorithm:?} on {name}: tracing perturbed the network accounting"
            );
        }
    }
}

/// One traced multi-backend workload, exercising the planner, the pool
/// fan-out and the page cache; used twice by the determinism test.
fn traced_workload() -> Trace {
    let pool = ThreadPool::new(3);
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 4, 400).generate(42);
    let stats = DatabaseStats::collect(&db);
    let sharded = ShardedDatabase::new(&db, 8);
    let dir = ScratchDir::new("trace-determinism");
    let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(64)).unwrap();
    let query = TopKQuery::top(5);

    let session = TraceSession::begin();
    let mut memory = Sources::in_memory(&db).traced();
    plan_and_run_on(&mut memory, &stats, &query).unwrap();
    let mut disk = paged.sources(CacheCapacity::Pages(2)).unwrap().traced();
    Bpa2.run_on(&mut disk, &query).unwrap();
    // A batched scan over sharded sources spans shards, so the pool
    // fan-out (scope/job lanes) is part of the exported trace.
    let mut fanned = sharded.sources(&pool).traced().batched(128);
    NaiveScan.run_on(&mut fanned, &query).unwrap();
    session.finish()
}

/// Two traced runs of the same workload export byte-identical JSON:
/// lanes, sequence numbers, logical clock and event payloads all
/// reproduce exactly, even through the work-stealing pool.
#[test]
fn traced_runs_export_byte_identical_json() {
    let first = traced_workload();
    let second = traced_workload();
    let first_json = first.to_json();
    assert_eq!(first_json, second.to_json());
    assert!(first.count_kind("pool_dispatch") > 0, "fan-out was traced");
    assert!(first.count_kind("cache_miss") > 0, "the cache was traced");
    topk_trace::verify_json(&first_json).expect("export matches the committed schema");
}

/// One traced workload under injected faults: a flake storm recovered by
/// retries, a crash recovered by replica failover, and a degraded serve
/// over the survivors of a dead list.
fn faulted_workload() -> Trace {
    use bpa_topk::distributed::{FaultKind, FaultPlan, SessionOptions};

    let db = figure1_database();
    let query = TopKQuery::top(3);
    let session = TraceSession::begin();

    let runtime = ClusterRuntime::spawn(&db);
    let flaky_plan = FaultPlan::new();
    flaky_plan.arm(4, FaultKind::Flake(2));
    let mut flaky = runtime.connect_with(SessionOptions::with_faults(flaky_plan));
    Bpa2.run_on(&mut flaky, &query).unwrap();

    let replicated = ClusterRuntime::spawn_replicated(&db, 2);
    let crash_plan = FaultPlan::new();
    crash_plan.arm(6, FaultKind::Crash);
    let mut crashing = replicated.connect_with(SessionOptions::with_faults(crash_plan));
    Bpa2.run_on(&mut crashing, &query).unwrap();

    let mut surviving = runtime.connect_surviving(&[2]);
    run_on_degraded(&Bpa2, &mut surviving, &query, &[runtime.outage(2)]).unwrap();

    session.finish()
}

/// Fault injection, retries, failover and degraded serving are all
/// traced — and the faulted trace is just as deterministic as a clean
/// one: two identical faulted workloads export byte-identical JSON.
#[test]
fn faulted_runs_export_byte_identical_json() {
    let first = faulted_workload();
    let second = faulted_workload();
    let json = first.to_json();
    assert_eq!(json, second.to_json());
    assert_eq!(first.count_kind("fault_injected"), 3, "2 flakes + 1 crash");
    assert_eq!(first.count_kind("retry"), 2, "each flake costs one retry");
    assert_eq!(first.count_kind("failover"), 1);
    assert_eq!(first.count_kind("degraded_serve"), 1);
    topk_trace::verify_json(&json).expect("export matches the committed schema");
}

/// The `session_open` events recorded while `open` runs, as owner counts.
fn session_opens(open: impl FnOnce()) -> Vec<u64> {
    use bpa_topk::trace::TraceEvent;

    let session = TraceSession::begin();
    open();
    let trace = session.finish();
    trace
        .events
        .iter()
        .filter_map(|record| match record.event {
            TraceEvent::SessionOpen { owners } => Some(owners),
            _ => None,
        })
        .collect()
}

/// Every way to open a runtime session records exactly one
/// `session_open`, carrying the number of owners the session reaches: a
/// repeated dead list is one list, not two.
#[test]
fn every_runtime_session_records_one_session_open() {
    use bpa_topk::distributed::{AsyncClusterSources, SessionOptions};

    let runtime = ClusterRuntime::spawn(&figure1_database());
    assert_eq!(session_opens(|| drop(runtime.connect())), [3]);
    let with_options = || drop(runtime.connect_with(SessionOptions::default()));
    assert_eq!(session_opens(with_options), [3]);
    let batched = || drop(AsyncClusterSources::batched(&runtime, 4));
    assert_eq!(session_opens(batched), [3]);
    assert_eq!(
        session_opens(|| drop(runtime.connect_surviving(&[2, 2]))),
        [2]
    );
}
