//! Cross-backend equivalence: every distributed protocol must behave
//! exactly like its local (in-memory) counterpart, because both are the
//! *same* `topk_core` algorithm running over a different `SourceSet`
//! backend.
//!
//! The message/payload figures asserted here were captured from the
//! original hand-written protocols (which re-implemented TA/BPA/BPA2
//! against a synchronous in-thread cluster), so this suite pins the
//! backend-generic execution over `ClusterRuntime` sessions to the old
//! wire behaviour: same answers, same access counts, same message counts,
//! same payload units — on the paper's figure databases and on all three
//! `topk-datagen` families.

//! The disk-backed paged backend is pinned the same way (see the
//! "paged" tests at the bottom): `PagedSource` must be indistinguishable
//! from `InMemorySource` — identical answers, per-mode access counters
//! and `RunStats` — across page sizes and cache capacities, with the
//! physical difference visible only in the cache hit/miss counters.
//!
//! Below the algorithms, one access script (sorted, random, direct and
//! block accesses, tracked and untracked, in and out of bounds, and
//! resets) runs against every backend list by list: the replies,
//! counters and best positions must match step for step, and must agree
//! with a seen-set the test keeps itself.

use bpa_topk::datagen::{DatabaseKind, DatabaseSpec};
use bpa_topk::distributed::{
    AsyncClusterSources, ClusterRuntime, FaultStats, LatencyModel, SessionOptions,
};
use bpa_topk::lists::Database;
use bpa_topk::prelude::*;
use topk_core::examples_paper::{figure1_database, figure2_database};

mod common;
use common::DefaultBlockPath;

/// (accesses, messages, payload units, rounds) captured from the
/// original protocol implementations.
type Baseline = (u64, u64, u64, u64);

/// The algorithms the paper distributes (Section 5).
const PROTOCOLS: [AlgorithmKind; 3] = [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2];

/// A runtime session that sends nothing ahead: it forwards every call
/// except `prefetch_random`, so the trait's no-op default applies and
/// each access is one exchange, made when the access is.
struct Serial<'r>(AsyncClusterSources<'r>);

impl SourceSet for Serial<'_> {
    fn num_lists(&self) -> usize {
        self.0.num_lists()
    }

    fn source(&mut self, i: usize) -> &mut dyn ListSource {
        self.0.source(i)
    }

    fn source_ref(&self, i: usize) -> &dyn ListSource {
        self.0.source_ref(i)
    }

    fn begin_round(&mut self) {
        self.0.begin_round();
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

fn check_equivalence(db: &Database, runtime: &ClusterRuntime, k: usize, kind: AlgorithmKind) {
    let query = TopKQuery::top(k);
    let local = kind.create().run(db, &query).unwrap();
    let mut session = runtime.connect();
    let remote = kind.create().run_on(&mut session, &query).unwrap();

    // Identical answers, in identical order.
    assert_eq!(remote.scores(), local.scores(), "{kind:?} k={k}");
    assert_eq!(remote.item_ids(), local.item_ids(), "{kind:?} k={k}");

    // Identical access counts and rounds: the owners serve exactly the
    // accesses the in-memory backend counts.
    let served = (session.accesses_served(), remote.stats().rounds);
    let counted = (local.stats().total_accesses(), local.stats().rounds);
    assert_eq!(served, counted, "{kind:?} k={k}");

    // Per-round network accounting is exhaustive.
    let network = session.network();
    let per_round_messages: u64 = network.per_round.iter().map(|r| r.messages).sum();
    assert_eq!(per_round_messages, network.messages);
}

/// Every protocol, over every datagen family, agrees with its local
/// counterpart and keeps the original message economics (two messages
/// per access).
#[test]
fn protocols_match_local_algorithms_on_all_datagen_families() {
    for kind in [
        DatabaseKind::Uniform,
        DatabaseKind::Gaussian,
        DatabaseKind::Correlated { alpha: 0.05 },
    ] {
        let db = DatabaseSpec::new(kind, 4, 800).generate(42);
        let runtime = ClusterRuntime::spawn(&db);
        for protocol in PROTOCOLS {
            for k in [1, 5, 25] {
                check_equivalence(&db, &runtime, k, protocol);
            }
        }
        // The naive baseline runs over the same backend.
        check_equivalence(&db, &runtime, 5, AlgorithmKind::Naive);
    }
}

/// The exact figures of the original protocol implementations, on the
/// paper's figure databases and the three generated families: the core
/// algorithms over runtime sessions must reproduce them to the message.
#[test]
fn network_figures_match_the_pre_refactor_implementations() {
    let cases: Vec<(Database, usize, [Baseline; 3])> = vec![
        (
            figure1_database(),
            3,
            [
                (54, 108, 144, 6), // distributed-ta
                (27, 54, 90, 3),   // distributed-bpa
                (27, 54, 75, 3),   // distributed-bpa2
            ],
        ),
        (
            figure2_database(),
            3,
            [(63, 126, 168, 7), (63, 126, 210, 7), (36, 72, 100, 4)],
        ),
        (
            DatabaseSpec::new(DatabaseKind::Uniform, 4, 800).generate(42),
            5,
            [
                (2288, 4576, 5720, 143),
                (2272, 4544, 7384, 142),
                (1696, 3392, 4243, 106),
            ],
        ),
        (
            DatabaseSpec::new(DatabaseKind::Gaussian, 4, 800).generate(42),
            5,
            [
                (1280, 2560, 3200, 80),
                (1280, 2560, 4160, 80),
                (1088, 2176, 2720, 68),
            ],
        ),
        (
            DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.05 }, 4, 800).generate(42),
            5,
            [(96, 192, 240, 6), (96, 192, 312, 6), (64, 128, 165, 4)],
        ),
    ];

    // One runtime per database serves all three protocols, a session each.
    for (db, k, baselines) in &cases {
        let runtime = ClusterRuntime::spawn(db);
        for (protocol, &(accesses, messages, payload, rounds)) in PROTOCOLS.iter().zip(baselines) {
            let mut session = runtime.connect();
            let result = protocol
                .create()
                .run_on(&mut session, &TopKQuery::top(*k))
                .unwrap();
            let network = session.network();
            let label = format!("{protocol:?} (n={}, k={k})", db.num_items());
            assert_eq!(session.accesses_served(), accesses, "accesses of {label}");
            assert_eq!(network.messages, messages, "messages of {label}");
            assert_eq!(network.payload_units, payload, "payload of {label}");
            assert_eq!(result.stats().rounds, rounds, "rounds of {label}");
        }
    }
}

/// Any core algorithm — not just the three the paper distributes — returns
/// identical answers over the cluster backend, with identical per-mode
/// access counters.
#[test]
fn every_algorithm_is_backend_agnostic() {
    for kind in [
        DatabaseKind::Uniform,
        DatabaseKind::Gaussian,
        DatabaseKind::Correlated { alpha: 0.05 },
    ] {
        let db = DatabaseSpec::new(kind, 3, 300).generate(7);
        let query = TopKQuery::top(8);
        let runtime = ClusterRuntime::spawn(&db);
        for algorithm in AlgorithmKind::ALL {
            let local = algorithm.create().run(&db, &query).unwrap();
            let mut session = runtime.connect();
            let remote = algorithm.create().run_on(&mut session, &query).unwrap();
            assert!(
                remote.scores_match(&local, 1e-9),
                "{algorithm:?} answers diverge over the cluster backend"
            );
            assert_eq!(
                remote.stats().accesses,
                local.stats().accesses,
                "{algorithm:?} access counters diverge over the cluster backend"
            );
        }
    }
}

/// Batching: the naive scan over a batched cluster returns the same
/// answers while exchanging a small fraction of the messages.
#[test]
fn batched_cluster_scans_cut_messages_without_changing_answers() {
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 3, 400).generate(11);
    let query = TopKQuery::top(10);

    let runtime = ClusterRuntime::spawn(&db);
    let mut unbatched = runtime.connect();
    let reference = NaiveScan.run_on(&mut unbatched, &query).unwrap();

    let mut batched = AsyncClusterSources::batched(&runtime, 64);
    let result = NaiveScan.run_on(&mut batched, &query).unwrap();

    assert!(result.scores_match(&reference, 1e-9));
    let full = unbatched.network();
    let coalesced = batched.network();
    // 400 per-position exchanges per list become ceil(400/64) = 7 blocks.
    assert_eq!(full.messages, 2 * 3 * 400);
    assert_eq!(coalesced.messages, 2 * 3 * 7);
    assert!(coalesced.payload_units < full.payload_units);
}

/// Tracked sorted blocks return identical `SourceEntry` sequences on
/// both backends: the best-position piggyback is block-level (last entry
/// only) everywhere, so consumers cannot observe which backend served
/// them.
#[test]
fn tracked_sorted_blocks_agree_across_backends() {
    use bpa_topk::lists::{Position, Sources};

    let db = figure1_database();
    let mut in_memory = Sources::in_memory(&db);
    let runtime = ClusterRuntime::spawn(&db);
    let mut remote = runtime.connect();

    for (start, len) in [(1, 4), (5, 3), (8, 99)] {
        let start = Position::new(start).unwrap();
        let local_block = in_memory.source(0).sorted_block(start, len, true);
        let remote_block = remote.source(0).sorted_block(start, len, true);
        assert_eq!(local_block, remote_block, "block at {start:?} x {len}");
    }
    assert_eq!(
        in_memory.source_ref(0).best_position(),
        remote.source_ref(0).best_position()
    );
    assert_eq!(
        in_memory.source_ref(0).counters(),
        remote.source_ref(0).counters()
    );
}

/// `run_all` over a session on a replicated cluster: the shared
/// `SourceSet` is reset between algorithms, through every replica's link,
/// so each run reports the same counts as a fresh in-memory run.
#[test]
fn run_all_over_a_cluster_resets_between_algorithms() {
    let db = figure1_database();
    let query = TopKQuery::top(3);
    let runtime = ClusterRuntime::spawn_replicated(&db, 2);
    let mut session = runtime.connect();
    let results = run_all(&AlgorithmKind::EVALUATED, &mut session, &query).unwrap();
    for (kind, result) in &results {
        let fresh = kind.create().run(&db, &query).unwrap();
        assert_eq!(result.stats().accesses, fresh.stats().accesses, "{kind:?}");
        assert!(result.scores_match(&fresh, 1e-9), "{kind:?}");
    }
}

/// `run_all` over one async-runtime session: the session resets between
/// algorithms exactly like every other `SourceSet`, so a single session
/// can sweep the whole algorithm suite.
#[test]
fn run_all_over_a_runtime_session_resets_between_algorithms() {
    let db = figure1_database();
    let query = TopKQuery::top(3);
    let runtime = ClusterRuntime::spawn(&db);
    let mut session = runtime.connect();
    let results = run_all(&AlgorithmKind::EVALUATED, &mut session, &query).unwrap();
    for (kind, result) in &results {
        let fresh = kind.create().run(&db, &query).unwrap();
        assert_eq!(result.stats().accesses, fresh.stats().accesses, "{kind:?}");
        assert!(result.scores_match(&fresh, 1e-9), "{kind:?}");
    }
}

/// Requests in flight change nothing observable: every one of the seven
/// algorithms, on the paper's figure databases and all three datagen
/// families, returns over a runtime session the answers and per-mode
/// access counters of the in-memory backend, AND the `NetworkStats` of a
/// serial session of the same runtime — same messages, same payload,
/// same rounds, same simulated serialized/overlapped timings. The pin
/// also covers the benchmark's cluster shape (uniform, m = 4,
/// n = 2 000, k ∈ {10, 20, 50}), plain and batched, where TA, BPA and
/// BPA2 keep each item's m − 1 random-access requests in flight together.
#[test]
fn prefetching_sessions_match_serial_sessions_everywhere() {
    let mut databases = vec![figure1_database(), figure2_database()];
    for kind in [
        DatabaseKind::Uniform,
        DatabaseKind::Gaussian,
        DatabaseKind::Correlated { alpha: 0.05 },
    ] {
        databases.push(DatabaseSpec::new(kind, 4, 400).generate(42));
    }
    for db in &databases {
        let k = 3.min(db.num_items());
        assert_session_matches_serial(db, &[k], None);
    }

    let workload = DatabaseSpec::new(DatabaseKind::Uniform, 4, 2_000).generate(7);
    assert_session_matches_serial(&workload, &[10, 20, 50], None);
    assert_session_matches_serial(&workload, &[10, 20, 50], Some(16));
}

/// Runs every algorithm for every `k` in memory, over a serial session
/// and over a plain session of one runtime (all three batched when
/// `block_len` is set), and asserts they agree exactly.
fn assert_session_matches_serial(db: &Database, ks: &[usize], block_len: Option<usize>) {
    let latency = LatencyModel::lan(db.num_lists(), 2007);
    let runtime = ClusterRuntime::with_latency(db, TrackerKind::BitArray, latency);
    let options = || SessionOptions {
        block_len,
        ..SessionOptions::default()
    };
    for &k in ks {
        let query = TopKQuery::top(k);
        for algorithm in AlgorithmKind::ALL {
            let reference = match block_len {
                None => algorithm.create().run(db, &query),
                Some(len) => algorithm
                    .create()
                    .run_on(&mut Sources::in_memory(db).batched(len), &query),
            }
            .unwrap();
            let mut serial = Serial(runtime.connect_with(options()));
            algorithm.create().run_on(&mut serial, &query).unwrap();
            let mut session = runtime.connect_with(options());
            let result = algorithm.create().run_on(&mut session, &query).unwrap();
            let case = format!("{algorithm:?} k={k} block_len={block_len:?}");

            assert!(
                result.scores_match(&reference, 1e-9),
                "{case}: answers diverge over the runtime"
            );
            assert_eq!(result.item_ids(), reference.item_ids(), "{case}");
            assert_eq!(
                result.stats().accesses,
                reference.stats().accesses,
                "{case}: access counters diverge over the runtime"
            );
            assert_eq!(
                session.network(),
                serial.0.network(),
                "{case}: requests in flight changed the network accounting"
            );
            assert_eq!(
                session.accesses_served(),
                serial.0.accesses_served(),
                "{case}"
            );
            assert_eq!(session.fault_stats(), FaultStats::default(), "{case}");
        }
    }
}

/// One shared runtime, many originators: concurrent queries from separate
/// threads each open their own session and must all get the right answers
/// with the right access counts — per-session owner state (trackers,
/// counters) cannot bleed across sessions.
#[test]
fn concurrent_queries_share_one_runtime() {
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 4, 300).generate(13);
    let runtime = ClusterRuntime::spawn(&db);

    let kinds = [AlgorithmKind::Ta, AlgorithmKind::Bpa2, AlgorithmKind::Tput];
    let expected: Vec<_> = kinds
        .iter()
        .map(|kind| {
            let query = TopKQuery::top(7);
            kind.create().run(&db, &query).unwrap()
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let runtime = &runtime;
            let db = &db;
            let expected = &expected;
            scope.spawn(move || {
                // Interleave algorithms differently per thread so sessions
                // overlap in every combination.
                for step in 0..6 {
                    let which = (worker + step) % kinds.len();
                    let query = TopKQuery::top(7);
                    let mut session = runtime.connect();
                    let result = kinds[which].create().run_on(&mut session, &query).unwrap();
                    assert!(
                        result.scores_match(&expected[which], 1e-9),
                        "thread {worker} step {step}: {:?} answers corrupted",
                        kinds[which]
                    );
                    assert_eq!(
                        result.stats().accesses,
                        expected[which].stats().accesses,
                        "thread {worker} step {step}: {:?} counters corrupted",
                        kinds[which]
                    );
                    let reference = kinds[which].create().run(db, &query).unwrap();
                    assert!(reference.scores_match(&expected[which], 1e-9));
                }
            });
        }
    });
}

/// The acceptance criterion of the async-runtime issue: for the
/// round-synchronous protocols — TPUT and the batched naive scan — the
/// simulated overlapped makespan beats the serialized schedule at m ≥ 4,
/// because their rounds spread work evenly over the m owner lanes.
#[test]
fn overlap_beats_serialization_for_round_synchronous_protocols() {
    for m in [4, 8] {
        let db = DatabaseSpec::new(DatabaseKind::Uniform, m, 400).generate(29);
        let runtime =
            ClusterRuntime::with_latency(&db, TrackerKind::BitArray, LatencyModel::lan(m, 5));
        let query = TopKQuery::top(5);

        // TPUT: three phases, each touching every list.
        let mut session = runtime.connect();
        Tput.run_on(&mut session, &query).unwrap();
        let tput = session.network();
        assert!(
            tput.makespan_nanos() < tput.serialized_nanos(),
            "TPUT at m = {m}: overlapped {} must beat serialized {}",
            tput.makespan_nanos(),
            tput.serialized_nanos()
        );
        assert!(
            tput.overlap_speedup().unwrap() > 1.5,
            "TPUT at m = {m}: speedup {:.2} too small",
            tput.overlap_speedup().unwrap()
        );

        // Batched naive: one scatter round of m independent block scans.
        let mut session = AsyncClusterSources::batched(&runtime, 64);
        NaiveScan.run_on(&mut session, &query).unwrap();
        let naive = session.network();
        assert!(
            naive.makespan_nanos() < naive.serialized_nanos(),
            "batched naive at m = {m}: overlapped {} must beat serialized {}",
            naive.makespan_nanos(),
            naive.serialized_nanos()
        );
        assert!(
            naive.overlap_speedup().unwrap() > m as f64 / 2.0,
            "batched naive at m = {m}: speedup {:.2} should approach m",
            naive.overlap_speedup().unwrap()
        );
    }
}

/// Position-chasing BPA2 overlaps too (its rounds still touch every
/// list), but the timings must stay internally consistent: the makespan
/// never exceeds the serialized schedule and never undercuts the
/// heaviest single-owner lane.
#[test]
fn makespan_is_bounded_by_serialized_time_for_every_algorithm() {
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 4, 400).generate(31);
    let runtime =
        ClusterRuntime::with_latency(&db, TrackerKind::BitArray, LatencyModel::wan(4, 17));
    for algorithm in AlgorithmKind::ALL {
        let mut session = runtime.connect();
        algorithm
            .create()
            .run_on(&mut session, &TopKQuery::top(5))
            .unwrap();
        let network = session.network();
        assert!(network.makespan_nanos() > 0, "{algorithm:?}");
        assert!(
            network.makespan_nanos() <= network.serialized_nanos(),
            "{algorithm:?}: makespan cannot exceed the serialized schedule"
        );
        for round in &network.per_round {
            assert!(round.makespan_nanos <= round.serialized_nanos);
        }
    }
}

/// The planner executes its chosen algorithm over the async runtime
/// through the same backend-generic entry point (`plan_and_run_on`), so
/// cost-based selection and the message-passing backend compose.
#[test]
fn plan_and_run_on_composes_with_the_runtime() {
    use topk_core::stats::DatabaseStats;
    use topk_core::{plan_and_run, plan_and_run_on};

    let db = DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.05 }, 4, 400).generate(23);
    let query = TopKQuery::top(5);
    let stats = DatabaseStats::collect(&db);

    let (local_plan, local_result) = plan_and_run(&db, &query).unwrap();

    let runtime = ClusterRuntime::spawn(&db);
    let mut session = runtime.connect();
    let (plan, result) = plan_and_run_on(&mut session, &stats, &query).unwrap();

    assert_eq!(plan.choice(), local_plan.choice());
    assert!(result.scores_match(&local_result, 1e-9));
    assert_eq!(result.stats().accesses, local_result.stats().accesses);
}

// --------------------------------------------------------------------
// Disk-backed paged sources (`topk-storage`)
// --------------------------------------------------------------------

use bpa_topk::lists::{AccessCounters, CacheCounters, ItemId, Sources};
use bpa_topk::pool::ThreadPool;

/// Everything observable about a run except wall-clock time: answers
/// (with exact score bits), total and per-list access counters, stop
/// position, rounds and items scored.
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

fn paged_test_databases() -> Vec<Database> {
    let mut databases = vec![figure1_database(), figure2_database()];
    for kind in [
        DatabaseKind::Uniform,
        DatabaseKind::Gaussian,
        DatabaseKind::Correlated { alpha: 0.05 },
    ] {
        databases.push(DatabaseSpec::new(kind, 4, 800).generate(42));
    }
    databases
}

/// The acceptance criterion of the storage issue: every one of the seven
/// algorithms, over the paper's figure databases and all three datagen
/// families, returns bit-identical answers and identical `RunStats` over
/// `PagedSource` and `InMemorySource` — at a page size that forces
/// multi-page lists and at the 4 KiB default, under a 1-page cache, a
/// 2-page cache and an unbounded one.
#[test]
fn paged_sources_match_in_memory_for_every_algorithm() {
    for (which, db) in paged_test_databases().iter().enumerate() {
        for page_size in [64usize, 4096] {
            let dir = ScratchDir::new(&format!("cross-backend-{which}-{page_size}"));
            let paged =
                PagedDatabase::create(dir.path(), db, PageLayout::with_page_size(page_size))
                    .unwrap();
            for capacity in [
                CacheCapacity::Pages(1),
                CacheCapacity::Pages(2),
                CacheCapacity::Unbounded,
            ] {
                let mut sources = paged.sources(capacity).unwrap();
                for algorithm in AlgorithmKind::ALL {
                    for k in [1, 5.min(db.num_items())] {
                        let query = TopKQuery::top(k);
                        let reference = algorithm.create().run(db, &query).unwrap();
                        sources.reset();
                        let result = algorithm.create().run_on(&mut sources, &query).unwrap();
                        assert_eq!(
                            essence(&result),
                            essence(&reference),
                            "{algorithm:?} db {which} page {page_size} {capacity:?} k={k}"
                        );
                    }
                }
            }
        }
    }
}

/// Cache behaviour is deterministic (two cold-start runs count the same
/// hits and misses) and monotone (a smaller cache never misses less —
/// the LRU inclusion property), and per-list counters sum to the total.
#[test]
fn paged_cache_counters_are_deterministic_and_monotone() {
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 4, 800).generate(42);
    let dir = ScratchDir::new("cross-backend-cache");
    let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(64)).unwrap();
    let query = TopKQuery::top(5);

    let mut misses = Vec::new();
    for capacity in [
        CacheCapacity::Pages(1),
        CacheCapacity::Pages(2),
        CacheCapacity::Unbounded,
    ] {
        let mut sources = paged.sources(capacity).unwrap();
        Bpa2.run_on(&mut sources, &query).unwrap();
        let first = sources.total_cache_counters();
        assert!(first.misses > 0, "{capacity:?}: the data came off disk");

        let per_list = sources.per_list_cache_counters();
        let summed = per_list
            .iter()
            .fold(CacheCounters::default(), |acc, c| acc.combined(c));
        assert_eq!(
            summed, first,
            "{capacity:?}: per-list counters are exhaustive"
        );

        sources.reset();
        assert_eq!(sources.total_cache_counters(), CacheCounters::default());
        Bpa2.run_on(&mut sources, &query).unwrap();
        assert_eq!(
            sources.total_cache_counters(),
            first,
            "{capacity:?}: cold-start runs must count identically"
        );
        misses.push(first.misses);
    }
    assert!(
        misses[0] >= misses[1] && misses[1] >= misses[2],
        "shrinking the cache can only add misses: {misses:?}"
    );

    // The miss counters are exactly what the cost model prices.
    let model = CostModel::paper_default(db.num_items()).with_page_miss_cost(4.0);
    let counters = CacheCounters {
        hits: 10,
        misses: misses[0],
    };
    assert_eq!(model.io_cost(&counters), misses[0] as f64 * 4.0);
}

/// The `.batched(block_len)` decorator composes over paged sources: the
/// batched naive scan returns the same essence over disk as over memory,
/// and the cache counters stay visible through the decorator.
#[test]
fn batched_decorator_composes_over_paged_sources() {
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 3, 400).generate(11);
    let dir = ScratchDir::new("cross-backend-batched");
    let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(64)).unwrap();
    let query = TopKQuery::top(10);

    let mut memory = Sources::in_memory(&db).batched(64);
    let reference = NaiveScan.run_on(&mut memory, &query).unwrap();

    let mut disk = paged.sources(CacheCapacity::Pages(2)).unwrap().batched(64);
    let result = NaiveScan.run_on(&mut disk, &query).unwrap();

    assert_eq!(essence(&result), essence(&reference));
    assert!(
        disk.total_cache_counters().misses > 0,
        "cache counters must be forwarded through the decorator"
    );
    assert_eq!(memory.total_cache_counters(), CacheCounters::default());
}

/// `run_all` over one set of paged sources: the shared `SourceSet` (and
/// its page cache) is reset between algorithms, so each run reports the
/// same counts as a dedicated backend would.
#[test]
fn run_all_over_paged_sources_resets_between_algorithms() {
    let db = figure1_database();
    let query = TopKQuery::top(3);
    let dir = ScratchDir::new("cross-backend-run-all");
    let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(64)).unwrap();
    let mut sources = paged.sources(CacheCapacity::Pages(1)).unwrap();
    let results = run_all(&AlgorithmKind::EVALUATED, &mut sources, &query).unwrap();
    for (kind, result) in &results {
        let fresh = kind.create().run(&db, &query).unwrap();
        assert_eq!(essence(result), essence(&fresh), "{kind:?}");
    }
}

/// Cost-based planning and concurrent query batches compose over the
/// paged backend unchanged: same plan choices, same essences as the
/// in-memory backend.
#[test]
fn planner_and_query_batches_compose_over_paged_sources() {
    use topk_core::stats::DatabaseStats;
    use topk_core::{plan_and_run, plan_and_run_on};

    let db = DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.05 }, 4, 400).generate(23);
    let stats = DatabaseStats::collect(&db);
    let dir = ScratchDir::new("cross-backend-planner");
    let paged = PagedDatabase::create(dir.path(), &db, PageLayout::default()).unwrap();
    let query = TopKQuery::top(5);

    let (local_plan, local_result) = plan_and_run(&db, &query).unwrap();
    let mut sources = paged.sources(CacheCapacity::Pages(2)).unwrap();
    let (plan, result) = plan_and_run_on(&mut sources, &stats, &query).unwrap();
    assert_eq!(plan.choice(), local_plan.choice());
    assert_eq!(essence(&result), essence(&local_result));

    let pool = ThreadPool::new(2);
    let batch: QueryBatch = (1..=6).map(TopKQuery::top).collect();
    let over_disk = batch
        .run_planned(&pool, &stats, || {
            paged.sources(CacheCapacity::Pages(2)).unwrap()
        })
        .unwrap();
    let over_memory = batch
        .run_planned(&pool, &stats, || Sources::in_memory(&db))
        .unwrap();
    for (slot, ((disk_plan, disk_result), (memory_plan, memory_result))) in
        over_disk.iter().zip(&over_memory).enumerate()
    {
        assert_eq!(disk_plan.choice(), memory_plan.choice(), "query {slot}");
        assert_eq!(essence(disk_result), essence(memory_result), "query {slot}");
    }
}

/// Planner statistics are one sampling pass through the `SourceSet`
/// access model, so every backend yields exactly the in-memory statistics
/// — no in-memory copy needed to plan — and is left reset afterwards.
#[test]
fn statistics_are_identical_over_every_backend() {
    use bpa_topk::lists::ShardedDatabase;
    use topk_core::stats::DatabaseStats;

    let pool = ThreadPool::new(2);
    for (which, db) in paged_test_databases().iter().enumerate() {
        let expected = DatabaseStats::collect(db);
        let check = |label: &str, sources: &mut dyn SourceSet| {
            let stats = DatabaseStats::collect_on(sources).unwrap();
            assert_eq!(stats, expected, "db {which} over {label}");
            assert_eq!(sources.total_counters(), AccessCounters::default());
            assert_eq!(sources.total_cache_counters(), CacheCounters::default());
        };
        check("in-memory", &mut Sources::in_memory(db));
        for shards in [1, 3, 64] {
            let sharded = ShardedDatabase::new(db, shards);
            check(&format!("{shards} shards"), &mut sharded.sources(&pool));
        }
        let dir = ScratchDir::new(&format!("cross-backend-stats-{which}"));
        let paged = PagedDatabase::create(dir.path(), db, PageLayout::with_page_size(64)).unwrap();
        check(
            "paged",
            &mut paged.sources(CacheCapacity::Pages(1)).unwrap(),
        );
        let runtime = ClusterRuntime::spawn(db);
        let mut session = runtime.connect();
        check("runtime session", &mut session);
        assert_eq!(session.network().messages, 0);
    }
}

/// A backend failure during statistics collection is a typed error, not
/// an unwind: every owner of list 0 is dead, so its source raises.
#[test]
fn statistics_over_a_failing_backend_are_a_typed_error() {
    use topk_core::stats::DatabaseStats;

    let runtime = ClusterRuntime::spawn(&figure1_database());
    runtime.kill_owner(0, 0);
    let err = DatabaseStats::collect_on(&mut runtime.connect()).unwrap_err();
    assert!(
        matches!(err, TopKError::Source(ref e) if e.list == Some(0)),
        "{err:?}"
    );
}

/// Sparse item ids (at or above 2^40, strided by 2^32 + 1) put every
/// list's item index in its hashed shape. TA, BPA and BPA2 must still be
/// bit-identical over every backend, and answer exactly like the same
/// database with dense ids (the id map is monotone, so tie order holds).
#[test]
fn sparse_item_ids_are_bit_identical_across_backends() {
    use bpa_topk::lists::ShardedDatabase;

    let sparse = |item: ItemId| ItemId((1 << 40) + item.0 * 0x1_0000_0001);
    let dense = DatabaseSpec::new(DatabaseKind::Uniform, 4, 600).generate(7);
    let lists = dense
        .lists()
        .map(|list| {
            list.iter()
                .map(|e| (sparse(e.item).0, e.score.value()))
                .collect()
        })
        .collect();
    let db = Database::from_unsorted_lists(lists).unwrap();

    let pool = ThreadPool::new(2);
    let sharded = ShardedDatabase::new(&db, 3);
    let dir = ScratchDir::new("cross-backend-sparse-ids");
    let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(256)).unwrap();
    let runtime = ClusterRuntime::spawn(&db);
    for kind in PROTOCOLS {
        for k in [1, 10] {
            let query = TopKQuery::top(k);
            let reference = kind.create().run(&db, &query).unwrap();
            let on_dense = kind.create().run(&dense, &query).unwrap();
            let mut expected = essence(&on_dense);
            for answer in &mut expected.0 {
                answer.0 = sparse(answer.0);
            }
            assert_eq!(essence(&reference), expected, "{kind:?} k={k} dense ids");
            let backends: [(&str, &mut dyn SourceSet); 3] = [
                ("sharded", &mut sharded.sources(&pool)),
                (
                    "paged",
                    &mut paged.sources(CacheCapacity::Pages(2)).unwrap(),
                ),
                ("cluster", &mut runtime.connect()),
            ];
            for (label, sources) in backends {
                let result = kind.create().run_on(sources, &query).unwrap();
                assert_eq!(
                    essence(&result),
                    essence(&reference),
                    "{kind:?} k={k} {label}"
                );
            }
        }
    }
}

// --------------------------------------------------------------------
// One access script over every backend
// --------------------------------------------------------------------

use bpa_topk::lists::source::{SourceEntry, SourceScore};

/// One step of the access script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `sorted_access(position, track)`.
    Sorted(usize, bool),
    /// `random_access(item, with_position, track)`.
    Random(u64, bool, bool),
    /// `direct_access_next()`.
    Direct,
    /// `sorted_block(start, len, track)`.
    Block(usize, usize, bool),
    /// `reset()`.
    Reset,
}

/// What one step returned.
#[derive(Debug, PartialEq)]
enum Reply {
    Entry(Option<SourceEntry>),
    Score(Option<SourceScore>),
    Block(Vec<SourceEntry>),
    Reset,
}

/// The script for a list of `n > 4` entries.
fn access_script(n: usize) -> Vec<Step> {
    use Step::*;
    let mut script = vec![
        Sorted(1, false),
        Sorted(3, true),
        Sorted(n, true),
        Sorted(n + 1, false), // past the end: counted, no entry
        Sorted(n + 40, true),
        Random(5, true, true),
        Random(1, false, false),
        Random(77, true, true), // absent: counted, no score
        Random(2, false, true),
    ];
    // Direct accesses to exhaustion, plus one uncounted probe past it.
    script.extend(std::iter::repeat(Direct).take(n + 1));
    script.extend([
        Reset,
        Block(2, 3, true), // no prefix yet: no piggyback
        Block(3, 5, false),
        Block(1, 4, true),       // bridges the prefix through position 4
        Block(n - 2, 99, false), // clipped at the end
        Block(n + 1, 2, true),   // fully out of bounds
        Block(6, 0, true),
        Block(5, n, true), // clipped, moves the best position to n
        Block(n, 1, true),
        Reset,
        Random(9, true, true),
        Direct,
        Sorted(2, true),
        Block(n / 2, 99, true),
        Direct,
        Direct,
    ]);
    script
}

fn apply(source: &mut dyn ListSource, step: Step) -> Reply {
    let at = |p| Position::new(p).unwrap();
    match step {
        Step::Sorted(p, track) => Reply::Entry(source.sorted_access(at(p), track)),
        Step::Random(item, with_position, track) => {
            Reply::Score(source.random_access(ItemId(item), with_position, track))
        }
        Step::Direct => Reply::Entry(source.direct_access_next()),
        Step::Block(start, len, track) => Reply::Block(source.sorted_block(at(start), len, track)),
        Step::Reset => {
            source.reset();
            Reply::Reset
        }
    }
}

/// The test's own bookkeeping of one list: which positions a tracked
/// access has seen, and what the counting rules say the counters hold.
struct Model<'a> {
    list: &'a SortedList,
    seen: Vec<bool>,
    counters: AccessCounters,
}

impl<'a> Model<'a> {
    fn new(list: &'a SortedList) -> Self {
        Model {
            list,
            seen: vec![false; list.len()],
            counters: AccessCounters::default(),
        }
    }

    /// The longest seen prefix.
    fn best(&self) -> Option<Position> {
        Position::new(self.seen.iter().take_while(|&&s| s).count())
    }

    /// Checks one reference step: a sorted access is counted even past
    /// the end, a random access even for an absent item, a direct access
    /// only when it reads the first unseen position, a block by its
    /// in-bounds reads; a reply piggybacks the score at the best position
    /// exactly when the step moved it (a block on its last entry only).
    fn check(&mut self, step: Step, reply: &Reply) {
        let before = self.best();
        let marked = match (step, reply) {
            (Step::Sorted(p, track), Reply::Entry(entry)) => {
                self.counters.sorted += 1;
                assert_eq!(entry.is_some(), p <= self.list.len(), "{step:?}");
                (track && entry.is_some()).then_some((p, p))
            }
            (Step::Random(item, with_position, track), Reply::Score(score)) => {
                self.counters.random += 1;
                let position = self.list.position_of(ItemId(item));
                assert_eq!(score.is_some(), position.is_some(), "{step:?}");
                let reported = score.and_then(|s| s.position);
                assert_eq!(reported, position.filter(|_| with_position), "{step:?}");
                position.filter(|_| track).map(|p| (p.get(), p.get()))
            }
            (Step::Direct, Reply::Entry(entry)) => {
                let first_unseen = before.map_or(1, |bp| bp.get() + 1);
                match entry {
                    Some(entry) => {
                        self.counters.direct += 1;
                        assert_eq!(entry.position.get(), first_unseen, "{step:?}");
                        Some((first_unseen, first_unseen))
                    }
                    None => {
                        assert_eq!(first_unseen, self.list.len() + 1, "{step:?}: too early");
                        None
                    }
                }
            }
            (Step::Block(start, len, track), Reply::Block(entries)) => {
                let in_bounds = (start..start + len).filter(|&p| p <= self.list.len());
                assert_eq!(entries.len(), in_bounds.count(), "{step:?}");
                self.counters.sorted += entries.len() as u64;
                let range = entries.first().zip(entries.last());
                range
                    .filter(|_| track)
                    .map(|(first, last)| (first.position.get(), last.position.get()))
            }
            (Step::Reset, _) => {
                self.seen.fill(false);
                self.counters = AccessCounters::default();
                None
            }
            _ => panic!("{step:?} got {reply:?}"),
        };
        if let Some((first, last)) = marked {
            self.seen[first - 1..last].fill(true);
        }
        let after = self.best();
        let expected = if after != before {
            after.and_then(|bp| self.list.score_at(bp))
        } else {
            None
        };
        let reported = match reply {
            Reply::Entry(entry) => entry.and_then(|e| e.best_position_score),
            Reply::Score(score) => score.and_then(|s| s.best_position_score),
            Reply::Block(entries) => {
                let (last, rest) = entries
                    .split_last()
                    .map_or((None, &[][..]), |(l, r)| (Some(l), r));
                assert!(
                    rest.iter().all(|e| e.best_position_score.is_none()),
                    "{step:?}"
                );
                last.and_then(|e| e.best_position_score)
            }
            Reply::Reset => None,
        };
        assert_eq!(reported, expected, "{step:?}: piggyback");
    }
}

/// Runs the access script over every list of `db` on each backend and
/// asserts that all of them reply, count and track exactly like the
/// first, which is itself checked against the `Model`.
fn assert_script_agrees(db: &Database, backends: &mut [(String, Box<dyn SourceSet + '_>)]) {
    let (reference, others) = backends.split_first_mut().unwrap();
    for i in 0..db.num_lists() {
        let list = db.list(i).unwrap();
        for (label, sources) in others.iter() {
            let (source, expected) = (sources.source_ref(i), reference.1.source_ref(i));
            assert_eq!(source.len(), expected.len(), "{label}");
            assert_eq!(source.tail_score(), expected.tail_score(), "{label}");
            assert_eq!(source.epoch(), expected.epoch(), "{label}");
        }
        let mut model = Model::new(list);
        for (at, &step) in access_script(list.len()).iter().enumerate() {
            let expected = apply(reference.1.source(i), step);
            model.check(step, &expected);
            let best = reference.1.source_ref(i).best_position();
            let counters = reference.1.source_ref(i).counters();
            assert_eq!(
                (best, counters),
                (model.best(), model.counters),
                "step {at}"
            );
            for (label, sources) in others.iter_mut() {
                let reply = apply(sources.source(i), step);
                let context = format!("{label}, list {i}, step {at} {step:?}");
                assert_eq!(reply, expected, "{context}");
                assert_eq!(sources.source_ref(i).counters(), counters, "{context}");
                assert_eq!(sources.source_ref(i).best_position(), best, "{context}");
            }
        }
    }
}

/// The access core's rules hold on every backend: one script of sorted,
/// random, direct and block accesses (tracked and untracked, in and out
/// of bounds) and resets gives identical replies, counters and best
/// positions after every step — in memory under every tracker, through
/// the trait's default block path, sharded at 1, 3 and n shards on 1-
/// and 4-thread pools, paged at 64 B and 4 KiB pages under a 1-page and
/// an unbounded cache, at owner threads (`ClusterRuntime`) under every
/// tracker, and sharded under the B+tree and naive-set trackers.
/// Sharded at 1, 3 and n shards over a database mutated through
/// `ShardedDatabase` (score updates, one insert, one delete), the replies
/// equal the in-memory source's over the same mutated `Database`.
#[test]
fn one_access_script_gives_identical_replies_on_every_backend() {
    use bpa_topk::lists::ShardedDatabase;

    let db = Database::from_unsorted_lists(vec![
        (1..=12u64).map(|i| (i, ((i * 5) % 17) as f64)).collect(),
        (1..=12u64).map(|i| (i, i as f64)).collect(),
    ])
    .unwrap();
    let n = db.num_items();
    let pools = [ThreadPool::new(1), ThreadPool::new(4)];
    let dirs: Vec<(usize, ScratchDir)> = [64, 4096]
        .into_iter()
        .map(|page_size| {
            (
                page_size,
                ScratchDir::new(&format!("access-script-{page_size}")),
            )
        })
        .collect();
    let paged: Vec<(usize, PagedDatabase)> = dirs
        .iter()
        .map(|(page_size, dir)| {
            let layout = PageLayout::with_page_size(*page_size);
            (
                *page_size,
                PagedDatabase::create(dir.path(), &db, layout).unwrap(),
            )
        })
        .collect();
    let runtimes = TrackerKind::ALL.map(|kind| {
        let runtime = ClusterRuntime::with_latency(&db, kind, LatencyModel::zero(db.num_lists()));
        (kind, runtime)
    });

    let mut backends: Vec<(String, Box<dyn SourceSet + '_>)> = Vec::new();
    for kind in TrackerKind::ALL {
        let sources = Sources::in_memory_with_tracker(&db, kind);
        backends.push((format!("in memory ({kind:?})"), Box::new(sources)));
    }
    for (kind, runtime) in &runtimes {
        backends.push((
            format!("owner threads ({kind:?})"),
            Box::new(runtime.connect()),
        ));
    }
    for kind in [TrackerKind::BPlusTree, TrackerKind::NaiveSet] {
        let sharded = ShardedDatabase::new(&db, 3);
        let sources = sharded.sources_with_tracker(&pools[1], kind);
        backends.push((format!("3 shards, 4 threads ({kind:?})"), Box::new(sources)));
    }
    let default_path = db
        .lists()
        .map(|list| Box::new(DefaultBlockPath(InMemorySource::new(list))) as Box<dyn ListSource>)
        .collect();
    backends.push((
        "default block path".into(),
        Box::new(Sources::new(default_path)),
    ));
    for shards in [1, 3, n] {
        let sharded = ShardedDatabase::new(&db, shards);
        for pool in &pools {
            let label = format!("{shards} shards, {} threads", pool.num_threads());
            backends.push((label, Box::new(sharded.sources(pool))));
        }
    }
    for (page_size, paged) in &paged {
        for capacity in [CacheCapacity::Pages(1), CacheCapacity::Unbounded] {
            let label = format!("paged, {page_size} B pages, {capacity:?}");
            backends.push((label, Box::new(paged.sources(capacity).unwrap())));
        }
    }
    assert_script_agrees(&db, &mut backends);

    for shards in [1, 3, n] {
        let mut sharded = ShardedDatabase::new(&db, shards);
        sharded.update_score(0, ItemId(3), 16.5).unwrap();
        sharded.update_score(1, ItemId(12), 0.5).unwrap();
        sharded.update_score(0, ItemId(7), 9.0).unwrap();
        sharded.insert_item(ItemId(40), &[8.0, 6.5]).unwrap();
        sharded.delete_item(ItemId(5)).unwrap();
        let mutated = sharded.database();
        let mut backends: Vec<(String, Box<dyn SourceSet + '_>)> =
            vec![("in memory".into(), Box::new(Sources::in_memory(mutated)))];
        for pool in &pools {
            let label = format!("mutated, {shards} shards, {} threads", pool.num_threads());
            backends.push((label, Box::new(sharded.sources(pool))));
        }
        assert_script_agrees(mutated, &mut backends);
    }
}
