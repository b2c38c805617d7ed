//! Sharded-backend equivalence: the range-partitioned, pool-parallel
//! storage layout must be **bit-identical** to the in-memory backend —
//! same answers, same per-mode access counts, same `RunStats` — for all
//! seven algorithms, on the paper's figure databases and on all three
//! `topk-datagen` families, independent of shard count and pool width.
//!
//! Also pins the in-memory block fast path (one slice walk and one bulk
//! tracker update) to the trait's default per-position path at the
//! algorithm level, and the batched front door (`QueryBatch`)
//! to sequential planning.

use bpa_topk::core::batch::QueryBatch;
use bpa_topk::core::examples_paper::{figure1_database, figure2_database};
use bpa_topk::core::planner::plan_and_run_on;
use bpa_topk::datagen::{DatabaseKind, DatabaseSpec};
use bpa_topk::lists::source::{ListSource, Sources};
use bpa_topk::pool::ThreadPool;
use bpa_topk::prelude::*;

mod common;
use common::DefaultBlockPath;

/// Every (name, database) pair the equivalence tests sweep: the paper's
/// worked examples plus one database per datagen family.
fn databases() -> Vec<(&'static str, Database)> {
    vec![
        ("figure1", figure1_database()),
        ("figure2", figure2_database()),
        (
            "uniform",
            DatabaseSpec::new(DatabaseKind::Uniform, 4, 800).generate(42),
        ),
        (
            "gaussian",
            DatabaseSpec::new(DatabaseKind::Gaussian, 4, 800).generate(42),
        ),
        (
            "correlated",
            DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.05 }, 4, 800).generate(42),
        ),
    ]
}

/// `RunStats` equality minus `elapsed` (wall clock is a measurement, not
/// a contract).
fn assert_stats_identical(sharded: &RunStats, memory: &RunStats, label: &str) {
    assert_eq!(sharded.accesses, memory.accesses, "accesses of {label}");
    assert_eq!(
        sharded.per_list, memory.per_list,
        "per-list counts of {label}"
    );
    assert_eq!(
        sharded.stop_position, memory.stop_position,
        "stop position of {label}"
    );
    assert_eq!(sharded.rounds, memory.rounds, "rounds of {label}");
    assert_eq!(
        sharded.items_scored, memory.items_scored,
        "items scored of {label}"
    );
}

fn assert_results_identical(sharded: &TopKResult, memory: &TopKResult, label: &str) {
    let sharded_ids: Vec<u64> = sharded.item_ids().iter().map(|i| i.0).collect();
    let memory_ids: Vec<u64> = memory.item_ids().iter().map(|i| i.0).collect();
    assert_eq!(sharded_ids, memory_ids, "answer items of {label}");
    let sharded_scores: Vec<f64> = sharded.scores().iter().map(|s| s.value()).collect();
    let memory_scores: Vec<f64> = memory.scores().iter().map(|s| s.value()).collect();
    assert_eq!(sharded_scores, memory_scores, "answer scores of {label}");
    assert_stats_identical(sharded.stats(), memory.stats(), label);
}

/// All seven algorithms, every database, several k: the sharded backend
/// reproduces the in-memory run access for access.
#[test]
fn all_seven_algorithms_are_bit_identical_across_backends() {
    let pool = ThreadPool::new(2);
    for (name, db) in databases() {
        let sharded = ShardedDatabase::new(&db, 4);
        for kind in AlgorithmKind::ALL {
            for k in [1, 3, db.num_items().min(25)] {
                let query = TopKQuery::top(k);
                let memory = kind
                    .create()
                    .run_on(&mut Sources::in_memory(&db), &query)
                    .unwrap();
                let over_shards = kind
                    .create()
                    .run_on(&mut sharded.sources(&pool), &query)
                    .unwrap();
                assert_results_identical(
                    &over_shards,
                    &memory,
                    &format!("{kind:?} on {name} (k = {k})"),
                );
            }
        }
    }
}

/// Shard count is a physical knob, not a semantic one: 1 shard, uneven
/// shards, one-entry shards — all identical to the unsharded run.
#[test]
fn shard_count_does_not_change_semantics() {
    let pool = ThreadPool::new(2);
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 3, 500).generate(7);
    let query = TopKQuery::top(10);
    for kind in [AlgorithmKind::Ta, AlgorithmKind::Bpa2, AlgorithmKind::Naive] {
        let memory = kind
            .create()
            .run_on(&mut Sources::in_memory(&db), &query)
            .unwrap();
        for shards in [1, 3, 7, 64, 500, 9999] {
            let sharded = ShardedDatabase::new(&db, shards);
            let result = kind
                .create()
                .run_on(&mut sharded.sources(&pool), &query)
                .unwrap();
            assert_results_identical(&result, &memory, &format!("{kind:?} at {shards} shards"));
        }
    }
}

/// The batching decorator composes with the sharded backend exactly as
/// with the in-memory one: coalesced scans become shard-parallel block
/// fetches with identical counters.
#[test]
fn batched_scans_compose_identically_over_both_backends() {
    let pool = ThreadPool::new(4);
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 4, 600).generate(11);
    let sharded = ShardedDatabase::new(&db, 6);
    for block_len in [16, 97] {
        for kind in AlgorithmKind::ALL {
            let query = TopKQuery::top(8);
            let memory = kind
                .create()
                .run_on(&mut Sources::in_memory(&db).batched(block_len), &query)
                .unwrap();
            let over_shards = kind
                .create()
                .run_on(&mut sharded.sources(&pool).batched(block_len), &query)
                .unwrap();
            assert_results_identical(
                &over_shards,
                &memory,
                &format!("batched({block_len}) {kind:?}"),
            );
        }
    }
}

/// `run_all` resets sharded sources between algorithm kinds just like any
/// other backend.
#[test]
fn run_all_over_sharded_sources_resets_between_algorithms() {
    let pool = ThreadPool::new(2);
    let db = figure1_database();
    let sharded = ShardedDatabase::new(&db, 3);
    let query = TopKQuery::top(3);
    let shared = run_all(&AlgorithmKind::ALL, &mut sharded.sources(&pool), &query).unwrap();
    for (kind, result) in &shared {
        let fresh = kind
            .create()
            .run_on(&mut Sources::in_memory(&db), &query)
            .unwrap();
        assert_results_identical(result, &fresh, &format!("{kind:?} via run_all"));
    }
}

/// Batched execution is deterministic in the pool width: 1, 2 and 8
/// threads produce identical answers, counters and plans.
#[test]
fn batch_results_are_independent_of_pool_thread_count() {
    let db = DatabaseSpec::new(DatabaseKind::Gaussian, 4, 400).generate(3);
    let stats = DatabaseStats::collect(&db);
    let queries: Vec<TopKQuery> = (1..=12).map(|k| TopKQuery::top(2 * k)).collect();

    let mut runs: Vec<Vec<(AlgorithmKind, Vec<u64>, AccessCounters)>> = Vec::new();
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(threads);
        let sharded = ShardedDatabase::new(&db, 4);
        let outcomes = QueryBatch::with_queries(queries.clone())
            .run_planned(&pool, &stats, || sharded.sources(&pool))
            .unwrap();
        runs.push(
            outcomes
                .into_iter()
                .map(|(plan, result)| {
                    (
                        plan.choice(),
                        result.item_ids().iter().map(|i| i.0).collect(),
                        result.stats().accesses,
                    )
                })
                .collect(),
        );
    }
    assert_eq!(runs[0], runs[1], "1 thread vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 thread vs 8 threads");
}

/// The batched front door equals sequential planning query by query —
/// over the sharded backend and over plain in-memory sources.
#[test]
fn query_batches_match_sequential_planning() {
    let db = DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.05 }, 4, 400).generate(9);
    let stats = DatabaseStats::collect(&db);
    let pool = ThreadPool::new(4);
    let sharded = ShardedDatabase::new(&db, 4);
    let queries: Vec<TopKQuery> = (1..=10).map(TopKQuery::top).collect();

    let outcomes = QueryBatch::with_queries(queries.clone())
        .run_planned(&pool, &stats, || sharded.sources(&pool))
        .unwrap();
    assert_eq!(outcomes.len(), queries.len());
    for (query, (plan, result)) in queries.iter().zip(&outcomes) {
        let (alone_plan, alone) =
            plan_and_run_on(&mut Sources::in_memory(&db), &stats, query).unwrap();
        assert_eq!(plan.choice(), alone_plan.choice(), "{query:?}");
        assert_results_identical(result, &alone, &format!("{query:?}"));
    }
}

/// Satellite regression at the algorithm level: running every algorithm
/// through the batching decorator (which drives `sorted_block`) over the
/// overridden fast path yields `RunStats` bit-identical to the default
/// per-position path.
#[test]
fn in_memory_block_fast_path_is_bit_identical_to_the_default_path() {
    let db = DatabaseSpec::new(DatabaseKind::Uniform, 4, 500).generate(21);
    let query = TopKQuery::top(10);
    for kind in AlgorithmKind::ALL {
        let fast = kind
            .create()
            .run_on(&mut Sources::in_memory(&db).batched(64), &query)
            .unwrap();
        let default_path: Vec<Box<dyn ListSource>> = db
            .lists()
            .map(|list| {
                Box::new(DefaultBlockPath(InMemorySource::new(list))) as Box<dyn ListSource>
            })
            .collect();
        let slow = kind
            .create()
            .run_on(&mut Sources::new(default_path).batched(64), &query)
            .unwrap();
        assert_results_identical(
            &fast,
            &slow,
            &format!("{kind:?} fast vs default block path"),
        );
    }
}
