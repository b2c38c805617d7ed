//! Batched queries over in-memory sources: a `QueryBatch` runs each
//! query as one pool job over its own view, and must be **bit-identical**
//! to running the queries one by one — same answers, same per-mode access
//! counts, same `RunStats`, same plans — whatever the pool's width.
//!
//! Also pins `run_all`'s reset between algorithms, and the in-memory block
//! fast path (one slice walk and one bulk tracker update) to the trait's
//! default per-position path at the algorithm level.

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
fn assert_stats_identical(got: &RunStats, expected: &RunStats, label: &str) {
    assert_eq!(got.accesses, expected.accesses, "accesses of {label}");
    assert_eq!(
        got.per_list, expected.per_list,
        "per-list counts of {label}"
    );
    assert_eq!(
        got.stop_position, expected.stop_position,
        "stop position of {label}"
    );
    assert_eq!(got.rounds, expected.rounds, "rounds of {label}");
    assert_eq!(
        got.items_scored, expected.items_scored,
        "items scored of {label}"
    );
}

fn assert_results_identical(got: &TopKResult, expected: &TopKResult, label: &str) {
    let got_ids: Vec<u64> = got.item_ids().iter().map(|i| i.0).collect();
    let expected_ids: Vec<u64> = expected.item_ids().iter().map(|i| i.0).collect();
    assert_eq!(got_ids, expected_ids, "answer items of {label}");
    // Exact score bits, not a tolerance.
    let bits =
        |r: &TopKResult| -> Vec<u64> { r.scores().iter().map(|s| s.value().to_bits()).collect() };
    assert_eq!(bits(got), bits(expected), "answer scores of {label}");
    assert_stats_identical(got.stats(), expected.stats(), label);
}

/// `run_all` resets the in-memory sources between algorithm kinds: each
/// run equals a fresh single run, on every database.
#[test]
fn run_all_over_in_memory_sources_resets_between_algorithms() {
    for (name, db) in databases() {
        let query = TopKQuery::top(3);
        let shared = run_all(&AlgorithmKind::ALL, &mut Sources::in_memory(&db), &query).unwrap();
        for (kind, result) in &shared {
            let fresh = kind
                .create()
                .run_on(&mut Sources::in_memory(&db), &query)
                .unwrap();
            assert_results_identical(result, &fresh, &format!("{kind:?} via run_all on {name}"));
        }
    }
}

/// Batched execution is deterministic in the pool width: 1, 2 and 8
/// threads produce identical answers, counters and plans, and each query
/// is exactly one pool job.
#[test]
fn batch_results_are_independent_of_pool_thread_count() {
    let db = DatabaseSpec::new(DatabaseKind::Gaussian, 4, 400).generate(3);
    let stats = DatabaseStats::collect(&db);
    let queries: Vec<TopKQuery> = (1..=12).map(|k| TopKQuery::top(2 * k)).collect();

    let mut runs: Vec<Vec<(AlgorithmKind, Vec<u64>, AccessCounters)>> = Vec::new();
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(threads);
        let outcomes = QueryBatch::with_queries(queries.clone())
            .run_planned(&pool, &stats, || Sources::in_memory(&db))
            .unwrap();
        assert_eq!(pool.tasks_executed(), queries.len(), "{threads} threads");
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

/// The batched front door equals sequential planning query by query, on
/// every database, planned or with each algorithm fixed.
#[test]
fn query_batches_match_sequential_planning() {
    let pool = ThreadPool::new(4);
    for (name, db) in databases() {
        let stats = DatabaseStats::collect(&db);
        let queries: Vec<TopKQuery> = (1..=db.num_items().min(10)).map(TopKQuery::top).collect();
        let batch = QueryBatch::with_queries(queries.clone());

        let outcomes = batch
            .run_planned(&pool, &stats, || Sources::in_memory(&db))
            .unwrap();
        assert_eq!(outcomes.len(), queries.len());
        for (query, (plan, result)) in queries.iter().zip(&outcomes) {
            let (alone_plan, alone) =
                plan_and_run_on(&mut Sources::in_memory(&db), &stats, query).unwrap();
            assert_eq!(plan.choice(), alone_plan.choice(), "{query:?} on {name}");
            assert_results_identical(result, &alone, &format!("{query:?} on {name}"));
        }

        for kind in AlgorithmKind::ALL {
            let results = batch
                .run_with(&pool, kind, || Sources::in_memory(&db))
                .unwrap();
            for (query, result) in queries.iter().zip(&results) {
                let alone = kind.create().run(&db, query).unwrap();
                assert_results_identical(result, &alone, &format!("{kind:?} {query:?} on {name}"));
            }
        }
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
