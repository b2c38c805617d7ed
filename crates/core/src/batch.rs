//! Batched top-k execution: many queries, one pool.
//!
//! The ROADMAP's serving scenario is heavy multi-query traffic: a
//! monitoring front-end with standing queries, a relational endpoint
//! answering many rankings over one table. [`QueryBatch`] is the front
//! door for that shape of load — it executes every query of a batch
//! **concurrently** on a shared `topk_pool::ThreadPool`, with the
//! cost-based [`planner`](crate::planner) choosing an algorithm per query
//! (via [`plan_and_run_on`]) or with one caller-fixed algorithm.
//!
//! Each query is one pool job and runs against its own [`SourceSet`]
//! view (opened by the caller-supplied factory), so queries never share
//! trackers or counters; over the in-memory backend
//! ([`Sources::in_memory`](topk_lists::Sources::in_memory)) every view
//! borrows the database's one copy of each list. Parallelism is per query:
//! a query's own accesses run on its job's thread. Results return in query
//! order with per-query plans and [`RunStats`](crate::stats::RunStats),
//! independent of the pool's thread count.
//!
//! ```
//! use topk_core::batch::QueryBatch;
//! use topk_core::{DatabaseStats, TopKQuery};
//! use topk_lists::{Database, Sources};
//! use topk_pool::ThreadPool;
//!
//! let db = Database::from_unsorted_lists(vec![
//!     vec![(1, 30.0), (2, 11.0), (3, 26.0), (4, 19.0)],
//!     vec![(1, 21.0), (2, 28.0), (3, 14.0), (4, 17.0)],
//! ])
//! .unwrap();
//!
//! // One pool + one copy of the data serve the whole batch.
//! let pool = ThreadPool::new(2);
//! let stats = DatabaseStats::collect(&db);
//!
//! let batch = QueryBatch::with_queries((1..=4).map(TopKQuery::top).collect());
//! let outcomes = batch
//!     .run_planned(&pool, &stats, || Sources::in_memory(&db))
//!     .unwrap();
//! assert_eq!(outcomes.len(), 4);
//! // Query i asked for the top-(i+1): answers come back in query order.
//! for (i, (_plan, result)) in outcomes.iter().enumerate() {
//!     assert_eq!(result.len(), i + 1);
//! }
//! ```

use topk_lists::source::SourceSet;
use topk_pool::ThreadPool;

use crate::algorithms::AlgorithmKind;
use crate::error::TopKError;
use crate::planner::{plan_and_run_on, Plan};
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::stats::DatabaseStats;

/// A batch of top-k queries executed concurrently against one backend.
///
/// The batch itself is just the queries; the execution methods take the
/// pool and a per-query [`SourceSet`] factory, so one batch value can be
/// replayed against different backends (in-memory, paged, batched).
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    queries: Vec<TopKQuery>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch over the given queries (executed in this order's slots;
    /// results are returned in the same order).
    pub fn with_queries(queries: Vec<TopKQuery>) -> Self {
        QueryBatch { queries }
    }

    /// Appends a query to the batch.
    pub fn push(&mut self, query: TopKQuery) -> &mut Self {
        self.queries.push(query);
        self
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in execution-slot order.
    pub fn queries(&self) -> &[TopKQuery] {
        &self.queries
    }

    /// Executes every query concurrently on `pool`, letting the cost-based
    /// planner pick an algorithm per query from the shared statistics
    /// (exactly [`plan_and_run_on`] per query). `open` supplies one fresh
    /// [`SourceSet`] view per query — views must be independent (own
    /// trackers and counters) but may share physical data.
    ///
    /// Returns `(plan, result)` pairs **in query order**. Answers,
    /// counters and plans are independent of the pool's thread count.
    ///
    /// # Errors
    ///
    /// Returns the first failing query's error (in query order); every
    /// query of the batch has finished executing by then.
    pub fn run_planned<S, F>(
        &self,
        pool: &ThreadPool,
        stats: &DatabaseStats,
        open: F,
    ) -> Result<Vec<(Plan, TopKResult)>, TopKError>
    where
        S: SourceSet,
        F: Fn() -> S + Sync,
    {
        let open = &open;
        let jobs: Vec<_> = self
            .queries
            .iter()
            .map(|query| {
                move || {
                    let mut sources = open();
                    plan_and_run_on(&mut sources, stats, query)
                }
            })
            .collect();
        pool.scope_run(jobs).into_iter().collect()
    }

    /// Executes every query concurrently with one fixed algorithm (no
    /// planning). Results come back in query order; the sources contract
    /// is as in [`QueryBatch::run_planned`].
    ///
    /// # Errors
    ///
    /// Returns the first failing query's error (in query order).
    pub fn run_with<S, F>(
        &self,
        pool: &ThreadPool,
        algorithm: AlgorithmKind,
        open: F,
    ) -> Result<Vec<TopKResult>, TopKError>
    where
        S: SourceSet,
        F: Fn() -> S + Sync,
    {
        let open = &open;
        let jobs: Vec<_> = self
            .queries
            .iter()
            .map(|query| {
                move || {
                    let mut sources = open();
                    algorithm.create().run_on(&mut sources, query)
                }
            })
            .collect();
        pool.scope_run(jobs).into_iter().collect()
    }
}

impl FromIterator<TopKQuery> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = TopKQuery>>(iter: I) -> Self {
        Self::with_queries(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{figure1_database, figure2_database};
    use crate::planner::plan_and_run;
    use topk_lists::source::Sources;

    #[test]
    fn batched_results_match_sequential_planning() {
        let db = figure1_database();
        let stats = DatabaseStats::collect(&db);
        let pool = ThreadPool::new(4);

        let batch: QueryBatch = (1..=6).map(TopKQuery::top).collect();
        assert_eq!(batch.len(), 6);
        assert!(!batch.is_empty());
        let outcomes = batch
            .run_planned(&pool, &stats, || Sources::in_memory(&db))
            .unwrap();

        assert_eq!(outcomes.len(), 6);
        for (i, (plan, result)) in outcomes.iter().enumerate() {
            let query = TopKQuery::top(i + 1);
            let (reference_plan, reference) = plan_and_run(&db, &query).unwrap();
            assert_eq!(plan.choice(), reference_plan.choice(), "query {i}");
            assert!(result.scores_match(&reference, 1e-9), "query {i}");
            assert_eq!(
                result.stats().accesses,
                reference.stats().accesses,
                "query {i}"
            );
        }
    }

    #[test]
    fn fixed_algorithm_batches_run_over_any_backend() {
        let db = figure2_database();
        let pool = ThreadPool::new(2);

        let batch: QueryBatch = (1..=5).map(TopKQuery::top).collect();
        let over_memory = batch
            .run_with(&pool, AlgorithmKind::Bpa2, || Sources::in_memory(&db))
            .unwrap();
        let over_batched = batch
            .run_with(&pool, AlgorithmKind::Bpa2, || {
                Sources::in_memory(&db).batched(2)
            })
            .unwrap();
        assert_eq!(over_memory.len(), 5);
        for ((query, m), b) in batch.queries().iter().zip(&over_memory).zip(&over_batched) {
            let alone = AlgorithmKind::Bpa2.create().run(&db, query).unwrap();
            assert!(m.scores_match(&alone, 1e-9));
            assert_eq!(m.stats().accesses, alone.stats().accesses);
            assert!(b.scores_match(&alone, 1e-9));
            assert_eq!(b.stats().accesses, alone.stats().accesses);
        }
    }

    #[test]
    fn results_are_independent_of_pool_width() {
        let db = figure1_database();
        let stats = DatabaseStats::collect(&db);
        let reference: Vec<(AlgorithmKind, Vec<u64>)> = {
            let pool = ThreadPool::new(1);
            QueryBatch::with_queries((1..=8).map(TopKQuery::top).collect())
                .run_planned(&pool, &stats, || Sources::in_memory(&db))
                .unwrap()
                .into_iter()
                .map(|(plan, result)| {
                    (
                        plan.choice(),
                        result.item_ids().iter().map(|i| i.0).collect(),
                    )
                })
                .collect()
        };
        for threads in [2, 8] {
            let pool = ThreadPool::new(threads);
            let got: Vec<(AlgorithmKind, Vec<u64>)> =
                QueryBatch::with_queries((1..=8).map(TopKQuery::top).collect())
                    .run_planned(&pool, &stats, || Sources::in_memory(&db))
                    .unwrap()
                    .into_iter()
                    .map(|(plan, result)| {
                        (
                            plan.choice(),
                            result.item_ids().iter().map(|i| i.0).collect(),
                        )
                    })
                    .collect();
            assert_eq!(got, reference, "{threads} threads");
        }
    }

    #[test]
    fn the_first_invalid_query_error_is_returned() {
        let db = figure1_database();
        let stats = DatabaseStats::collect(&db);
        let pool = ThreadPool::new(2);
        let mut batch = QueryBatch::new();
        batch
            .push(TopKQuery::top(3))
            .push(TopKQuery::top(999))
            .push(TopKQuery::top(0));
        assert_eq!(batch.queries().len(), 3);
        let err = batch
            .run_planned(&pool, &stats, || Sources::in_memory(&db))
            .unwrap_err();
        // Query order, not completion order: k = 999 fails first.
        assert!(matches!(err, TopKError::InvalidK { k: 999, .. }), "{err:?}");
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let db = figure1_database();
        let stats = DatabaseStats::collect(&db);
        let pool = ThreadPool::new(2);
        let outcomes = QueryBatch::new()
            .run_planned(&pool, &stats, || Sources::in_memory(&db))
            .unwrap();
        assert!(outcomes.is_empty());
    }
}
