//! Relational ranking: top-k tuples of a table by a scoring function over
//! its attributes.
//!
//! "Suppose we want to find the top-k tuples in a relational table
//! according to some scoring function over its attributes. To answer this
//! query, it is sufficient to have a sorted (indexed) list of the values of
//! each attribute involved in the scoring function, and return the k tuples
//! whose overall scores in the lists are the highest." (Section 1)

use topk_core::batch::QueryBatch;
use topk_core::planner::{plan_and_run, Plan};
use topk_core::{AlgorithmKind, DatabaseStats, Sum, TopKQuery, WeightedSum};
use topk_lists::{Database, ItemId, SortedList, Sources};
use topk_pool::ThreadPool;

use crate::{AppError, AppResult, RankedAnswer};

/// An in-memory table with named numeric attributes, queried for its top-k
/// rows.
///
/// Each attribute acts as one sorted list: building a ranking query sorts
/// (indexes) the involved attributes once and then answers through any of
/// the top-k algorithms.
#[derive(Debug, Clone)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table with the given attribute names.
    ///
    /// # Panics
    ///
    /// Panics if no column is given or names are duplicated.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        assert!(!columns.is_empty(), "a table needs at least one column");
        for (i, c) in columns.iter().enumerate() {
            assert!(!columns[..i].contains(c), "duplicate column name: {c}");
        }
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row and returns its row id (0-based insertion order).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::ArityMismatch`] when the number of values does
    /// not match the number of columns.
    pub fn insert(&mut self, values: Vec<f64>) -> Result<usize, AppError> {
        if values.len() != self.columns.len() {
            return Err(AppError::ArityMismatch {
                expected: self.columns.len(),
                found: values.len(),
            });
        }
        self.rows.push(values);
        Ok(self.rows.len() - 1)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column by name.
    fn column_index(&self, name: &str) -> Result<usize, AppError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| AppError::UnknownKey(name.to_owned()))
    }

    /// Builds the sorted-list database for the given attributes.
    fn database_for(&self, attributes: &[&str]) -> Result<Database, AppError> {
        if self.rows.is_empty() {
            return Err(AppError::Empty);
        }
        let mut lists = Vec::with_capacity(attributes.len());
        for &attr in attributes {
            let col = self.column_index(attr)?;
            let pairs: Vec<(ItemId, f64)> = self
                .rows
                .iter()
                .enumerate()
                .map(|(row, values)| (ItemId(row as u64), values[col]))
                .collect();
            let list = SortedList::from_unsorted(pairs).map_err(topk_core::TopKError::from)?;
            lists.push(list);
        }
        Ok(Database::new(lists).map_err(topk_core::TopKError::from)?)
    }

    /// Returns the `k` rows with the highest **sum** of the named
    /// attributes, using the given algorithm.
    pub fn top_k_by_sum(
        &self,
        attributes: &[&str],
        k: usize,
        algorithm: AlgorithmKind,
    ) -> Result<AppResult<usize>, AppError> {
        self.run(attributes, TopKQuery::new(k, Sum), algorithm)
    }

    /// Returns the `k` rows with the highest **weighted sum** of the named
    /// attributes (weights in the same order), using the given algorithm.
    pub fn top_k_by_weighted_sum(
        &self,
        attributes: &[&str],
        weights: Vec<f64>,
        k: usize,
        algorithm: AlgorithmKind,
    ) -> Result<AppResult<usize>, AppError> {
        if weights.len() != attributes.len() {
            return Err(AppError::ArityMismatch {
                expected: attributes.len(),
                found: weights.len(),
            });
        }
        self.run(
            attributes,
            TopKQuery::new(k, WeightedSum::new(weights)),
            algorithm,
        )
    }

    /// Returns the `k` rows with the highest **sum** of the named
    /// attributes, letting the cost-based planner pick the algorithm from
    /// the table's statistics. The returned [`Plan`] says what was chosen
    /// and why.
    pub fn top_k_by_sum_planned(
        &self,
        attributes: &[&str],
        k: usize,
    ) -> Result<(AppResult<usize>, Plan), AppError> {
        let db = self.database_for(attributes)?;
        let (plan, result) = plan_and_run(&db, &TopKQuery::new(k, Sum))?;
        let choice = plan.choice();
        Ok((Self::to_app_result(result, choice), plan))
    }

    /// Answers many sum rankings over the same attributes **concurrently**
    /// on a shared work-stealing pool: the attribute lists are sorted
    /// once, statistics are sampled once, and each `k` of `ks` becomes one
    /// query of a `QueryBatch` (one pool job, over its own in-memory view)
    /// with the cost-based planner choosing its algorithm. Results come
    /// back in `ks` order with their plans; answers and access counts are
    /// identical to issuing each query alone, whatever the pool's thread
    /// count.
    pub fn top_k_by_sum_batch(
        &self,
        attributes: &[&str],
        ks: &[usize],
        pool: &ThreadPool,
    ) -> Result<Vec<(AppResult<usize>, Plan)>, AppError> {
        let db = self.database_for(attributes)?;
        let stats = DatabaseStats::collect(&db);
        let batch: QueryBatch = ks.iter().map(|&k| TopKQuery::new(k, Sum)).collect();
        let outcomes = batch.run_planned(pool, &stats, || Sources::in_memory(&db))?;
        Ok(outcomes
            .into_iter()
            .map(|(plan, result)| {
                let choice = plan.choice();
                (Self::to_app_result(result, choice), plan)
            })
            .collect())
    }

    fn run(
        &self,
        attributes: &[&str],
        query: TopKQuery,
        algorithm: AlgorithmKind,
    ) -> Result<AppResult<usize>, AppError> {
        let db = self.database_for(attributes)?;
        let result = algorithm.create().run(&db, &query)?;
        Ok(Self::to_app_result(result, algorithm))
    }

    fn to_app_result(result: topk_core::TopKResult, algorithm: AlgorithmKind) -> AppResult<usize> {
        let answers = result
            .items()
            .iter()
            .map(|r| RankedAnswer {
                key: r.item.0 as usize,
                score: r.score.value(),
            })
            .collect();
        AppResult {
            answers,
            stats: result.stats().clone(),
            algorithm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small "hotel search" table: price score, rating, distance score.
    fn hotels() -> Table {
        let mut t = Table::new(vec!["cheapness", "rating", "proximity"]);
        t.insert(vec![0.9, 0.3, 0.8]).unwrap(); // row 0
        t.insert(vec![0.2, 0.95, 0.6]).unwrap(); // row 1
        t.insert(vec![0.7, 0.8, 0.9]).unwrap(); // row 2: best all-rounder
        t.insert(vec![0.4, 0.4, 0.4]).unwrap(); // row 3
        t.insert(vec![0.95, 0.1, 0.1]).unwrap(); // row 4
        t
    }

    #[test]
    fn table_construction_and_insertion() {
        let t = hotels();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.columns().len(), 3);
        let mut t2 = Table::new(vec!["a"]);
        assert!(matches!(
            t2.insert(vec![1.0, 2.0]),
            Err(AppError::ArityMismatch {
                expected: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn top_k_by_sum_ranks_the_all_rounder_first() {
        let t = hotels();
        for algorithm in AlgorithmKind::ALL {
            let result = t
                .top_k_by_sum(&["cheapness", "rating", "proximity"], 2, algorithm)
                .unwrap();
            assert_eq!(result.answers.len(), 2);
            assert_eq!(result.answers[0].key, 2, "{algorithm:?}");
            assert!((result.answers[0].score - 2.4).abs() < 1e-9);
            assert_eq!(result.algorithm, algorithm);
        }
    }

    #[test]
    fn weighted_sum_changes_the_winner() {
        let t = hotels();
        // Caring almost only about price makes row 4 the winner.
        let result = t
            .top_k_by_weighted_sum(
                &["cheapness", "rating"],
                vec![1.0, 0.01],
                1,
                AlgorithmKind::Bpa2,
            )
            .unwrap();
        assert_eq!(result.answers[0].key, 4);
    }

    #[test]
    fn subset_of_attributes_is_allowed() {
        let t = hotels();
        let result = t.top_k_by_sum(&["rating"], 1, AlgorithmKind::Bpa).unwrap();
        assert_eq!(result.answers[0].key, 1);
    }

    #[test]
    fn errors_are_reported() {
        let t = hotels();
        assert!(matches!(
            t.top_k_by_sum(&["no-such-column"], 1, AlgorithmKind::Ta),
            Err(AppError::UnknownKey(_))
        ));
        assert!(matches!(
            t.top_k_by_weighted_sum(&["rating"], vec![1.0, 2.0], 1, AlgorithmKind::Ta),
            Err(AppError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.top_k_by_sum(&["rating"], 0, AlgorithmKind::Ta),
            Err(AppError::Query(_))
        ));
        let empty = Table::new(vec!["x"]);
        assert!(matches!(
            empty.top_k_by_sum(&["x"], 1, AlgorithmKind::Ta),
            Err(AppError::Empty)
        ));
    }

    #[test]
    fn planned_query_matches_the_explicit_algorithms() {
        let t = hotels();
        let attrs = ["cheapness", "rating", "proximity"];
        let (planned, plan) = t.top_k_by_sum_planned(&attrs, 2).unwrap();
        assert_eq!(planned.algorithm, plan.choice());
        assert!(!plan.explanation.is_empty());
        let reference = t.top_k_by_sum(&attrs, 2, AlgorithmKind::Naive).unwrap();
        for (p, r) in planned.answers.iter().zip(&reference.answers) {
            assert!((p.score - r.score).abs() < 1e-9);
        }
        // Errors surface the same way as the explicit-algorithm path.
        assert!(matches!(
            t.top_k_by_sum_planned(&["no-such-column"], 1),
            Err(AppError::UnknownKey(_))
        ));
    }

    #[test]
    fn batched_rankings_agree_with_single_queries() {
        let t = hotels();
        let attributes = ["cheapness", "rating", "proximity"];
        let pool = ThreadPool::new(2);
        let ks = [1usize, 2, 4];
        let batched = t.top_k_by_sum_batch(&attributes, &ks, &pool).unwrap();
        assert_eq!(batched.len(), ks.len());
        for (k, (result, plan)) in ks.iter().zip(&batched) {
            let (alone, alone_plan) = t.top_k_by_sum_planned(&attributes, *k).unwrap();
            assert_eq!(result.answers, alone.answers, "k = {k}");
            assert_eq!(result.stats.accesses, alone.stats.accesses, "k = {k}");
            assert_eq!(plan.choice(), alone_plan.choice(), "k = {k}");
        }
        assert!(matches!(
            t.top_k_by_sum_batch(&["nope"], &ks, &pool),
            Err(AppError::UnknownKey(_))
        ));
    }

    #[test]
    fn stats_reflect_the_chosen_algorithm() {
        let t = hotels();
        let naive = t
            .top_k_by_sum(
                &["cheapness", "rating", "proximity"],
                1,
                AlgorithmKind::Naive,
            )
            .unwrap();
        let bpa2 = t
            .top_k_by_sum(
                &["cheapness", "rating", "proximity"],
                1,
                AlgorithmKind::Bpa2,
            )
            .unwrap();
        assert!(bpa2.stats.total_accesses() <= naive.stats.total_accesses());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Table::new(vec!["a", "a"]);
    }
}
