//! Application front-ends for top-k query processing.
//!
//! The paper motivates the sorted-list model with three kinds of workloads
//! (Section 1 and Section 8):
//!
//! * **relational ranking** — "find the top-k tuples in a relational table
//!   according to some scoring function over its attributes"
//!   ([`relational::Table`]),
//! * **document retrieval** — "find the top-k documents whose aggregate
//!   rank is the highest wrt. some given keywords"
//!   ([`documents::InvertedIndex`]),
//! * **network monitoring** — "for each location, the application maintains
//!   a list of the accessed URLs ranked by their frequency of access …
//!   what are the top-k popular URLs?" ([`monitoring::MonitoringSystem`]).
//!
//! Each front-end turns its domain data into a [`topk_lists::Database`],
//! answers queries through any [`topk_core::AlgorithmKind`] — or lets the
//! cost-based planner pick one per query from sampled statistics (the
//! `*_planned` variants, built on [`topk_core::planner::plan_and_run`]) —
//! and maps the answers back to domain keys.
//!
//! Execution goes through the backend-generic
//! [`topk_core::TopKAlgorithm::run`] entry point, which validates the
//! query once and opens in-memory
//! [`Sources`](topk_lists::source::Sources) over the built database;
//! front-ends never touch list storage directly, so moving a workload
//! onto another backend (e.g. a `topk_distributed::ClusterRuntime`
//! session) changes no front-end code.
//!
//! ```
//! use topk_apps::Table;
//! use topk_core::AlgorithmKind;
//!
//! let mut hotels = Table::new(vec!["price_score", "rating"]);
//! hotels.insert(vec![0.9, 0.2]).unwrap();
//! hotels.insert(vec![0.5, 0.8]).unwrap();
//! hotels.insert(vec![0.1, 0.3]).unwrap();
//!
//! let best = hotels
//!     .top_k_by_sum(&["price_score", "rating"], 1, AlgorithmKind::Bpa2)
//!     .unwrap();
//! assert_eq!(best.answers[0].key, 1); // row 1: 0.5 + 0.8 = 1.3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod documents;
pub mod interner;
pub mod monitoring;
pub mod relational;

pub use documents::InvertedIndex;
pub use interner::KeyInterner;
pub use monitoring::{
    DegradedUrls, IngestReport, MonitoringDeployment, MonitoringSystem, ServedUrls,
    StandingTelemetry,
};
pub use relational::Table;

use topk_core::{AlgorithmKind, RunStats, TopKError};

/// A top-k answer mapped back to a domain key.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAnswer<K> {
    /// The domain key (row id, document name, URL, …).
    pub key: K,
    /// The overall score of the answer.
    pub score: f64,
}

/// A domain-level query result: the answers plus the statistics of the
/// underlying algorithm run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult<K> {
    /// Answers in descending score order.
    pub answers: Vec<RankedAnswer<K>>,
    /// Statistics of the underlying run (accesses, stop position, time).
    pub stats: RunStats,
    /// The algorithm that produced the result.
    pub algorithm: AlgorithmKind,
}

/// Errors raised by the application front-ends.
#[derive(Debug, Clone, PartialEq)]
pub enum AppError {
    /// The front-end holds no data yet.
    Empty,
    /// A query referenced an unknown column or term.
    UnknownKey(String),
    /// A row was added with the wrong number of values.
    ArityMismatch {
        /// Number of values expected (one per column).
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A standing-query operation was issued before
    /// [`MonitoringSystem::enable_standing_queries`] was called.
    StandingDisabled,
    /// A standing-query handle did not name a registered query.
    UnknownHandle(usize),
    /// An error bubbled up from query execution.
    Query(TopKError),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Empty => write!(f, "no data has been loaded"),
            AppError::UnknownKey(key) => write!(f, "unknown column or term: {key}"),
            AppError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} values, got {found}")
            }
            AppError::StandingDisabled => {
                write!(f, "standing queries have not been enabled on this system")
            }
            AppError::UnknownHandle(handle) => {
                write!(f, "no standing query is registered under handle {handle}")
            }
            AppError::Query(err) => write!(f, "query execution failed: {err}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<TopKError> for AppError {
    fn from(err: TopKError) -> Self {
        AppError::Query(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_messages() {
        assert!(AppError::Empty.to_string().contains("no data"));
        assert!(AppError::UnknownKey("price".into())
            .to_string()
            .contains("price"));
        assert!(AppError::ArityMismatch {
            expected: 3,
            found: 2
        }
        .to_string()
        .contains("expected 3"));
        let err: AppError = TopKError::InvalidK { k: 0, n: 5 }.into();
        assert!(err.to_string().contains("query execution failed"));
    }
}
