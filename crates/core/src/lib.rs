//! Top-k query processing over sorted lists: the algorithms of
//! *"Best Position Algorithms for Top-k Queries"* (Akbarinia, Pacitti,
//! Valduriez — VLDB 2007).
//!
//! A top-k query asks for the `k` data items whose *overall scores* — a
//! monotone aggregation of one local score per sorted list — are the
//! highest, while touching the lists as little as possible. This crate
//! provides:
//!
//! * the query model: [`TopKQuery`], monotone [`scoring`] functions, the
//!   middleware [`cost::CostModel`] and per-run [`stats::RunStats`];
//! * the algorithms (all behind the [`TopKAlgorithm`] trait):
//!   [`NaiveScan`], Fagin's Algorithm [`Fa`], the Threshold Algorithm
//!   [`Ta`], and the paper's contributions [`Bpa`] and [`Bpa2`];
//! * cost-based algorithm selection: sampled per-database statistics
//!   ([`stats::DatabaseStats`]) feeding a [`planner::Planner`] that picks
//!   among Naive/TA/BPA/BPA2 per query ([`planner::plan_and_run`]);
//! * batched execution: a [`batch::QueryBatch`] runs many queries
//!   concurrently on a shared `topk_pool::ThreadPool` — planner-selected
//!   algorithm per query — against any backend, including the sharded
//!   one (`topk_lists::sharded`);
//! * the worked example databases of the paper's figures
//!   ([`examples_paper`]), used by tests and benches.
//!
//! # Quick example
//!
//! ```
//! use topk_core::prelude::*;
//! use topk_core::examples_paper::figure1_database;
//!
//! let db = figure1_database();
//! let query = TopKQuery::top(3); // top-3 by sum of local scores
//!
//! let ta = Ta::literal().run(&db, &query).unwrap();
//! let bpa = Bpa.run(&db, &query).unwrap();
//!
//! // Same answers...
//! assert!(bpa.scores_match(&ta, 1e-9));
//! // ...but BPA stops at position 3 where TA scans to position 6.
//! assert_eq!(bpa.stats().stop_position, Some(3));
//! assert_eq!(ta.stats().stop_position, Some(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod batch;
pub mod cost;
pub mod degraded;
pub mod error;
pub mod examples_paper;
pub mod planner;
pub mod query;
pub mod result;
pub mod scoring;
pub mod standing;
pub mod stats;
pub mod topk_buffer;

pub use algorithms::{
    run_all, run_all_in_memory, AlgorithmKind, Bpa, Bpa2, Fa, NaiveScan, Ta, TopKAlgorithm, Tput,
};
pub use batch::QueryBatch;
pub use cost::CostModel;
pub use degraded::{run_on_degraded, DegradedAnswer, ListOutage, ScoreInterval};
pub use error::TopKError;
pub use planner::{plan_and_run, plan_and_run_on, CostEstimate, Plan, Planner};
pub use query::TopKQuery;
pub use result::{RankedItem, RunCertificate, TopKResult};
pub use scoring::{Average, Max, Min, ScoringFunction, Sum, WeightedSum};
pub use standing::{AbsorbedBreakdown, IngestOutcome, StandingQuery, UpdateEvent};
pub use stats::{DatabaseStats, RunStats};
pub use topk_buffer::TopKBuffer;

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::algorithms::{
        run_all, run_all_in_memory, AlgorithmKind, Bpa, Bpa2, Fa, NaiveScan, Ta, TopKAlgorithm,
        Tput,
    };
    pub use crate::batch::QueryBatch;
    pub use crate::cost::CostModel;
    pub use crate::degraded::{run_on_degraded, DegradedAnswer, ListOutage, ScoreInterval};
    pub use crate::error::TopKError;
    pub use crate::planner::{plan_and_run, plan_and_run_on, CostEstimate, Plan, Planner};
    pub use crate::query::TopKQuery;
    pub use crate::result::{RankedItem, RunCertificate, TopKResult};
    pub use crate::scoring::{Average, Max, Min, ScoringFunction, Sum, WeightedSum};
    pub use crate::standing::{AbsorbedBreakdown, IngestOutcome, StandingQuery, UpdateEvent};
    pub use crate::stats::{DatabaseStats, RunStats};
}
