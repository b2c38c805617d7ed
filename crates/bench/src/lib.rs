//! Benchmark harness reproducing the evaluation of Akbarinia et al.
//! (VLDB 2007), Section 6.
//!
//! Figures 3-17 of the paper are rows of one table in the `figures` bench
//! target; it and the other targets in `benches/` share this library:
//!
//! * [`config`] — Table 1 defaults (`n = 100 000`, `k = 20`, `m = 8`) and
//!   the parameter sweeps of each figure, scalable down via the
//!   `TOPK_BENCH_SCALE=small` environment variable for quick runs;
//! * [`measure`] — runs a set of algorithms on one generated database,
//!   several passes in rotating order, and collects the paper's three
//!   metrics (execution cost, number of accesses, median response time)
//!   plus the stop position and the items scored;
//! * [`sweeps`] — one sweep over the varied parameter (m, k or n), with
//!   each axis's own database seeding;
//! * [`report`] — aligned-table printing and the TA-relative gain factors
//!   quoted in Section 6.2 ("BPA and BPA2 outperform TA by a factor of
//!   approximately (m+6)/8 and (m+1)/2");
//! * [`emit`] — machine-readable `BENCH_<target>.json` summaries of the
//!   CI-gated targets' deterministic metrics, plus the baseline
//!   comparison the `bench_compare` binary runs against the committed
//!   smoke baselines in `baselines/`, and the ungated wall-clock
//!   `TREND_<target>.json` companions;
//! * [`clock`] — the bench-only wall-clock implementation of the
//!   `topk_trace::TraceClock` seam feeding those trend files;
//! * [`validation`] — the planner-validation sweep behind the
//!   `planner_validation` bench target: the cost-based planner's choice is
//!   checked against the measured-cost argmin over the m/n/k/correlation
//!   grid.
//!
//! ```
//! use topk_bench::measure_database;
//! use topk_core::AlgorithmKind;
//! use topk_datagen::{DatabaseGenerator, UniformGenerator};
//!
//! let database = UniformGenerator::new(4, 500).generate(42);
//! let runs = measure_database(&database, 10, &AlgorithmKind::EVALUATED).unwrap();
//!
//! // EVALUATED order is [Ta, Bpa, Bpa2]; the paper's Lemma 1/Theorem 5
//! // orderings hold on every database.
//! assert!(runs[1].execution_cost <= runs[0].execution_cost);
//! assert!(runs[2].accesses.total() <= runs[1].accesses.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod emit;
pub mod measure;
pub mod report;
pub mod sweeps;
pub mod validation;

pub use clock::WallClock;
pub use config::{BenchScale, PAPER_DEFAULT_K, PAPER_DEFAULT_M, PAPER_DEFAULT_N};
pub use emit::{BenchReport, TrendReport};
pub use measure::{measure_database, AlgorithmMeasurement, ExperimentPoint};
pub use report::{format_factor, print_header, print_metric_table, MetricKind};
pub use sweeps::{sweep, Axis};
pub use validation::{
    planner_grid, validate_planner, validate_point, GridPoint, PointOutcome, ValidationReport,
};
