//! Top-k query processing algorithms over sorted lists.
//!
//! | Algorithm | Paper section | Type |
//! |---|---|---|
//! | [`NaiveScan`] | §1 | full scan baseline, O(m·n) |
//! | [`Fa`] | §3.1 | Fagin's Algorithm |
//! | [`Ta`] | §3.2 | Threshold Algorithm (baseline of the evaluation) |
//! | [`Bpa`] | §4 | Best Position Algorithm (contribution 1) |
//! | [`Bpa2`] | §5 | BPA2, direct accesses driven by best positions (contribution 2) |
//! | [`Tput`] | §7 (related work) | Three-Phase Uniform Threshold baseline (sum scoring only) |
//!
//! All algorithms implement [`TopKAlgorithm`] and therefore produce a
//! [`TopKResult`] carrying both the answers and the measured
//! [`RunStats`].
//!
//! # Execution backends
//!
//! Algorithms are written against the backend-generic [`SourceSet`]
//! API, not against a concrete storage layout: the same `Bpa2` value
//! runs over the
//! in-memory backend ([`TopKAlgorithm::run`], which opens
//! [`Sources::in_memory`](topk_lists::source::Sources::in_memory)), over
//! one session of the simulated cluster's message-passing runtime
//! (`topk_distributed::AsyncClusterSources` — worker threads behind
//! request/reply channels), or over a batching decorator — with
//! identical answers, because the paper's algorithms only ever speak
//! sorted/random/direct access. [`run_all`] and
//! [`plan_and_run_on`](crate::planner::plan_and_run_on) therefore work
//! over every backend, the runtime included, with no extra wiring.
//!
//! Query validation happens once, in the shared entry point
//! [`TopKAlgorithm::run_on`], so no algorithm can forget it.

mod bpa;
mod bpa2;
mod fa;
mod naive;
mod ta;
mod tput;

pub use bpa::Bpa;
pub use bpa2::Bpa2;
pub use fa::Fa;
pub use naive::NaiveScan;
pub use ta::Ta;
pub use tput::Tput;

use topk_lists::source::{SourceSet, Sources};
use topk_lists::{Database, TrackerKind};

use crate::error::{catch_source_error, TopKError};
use crate::query::TopKQuery;
use crate::result::TopKResult;
use crate::stats::RunStats;

/// A top-k query processing algorithm, written against the
/// backend-generic [`SourceSet`] access model.
pub trait TopKAlgorithm {
    /// Short identifier used in reports and benchmark tables.
    fn name(&self) -> &'static str;

    /// The best-position tracking strategy for the sources (Section 5.2):
    /// always the paper's bit array. Kept because the benchmark harness
    /// opens its sources with it; the tracker ablation picks a kind with
    /// [`Sources::in_memory_with_tracker`] instead.
    fn preferred_tracker(&self) -> TrackerKind {
        TrackerKind::BitArray
    }

    /// The algorithm body: executes the query against the given sources.
    ///
    /// Implementations may assume the query has been validated
    /// (`1 ≤ k ≤ n`); callers must go through [`TopKAlgorithm::run_on`]
    /// or [`TopKAlgorithm::run`], which perform that validation. Calling
    /// `execute` directly with an invalid query may panic.
    fn execute(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError>;

    /// The shared execution entry point: validates the query against the
    /// sources, then runs the algorithm. Every backend goes through this
    /// method, so validation cannot be skipped by an algorithm
    /// implementation.
    ///
    /// This is also where queries meet the fail-stop contract: fallible
    /// backends (disk, network) signal an access failure by unwinding with
    /// a [`SourceError`](topk_lists::source::SourceError) payload
    /// ([`SourceError::raise`](topk_lists::source::SourceError::raise)),
    /// and `run_on` converts exactly that payload into
    /// [`TopKError::Source`]. Algorithm bodies therefore never handle IO
    /// errors, yet callers always see a typed `Err` rather than a panic.
    /// Unwinds with any other payload (genuine bugs) are re-raised
    /// unchanged. After an error the sources are mid-query; call
    /// [`SourceSet::reset`] before reusing them.
    fn run_on(
        &self,
        sources: &mut dyn SourceSet,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        query.validate_for(sources.num_items())?;
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::QueryBegin {
                algorithm: self.name(),
                k: query.k() as u64,
                lists: sources.num_lists() as u64,
            });
        }
        // `run_on` is also the single place wall-clock time is read in
        // the algorithm layer: algorithm bodies report simulated costs
        // only, and the human-facing `RunStats::elapsed` is stamped here
        // around the whole execution.
        // lint:allow(no-wall-clock) -- RunStats::elapsed plumbing: the one sanctioned wall-time read
        let started = std::time::Instant::now();
        let out = catch_source_error(|| self.execute(sources, query)).map(|mut r| {
            // lint:allow(no-wall-clock) -- RunStats::elapsed plumbing: stamps the measurement taken above
            r.set_elapsed(started.elapsed());
            r
        });
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::QueryEnd {
                status: if out.is_ok() { "ok" } else { "error" },
            });
        }
        out
    }

    /// Convenience entry point for the in-memory backend: opens
    /// [`Sources::in_memory`] over the database and executes through
    /// [`run_on`](TopKAlgorithm::run_on).
    fn run(&self, database: &Database, query: &TopKQuery) -> Result<TopKResult, TopKError> {
        let mut sources = Sources::in_memory(database);
        self.run_on(&mut sources, query)
    }
}

/// Run-time selection of an algorithm (used by benches and examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Full scan of every list.
    Naive,
    /// Fagin's Algorithm.
    Fa,
    /// Threshold Algorithm with the paper's literal access accounting.
    Ta,
    /// Threshold Algorithm that skips random accesses for items whose
    /// overall score is already known (an ablation, not a paper algorithm).
    TaCached,
    /// Best Position Algorithm.
    Bpa,
    /// BPA2.
    Bpa2,
    /// Three-Phase Uniform Threshold (related-work baseline, Section 7).
    /// Sum scoring only: any other scoring function yields
    /// [`TopKError::UnsupportedScoring`] at run time.
    Tput,
}

impl AlgorithmKind {
    /// Instantiates the algorithm with its default configuration.
    pub fn create(self) -> Box<dyn TopKAlgorithm> {
        match self {
            AlgorithmKind::Naive => Box::new(NaiveScan),
            AlgorithmKind::Fa => Box::new(Fa),
            AlgorithmKind::Ta => Box::new(Ta::literal()),
            AlgorithmKind::TaCached => Box::new(Ta::memoizing()),
            AlgorithmKind::Bpa => Box::new(Bpa),
            AlgorithmKind::Bpa2 => Box::new(Bpa2),
            AlgorithmKind::Tput => Box::new(Tput),
        }
    }

    /// All algorithm kinds, in presentation order.
    pub const ALL: [AlgorithmKind; 7] = [
        AlgorithmKind::Naive,
        AlgorithmKind::Fa,
        AlgorithmKind::Ta,
        AlgorithmKind::TaCached,
        AlgorithmKind::Bpa,
        AlgorithmKind::Bpa2,
        AlgorithmKind::Tput,
    ];

    /// Whether this algorithm executes the given query's scoring function
    /// (TPUT is restricted to the sum; every other algorithm accepts any
    /// monotone function).
    pub fn supports(self, query: &TopKQuery) -> bool {
        match self {
            AlgorithmKind::Tput => query.scoring().supports_partial_sums(),
            _ => true,
        }
    }

    /// The three algorithms compared in the paper's evaluation (Section 6):
    /// TA, BPA and BPA2.
    pub const EVALUATED: [AlgorithmKind; 3] =
        [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2];
}

/// Collects run statistics from the sources an algorithm executed
/// against. `elapsed` is left at zero here: algorithm bodies never read
/// the wall clock — [`TopKAlgorithm::run_on`] stamps the real duration
/// onto the result after `execute` returns.
pub(crate) fn collect_stats(
    sources: &dyn SourceSet,
    stop_position: Option<usize>,
    rounds: u64,
    items_scored: usize,
) -> RunStats {
    RunStats {
        accesses: sources.total_counters(),
        per_list: sources.per_list_counters(),
        stop_position,
        rounds,
        items_scored,
        elapsed: std::time::Duration::ZERO,
    }
}

/// Runs every algorithm kind in `kinds` against the same source set and
/// query, returning `(kind, result)` pairs. The sources are
/// [`reset`](SourceSet::reset) before each run, so every algorithm starts
/// from zeroed counters and tracking state. Convenience for tests and
/// benches.
pub fn run_all(
    kinds: &[AlgorithmKind],
    sources: &mut dyn SourceSet,
    query: &TopKQuery,
) -> Result<Vec<(AlgorithmKind, TopKResult)>, TopKError> {
    kinds
        .iter()
        .map(|&kind| {
            sources.reset();
            kind.create().run_on(sources, query).map(|r| (kind, r))
        })
        .collect()
}

/// As [`run_all`], over the in-memory backend of a database.
pub fn run_all_in_memory(
    kinds: &[AlgorithmKind],
    database: &Database,
    query: &TopKQuery,
) -> Result<Vec<(AlgorithmKind, TopKResult)>, TopKError> {
    run_all(kinds, &mut Sources::in_memory(database), query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_database;
    use topk_lists::source::SourceError;

    #[test]
    fn kinds_create_their_algorithms() {
        let expected = ["naive", "fa", "ta", "ta-cached", "bpa", "bpa2", "tput"];
        assert_eq!(expected.len(), AlgorithmKind::ALL.len());
        for (kind, name) in AlgorithmKind::ALL.iter().zip(expected) {
            assert_eq!(kind.create().name(), name);
        }
    }

    #[test]
    fn only_tput_is_restricted_to_sum_scoring() {
        use crate::scoring::Min;
        let sum = TopKQuery::top(1);
        let min = TopKQuery::new(1, Min);
        for kind in AlgorithmKind::ALL {
            assert!(kind.supports(&sum), "{kind:?} must accept sum scoring");
            assert_eq!(kind.supports(&min), kind != AlgorithmKind::Tput);
        }
    }

    #[test]
    fn run_all_surfaces_tput_scoring_errors_as_topk_errors() {
        use crate::scoring::Min;
        let db = figure1_database();
        let err =
            run_all_in_memory(&[AlgorithmKind::Tput], &db, &TopKQuery::new(2, Min)).unwrap_err();
        assert!(matches!(
            err,
            TopKError::UnsupportedScoring {
                algorithm: "tput",
                ..
            }
        ));
    }

    #[test]
    fn evaluated_set_matches_the_paper() {
        assert_eq!(
            AlgorithmKind::EVALUATED,
            [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2]
        );
    }

    #[test]
    fn run_all_returns_one_result_per_kind() {
        let db = figure1_database();
        let query = TopKQuery::top(3);
        let results = run_all_in_memory(&AlgorithmKind::ALL, &db, &query).unwrap();
        assert_eq!(results.len(), AlgorithmKind::ALL.len());
        // Every algorithm returns the same top-3 score multiset {71, 70, 70}.
        for (kind, result) in &results {
            let scores: Vec<f64> = result.scores().iter().map(|s| s.value()).collect();
            assert_eq!(scores, vec![71.0, 70.0, 70.0], "scores from {kind:?}");
        }
    }

    #[test]
    fn run_all_resets_sources_between_algorithms() {
        let db = figure1_database();
        let query = TopKQuery::top(3);
        let mut sources = Sources::in_memory(&db);
        let shared = run_all(
            &[AlgorithmKind::Ta, AlgorithmKind::Bpa2],
            &mut sources,
            &query,
        )
        .unwrap();
        // Each run's stats must match a run over fresh sources — the
        // reset means no counters or tracker state leak across runs.
        for (kind, result) in &shared {
            let fresh = kind.create().run(&db, &query).unwrap();
            assert_eq!(result.stats().accesses, fresh.stats().accesses, "{kind:?}");
            assert!(result.scores_match(&fresh, 1e-9), "{kind:?}");
        }
    }

    /// Satellite regression test: validation lives in the shared entry
    /// point, so even an algorithm whose `execute` performs no checks at
    /// all rejects malformed queries before its body runs.
    #[test]
    fn the_entry_point_validates_before_any_algorithm_code_runs() {
        #[derive(Debug)]
        struct NoValidation;
        impl TopKAlgorithm for NoValidation {
            fn name(&self) -> &'static str {
                "no-validation"
            }
            fn execute(
                &self,
                _sources: &mut dyn SourceSet,
                _query: &TopKQuery,
            ) -> Result<TopKResult, TopKError> {
                unreachable!("execute must not be reached for an invalid query")
            }
        }

        let db = figure1_database();
        for k in [0, 13, 999] {
            // Through the in-memory convenience entry point…
            let err = NoValidation.run(&db, &TopKQuery::top(k)).unwrap_err();
            assert!(matches!(err, TopKError::InvalidK { .. }), "k = {k}");
            // …and through the backend-generic one.
            let mut sources = Sources::in_memory(&db);
            let err = NoValidation
                .run_on(&mut sources, &TopKQuery::top(k))
                .unwrap_err();
            assert!(matches!(err, TopKError::InvalidK { k: got, n: 12 } if got == k));
        }
    }

    /// The fail-stop contract: a `SourceError` unwind raised anywhere
    /// inside `execute` surfaces as `Err(TopKError::Source)` from
    /// `run_on`, while any other unwind payload propagates unchanged.
    #[test]
    fn run_on_converts_source_error_unwinds_into_typed_errors() {
        #[derive(Debug)]
        struct FailStop;
        impl TopKAlgorithm for FailStop {
            fn name(&self) -> &'static str {
                "fail-stop"
            }
            fn execute(
                &self,
                _sources: &mut dyn SourceSet,
                _query: &TopKQuery,
            ) -> Result<TopKResult, TopKError> {
                SourceError::new("page read", "injected failure at op 3").raise()
            }
        }

        let db = figure1_database();
        let mut sources = Sources::in_memory(&db);
        let err = FailStop
            .run_on(&mut sources, &TopKQuery::top(1))
            .unwrap_err();
        match err {
            TopKError::Source(source) => {
                assert_eq!(source.op, "page read");
                assert!(source.detail.contains("op 3"));
            }
            other => panic!("expected a Source error, got {other:?}"),
        }
    }

    #[test]
    fn run_on_reraises_non_source_panics() {
        #[derive(Debug)]
        struct Bug;
        impl TopKAlgorithm for Bug {
            fn name(&self) -> &'static str {
                "bug"
            }
            fn execute(
                &self,
                _sources: &mut dyn SourceSet,
                _query: &TopKQuery,
            ) -> Result<TopKResult, TopKError> {
                panic!("a genuine bug, not an IO failure")
            }
        }

        let db = figure1_database();
        let caught = std::panic::catch_unwind(|| {
            let mut sources = Sources::in_memory(&db);
            let _ = Bug.run_on(&mut sources, &TopKQuery::top(1));
        });
        let payload = caught.expect_err("the panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("genuine bug"));
    }
}
