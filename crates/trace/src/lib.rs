//! **Deterministic query tracing + unified metrics** for the bpa-topk
//! workspace.
//!
//! Six execution layers (algorithms → planner → sources → query pool →
//! paged storage → distributed runtime) each carry their own counters;
//! this crate adds the missing cross-layer view: one query's journey —
//! plan choice, rounds, sorted/random/block accesses, page-cache
//! hits/misses, pool fan-out, owner round-trips — recorded as a single
//! *byte-deterministic* trace, plus a [`MetricsRegistry`] that absorbs
//! the existing counters behind one [`MetricSource`] trait.
//!
//! Determinism is the design constraint everything else bends around
//! (this workspace gates CI on bit-identical answers *and* access
//! sequences, and lint rule 2 bans wall clocks):
//!
//! * events carry `(lane, seq)` coordinates instead of timestamps — see
//!   [`session`] for why this survives a work-stealing pool;
//! * the only clock in this crate is the [`LogicalClock`]; wall time
//!   enters exclusively through the [`TraceClock`] seam, implemented in
//!   `crates/bench` (the one lint-allowlisted home of real time);
//! * the JSON export ([`Trace::to_json_with_metrics`]) is key-ordered
//!   and committed to in `SCHEMA.md`; [`verify_json`] fails CI on
//!   drift. It is built on [`json`], the workspace's one JSON codec,
//!   which the lint report and the bench reports share.
//!
//! Tracing is **observation-only and zero-cost when disabled**: every
//! instrumentation site first checks [`active`] (one relaxed atomic
//! load when no session exists), and the observation-only property
//! tests assert that enabling tracing changes no answer and no counter,
//! anywhere.
//!
//! # Quickstart
//!
//! ```
//! use topk_trace::{MetricsRegistry, TraceEvent, TraceSession};
//!
//! let session = TraceSession::begin();          // lane 0 = this thread
//! topk_trace::record(TraceEvent::RoundBegin { round: 1 });
//! let trace = session.finish();
//!
//! let mut metrics = MetricsRegistry::new();
//! metrics.counter_add("run.rounds", 1);
//!
//! let json = trace.to_json_with_metrics(&metrics);
//! topk_trace::verify_json(&json).expect("conforms to SCHEMA.md");
//! assert_eq!(trace.count_kind("round"), 1);
//! println!("{}", trace.render_tree());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod render;
pub mod session;

pub use clock::{LogicalClock, TraceClock};
pub use event::{schema_fields, FieldKind, FieldValue, TraceEvent, EVENT_SCHEMA};
pub use export::{verify_json, SCHEMA_VERSION};
pub use metrics::{
    Histogram, MetricSource, MetricsRegistry, ACCESS_BUCKETS, MESSAGE_BUCKETS, NANOS_BUCKETS,
};
pub use session::{
    active, pool_scope, record, JobLaneGuard, PoolScope, Record, Trace, TraceSession,
    LANE_EVENT_CAP,
};
