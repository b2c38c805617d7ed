//! Machine-readable bench results: `BENCH_<target>.json` emission,
//! baseline comparison, and the ungated wall-clock `TREND_<target>.json`
//! companions ([`TrendReport`]).
//!
//! Every CI-gated bench target ends by building a [`BenchReport`] of its
//! **deterministic** summary metrics — access counts, message counts,
//! modelled (not wall-clock) timings, match rates — and calling
//! [`BenchReport::emit`]. When the `TOPK_BENCH_JSON_DIR` environment
//! variable is set, the report is written there as
//! `BENCH_<target>.json`; when it is unset (a developer running the
//! bench by hand) emission is skipped silently.
//!
//! Committed smoke-scale baselines live in `crates/bench/baselines/`.
//! The `bench_compare` binary parses both directories and **fails on any
//! deviation**: every metric in a baseline must be reproduced exactly
//! (the emitted metrics are deterministic by construction, so any drift
//! is a behavioural change someone must either fix or justify by
//! re-committing the baseline).
//!
//! Both files are written and read with the workspace's JSON codec,
//! [`topk_trace::json`]: the writer emits the one fixed layout below,
//! and [`BenchReport::parse`] accepts exactly that shape.
//!
//! ```json
//! {
//!   "target": "shard_scaling",
//!   "scale": "smoke",
//!   "metrics": {
//!     "gate_modelled_speedup": 2.61,
//!     "pool_tasks": 1184
//!   }
//! }
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use topk_trace::json;

/// Environment variable naming the directory `BENCH_<target>.json` files
/// are written to. Unset ⇒ no emission.
pub const JSON_DIR_ENV: &str = "TOPK_BENCH_JSON_DIR";

/// One bench target's machine-readable summary: named deterministic
/// metrics, ordered as pushed, plus an optional trace summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Bench target name (`BENCH_<target>.json`).
    pub target: String,
    /// Scale label the run used (`smoke`, `small`, `paper`).
    pub scale: String,
    /// Named metric values, in emission order.
    pub metrics: Vec<(String, f64)>,
    /// Per-kind event counts of the run's trace, sorted by kind, plus
    /// `dropped_events` when the trace was truncated.
    /// Empty ⇒ the run was untraced and no `"trace"` section is
    /// emitted. Informational only: [`BenchReport::compare`] never
    /// looks at it, so baselines stay valid whether or not a bench
    /// runs traced.
    pub trace: Vec<(String, u64)>,
}

impl BenchReport {
    /// An empty report for one target at one scale.
    pub fn new(target: &str, scale: &str) -> Self {
        BenchReport {
            target: target.to_string(),
            scale: scale.to_string(),
            metrics: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Fills the trace summary from a finished trace: one entry per
    /// event kind that occurred, sorted by kind name. Event counts are
    /// deterministic (unlike the trace's wall clock under a
    /// [`WallClock`](crate::clock::WallClock)), so the summary is safe
    /// to publish next to the gated metrics. When a lane hit
    /// [`topk_trace::LANE_EVENT_CAP`], a `dropped_events` entry says how
    /// many events the tally is missing.
    pub fn attach_trace_summary(&mut self, trace: &topk_trace::Trace) {
        let mut tally: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for record in &trace.events {
            *tally.entry(record.event.kind()).or_insert(0) += 1;
        }
        if trace.dropped_events > 0 {
            tally.insert("dropped_events", trace.dropped_events);
        }
        self.trace = tally
            .into_iter()
            .map(|(kind, count)| (kind.to_string(), count))
            .collect();
    }

    /// Appends one metric. Names must be stable across runs — they are
    /// the comparison keys. Only push deterministic values (counts,
    /// modelled times, rates); never wall-clock measurements.
    pub fn push(&mut self, name: &str, value: f64) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'),
            "metric names are bare identifiers, got {name:?}"
        );
        self.metrics.push((name.to_string(), value));
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(key, _)| key == name)
            .map(|&(_, value)| value)
    }

    /// Serializes the report (stable field order, one metric per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"target\": {},", json::string(&self.target));
        let _ = writeln!(out, "  \"scale\": {},", json::string(&self.scale));
        out.push_str("  \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {}: {}", json::string(name), json::number(*value));
        }
        out.push_str("\n  }");
        if !self.trace.is_empty() {
            out.push_str(",\n  \"trace\": {");
            for (i, (kind, count)) in self.trace.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                let _ = write!(out, "    {}: {count}", json::string(kind));
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a report previously produced by [`BenchReport::to_json`].
    /// The keys must be exactly `target, scale, metrics` in that order,
    /// plus `trace` last for a traced run; metric and kind names must be
    /// distinct, and trace counts non-negative integers.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let traced = root.as_object("report")?.len() == 4;
        let keys = ["target", "scale", "metrics", "trace"];
        let fields = root.with_keys(&keys[..if traced { 4 } else { 3 }], "report")?;
        let mut report =
            BenchReport::new(fields[0].1.as_str("target")?, fields[1].1.as_str("scale")?);
        for (name, value) in fields[2].1.as_map("metrics")? {
            report.metrics.push((name.clone(), value.as_f64(name)?));
        }
        if let Some((_, trace)) = fields.get(3) {
            for (kind, count) in trace.as_map("trace")? {
                report.trace.push((kind.clone(), count.as_u64(kind)?));
            }
        }
        Ok(report)
    }

    /// The file name this report is stored under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.target)
    }

    /// Writes `BENCH_<target>.json` into the directory named by the
    /// `TOPK_BENCH_JSON_DIR` environment variable (created if missing).
    /// Returns the path written, or `None` when the variable is unset
    /// (emission is opt-in; by-hand runs skip it).
    pub fn emit(&self) -> std::io::Result<Option<PathBuf>> {
        write_to_json_dir(&self.file_name(), &self.to_json())
    }

    /// Compares `current` against a committed `baseline`: every baseline
    /// metric must be present with exactly the baseline's value; metrics
    /// only in `current` are new and reported too, so baselines cannot
    /// silently rot. Returns human-readable deviation messages — empty
    /// means equal.
    pub fn compare(baseline: &Self, current: &Self) -> Vec<String> {
        let mut deviations = Vec::new();
        if baseline.target != current.target {
            deviations.push(format!(
                "target mismatch: baseline {:?} vs current {:?}",
                baseline.target, current.target
            ));
        }
        if baseline.scale != current.scale {
            deviations.push(format!(
                "scale mismatch: baseline {:?} vs current {:?} — \
                 re-run at the baseline's scale",
                baseline.scale, current.scale
            ));
        }
        for (name, expected) in &baseline.metrics {
            match current.get(name) {
                None => deviations.push(format!("metric {name} missing from the current run")),
                Some(actual) if actual != *expected => deviations.push(format!(
                    "metric {name} deviates: baseline {expected} vs current {actual}"
                )),
                Some(_) => {}
            }
        }
        for (name, _) in &current.metrics {
            if baseline.get(name).is_none() {
                deviations.push(format!(
                    "metric {name} is new (absent from the baseline) — re-commit the baseline"
                ));
            }
        }
        deviations
    }
}

/// One bench target's **wall-clock** trend summary, written as
/// `TREND_<target>.json` next to the gated `BENCH_<target>.json`.
///
/// The two files split the harness's outputs by determinism:
/// `BENCH_*.json` holds only deterministic metrics and is compared
/// exactly against committed baselines by `bench_compare`; `TREND_*`
/// holds wall-clock nanoseconds (from a
/// [`WallClock`](crate::clock::WallClock)-driven trace session), which
/// vary run to run and machine to machine. `bench_compare` matches only
/// the `BENCH_` prefix, so trend files are structurally excluded from
/// gating — they exist for humans and dashboards plotting performance
/// over time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrendReport {
    /// Bench target name (`TREND_<target>.json`).
    pub target: String,
    /// Scale label the run used (`smoke`, `small`, `paper`).
    pub scale: String,
    /// Named wall-clock durations in nanoseconds, in emission order.
    pub wall_nanos: Vec<(String, u64)>,
}

impl TrendReport {
    /// An empty trend report for one target at one scale.
    pub fn new(target: &str, scale: &str) -> Self {
        TrendReport {
            target: target.to_string(),
            scale: scale.to_string(),
            wall_nanos: Vec::new(),
        }
    }

    /// Appends one wall-clock measurement, in nanoseconds.
    pub fn push(&mut self, name: &str, nanos: u64) {
        self.wall_nanos.push((name.to_string(), nanos));
    }

    /// Serializes the report. There is no parser: nothing gates on
    /// trend files, so nothing in the workspace reads them back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"target\": {},", json::string(&self.target));
        let _ = writeln!(out, "  \"scale\": {},", json::string(&self.scale));
        out.push_str("  \"wall_nanos\": {");
        for (i, (name, nanos)) in self.wall_nanos.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {}: {nanos}", json::string(name));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// The file name this report is stored under.
    pub fn file_name(&self) -> String {
        format!("TREND_{}.json", self.target)
    }

    /// Writes `TREND_<target>.json` into the `TOPK_BENCH_JSON_DIR`
    /// directory; `None` when the variable is unset (like
    /// [`BenchReport::emit`]).
    pub fn emit(&self) -> std::io::Result<Option<PathBuf>> {
        write_to_json_dir(&self.file_name(), &self.to_json())
    }
}

/// Writes `json` as `<TOPK_BENCH_JSON_DIR>/<file_name>`, creating the
/// directory if missing; `None` when the variable is unset.
fn write_to_json_dir(file_name: &str, json: &str) -> std::io::Result<Option<PathBuf>> {
    let Ok(dir) = std::env::var(JSON_DIR_ENV) else {
        return Ok(None);
    };
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, json)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut report = BenchReport::new("shard_scaling", "smoke");
        report.push("gate_modelled_speedup", 2.615);
        report.push("pool_tasks", 1184.0);
        report.push("total_accesses", 48_216.0);
        report
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(parsed.get("pool_tasks"), Some(1184.0));
        assert_eq!(report.file_name(), "BENCH_shard_scaling.json");
    }

    #[test]
    fn numbers_round_trip_exactly() {
        let mut report = BenchReport::new("t", "smoke");
        report.push("frac", 0.8333333333333334);
        report.push("tiny", 1e-9);
        report.push("negative", -42.0);
        report.push("big_count", 9_007_199_254_740_991.0);
        let parsed = BenchReport::parse(&report.to_json()).unwrap();
        for ((_, expected), (_, actual)) in report.metrics.iter().zip(&parsed.metrics) {
            assert_eq!(expected.to_bits(), actual.to_bits());
        }
    }

    #[test]
    fn identical_reports_compare_clean() {
        assert!(BenchReport::compare(&sample(), &sample()).is_empty());
    }

    #[test]
    fn deviations_missing_and_new_metrics_are_reported() {
        let baseline = sample();
        let mut current = sample();
        current.metrics[0].1 = 1.0; // drifted value
        current.metrics.remove(1); // pool_tasks missing
        current.push("brand_new", 7.0);
        let deviations = BenchReport::compare(&baseline, &current);
        assert_eq!(deviations.len(), 3, "{deviations:?}");
        assert!(deviations[0].contains("gate_modelled_speedup"));
        assert!(deviations[1].contains("missing"));
        assert!(deviations[2].contains("brand_new"));
    }

    #[test]
    fn scale_mismatches_are_called_out() {
        let baseline = sample();
        let mut current = sample();
        current.scale = "paper".to_string();
        let deviations = BenchReport::compare(&baseline, &current);
        assert!(deviations[0].contains("scale mismatch"));
    }

    #[test]
    fn trace_summary_round_trips_and_is_ignored_by_compare() {
        let mut traced = sample();
        let session = topk_trace::TraceSession::begin();
        topk_trace::record(topk_trace::TraceEvent::RoundBegin { round: 1 });
        topk_trace::record(topk_trace::TraceEvent::RoundBegin { round: 2 });
        topk_trace::record(topk_trace::TraceEvent::CacheHit { page: 0 });
        traced.attach_trace_summary(&session.finish());
        assert_eq!(
            traced.trace,
            vec![("cache_hit".to_string(), 1), ("round".to_string(), 2)],
            "kinds are tallied and sorted"
        );
        let json = traced.to_json();
        assert!(json.contains("\"trace\""));
        assert_eq!(BenchReport::parse(&json).unwrap(), traced);
        // An untraced baseline compares clean against a traced run (and
        // vice versa): the trace section never gates.
        assert!(BenchReport::compare(&sample(), &traced).is_empty());
        assert!(BenchReport::compare(&traced, &sample()).is_empty());
        // Untraced reports keep the pre-trace shape byte-for-byte.
        assert!(!sample().to_json().contains("trace"));
    }

    #[test]
    fn truncated_trace_summary_says_so_and_is_ignored_by_compare() {
        let session = topk_trace::TraceSession::begin();
        let overflow = 3;
        for round in 0..(topk_trace::LANE_EVENT_CAP + overflow) as u64 {
            topk_trace::record(topk_trace::TraceEvent::RoundBegin { round });
        }
        let mut traced = sample();
        traced.attach_trace_summary(&session.finish());
        assert_eq!(
            traced.trace,
            vec![
                ("dropped_events".to_string(), overflow as u64),
                ("round".to_string(), topk_trace::LANE_EVENT_CAP as u64),
            ]
        );
        let json = traced.to_json();
        assert!(json.contains("\"dropped_events\": 3"));
        assert_eq!(BenchReport::parse(&json).unwrap(), traced);
        assert!(BenchReport::compare(&sample(), &traced).is_empty());
        assert!(BenchReport::compare(&traced, &sample()).is_empty());
    }

    #[test]
    fn trend_reports_write_their_own_file_prefix() {
        let mut trend = TrendReport::new("shard_scaling", "smoke");
        trend.push("wall_nanos", 123_456_789);
        assert_eq!(trend.file_name(), "TREND_shard_scaling.json");
        let json = trend.to_json();
        assert!(json.contains("\"wall_nanos\""));
        assert!(json.contains("123456789"));
        assert!(
            !trend.file_name().starts_with("BENCH_"),
            "bench_compare matches the BENCH_ prefix, so trend files are excluded from gating"
        );
    }

    #[test]
    fn committed_baselines_reserialize_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("BENCH_") || !name.ends_with(".json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let report = BenchReport::parse(&text).unwrap();
            assert_eq!(report.to_json(), text, "{name} does not re-serialize");
            checked += 1;
        }
        assert!(checked >= 6, "only {checked} baselines found");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("").is_err());
        let valid = sample().to_json();
        assert!(BenchReport::parse(&valid[..valid.len() - 3]).is_err());
        assert!(BenchReport::parse(&format!("{valid}x")).is_err());
        // A repeated metric name would make `compare` gate only one of
        // its values.
        let repeated = valid.replace("\"pool_tasks\"", "\"total_accesses\"");
        assert_ne!(repeated, valid, "replacement applied");
        assert!(BenchReport::parse(&repeated)
            .unwrap_err()
            .contains("repeated key"));
    }
}
