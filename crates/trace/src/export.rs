//! Byte-deterministic JSON export and the schema drift checker.
//!
//! The writer lays the document out by hand and takes its scalars from
//! the workspace's one JSON codec, [`crate::json`]. It is fully
//! deterministic: events are merge-sorted by `(lane, seq)` before
//! serialization, metric maps iterate in `BTreeMap` name order, and
//! floating-point gauges use the shortest round-trip representation
//! ([`json::number`]). Two runs of the same traced workload therefore
//! produce byte-identical exports.
//!
//! [`verify_json`] is the committed-schema half: it re-parses an export
//! with [`json::parse`] and checks every structural promise `SCHEMA.md`
//! makes — key order, known event kinds with exactly their declared
//! fields, `(lane, seq)` canonical order, sorted metric names, histogram
//! invariants. CI runs it over a fresh export (`trace_smoke
//! --verify-json`, mirroring `topk-lint --verify-json`), so schema drift
//! fails the build instead of silently breaking downstream consumers.
//! When renderer and schema disagree, the verifier wins.

use crate::event::{schema_fields, FieldKind, FieldValue};
use crate::json::{self, Value};
use crate::metrics::MetricsRegistry;
use crate::session::Trace;

/// Version stamped into (and required of) every export.
pub const SCHEMA_VERSION: u64 = 1;

impl Trace {
    /// Serializes the trace with an empty metrics section.
    pub fn to_json(&self) -> String {
        self.to_json_with_metrics(&MetricsRegistry::new())
    }

    /// Serializes the trace plus a metrics snapshot (see `SCHEMA.md`).
    pub fn to_json_with_metrics(&self, metrics: &MetricsRegistry) -> String {
        let u64_list = |values: &[u64]| {
            let items: Vec<String> = values.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(", "))
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"clock_nanos\": {},\n", self.clock_nanos));
        out.push_str(&format!("  \"dropped_events\": {},\n", self.dropped_events));
        out.push_str("  \"events\": [");
        for (i, record) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"lane\": {}, \"seq\": {}, \"kind\": {}",
                record.lane,
                record.seq,
                json::string(record.event.kind())
            ));
            for (name, value) in record.event.fields() {
                out.push_str(", ");
                out.push_str(&format!("{}: ", json::string(name)));
                match value {
                    FieldValue::U64(v) => out.push_str(&v.to_string()),
                    FieldValue::Bool(v) => out.push_str(if v { "true" } else { "false" }),
                    FieldValue::Str(v) => out.push_str(&json::string(v)),
                }
            }
            out.push('}');
        }
        if self.events.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"metrics\": {\n");
        out.push_str("    \"counters\": {");
        let mut first = true;
        for (name, value) in metrics.counters() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n      {}: {}", json::string(name), value));
        }
        out.push_str(if first { "},\n" } else { "\n    },\n" });
        out.push_str("    \"gauges\": {");
        let mut first = true;
        for (name, value) in metrics.gauges() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n      {}: {}",
                json::string(name),
                json::number(value)
            ));
        }
        out.push_str(if first { "},\n" } else { "\n    },\n" });
        out.push_str("    \"histograms\": {");
        let mut first = true;
        for (name, hist) in metrics.histograms() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n      {}: {{\"bounds\": {}, \"counts\": {}, \"count\": {}, \"sum\": {}}}",
                json::string(name),
                u64_list(hist.bounds()),
                u64_list(hist.counts()),
                hist.count(),
                hist.sum()
            ));
        }
        out.push_str(if first { "}\n" } else { "\n    }\n" });
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Checks that `text` is a conforming trace export (see `SCHEMA.md`).
///
/// Returns `Err` with a human-readable reason on the first
/// nonconformance; CI treats that as a failed build.
pub fn verify_json(text: &str) -> Result<(), String> {
    let root = json::parse(text)?;
    let members = root.with_keys(
        &[
            "schema_version",
            "clock_nanos",
            "dropped_events",
            "events",
            "metrics",
        ],
        "top level",
    )?;

    let version = members[0].1.as_u64("schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    members[1].1.as_u64("clock_nanos")?;
    members[2].1.as_u64("dropped_events")?;

    let mut prev: Option<(u64, u64)> = None;
    for (i, event) in members[3].1.as_array("events")?.iter().enumerate() {
        let at = format!("events[{i}]");
        let fields = event.as_object(&at)?;
        if fields.len() < 3
            || fields[0].0 != "lane"
            || fields[1].0 != "seq"
            || fields[2].0 != "kind"
        {
            return Err(format!("{at}: must start with lane, seq, kind"));
        }
        let lane = fields[0].1.as_u64(&format!("{at}.lane"))?;
        let seq = fields[1].1.as_u64(&format!("{at}.seq"))?;
        let kind = fields[2].1.as_str(&format!("{at}.kind"))?;
        let schema =
            schema_fields(kind).ok_or_else(|| format!("{at}: unknown event kind `{kind}`"))?;
        let payload = &fields[3..];
        if payload.len() != schema.len() {
            return Err(format!(
                "{at} ({kind}): expected {} payload fields, got {}",
                schema.len(),
                payload.len()
            ));
        }
        for ((name, value), (schema_name, schema_kind)) in payload.iter().zip(schema) {
            if name != schema_name {
                return Err(format!(
                    "{at} ({kind}): field `{name}` out of place, expected `{schema_name}`"
                ));
            }
            let what = format!("{at} ({kind}).{name}");
            match schema_kind {
                FieldKind::U64 => value.as_u64(&what).map(drop)?,
                FieldKind::Bool => value.as_bool(&what).map(drop)?,
                FieldKind::Str => value.as_str(&what).map(drop)?,
            }
        }
        // Canonical order: (lane, seq) strictly increasing, seqs
        // contiguous from 0 within each lane.
        match prev {
            None => {
                if seq != 0 {
                    return Err(format!("{at}: first event of lane {lane} has seq {seq}"));
                }
            }
            Some((plane, pseq)) => {
                if lane == plane {
                    if seq != pseq + 1 {
                        return Err(format!("{at}: lane {lane} seq jumps {pseq} -> {seq}"));
                    }
                } else if lane < plane {
                    return Err(format!("{at}: lane order regresses {plane} -> {lane}"));
                } else if seq != 0 {
                    return Err(format!("{at}: first event of lane {lane} has seq {seq}"));
                }
            }
        }
        prev = Some((lane, seq));
    }

    let metrics = members[4]
        .1
        .with_keys(&["counters", "gauges", "histograms"], "metrics")?;
    verify_sorted_map(&metrics[0].1, "counters", |v, what| {
        v.as_u64(what).map(drop)
    })?;
    verify_sorted_map(&metrics[1].1, "gauges", |v, what| v.as_f64(what).map(drop))?;
    verify_sorted_map(&metrics[2].1, "histograms", verify_histogram)?;
    Ok(())
}

/// Checks `value` is an object with strictly ascending keys, each value
/// passing `check`.
fn verify_sorted_map(
    value: &Value,
    what: &str,
    check: impl Fn(&Value, &str) -> Result<(), String>,
) -> Result<(), String> {
    let members = value.as_object(what)?;
    for pair in members.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(format!(
                "{what}: keys `{}` and `{}` not in strictly ascending order",
                pair[0].0, pair[1].0
            ));
        }
    }
    for (key, value) in members {
        check(value, &format!("{what}.{key}"))?;
    }
    Ok(())
}

/// Checks one histogram object: key order, bound monotonicity, bucket
/// arity, and that `count` equals the bucket total.
fn verify_histogram(value: &Value, what: &str) -> Result<(), String> {
    let members = value.with_keys(&["bounds", "counts", "count", "sum"], what)?;
    let u64s = |value: &Value, what: String| -> Result<Vec<u64>, String> {
        let items = value.as_array(&what)?;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            out.push(item.as_u64(&format!("{what}[{i}]"))?);
        }
        Ok(out)
    };
    let bounds = u64s(&members[0].1, format!("{what}.bounds"))?;
    if bounds.is_empty() {
        return Err(format!("{what}.bounds: must be non-empty"));
    }
    if bounds.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!("{what}.bounds: must be strictly increasing"));
    }
    let counts = u64s(&members[1].1, format!("{what}.counts"))?;
    if counts.len() != bounds.len() + 1 {
        return Err(format!(
            "{what}.counts: expected {} buckets, got {}",
            bounds.len() + 1,
            counts.len()
        ));
    }
    let count = members[2].1.as_u64(&format!("{what}.count"))?;
    if count != counts.iter().sum::<u64>() {
        return Err(format!("{what}.count: does not equal the bucket total"));
    }
    members[3].1.as_u64(&format!("{what}.sum"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::metrics::{MetricsRegistry, ACCESS_BUCKETS};
    use crate::session::{record, TraceSession};

    fn sample_trace() -> Trace {
        let session = TraceSession::begin();
        record(TraceEvent::QueryBegin {
            algorithm: "bpa",
            k: 3,
            lists: 4,
        });
        record(TraceEvent::RoundBegin { round: 1 });
        record(TraceEvent::QueryEnd { status: "ok" });
        session.finish()
    }

    fn sample_metrics() -> MetricsRegistry {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("cache.hits", 2);
        metrics.counter_add("run.rounds", 1);
        metrics.gauge_set("run.stop_position", 12.5);
        metrics.histogram_record("run.per_list_accesses", ACCESS_BUCKETS, 37);
        metrics
    }

    #[test]
    fn export_verifies_and_is_stable_across_serializations() {
        let trace = sample_trace();
        let metrics = sample_metrics();
        let a = trace.to_json_with_metrics(&metrics);
        let b = trace.to_json_with_metrics(&metrics);
        assert_eq!(a, b);
        verify_json(&a).expect("export conforms");
    }

    #[test]
    fn empty_trace_verifies() {
        let session = TraceSession::begin();
        let trace = session.finish();
        verify_json(&trace.to_json()).expect("empty export conforms");
    }

    #[test]
    fn verifier_rejects_drift() {
        let json = sample_trace().to_json_with_metrics(&sample_metrics());
        // Unknown kind.
        let bad = json.replace("\"kind\": \"round\"", "\"kind\": \"mystery\"");
        assert!(verify_json(&bad)
            .unwrap_err()
            .contains("unknown event kind"));
        // Wrong version.
        let bad = json.replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(verify_json(&bad).unwrap_err().contains("schema_version"));
        // Broken lane order.
        let bad = json.replace("\"lane\": 0, \"seq\": 1", "\"lane\": 0, \"seq\": 5");
        assert!(verify_json(&bad).unwrap_err().contains("seq"));
        // Histogram arity (37 falls in the `<= 100` bucket).
        let bad = json.replace("\"counts\": [0, 0, 1, 0, 0, 0, 0]", "\"counts\": [0, 1]");
        assert_ne!(bad, json, "replacement applied");
        assert!(verify_json(&bad).unwrap_err().contains("buckets"));
        // Not JSON at all.
        assert!(verify_json("not json").is_err());
    }

    #[test]
    fn verifier_rejects_unsorted_metric_names() {
        let json = sample_trace().to_json_with_metrics(&sample_metrics());
        // `cache.hits` sorts before `run.rounds`; renaming it to
        // `zzz.hits` leaves the file order unsorted.
        let bad = json.replace("cache.hits", "zzz.hits");
        assert_ne!(bad, json, "replacement applied");
        assert!(verify_json(&bad)
            .unwrap_err()
            .contains("strictly ascending"));
    }
}
