//! Metric names, the per-layer accumulator, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use topk_core::TopKResult;
use topk_lists::source::CacheCounters;

use crate::timing::{CallTimes, Samples};

/// End-to-end metrics (untraced run): name and unit. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("ns_per_access", "ns"),
    ("accesses_per_op", "count"),
    ("ta_latency_p50_us", "us"),
    ("bpa_latency_p50_us", "us"),
    ("bpa2_latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run): name and unit. A layer that does no
/// work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.algorithms.self_ns_per_access", "ns"),
    ("core.algorithms.allocs_per_access", "count"),
    ("lists.source.ns_per_sorted", "ns"),
    ("lists.source.ns_per_random", "ns"),
    ("lists.source.ns_per_direct", "ns"),
    ("lists.source.ns_per_block", "ns"),
    ("lists.source.open_us", "us"),
    ("lists.source.share", "ratio"),
    ("core.planner.plan_us", "us"),
    ("core.stats.collect_us", "us"),
    ("core.stats.collects_per_1k_ops", "count"),
    ("lists.sharded.update_us", "us"),
    ("lists.mirror.update_us", "us"),
    ("lists.mutation.positions_moved", "count"),
    ("core.standing.ingest_ns", "ns"),
    ("core.standing.hit_serve_ns", "ns"),
    ("core.standing.refresh_us", "us"),
    ("core.standing.absorb_ratio", "ratio"),
    ("core.standing.refreshes_per_1k_updates", "count"),
    ("storage.open_us", "us"),
    ("storage.misses_per_access", "count"),
    ("storage.hit_ratio", "ratio"),
    ("pool.queue_wait_us", "us"),
    ("pool.speedup", "ratio"),
    ("pool.tasks_per_batch", "count"),
    ("distributed.connect_us", "us"),
    ("distributed.messages_per_query", "count"),
    ("distributed.us_per_message", "us"),
    ("distributed.modelled_makespan_us", "us"),
    ("trace.clock_read_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// What a measured loop hands to [`end_to_end`].
pub struct Measured<'a> {
    /// Median setup time (s).
    pub setup_s: f64,
    /// Per-op latency samples.
    pub latency: &'a Samples,
    /// The latency percentile reported as the tail.
    pub tail: f64,
    /// Wall time the ops kept the client busy (ns), for throughput.
    pub busy_nanos: u64,
    /// Wall time of the ops per counted access (ns) is this over `accesses`.
    pub access_nanos: u64,
    pub accesses: u64,
    /// Accesses per op over the fixed prefix.
    pub accesses_per_op: f64,
    /// TA, BPA and BPA2 latency samples.
    pub per_algorithm: [&'a Samples; 3],
}

/// The end-to-end metrics, in [`END_TO_END`] order.
pub fn end_to_end(m: Measured) -> BTreeMap<&'static str, f64> {
    let p50 = |s: &Samples| s.percentile_us(0.5).unwrap_or(0.0);
    let values = [
        m.setup_s,
        ratio(m.latency.len() as f64 * 1e9, m.busy_nanos as f64),
        p50(m.latency),
        m.latency.percentile_us(m.tail).unwrap_or(0.0),
        ratio(m.access_nanos as f64, m.accesses as f64),
        m.accesses_per_op,
        p50(m.per_algorithm[0]),
        p50(m.per_algorithm[1]),
        p50(m.per_algorithm[2]),
        peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .map(|&(name, _)| name)
        .zip(values)
        .collect()
}

/// Ops needed for the `tail` percentile to have ten samples beyond it.
pub fn tail_ops(tail: f64) -> u64 {
    (10.0 / (1.0 - tail)).ceil() as u64
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// An answer as compared by the oracle: item ids and exact score bits,
/// in rank order.
pub fn answer_bits(result: &TopKResult) -> Vec<(u64, u64)> {
    result
        .items()
        .iter()
        .map(|r| (r.item.0, r.score.value().to_bits()))
        .collect()
}

/// Tally of one phase of the traced run. Time fields cover the whole
/// phase; count metrics are read from a snapshot taken after a fixed
/// number of ops, so they repeat exactly at one seed.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Ops completed and their traced wall time.
    pub ops: u64,
    pub op_nanos: u64,
    /// Time inside query executions (`run_on`, or a standing refresh).
    pub run_nanos: u64,
    /// Time inside list-source calls, from the [`crate::timing::Timed`] adapter.
    pub calls: CallTimes,
    /// Accesses counted by the sources during those executions.
    pub accesses: u64,
    /// Allocations on the executing thread during those executions.
    pub allocs: u64,
    /// Opening a per-query source set (any backend).
    pub opens: u64,
    pub open_nanos: u64,
    /// Of those, opening paged sources (`PagedDatabase::sources`).
    pub storage_opens: u64,
    pub storage_open_nanos: u64,
    pub cache: CacheCounters,
    pub plans: u64,
    pub plan_nanos: u64,
    pub collects: u64,
    pub collect_nanos: u64,
    pub sharded_updates: u64,
    pub sharded_update_nanos: u64,
    pub mirror_updates: u64,
    pub mirror_update_nanos: u64,
    pub positions_moved: u64,
    pub ingests: u64,
    pub ingest_nanos: u64,
    pub absorbed: u64,
    pub hit_serves: u64,
    pub hit_serve_nanos: u64,
    pub refreshes: u64,
    pub refresh_nanos: u64,
    pub batches: u64,
    pub batch_nanos: u64,
    /// Sum of per-query wall time inside batches (open to result).
    pub batch_query_nanos: u64,
    pub queue_waits: u64,
    pub queue_wait_nanos: u64,
    pub tasks: u64,
    pub connects: u64,
    pub connect_nanos: u64,
    pub messages: u64,
    pub makespan_nanos: u64,
}

impl Layers {
    /// Adds another tally (one op's, or one query's) into this one.
    pub fn add(&mut self, other: &Layers) {
        self.ops += other.ops;
        self.op_nanos += other.op_nanos;
        self.run_nanos += other.run_nanos;
        self.calls.add(&other.calls);
        self.accesses += other.accesses;
        self.allocs += other.allocs;
        self.opens += other.opens;
        self.open_nanos += other.open_nanos;
        self.storage_opens += other.storage_opens;
        self.storage_open_nanos += other.storage_open_nanos;
        self.cache = self.cache.combined(&other.cache);
        self.plans += other.plans;
        self.plan_nanos += other.plan_nanos;
        self.collects += other.collects;
        self.collect_nanos += other.collect_nanos;
        self.sharded_updates += other.sharded_updates;
        self.sharded_update_nanos += other.sharded_update_nanos;
        self.mirror_updates += other.mirror_updates;
        self.mirror_update_nanos += other.mirror_update_nanos;
        self.positions_moved += other.positions_moved;
        self.ingests += other.ingests;
        self.ingest_nanos += other.ingest_nanos;
        self.absorbed += other.absorbed;
        self.hit_serves += other.hit_serves;
        self.hit_serve_nanos += other.hit_serve_nanos;
        self.refreshes += other.refreshes;
        self.refresh_nanos += other.refresh_nanos;
        self.batches += other.batches;
        self.batch_nanos += other.batch_nanos;
        self.batch_query_nanos += other.batch_query_nanos;
        self.queue_waits += other.queue_waits;
        self.queue_wait_nanos += other.queue_wait_nanos;
        self.tasks += other.tasks;
        self.connects += other.connects;
        self.connect_nanos += other.connect_nanos;
        self.messages += other.messages;
        self.makespan_nanos += other.makespan_nanos;
    }

    /// The per-layer metrics: times from `self` (the whole traced phase),
    /// counts from `counts` (the fixed-length prefix of it).
    pub fn metrics(
        &self,
        counts: &Layers,
        clock_read_ns: f64,
        overhead_ratio: f64,
    ) -> BTreeMap<&'static str, f64> {
        let c = clock_read_ns;
        // Each timed call carries about one clock read inside its interval
        // and one outside it; subtract one from each side of the split.
        let source_ns = |i: usize| self.calls.nanos[i] as f64 - self.calls.calls[i] as f64 * c;
        let source_total = (0..4).map(source_ns).sum::<f64>();
        let algorithm_self =
            self.run_nanos as f64 - source_total - 2.0 * c * self.calls.total_calls() as f64;
        let per_call = |i: usize| ratio(source_ns(i), self.calls.calls[i] as f64);
        let mean_us = |nanos: u64, n: u64| ratio(nanos as f64, n as f64) / 1e3;
        let per_1k = |a: u64, ops: u64| ratio(a as f64 * 1e3, ops as f64);
        let cache_lookups = counts.cache.hits + counts.cache.misses;

        let values = [
            ratio(algorithm_self.max(0.0), self.accesses as f64),
            ratio(counts.allocs as f64, counts.accesses as f64),
            per_call(0),
            per_call(1),
            per_call(2),
            per_call(3),
            mean_us(self.open_nanos, self.opens),
            ratio(source_total.max(0.0), self.op_nanos as f64),
            mean_us(self.plan_nanos, self.plans),
            mean_us(self.collect_nanos, self.collects),
            per_1k(counts.collects, counts.ops),
            mean_us(self.sharded_update_nanos, self.sharded_updates),
            mean_us(self.mirror_update_nanos, self.mirror_updates),
            ratio(counts.positions_moved as f64, counts.sharded_updates as f64),
            ratio(self.ingest_nanos as f64, self.ingests as f64),
            ratio(self.hit_serve_nanos as f64, self.hit_serves as f64),
            mean_us(self.refresh_nanos, self.refreshes),
            ratio(counts.absorbed as f64, counts.ingests as f64),
            per_1k(counts.refreshes, counts.ops),
            mean_us(self.storage_open_nanos, self.storage_opens),
            ratio(counts.cache.misses as f64, counts.accesses as f64),
            ratio(counts.cache.hits as f64, cache_lookups as f64),
            mean_us(self.queue_wait_nanos, self.queue_waits),
            ratio(self.batch_query_nanos as f64, self.batch_nanos as f64),
            ratio(counts.tasks as f64, counts.batches as f64),
            mean_us(self.connect_nanos, self.connects),
            ratio(counts.messages as f64, counts.connects as f64),
            mean_us(self.run_nanos, self.messages),
            mean_us(counts.makespan_nanos, counts.connects),
            clock_read_ns,
            overhead_ratio,
        ];
        PER_LAYER
            .iter()
            .map(|&(name, _)| name)
            .zip(values)
            .collect()
    }
}

/// What one benchmark process measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and ops that errored or returned a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic counts that differed between repeats of one query.
    pub drift: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median factor the host-speed reference scaled wall times by.
    pub speed_scale: f64,
}

impl Outcome {
    /// Counts one op, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints the human-readable table, then the result line (the last
    /// line of standard output).
    pub fn print(&self, workload: &str, trace: bool) {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        println!(
            "workload {workload} ({} run)",
            if trace { "traced" } else { "untraced" }
        );
        for &(name, unit) in names {
            println!("  {name:<40} {:>14.4} {unit}", self.metrics[name]);
        }
        println!(
            "  {:<40} {:>14.4} ratio ({} of {} ops)",
            "failed_ratio",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        println!(
            "  (wall times scaled by the host-speed reference; median factor {:.4})",
            self.speed_scale
        );
        for drift in &self.drift {
            println!("  DRIFT: {drift}");
        }
        let mut json = String::new();
        for &(name, unit) in names {
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.metrics[name])
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.drift.is_empty(),
            self.attempted,
            self.failed
        );
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
