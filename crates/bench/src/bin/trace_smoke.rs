//! End-to-end tracing smoke check: one planner-driven query over a
//! merged paged + sharded backend, exported through every observability
//! surface.
//!
//! ```sh
//! cargo run -p topk-bench --bin trace_smoke                      # human tree + metrics
//! cargo run -p topk-bench --bin trace_smoke -- --tree            # tree only
//! cargo run -p topk-bench --bin trace_smoke -- --json            # trace + metrics JSON on stdout
//! cargo run -p topk-bench --bin trace_smoke -- --verify-json F   # verify a previous --json export
//! ```
//!
//! The query is fully deterministic (arithmetic scores, logical trace
//! clock), so `--json` is **byte-identical across runs and machines**.
//! `--verify-json FILE` re-runs the query and checks that `FILE` (a) is
//! structurally valid under the committed schema
//! (`topk_trace::verify_json`, see `crates/trace/SCHEMA.md`) and (b)
//! matches the fresh export byte for byte — CI runs the `--json` /
//! `--verify-json` pair so any schema or determinism drift fails the
//! build. Every mode also self-checks that the trace contains the span
//! kinds the stack is supposed to produce (plan, round, block access,
//! cache activity, pool jobs) and exits non-zero when one is missing.

use std::process::ExitCode;

use topk_core::planner::plan_and_run_on;
use topk_core::{DatabaseStats, Sum, TopKQuery};
use topk_lists::sharded::ShardedDatabase;
use topk_lists::source::SourceSet;
use topk_lists::{Database, Sources};
use topk_pool::ThreadPool;
use topk_storage::{CacheCapacity, PageLayout, PagedDatabase, ScratchDir};
use topk_trace::{MetricsRegistry, Trace, TraceSession};

/// Lists in the combined database; the first half is paged, the second
/// half sharded.
const NUM_LISTS: usize = 4;
/// Items per list.
const NUM_ITEMS: u64 = 512;
/// Shards per sharded list — small enough that one prefetched block
/// spans several shards, forcing a pool fan-out per block.
const SHARDS_PER_LIST: usize = 16;
/// Physical block length of the batching decorator.
const BLOCK_LEN: usize = 64;
/// Answer size.
const K: usize = 10;

/// Deterministic local score of `item` in `list` — arithmetic only, so
/// every run on every machine builds the same database.
fn score(list: usize, item: u64) -> f64 {
    ((item * 37 + list as u64 * 101 + item * item % 97) % 1000) as f64 / 1000.0
}

fn lists(range: std::ops::Range<usize>) -> Vec<Vec<(u64, f64)>> {
    range
        .map(|list| {
            (0..NUM_ITEMS)
                .map(|item| (item, score(list, item)))
                .collect()
        })
        .collect()
}

/// Runs the traced query once and returns the trace, the filled metrics
/// registry, and the answer's item ids (for the determinism report).
fn run_traced(
    pool: &ThreadPool,
    scratch: &ScratchDir,
) -> Result<(Trace, MetricsRegistry, Vec<u64>), String> {
    let paged_half = Database::from_unsorted_lists(lists(0..NUM_LISTS / 2))
        .map_err(|e| format!("database: {e}"))?;
    let sharded_half = Database::from_unsorted_lists(lists(NUM_LISTS / 2..NUM_LISTS))
        .map_err(|e| format!("database: {e}"))?;

    let paged = PagedDatabase::create(scratch.path(), &paged_half, PageLayout::with_page_size(256))
        .map_err(|e| format!("paging the database: {e}"))?;
    let sharded = ShardedDatabase::new(&sharded_half, SHARDS_PER_LIST);

    // Planner statistics come from a second source set over the same
    // backends, on its own pool so the traced pool counts the query alone.
    let stats_pool = ThreadPool::new(1);
    let mut stats_sources = paged
        .sources(CacheCapacity::Pages(4))
        .map_err(|e| format!("opening paged sources: {e}"))?
        .merge(sharded.sources(&stats_pool));
    let stats =
        DatabaseStats::collect_on(&mut stats_sources).map_err(|e| format!("statistics: {e}"))?;
    let query = TopKQuery::new(K, Sum);

    let paged_sources: Sources<'_> = paged
        .sources(CacheCapacity::Pages(4))
        .map_err(|e| format!("opening paged sources: {e}"))?;
    let mut sources = paged_sources
        .merge(sharded.sources(pool))
        .traced()
        .batched(BLOCK_LEN);

    let session = TraceSession::begin();
    let (_plan, result) =
        plan_and_run_on(&mut sources, &stats, &query).map_err(|e| format!("query: {e}"))?;
    let trace = session.finish();

    let mut registry = MetricsRegistry::new();
    registry.absorb(result.stats());
    registry.absorb(&sources.total_counters());
    registry.absorb(&sources.total_cache_counters());
    registry.absorb(pool);

    let answer = result.items().iter().map(|r| r.item.0).collect();
    Ok((trace, registry, answer))
}

/// The span kinds one planner-driven query over this stack must yield.
const REQUIRED_KINDS: &[&str] = &[
    "query_begin",
    "plan",
    "round",
    "block_access",
    "cache_miss",
    "page_read",
    "pool_dispatch",
    "pool_job_begin",
    "pool_job_end",
    "query_end",
];

fn self_check(trace: &Trace, json: &str) -> Result<(), String> {
    for kind in REQUIRED_KINDS {
        if trace.count_kind(kind) == 0 {
            return Err(format!("trace is missing required span kind {kind:?}"));
        }
    }
    topk_trace::verify_json(json).map_err(|e| format!("own export fails verification: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");

    let pool = ThreadPool::new(3);
    let scratch = ScratchDir::new("trace-smoke");
    let (trace, registry, answer) = match run_traced(&pool, &scratch) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("trace_smoke: {err}");
            return ExitCode::from(1);
        }
    };
    let json = trace.to_json_with_metrics(&registry);
    if let Err(err) = self_check(&trace, &json) {
        eprintln!("trace_smoke: {err}");
        return ExitCode::from(1);
    }

    match mode {
        "--json" => print!("{json}"),
        "--tree" => print!("{}", trace.render_tree()),
        "--verify-json" => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: trace_smoke --verify-json <file>");
                return ExitCode::from(2);
            };
            let exported = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("trace_smoke: cannot read {path}: {err}");
                    return ExitCode::from(2);
                }
            };
            if let Err(err) = topk_trace::verify_json(&exported) {
                eprintln!("trace_smoke: {path} violates the trace schema: {err}");
                return ExitCode::from(1);
            }
            if exported != json {
                eprintln!(
                    "trace_smoke: {path} differs from a fresh export — \
                     the trace is no longer byte-deterministic"
                );
                return ExitCode::from(1);
            }
            println!("{path}: schema-valid and byte-identical to a fresh run");
        }
        "" => {
            print!("{}", trace.render_tree());
            println!();
            println!("answer items: {answer:?}");
            println!("event summary: {}", trace.summarize());
            println!("counters:");
            for (name, value) in registry.counters() {
                println!("  {name} = {value}");
            }
        }
        other => {
            eprintln!("trace_smoke: unknown mode {other:?}");
            eprintln!("usage: trace_smoke [--json | --tree | --verify-json <file>]");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
