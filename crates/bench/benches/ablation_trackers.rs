//! Ablation: best-position management strategies (Section 5.2).
//!
//! Runs BPA2 on the default uniform workload over in-memory sources
//! opened with each strategy — bit array (§5.2.1), B+tree (§5.2.2) and
//! naive set — via `Sources::in_memory_with_tracker`. BPA is not a row
//! here: it keeps its seen positions at the originator in a fixed
//! bit-array-style row of scores. The strategies only differ in how they
//! maintain `bp`, so accesses, stop position and answer scores must be
//! identical, and the interesting column is response time.
//!
//! The target **exits non-zero** when any tracker's accesses, stop
//! position or answer scores differ from the bit array's.

use std::time::Instant;

use topk_bench::config::BENCH_SEED;
use topk_bench::BenchScale;
use topk_core::{Bpa2, TopKAlgorithm, TopKQuery};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_lists::source::Sources;
use topk_lists::tracker::TrackerKind;

fn main() {
    let scale = BenchScale::from_env();
    // The naive tracker recomputes the best position from scratch on every
    // access, which is quadratic in the number of seen positions; a smaller
    // n keeps this ablation fast while still separating the strategies.
    let n = scale.default_n() / 10;
    let m = scale.default_m();
    let k = scale.default_k();
    let database = DatabaseSpec::new(DatabaseKind::Uniform, m, n).generate(BENCH_SEED);
    let query = TopKQuery::top(k);

    println!();
    println!("=== Ablation: best-position tracking strategies (Section 5.2) ===");
    println!("    uniform database, n = {n}, m = {m}, k = {k}");
    println!(
        "{:>10}{:>12}{:>16}{:>18}{:>20}",
        "algorithm", "tracker", "accesses", "stop position", "response time (ms)"
    );

    let mut reference = None;
    let mut diverged = Vec::new();
    for kind in TrackerKind::ALL {
        let mut sources = Sources::in_memory_with_tracker(&database, kind);
        let started = Instant::now();
        let result = Bpa2.run_on(&mut sources, &query).expect("valid query");
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let stats = result.stats();
        println!(
            "{:>10}{:>12}{:>16}{:>18}{:>20.2}",
            "BPA2",
            format!("{kind:?}"),
            stats.total_accesses(),
            stats
                .stop_position
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_owned()),
            elapsed_ms,
        );
        let run = (stats.accesses, stats.stop_position, result.scores());
        if *reference.get_or_insert_with(|| run.clone()) != run {
            diverged.push(kind);
        }
    }
    println!();
    if !diverged.is_empty() {
        eprintln!(
            "FAILED: accesses, stop position or answer scores of {diverged:?} differ from \
             the bit array's"
        );
        std::process::exit(1);
    }
    println!(
        "Access counts, stop positions and answer scores are identical across trackers; only \
         the time to maintain the best positions differs (the naive set is the quadratic \
         strawman the paper dismisses)."
    );
}
