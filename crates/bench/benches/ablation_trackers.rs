//! Ablation: best-position management strategies (Section 5.2).
//!
//! Compares the bit-array (§5.2.1), B+tree (§5.2.2) and naive-set
//! strategies inside BPA2's list owners on the default uniform workload.
//! BPA is not a row here: it keeps its seen positions at the originator in
//! a fixed bit-array-style row of scores. Access counts are identical by
//! construction (the strategies only differ in how they maintain `bp`), so
//! the interesting column is response time.

use std::time::Instant;

use topk_bench::config::BENCH_SEED;
use topk_bench::BenchScale;
use topk_core::{Bpa2, TopKAlgorithm, TopKQuery};
use topk_datagen::{DatabaseKind, DatabaseSpec};
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

    for kind in TrackerKind::ALL {
        let started = Instant::now();
        let result = Bpa2::with_tracker(kind)
            .run(&database, &query)
            .expect("valid query");
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
    }
    println!();
    println!(
        "Access counts are identical across trackers; only the time to maintain the best \
         positions differs (the naive set is the quadratic strawman the paper dismisses)."
    );
}
