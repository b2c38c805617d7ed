//! Hot-path gate: wall time and heap allocations per list access of TA,
//! BPA and BPA2 over in-memory uniform data, on both instantiations of
//! each algorithm body.
//!
//! ```sh
//! cargo bench --bench hot_path                        # paper scale
//! TOPK_BENCH_SCALE=smoke cargo bench --bench hot_path # CI smoke
//! ```
//!
//! * **typed** — `TopKAlgorithm::run(&db, q)`: the body over the typed
//!   in-memory set, every access statically dispatched.
//! * **dyn** — `run_on(&mut Sources::in_memory(&db), q)`: the body over
//!   `dyn SourceSet`, the path paged, cluster and standing queries take.
//!
//! Every query opens its sources and runs to completion on the calling
//! thread, so a thread-local counter in this binary's global allocator
//! sees every allocation a query makes: opening the sources, the
//! algorithm's bookkeeping and its result. Item maps use a fixed hasher,
//! so that count repeats exactly from run to run.
//!
//! The target **exits non-zero** when
//!
//! * an algorithm makes more than [`MAX_ALLOCS_PER_ACCESS`] heap
//!   allocations per access (the per-access loops must not allocate;
//!   what remains is per-query setup and per-chunk growth), or
//! * the allocation or access count of a query changes between repeats,
//!   or an answer differs from the naive scan's,
//!
//! on either path. `BENCH_hot_path.json` gates the deterministic counts
//! (the dyn path's under `<algo>_dyn_*` keys); nanoseconds per access
//! (quartiles over the repeats) go to the ungated `TREND_hot_path.json`.

// lint:allow-file(confined-unsafe) -- a #[global_allocator] must implement the unsafe GlobalAlloc trait; every call forwards to System

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use topk_bench::config::BENCH_SEED;
use topk_bench::{print_header, BenchReport, BenchScale, TrendReport};
use topk_core::{AlgorithmKind, NaiveScan, TopKAlgorithm, TopKError, TopKQuery, TopKResult};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_lists::{Database, Sources};

/// Number of lists (`m`), as in the end-to-end `uniform_eval` workload.
const NUM_LISTS: usize = 6;

/// The gated algorithms.
const ALGORITHMS: [AlgorithmKind; 3] = [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2];

/// Timed repeats of each query (after one warm-up run).
const REPEATS: usize = 15;

/// The gate: heap allocations per list access, per algorithm.
const MAX_ALLOCS_PER_ACCESS: f64 = 0.01;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation on the calling thread.
struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// neither allocates (the thread-local is const-initialised) nor touches
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations (including reallocations) made by the calling thread so far.
fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// The two entry points an algorithm body is instantiated for.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `run`: the typed in-memory set.
    Typed,
    /// `run_on` over `Sources::in_memory`: `dyn SourceSet`.
    Dyn,
}

impl Path {
    const ALL: [Path; 2] = [Path::Typed, Path::Dyn];

    fn label(self) -> &'static str {
        match self {
            Path::Typed => "typed",
            Path::Dyn => "dyn",
        }
    }

    /// The report key of `metric` for algorithm `name` on this path.
    fn key(self, name: &str, metric: &str) -> String {
        match self {
            Path::Typed => format!("{name}_{metric}"),
            Path::Dyn => format!("{name}_dyn_{metric}"),
        }
    }

    fn run(
        self,
        algorithm: &dyn TopKAlgorithm,
        db: &Database,
        query: &TopKQuery,
    ) -> Result<TopKResult, TopKError> {
        match self {
            Path::Typed => algorithm.run(db, query),
            Path::Dyn => algorithm.run_on(&mut Sources::in_memory(db), query),
        }
    }
}

/// The `q`-quantile of sorted samples (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

fn main() {
    let scale = BenchScale::from_env();
    let n = scale.default_n();
    let k = scale.default_k();
    print_header(
        "Hot path",
        "ns and heap allocations per access, in-memory TA/BPA/BPA2",
        scale.label(),
    );
    let db = DatabaseSpec::new(DatabaseKind::Uniform, NUM_LISTS, n).generate(BENCH_SEED);
    let query = TopKQuery::top(k);
    let expected = NaiveScan.run(&db, &query).expect("naive reference run");
    println!("uniform database: m = {NUM_LISTS}, n = {n}, k = {k}; {REPEATS} timed runs each");
    println!();
    println!(
        "{:<8} {:<6} {:>10} {:>12} {:>14} {:>10} {:>10} {:>10}",
        "algo",
        "path",
        "accesses",
        "allocs/query",
        "allocs/access",
        "ns/acc p25",
        "ns/acc p50",
        "ns/acc p75"
    );

    let mut failed = false;
    let mut summary = BenchReport::new("hot_path", scale.label());
    let mut trend = TrendReport::new("hot_path", scale.label());
    for kind in ALGORITHMS {
        let algorithm = kind.create();
        let name = algorithm.name();
        for path in Path::ALL {
            let label = path.label();
            path.run(algorithm.as_ref(), &db, &query)
                .expect("warm-up run");

            let mut counts = Vec::with_capacity(REPEATS);
            let mut ns_per_access = Vec::with_capacity(REPEATS);
            for _ in 0..REPEATS {
                let allocs = thread_allocations();
                let started = Instant::now();
                let result = path
                    .run(algorithm.as_ref(), &db, &query)
                    .expect("in-memory run");
                let elapsed = started.elapsed();
                let allocs = thread_allocations() - allocs;
                let accesses = result.stats().total_accesses();
                if result.scores() != expected.scores() {
                    eprintln!("FAILED: {name} ({label}) answered differently from the naive scan");
                    failed = true;
                }
                counts.push((accesses, allocs));
                ns_per_access.push(elapsed.as_nanos() as f64 / accesses as f64);
            }
            if counts.windows(2).any(|pair| pair[0] != pair[1]) {
                eprintln!(
                    "FAILED: {name} ({label}) access or allocation counts vary between runs: \
                     {counts:?}"
                );
                failed = true;
            }
            let (accesses, allocs) = counts[0];
            let per_access = allocs as f64 / accesses as f64;
            if per_access > MAX_ALLOCS_PER_ACCESS {
                eprintln!(
                    "FAILED: {name} ({label}) makes {per_access:.4} allocations per access \
                     (gate: {MAX_ALLOCS_PER_ACCESS})"
                );
                failed = true;
            }
            ns_per_access.sort_by(f64::total_cmp);
            let [p25, p50, p75] = [0.25, 0.5, 0.75].map(|q| quantile(&ns_per_access, q));
            println!(
                "{name:<8} {label:<6} {accesses:>10} {allocs:>12} {per_access:>14.5} \
                 {p25:>10.1} {p50:>10.1} {p75:>10.1}"
            );

            summary.push(&path.key(name, "accesses_per_query"), accesses as f64);
            summary.push(&path.key(name, "allocs_per_query"), allocs as f64);
            summary.push(&path.key(name, "allocs_per_access"), per_access);
            for (quartile, value) in [("p25", p25), ("p50", p50), ("p75", p75)] {
                trend.push(
                    &path.key(name, &format!("ns_per_access_{quartile}")),
                    value.round() as u64,
                );
            }
        }
    }

    println!();
    println!(
        "allocs count every heap allocation of a whole query (opening the sources included) \
         on the calling thread; ns/acc is wall time per access, quartiles over the runs; \
         typed = run(&db), dyn = run_on(Sources::in_memory)."
    );
    summary.emit().expect("writing the bench JSON report");
    trend.emit().expect("writing the trend JSON report");

    if failed {
        eprintln!("hot path FAILED the acceptance bar");
        std::process::exit(1);
    }
    println!("hot path passed");
}
