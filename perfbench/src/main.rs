//! The repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in a fresh process: it builds the
//! workload's inputs from the seed, precomputes the expected answers,
//! warms up, then drives a closed loop of ops from one client for the
//! given number of seconds, checking every answer. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it runs the loop once
//! untraced and once through the timing adapter and reports the per-layer
//! split. The last line of standard output is the JSON result. See
//! `perfbench/README.md` for the workloads and the metric glossary.

// lint:allow-file(no-wall-clock) -- the benchmark's purpose is measuring wall time

mod alloc;
mod cluster_lan;
mod correlated_paged;
mod report;
mod standing_updates;
mod timing;
mod uniform_eval;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;
use timing::Speed;
use topk_core::AlgorithmKind;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    /// Measured duration of the op loop (split in halves when traced).
    pub seconds: f64,
    pub trace: bool,
}

fn parse() -> Result<(String, Args), String> {
    let mut flags = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let take = |name: &str| flags.get(name).cloned().ok_or(format!("missing {name}"));
    let workload = take("--workload")?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".to_string());
    }
    Ok((
        workload,
        Args {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "uniform_eval" => uniform_eval::run(args),
        "correlated_paged" => correlated_paged::run(args),
        "standing_updates" => standing_updates::run(args),
        "cluster_lan" => cluster_lan::run(args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    outcome.print(&workload, args.trace);
    ExitCode::SUCCESS
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend on
/// the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An op sequence cycling through `algorithms` in order, each algorithm
/// drawing its k values from `ks` choices in a seeded order: one block of
/// `algorithms * ks` ops holds every (algorithm, k) pair exactly once.
#[derive(Debug)]
pub struct Schedule {
    rng: Rng,
    algorithms: usize,
    ks: usize,
    pending: Vec<(usize, usize)>,
}

impl Schedule {
    pub fn new(seed: u64, algorithms: usize, ks: usize) -> Self {
        Schedule {
            rng: Rng::new(seed, 1),
            algorithms,
            ks,
            pending: Vec::new(),
        }
    }

    /// The next (algorithm index, k index).
    pub fn draw(&mut self) -> (usize, usize) {
        if self.pending.is_empty() {
            let orders: Vec<Vec<usize>> = (0..self.algorithms)
                .map(|_| {
                    let mut order: Vec<usize> = (0..self.ks).collect();
                    self.rng.shuffle(&mut order);
                    order
                })
                .collect();
            // Popped from the back, so pushed in reverse.
            for round in (0..self.ks).rev() {
                for (algorithm, order) in orders.iter().enumerate().rev() {
                    self.pending.push((algorithm, order[round]));
                }
            }
        }
        self.pending.pop().expect("refilled above")
    }
}

/// Builds the workload state `repeats` times and keeps the last, returning
/// it with the median build time in seconds, each scaled to the reference
/// speed measured just before it. Earlier builds are dropped before the
/// next starts, so peak memory holds one copy.
pub fn setup<T>(repeats: usize, speed: &mut Speed, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        speed.measure();
        let (built, took) = timing::timed(&mut build);
        times.push(speed.scaled(took).as_secs_f64());
        state = Some(built);
    }
    (state.expect("at least one setup"), timing::median(&times))
}

/// The algorithms behind the per-algorithm latency metrics.
pub const PROBED: [AlgorithmKind; 3] = [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2];

/// The closed loop's stopping rule: `warmup` unmeasured ops, then measured
/// ops until `seconds` have passed and at least `min_ops` are done (so
/// fixed-prefix counts and the tail percentile always have their samples).
#[derive(Debug)]
pub struct Budget {
    warmup: u64,
    length: Duration,
    min_ops: u64,
    started: Option<Instant>,
}

impl Budget {
    pub fn new(warmup: u64, seconds: f64, min_ops: u64) -> Self {
        Budget {
            warmup,
            length: Duration::from_secs_f64(seconds),
            min_ops,
            started: None,
        }
    }

    /// Whether op number `op` (0-based, warm-up included) should run; the
    /// clock starts at the first measured op.
    pub fn more(&mut self, op: u64) -> bool {
        if op < self.warmup {
            return true;
        }
        let started = *self.started.get_or_insert_with(Instant::now);
        op - self.warmup < self.min_ops || started.elapsed() < self.length
    }

    /// Whether op number `op` is measured (past the warm-up).
    pub fn measured(&self, op: u64) -> bool {
        op >= self.warmup
    }
}

/// Records the first count signature seen for each repeated query and
/// reports later repeats that differ.
#[derive(Debug, Default)]
pub struct DriftCheck<K: Ord> {
    seen: BTreeMap<K, Vec<u64>>,
}

impl<K: Ord + std::fmt::Debug> DriftCheck<K> {
    /// True when `signature` matches the first one recorded for `key`.
    pub fn check(&mut self, key: K, signature: Vec<u64>, outcome: &mut Outcome) -> bool {
        match self.seen.get(&key) {
            Some(first) if *first != signature => {
                if outcome.drift.len() < 8 {
                    outcome.drift.push(format!(
                        "{key:?}: counts {signature:?}, first run {first:?}"
                    ));
                }
                false
            }
            Some(_) => true,
            None => {
                self.seen.insert(key, signature);
                true
            }
        }
    }
}
