//! `uniform_eval`: Figure 5 in wall time. In-memory sources over uniform
//! data (m = 6, n = 20 000); ops cycle TA, BPA and BPA2 with k drawn from
//! {10, 20, 50}. Per-access bookkeeping in the list sources and the
//! algorithms does nearly all the work.

use std::time::Instant;

use topk_core::{AlgorithmKind, NaiveScan, TopKAlgorithm, TopKQuery, TopKResult};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_lists::source::Sources;
use topk_lists::Database;

use crate::alloc::thread_allocations;
use crate::report::{answer_bits, end_to_end, tail_ops, Layers, Measured, Outcome};
use crate::timing::{clock_read_ns, nanos, timed, Samples, Speed, Timed, WorkingSet};
use crate::{setup, Args, Budget, DriftCheck, Schedule};

const LISTS: usize = 6;
const ITEMS: usize = 20_000;
const KS: [usize; 3] = [10, 20, 50];
const ALGORITHMS: [AlgorithmKind; 3] = [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2];
/// One schedule block holds every (algorithm, k) pair once.
const BLOCK: u64 = 9;
/// Fixed prefix of the measured ops that deterministic counts cover.
const PREFIX_OPS: u64 = 5 * BLOCK;
/// The tail percentile: about the highest with ten samples beyond it in a
/// 20 s run (~1 000 ops); the loop runs at least `tail_ops(TAIL)` ops.
const TAIL: f64 = 0.98;
const SETUPS: usize = 9;

struct Fixture {
    db: Database,
    expected: Vec<Vec<(u64, u64)>>,
    queries: Vec<TopKQuery>,
}

/// Checks one result against the oracle and the first run of the same
/// (algorithm, k); returns the accesses it counted.
fn check(
    fixture: &Fixture,
    key: (usize, usize),
    result: Result<TopKResult, topk_core::TopKError>,
    drift: &mut DriftCheck<(usize, usize)>,
    out: &mut Outcome,
) -> u64 {
    let Ok(result) = result else {
        out.op(false);
        return 0;
    };
    let accesses = result.stats().accesses;
    let same = answer_bits(&result) == fixture.expected[key.1];
    let steady = drift.check(
        key,
        vec![accesses.sorted, accesses.random, accesses.direct],
        out,
    );
    out.op(same && steady);
    accesses.total()
}

pub fn run(args: Args) -> Outcome {
    let mut speed = Speed::new(WorkingSet::Mixed);
    let (db, setup_s) = setup(if args.trace { 1 } else { SETUPS }, &mut speed, || {
        DatabaseSpec::new(DatabaseKind::Uniform, LISTS, ITEMS).generate(args.seed)
    });
    let queries: Vec<TopKQuery> = KS.iter().map(|&k| TopKQuery::top(k)).collect();
    let expected = queries
        .iter()
        .map(|q| answer_bits(&NaiveScan.run(&db, q).expect("oracle scan")))
        .collect();
    let fixture = Fixture {
        db,
        expected,
        queries,
    };
    let mut out = Outcome::default();
    let mut drift = DriftCheck::default();

    if !args.trace {
        let min_ops = PREFIX_OPS.max(tail_ops(TAIL));
        let loop_ = untraced(&fixture, args, min_ops, &mut drift, &mut out, &mut speed);
        let total = loop_.all.total_nanos();
        let [ta, bpa, bpa2] = &loop_.per_algorithm;
        out.metrics = end_to_end(Measured {
            setup_s,
            latency: &loop_.all,
            tail: TAIL,
            busy_nanos: total,
            access_nanos: total,
            accesses: loop_.accesses,
            accesses_per_op: loop_.prefix_accesses as f64 / PREFIX_OPS as f64,
            per_algorithm: [ta, bpa, bpa2],
        });
    } else {
        let clock = clock_read_ns();
        let half = Args {
            seconds: args.seconds / 2.0,
            ..args
        };
        let plain = untraced(&fixture, half, PREFIX_OPS, &mut drift, &mut out, &mut speed);
        let phase = speed.readings();
        let (layers, counts) = traced(&fixture, half, &mut drift, &mut out, &mut speed);
        let plain_mean = plain.all.total_nanos() as f64 / plain.all.len() as f64;
        let traced_mean =
            layers.op_nanos as f64 / layers.ops as f64 * speed.median_scale_since(phase);
        out.metrics = layers.metrics(&counts, clock, traced_mean / plain_mean);
    }
    out.speed_scale = speed.median_scale_since(0);
    out
}

struct Untraced {
    all: Samples,
    per_algorithm: [Samples; 3],
    accesses: u64,
    prefix_accesses: u64,
}

fn untraced(
    fixture: &Fixture,
    args: Args,
    min_ops: u64,
    drift: &mut DriftCheck<(usize, usize)>,
    out: &mut Outcome,
    speed: &mut Speed,
) -> Untraced {
    let mut schedule = Schedule::new(args.seed, ALGORITHMS.len(), KS.len());
    let mut loop_ = Untraced {
        all: Samples::default(),
        per_algorithm: Default::default(),
        accesses: 0,
        prefix_accesses: 0,
    };
    let mut budget = Budget::new(BLOCK, args.seconds, min_ops);
    let mut op = 0;
    while budget.more(op) {
        speed.tick();
        let (a, k) = schedule.draw();
        let algorithm = ALGORITHMS[a].create();
        let (result, took) = timed(|| algorithm.run(&fixture.db, &fixture.queries[k]));
        let took = speed.scaled(took);
        let accesses = check(fixture, (a, k), result, drift, out);
        if budget.measured(op) {
            if (loop_.all.len() as u64) < PREFIX_OPS {
                loop_.prefix_accesses += accesses;
            }
            loop_.all.push(took);
            loop_.per_algorithm[a].push(took);
            loop_.accesses += accesses;
        }
        op += 1;
    }
    loop_
}

/// The traced loop: the same op sequence, with the source set opened
/// separately and wrapped in the timing adapter. Returns the phase tally
/// and its snapshot after [`PREFIX_OPS`] ops.
fn traced(
    fixture: &Fixture,
    args: Args,
    drift: &mut DriftCheck<(usize, usize)>,
    out: &mut Outcome,
    speed: &mut Speed,
) -> (Layers, Layers) {
    let mut schedule = Schedule::new(args.seed, ALGORITHMS.len(), KS.len());
    let mut layers = Layers::default();
    let mut counts = None;
    let mut budget = Budget::new(BLOCK, args.seconds, PREFIX_OPS);
    let mut op = 0;
    while budget.more(op) {
        speed.tick();
        let (a, k) = schedule.draw();
        let algorithm = ALGORITHMS[a].create();
        let started = Instant::now();
        let (sources, open) =
            timed(|| Sources::in_memory_with_tracker(&fixture.db, algorithm.preferred_tracker()));
        let mut sources = Timed::new(sources);
        let allocs = thread_allocations();
        let (result, run) = timed(|| algorithm.run_on(&mut sources, &fixture.queries[k]));
        let allocs = thread_allocations() - allocs;
        let calls = sources.times();
        drop(sources);
        let took = started.elapsed();
        let accesses = check(fixture, (a, k), result, drift, out);
        if budget.measured(op) {
            layers.add(&Layers {
                ops: 1,
                op_nanos: nanos(took),
                run_nanos: nanos(run),
                calls,
                accesses,
                allocs,
                opens: 1,
                open_nanos: nanos(open),
                ..Layers::default()
            });
            if layers.ops == PREFIX_OPS {
                counts = Some(layers.clone());
            }
        }
        op += 1;
    }
    (layers, counts.expect("the budget runs at least the prefix"))
}
