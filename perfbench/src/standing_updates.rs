//! `standing_updates`: writes beside reads, after the Section 8 monitoring
//! application. m = 8 lists of n = 20 000 items hold Zipf-skewed integer
//! counts (ties are common). Each op applies one Zipf-popular +1..5 count
//! update to the live sharded copy and to the in-memory mirror, feeds it to
//! three standing queries (k = 10, 20, 50), and serves one of them round
//! robin; statistics are re-collected only when a refresh is due.

use std::time::Instant;

use topk_core::{plan_and_run_on, DatabaseStats, Planner, StandingQuery, TopKQuery, UpdateEvent};
use topk_lists::sharded::ShardedDatabase;
use topk_lists::source::{SourceSet, Sources};
use topk_lists::{Database, ItemId};
use topk_pool::ThreadPool;

use crate::alloc::thread_allocations;
use crate::report::{answer_bits, end_to_end, tail_ops, Layers, Measured, Outcome};
use crate::timing::{clock_read_ns, nanos, timed, Samples, Speed, Timed, WorkingSet};
use crate::{setup, Args, Budget, Rng, PROBED};

const LISTS: usize = 8;
const ITEMS: usize = 20_000;
const SHARDS: usize = 4;
const KS: [usize; 3] = [10, 20, 50];
/// Counts are `⌊COUNT_SCALE / rank^COUNT_SKEW · u⌋` with `u ∈ [0.5, 1.5)`.
const COUNT_SCALE: f64 = 100_000.0;
const COUNT_SKEW: f64 = 1.0;
/// Zipf exponent of the update stream over the same popularity ranks.
const UPDATE_SKEW: f64 = 0.5;
const WARMUP_OPS: u64 = 200;
/// Fixed prefix of the measured ops that deterministic counts cover.
const PREFIX_OPS: u64 = 5_000;
/// The tail percentile: ~17 000 ops in a 20 s run would allow p99.9, but
/// that point spread 0.3 between runs (it samples a handful of refreshes);
/// the loop runs at least `tail_ops(TAIL)` ops.
const TAIL: f64 = 0.99;
/// Every `CHECK_EVERY`-th op is compared with a from-scratch planned run,
/// then its query is probed alone under each of TA, BPA and BPA2.
const CHECK_EVERY: u64 = 50;
const SETUPS: usize = 7;

/// The serving state: the live sharded lists, their mirror, the shared
/// pool, the current statistics and the standing queries.
struct State {
    counts: Vec<Vec<u64>>,
    sharded: ShardedDatabase,
    mirror: Database,
    pool: ThreadPool,
    stats: DatabaseStats,
    queries: Vec<StandingQuery>,
    stream: Stream,
}

/// The seeded update stream: Zipf-popular items, uniform lists, +1..=5.
struct Stream {
    rng: Rng,
    /// Item at each popularity rank.
    by_rank: Vec<u64>,
    /// Cumulative Zipf weights over the ranks.
    cdf: Vec<f64>,
}

impl Stream {
    fn draw(&mut self) -> (usize, u64, u64) {
        let u = self.rng.unit() * self.cdf[self.cdf.len() - 1];
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        let list = self.rng.below(LISTS);
        let delta = 1 + self.rng.below(5) as u64;
        (list, self.by_rank[rank], delta)
    }
}

fn build(seed: u64) -> State {
    let mut rng = Rng::new(seed, 3);
    let mut by_rank: Vec<u64> = (0..ITEMS as u64).collect();
    rng.shuffle(&mut by_rank);
    let mut counts = vec![vec![0u64; ITEMS]; LISTS];
    for (rank, &item) in by_rank.iter().enumerate() {
        let base = COUNT_SCALE / ((rank + 1) as f64).powf(COUNT_SKEW);
        for list in counts.iter_mut() {
            list[item as usize] = (base * (0.5 + rng.unit())) as u64;
        }
    }
    let mirror = Database::from_unsorted_lists(
        counts
            .iter()
            .map(|list| {
                (0..ITEMS as u64)
                    .map(|i| (i, list[i as usize] as f64))
                    .collect()
            })
            .collect(),
    )
    .expect("counts are finite");
    let sharded = ShardedDatabase::new(&mirror, SHARDS);
    let stats = DatabaseStats::collect(&mirror);
    let pool = ThreadPool::new(1);
    let queries = KS
        .iter()
        .map(|&k| {
            let mut query = StandingQuery::new(TopKQuery::top(k));
            query
                .refresh(&mut sharded.sources(&pool), &stats)
                .expect("initial standing run");
            query
        })
        .collect();
    let mut total = 0.0;
    let cdf = (1..=ITEMS)
        .map(|rank| {
            total += (rank as f64).powf(-UPDATE_SKEW);
            total
        })
        .collect();
    State {
        counts,
        sharded,
        mirror,
        pool,
        stats,
        queries,
        stream: Stream {
            rng: Rng::new(seed, 4),
            by_rank,
            cdf,
        },
    }
}

impl State {
    /// Draws the next update and returns (list, item, new count).
    fn next_update(&mut self) -> (usize, ItemId, f64) {
        let (list, item, delta) = self.stream.draw();
        let count = &mut self.counts[list][item as usize];
        *count += delta;
        (list, ItemId(item), *count as f64)
    }

    /// The answer of query `served` from scratch: a planned run on the
    /// mirror with fresh statistics (outside any timed region).
    fn fresh_answer(&self, served: usize) -> Option<Vec<(u64, u64)>> {
        let stats = DatabaseStats::collect(&self.mirror);
        let query = self.queries[served].query();
        plan_and_run_on(&mut Sources::in_memory(&self.mirror), &stats, query)
            .ok()
            .map(|(_, fresh)| answer_bits(&fresh))
    }

    /// Every `CHECK_EVERY`-th op: whether the served answer equals the
    /// from-scratch one, which is returned for the probes.
    fn check(&self, served: usize) -> (bool, Option<Vec<(u64, u64)>>) {
        let expected = self.fresh_answer(served);
        let served_answer = self.queries[served].answer().map(answer_bits);
        (expected.is_some() && served_answer == expected, expected)
    }
}

/// Runs query `served` alone under TA, BPA and BPA2 on the live sharded
/// lists, recording each latency at the reference speed.
fn probe(
    state: &State,
    served: usize,
    expected: &[(u64, u64)],
    speed: &mut Speed,
    out: &mut Outcome,
    samples: &mut [Samples; 3],
) {
    let query = state.queries[served].query();
    for (kind, samples) in PROBED.iter().zip(samples) {
        speed.tick();
        let algorithm = kind.create();
        let (result, took) = timed(|| {
            let tracker = algorithm.preferred_tracker();
            let mut sources = state.sharded.sources_with_tracker(&state.pool, tracker);
            algorithm.run_on(&mut sources, query)
        });
        out.op(result.is_ok_and(|r| answer_bits(&r) == expected));
        samples.push(speed.scaled(took));
    }
}

pub fn run(args: Args) -> Outcome {
    let mut speed = Speed::new(WorkingSet::FitsL2);
    let repeats = if args.trace { 1 } else { SETUPS };
    let (mut state, setup_s) = setup(repeats, &mut speed, || build(args.seed));
    let mut out = Outcome::default();
    if !args.trace {
        let min_ops = PREFIX_OPS.max(tail_ops(TAIL));
        let loop_ = untraced(&mut state, args.seconds, min_ops, &mut out, &mut speed);
        let total = loop_.latency.total_nanos();
        let [ta, bpa, bpa2] = &loop_.probes;
        out.metrics = end_to_end(Measured {
            setup_s,
            latency: &loop_.latency,
            tail: TAIL,
            busy_nanos: total,
            access_nanos: total,
            accesses: loop_.accesses,
            accesses_per_op: loop_.prefix_accesses as f64 / PREFIX_OPS as f64,
            per_algorithm: [ta, bpa, bpa2],
        });
    } else {
        let clock = clock_read_ns();
        let half = args.seconds / 2.0;
        let plain = untraced(&mut state, half, PREFIX_OPS, &mut out, &mut speed);
        drop(state);
        let mut state = build(args.seed);
        let phase = speed.readings();
        let (layers, counts) = traced(&mut state, half, &mut out, &mut speed);
        let plain_mean = plain.latency.total_nanos() as f64 / plain.latency.len() as f64;
        let traced_mean =
            layers.op_nanos as f64 / layers.ops as f64 * speed.median_scale_since(phase);
        out.metrics = layers.metrics(&counts, clock, traced_mean / plain_mean);
    }
    out.speed_scale = speed.median_scale_since(0);
    out
}

struct Untraced {
    latency: Samples,
    /// Per-algorithm probe latencies (TA, BPA, BPA2).
    probes: [Samples; 3],
    accesses: u64,
    prefix_accesses: u64,
}

fn untraced(
    state: &mut State,
    seconds: f64,
    min_ops: u64,
    out: &mut Outcome,
    speed: &mut Speed,
) -> Untraced {
    let mut loop_ = Untraced {
        latency: Samples::default(),
        probes: Default::default(),
        accesses: 0,
        prefix_accesses: 0,
    };
    let mut budget = Budget::new(WARMUP_OPS, seconds, min_ops);
    let mut op = 0;
    while budget.more(op) {
        speed.tick();
        let served = (op % KS.len() as u64) as usize;
        let (list, item, count) = state.next_update();
        let started = Instant::now();
        let update = state.sharded.update_score(list, item, count);
        let mirrored = state.mirror.update_score(list, item, count);
        let mut ok = update.is_ok() && update == mirrored;
        if let Ok(update) = update {
            let event = UpdateEvent::Score { list, update };
            for query in &mut state.queries {
                query.ingest(&event);
            }
        }
        let epochs = state.sharded.epochs();
        if state.queries[served].needs_refresh(&epochs) && state.stats.staleness(&epochs).is_some()
        {
            state.stats = DatabaseStats::collect(&state.mirror);
        }
        let mut sources = state.sharded.sources(&state.pool);
        ok &= state.queries[served]
            .serve(&mut sources, &state.stats)
            .is_ok();
        let accesses = sources.total_counters().total();
        drop(sources);
        let took = speed.scaled(started.elapsed());
        if op.is_multiple_of(CHECK_EVERY) {
            let (same, expected) = state.check(served);
            ok &= same;
            if let (Some(expected), true) = (expected, budget.measured(op)) {
                probe(state, served, &expected, speed, out, &mut loop_.probes);
            }
        }
        out.op(ok);
        if budget.measured(op) {
            if (loop_.latency.len() as u64) < PREFIX_OPS {
                loop_.prefix_accesses += accesses;
            }
            loop_.latency.push(took);
            loop_.accesses += accesses;
        }
        op += 1;
    }
    loop_
}

/// The traced loop: the same op sequence from a fresh state, with each
/// step timed and the served query's sources wrapped in the timing
/// adapter. Planning cost is measured by a side call to the planner with
/// the refresh's inputs, outside the op's time.
fn traced(
    state: &mut State,
    seconds: f64,
    out: &mut Outcome,
    speed: &mut Speed,
) -> (Layers, Layers) {
    let planner = Planner::paper_default(ITEMS);
    let mut layers = Layers::default();
    let mut counts = None;
    let mut budget = Budget::new(WARMUP_OPS, seconds, PREFIX_OPS);
    let mut op = 0;
    while budget.more(op) {
        speed.tick();
        let mut step = Layers::default();
        let served = (op % KS.len() as u64) as usize;
        let (list, item, count) = state.next_update();
        let started = Instant::now();
        let (update, took) = timed(|| state.sharded.update_score(list, item, count));
        step.sharded_updates = 1;
        step.sharded_update_nanos = nanos(took);
        let (mirrored, took) = timed(|| state.mirror.update_score(list, item, count));
        step.mirror_updates = 1;
        step.mirror_update_nanos = nanos(took);
        let mut ok = update.is_ok() && update == mirrored;
        if let Ok(update) = update {
            step.positions_moved = update
                .old_position
                .get()
                .abs_diff(update.new_position.get()) as u64;
            let event = UpdateEvent::Score { list, update };
            let ingest_started = Instant::now();
            for query in &mut state.queries {
                step.absorbed += u64::from(query.ingest(&event).is_absorbed());
            }
            step.ingests = state.queries.len() as u64;
            step.ingest_nanos = nanos(ingest_started.elapsed());
        }
        let epochs = state.sharded.epochs();
        let refresh = state.queries[served].needs_refresh(&epochs);
        if refresh && state.stats.staleness(&epochs).is_some() {
            let (stats, took) = timed(|| DatabaseStats::collect(&state.mirror));
            state.stats = stats;
            step.collects = 1;
            step.collect_nanos = nanos(took);
        }
        let (sources, open) = timed(|| state.sharded.sources(&state.pool));
        step.opens = 1;
        step.open_nanos = nanos(open);
        let mut sources = Timed::new(sources);
        let allocs = thread_allocations();
        let (served_ok, took) = timed(|| {
            state.queries[served]
                .serve(&mut sources, &state.stats)
                .is_ok()
        });
        ok &= served_ok;
        if refresh {
            step.allocs = thread_allocations() - allocs;
            step.refreshes = 1;
            step.refresh_nanos = nanos(took);
            step.run_nanos = nanos(took);
            step.calls = sources.times();
            step.accesses = sources.total_counters().total();
        } else {
            step.hit_serves = 1;
            step.hit_serve_nanos = nanos(took);
        }
        drop(sources);
        step.op_nanos = nanos(started.elapsed());
        step.ops = 1;
        if refresh {
            let (_, took) = timed(|| planner.plan(&state.stats, state.queries[served].query()));
            step.plans = 1;
            step.plan_nanos = nanos(took);
        }
        if op.is_multiple_of(CHECK_EVERY) {
            ok &= state.check(served).0;
        }
        out.op(ok);
        if budget.measured(op) {
            layers.add(&step);
            if layers.ops == PREFIX_OPS {
                counts = Some(layers.clone());
            }
        }
        op += 1;
    }
    (layers, counts.expect("the budget runs at least the prefix"))
}
