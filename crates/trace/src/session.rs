//! Recording machinery: the per-thread buffer, the lane model, and the
//! [`TraceSession`] that brackets one traced run.
//!
//! # Determinism despite parallelism
//!
//! A traced batch may fan its queries out onto a work-stealing pool, and
//! which worker runs which job — and in what interleaving — varies run
//! to run. Events therefore carry a `(lane, seq)` coordinate instead of
//! an arrival timestamp:
//!
//! * lane 0 is the session's originating thread (the algorithm loop);
//! * each pool *job* gets its own lane derived from `(scope, job index)`,
//!   both of which are assigned on the **dispatching** thread, where a
//!   single batch's dispatches are serialized;
//! * `seq` counts events within a lane, on the one thread that owns the
//!   lane at that moment.
//!
//! Every coordinate is thus assigned deterministically even though the
//! *central* collector receives lane buffers in scheduling order; the
//! exporter merge-sorts by `(lane, seq)` and the result is byte-identical
//! run to run. (Scopes dispatched concurrently from *sibling* pool jobs —
//! nested fan-out — may permute scope *numbering* between runs; the
//! workspace's query path dispatches scopes only from the algorithm
//! thread, and the observation-only property tests pin that down.)
//!
//! # Zero cost when disabled
//!
//! [`record`] first checks a relaxed [`AtomicBool`]; with no session
//! anywhere in the process that is the entire cost. With a session active
//! on *some* thread, other threads additionally read one thread-local
//! flag and still record nothing: tracing follows the causal chain from
//! the session owner (lane 0) through [`pool_scope`]/[`PoolScope::
//! enter_job`], so concurrent unrelated work never pollutes a trace.
//!
//! # Bounded memory
//!
//! Each lane records at most [`LANE_EVENT_CAP`] events; beyond that,
//! events are tail-dropped and *counted*, so a truncated trace says so
//! deterministically (`dropped_events` in the export).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::clock::{LogicalClock, TraceClock};
use crate::event::TraceEvent;

/// Maximum events one lane retains before tail-dropping (and counting).
pub const LANE_EVENT_CAP: usize = 1 << 16;

/// Buffered events are flushed to the central collector in batches of
/// this size, keeping the mutex out of the per-access hot path.
const FLUSH_THRESHOLD: usize = 256;

/// Job indices are packed into the low bits of a lane id; a scope may
/// dispatch at most `2^20` jobs (far beyond any batch size here).
const JOB_BITS: u32 = 20;

/// Set while a session is live anywhere in the process.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes sessions process-wide: concurrent tests queue rather than
/// interleave their events.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Central event store; lanes flush their batches here.
static COLLECTOR: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Scope ids for pool dispatches, reset to 1 at session begin.
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

/// Total tail-dropped events across all lanes of the current session.
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<LaneState> = const { RefCell::new(LaneState::new()) };
}

/// Per-thread recording state: which lane this thread currently writes,
/// the lane's sequence counter, and the batch buffer.
struct LaneState {
    active: bool,
    lane: u64,
    seq: u64,
    dropped: u64,
    buf: Vec<Record>,
}

impl LaneState {
    const fn new() -> Self {
        Self {
            active: false,
            lane: 0,
            seq: 0,
            dropped: 0,
            buf: Vec::new(),
        }
    }

    /// Moves buffered events to the collector and banks this lane's
    /// drop count; the thread's lane coordinates are untouched.
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let mut collector = COLLECTOR.lock().unwrap_or_else(|p| p.into_inner());
            collector.append(&mut self.buf);
        }
        if self.dropped > 0 {
            DROPPED.fetch_add(self.dropped, Ordering::Relaxed);
            self.dropped = 0;
        }
    }
}

/// One recorded event with its deterministic trace coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Lane id: 0 for the session's originating thread, a packed
    /// `(scope, job)` id for pool-job lanes.
    pub lane: u64,
    /// 0-based position of this event within its lane.
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// Whether the *current thread* is recording into a live session.
///
/// Instrumentation uses this to skip payload construction entirely when
/// tracing is off; the first check is one relaxed atomic load.
#[inline]
pub fn active() -> bool {
    ENABLED.load(Ordering::Relaxed) && LOCAL.with(|l| l.borrow().active)
}

/// Records one event on the current thread's lane. A no-op unless the
/// thread is [`active`].
pub fn record(event: TraceEvent) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    LOCAL.with(|cell| {
        let mut state = cell.borrow_mut();
        if !state.active {
            return;
        }
        if state.seq as usize >= LANE_EVENT_CAP {
            state.dropped += 1;
            return;
        }
        let record = Record {
            lane: state.lane,
            seq: state.seq,
            event,
        };
        state.seq += 1;
        state.buf.push(record);
        if state.buf.len() >= FLUSH_THRESHOLD {
            state.flush();
        }
    });
}

/// Opens a pool-dispatch scope of `jobs` jobs from the current thread.
///
/// Returns `None` (and records nothing) unless the dispatching thread is
/// [`active`] — which is exactly what makes lane assignment
/// deterministic: scope ids are drawn on the traced dispatch path, not
/// on the racing workers. The returned handle is `Copy`; pass it into
/// each job closure and call [`PoolScope::enter_job`] there.
pub fn pool_scope(jobs: usize) -> Option<PoolScope> {
    if !active() {
        return None;
    }
    let scope = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    record(TraceEvent::PoolDispatch {
        scope,
        jobs: jobs as u64,
    });
    Some(PoolScope { scope })
}

/// A handle to a traced pool dispatch; see [`pool_scope`].
#[derive(Debug, Clone, Copy)]
pub struct PoolScope {
    scope: u64,
}

impl PoolScope {
    /// Switches the executing thread onto the lane of job `job` for the
    /// guard's lifetime, recording the `pool_job_begin`/`pool_job_end`
    /// bracket. The previous lane state (a worker's inactivity, or the
    /// helping session thread's own lane 0) is restored on drop, after
    /// the job lane's buffer is flushed.
    pub fn enter_job(self, job: usize) -> JobLaneGuard {
        debug_assert!(
            (job as u64) < (1 << JOB_BITS),
            "job index exceeds lane packing"
        );
        let lane = (self.scope << JOB_BITS) | (job as u64 + 1);
        let prev = LOCAL.with(|cell| {
            let mut state = cell.borrow_mut();
            let prev = (state.active, state.lane, state.seq, state.dropped);
            state.active = true;
            state.lane = lane;
            state.seq = 0;
            state.dropped = 0;
            prev
        });
        record(TraceEvent::PoolJobBegin {
            scope: self.scope,
            job: job as u64,
        });
        JobLaneGuard {
            scope: self.scope,
            job: job as u64,
            prev,
        }
    }
}

/// Restores the previous lane on drop; see [`PoolScope::enter_job`].
#[derive(Debug)]
pub struct JobLaneGuard {
    scope: u64,
    job: u64,
    prev: (bool, u64, u64, u64),
}

impl Drop for JobLaneGuard {
    fn drop(&mut self) {
        record(TraceEvent::PoolJobEnd {
            scope: self.scope,
            job: self.job,
        });
        LOCAL.with(|cell| {
            let mut state = cell.borrow_mut();
            // Flush before restoring: the job's events must reach the
            // collector before scope_run's barrier releases the caller,
            // or a session could finish without them.
            state.flush();
            let (active, lane, seq, dropped) = self.prev;
            state.active = active;
            state.lane = lane;
            state.seq = seq;
            state.dropped = dropped;
        });
    }
}

/// A completed trace: the merge-sorted events plus bookkeeping.
///
/// Produced by [`TraceSession::finish`]; exported via
/// [`Trace::to_json`](crate::Trace::to_json) /
/// [`Trace::render_tree`](crate::Trace::render_tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All recorded events, sorted by `(lane, seq)`.
    pub events: Vec<Record>,
    /// Events tail-dropped because a lane hit [`LANE_EVENT_CAP`].
    pub dropped_events: u64,
    /// Clock delta between session begin and finish — logical ticks
    /// under the default [`LogicalClock`], wall nanoseconds under the
    /// bench harness's clock.
    pub clock_nanos: u64,
}

impl Trace {
    /// Number of recorded events whose kind string equals `kind`.
    pub fn count_kind(&self, kind: &str) -> u64 {
        self.events
            .iter()
            .filter(|r| r.event.kind() == kind)
            .count() as u64
    }
}

/// An exclusive tracing window: begin, run the workload, then
/// [`finish`](TraceSession::finish) to obtain the [`Trace`].
///
/// Sessions serialize process-wide (a second `begin` blocks until the
/// first session ends), the beginning thread becomes lane 0, and
/// dropping an unfinished session — including on unwind — disables
/// recording and discards its events.
pub struct TraceSession {
    start: u64,
    finished: bool,
    clock: Box<dyn TraceClock>,
    _guard: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for TraceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSession")
            .field("start", &self.start)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl TraceSession {
    /// Begins a session stamped by the deterministic [`LogicalClock`].
    pub fn begin() -> Self {
        Self::begin_with_clock(Box::new(LogicalClock::new()))
    }

    /// Begins a session stamped by `clock` — the seam through which the
    /// bench harness (and only the bench harness) attaches wall time.
    pub fn begin_with_clock(clock: Box<dyn TraceClock>) -> Self {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        COLLECTOR.lock().unwrap_or_else(|p| p.into_inner()).clear();
        DROPPED.store(0, Ordering::Relaxed);
        NEXT_SCOPE.store(1, Ordering::Relaxed);
        LOCAL.with(|cell| {
            let mut state = cell.borrow_mut();
            state.active = true;
            state.lane = 0;
            state.seq = 0;
            state.dropped = 0;
            state.buf.clear();
        });
        ENABLED.store(true, Ordering::Relaxed);
        let start = clock.now_nanos();
        Self {
            start,
            finished: false,
            clock,
            _guard: guard,
        }
    }

    /// Ends the session and returns the merge-sorted [`Trace`].
    pub fn finish(mut self) -> Trace {
        let end = self.clock.now_nanos();
        self.finished = true;
        let (events, dropped) = teardown();
        Trace {
            events,
            dropped_events: dropped,
            clock_nanos: end.saturating_sub(self.start),
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            // Unwind or early drop: stop recording and discard, so a
            // panicked test cannot leak events into the next session.
            let _ = teardown();
        }
    }
}

/// Disables recording, drains lane 0 and the collector, and returns the
/// sorted events with the session's drop count.
fn teardown() -> (Vec<Record>, u64) {
    ENABLED.store(false, Ordering::Relaxed);
    LOCAL.with(|cell| {
        let mut state = cell.borrow_mut();
        state.flush();
        state.active = false;
    });
    let mut events = {
        let mut collector = COLLECTOR.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut *collector)
    };
    events.sort_unstable_by_key(|r| (r.lane, r.seq));
    (events, DROPPED.swap(0, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_without_session_is_a_no_op() {
        record(TraceEvent::RoundBegin { round: 1 });
        let session = TraceSession::begin();
        let trace = session.finish();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped_events, 0);
    }

    #[test]
    fn lane_zero_orders_events_by_recording_order() {
        let session = TraceSession::begin();
        record(TraceEvent::RoundBegin { round: 1 });
        record(TraceEvent::SortedAccess {
            list: 0,
            position: 1,
            hit: true,
        });
        let trace = session.finish();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].lane, 0);
        assert_eq!(trace.events[0].seq, 0);
        assert_eq!(trace.events[1].seq, 1);
        assert_eq!(trace.events[0].event.kind(), "round");
        assert_eq!(
            trace.clock_nanos, 1,
            "logical clock: one tick between reads"
        );
    }

    #[test]
    fn job_lanes_sort_deterministically_regardless_of_thread_timing() {
        let session = TraceSession::begin();
        let scope = pool_scope(2).expect("dispatching thread is traced");
        let handles: Vec<_> = (0..2)
            .map(|job| {
                std::thread::spawn(move || {
                    let _lane = scope.enter_job(job);
                    record(TraceEvent::BlockAccess {
                        list: job as u64,
                        start: 1,
                        len: 4,
                        returned: 4,
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker finished");
        }
        let trace = session.finish();
        // Lane 0: the dispatch. Then each job lane: begin, payload, end.
        let kinds: Vec<&str> = trace.events.iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "pool_dispatch",
                "pool_job_begin",
                "block_access",
                "pool_job_end",
                "pool_job_begin",
                "block_access",
                "pool_job_end",
            ]
        );
        assert!(
            trace.events[1].lane < trace.events[4].lane,
            "job 0 before job 1"
        );
    }

    #[test]
    fn helping_thread_resumes_its_own_lane_after_a_job() {
        let session = TraceSession::begin();
        record(TraceEvent::RoundBegin { round: 1 });
        let scope = pool_scope(1).expect("traced");
        {
            // The session thread executes the job itself (the pool's
            // helping path); its lane-0 coordinates must survive.
            let _lane = scope.enter_job(0);
            record(TraceEvent::CacheMiss { page: 3 });
        }
        record(TraceEvent::RoundBegin { round: 2 });
        let trace = session.finish();
        let lane0: Vec<&str> = trace
            .events
            .iter()
            .filter(|r| r.lane == 0)
            .map(|r| r.event.kind())
            .collect();
        assert_eq!(lane0, ["round", "pool_dispatch", "round"]);
        assert_eq!(trace.count_kind("cache_miss"), 1);
    }

    #[test]
    fn untraced_threads_never_pollute_a_session() {
        let session = TraceSession::begin();
        std::thread::spawn(|| {
            record(TraceEvent::CacheHit { page: 9 });
        })
        .join()
        .expect("bystander finished");
        record(TraceEvent::RoundBegin { round: 1 });
        let trace = session.finish();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].event.kind(), "round");
    }

    #[test]
    fn lanes_tail_drop_beyond_the_cap_and_count_it() {
        let session = TraceSession::begin();
        for _ in 0..(LANE_EVENT_CAP + 10) {
            record(TraceEvent::CacheHit { page: 0 });
        }
        let trace = session.finish();
        assert_eq!(trace.events.len(), LANE_EVENT_CAP);
        assert_eq!(trace.dropped_events, 10);
    }

    #[test]
    fn dropping_an_unfinished_session_discards_events() {
        {
            let _session = TraceSession::begin();
            record(TraceEvent::RoundBegin { round: 1 });
        }
        let session = TraceSession::begin();
        let trace = session.finish();
        assert!(trace.events.is_empty());
    }
}
