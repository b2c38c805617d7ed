//! Fault injection, retry with deterministic backoff, and replica
//! failover for the distributed backend.
//!
//! Everything in this module is deterministic: faults fire at exact
//! exchange ordinals armed through a [`FaultPlan`], backoff delays are
//! *modelled* nanoseconds derived from a seeded mixer (never slept), and
//! a failed-over replica replays the exact journal of state-mutating
//! requests — so a faulted run is as reproducible as a clean one.
//!
//! The pieces, bottom-up:
//!
//! * `LinkFault` (crate-internal) — what one owner exchange can report
//!   instead of a `Response`: the transient `ReplyLost`/`TimedOut`, the
//!   fatal `OwnerDown`, and the terminal `Unrecoverable`/`Diverged` that
//!   the fail-stop contract turns into a typed [`SourceError`].
//! * [`FaultPlan`] / [`FaultKind`] — a seedable schedule: *at global
//!   exchange `N`, inject this fault*. `FaultyLink` (crate-internal)
//!   wraps any transport and consults the plan on every exchange,
//!   mirroring the disk layer's `FlakyIo`.
//! * [`RetryPolicy`] — per-session bounds: how many retries, how much
//!   modelled time, how the backoff grows, and the (generous, wall-clock)
//!   guard timeout that keeps a dead worker from blocking a session
//!   forever.
//! * `ResilientLink` (crate-internal) — the retry/failover driver that
//!   [`AsyncClusterSources`](crate::AsyncClusterSources) installs around
//!   every owner's replica links. Retries reuse the transport's
//!   at-most-once sequence number, so an owner that *did* execute a
//!   request whose reply was lost serves the cached reply instead of
//!   executing twice. A request posted ahead is retried, failed over and
//!   journaled when its reply is collected, exactly like an exchange.
//!   `FaultyLink` posts nothing ahead, so the plan numbers exchanges in
//!   the same order with or without posting.
//! * [`FaultStats`] — the session-level tally (injected faults, retries,
//!   failovers, modelled backoff), exported as `fault.*` metrics.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use topk_lists::source::SourceError;
use topk_lists::{Position, Score};

use crate::message::{Request, Response};
use crate::source::OwnerLink;

/// Why an owner exchange produced no usable response.
///
/// The first three variants are link-level conditions the retry/failover
/// machinery consumes internally; only `Unrecoverable` and `Diverged`
/// escape to the source adapter, which raises them through the fail-stop
/// contract as typed [`SourceError`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LinkFault {
    /// The reply never arrived. The owner may or may not have executed
    /// the request — the retry path resolves the ambiguity through the
    /// transport's at-most-once sequence numbers.
    ReplyLost,
    /// The reply arrived later than the per-attempt budget; `nanos` of
    /// modelled time are charged against the session's retry deadline.
    TimedOut {
        /// Modelled lateness, in simulated nanoseconds.
        nanos: u64,
    },
    /// The owner is gone: its channel is closed or its crash fault has
    /// latched. Retrying the same replica is pointless.
    OwnerDown,
    /// Every replica was exhausted without obtaining a response.
    Unrecoverable {
        /// Human-readable failure summary for the raised `SourceError`.
        detail: String,
    },
    /// A failover target disagreed with the catalog the session was
    /// opened against (length, tail score or epoch mismatch). Serving
    /// from it could silently change answers, so the query refuses.
    Diverged {
        /// Human-readable mismatch summary for the raised `SourceError`.
        detail: String,
    },
}

impl LinkFault {
    /// Raises the fault through the fail-stop contract as a typed
    /// [`SourceError`] carrying the owner index and operation name.
    pub(crate) fn raise(self, owner: usize, op: &str) -> ! {
        match self {
            LinkFault::Diverged { detail } => SourceError::diverged(owner, op, detail).raise(),
            LinkFault::Unrecoverable { detail } => {
                SourceError::unreachable(owner, op, detail).raise()
            }
            // Transient faults only reach the adapter when no resilient
            // wrapper is installed; surface them as unreachability.
            LinkFault::ReplyLost => {
                SourceError::unreachable(owner, op, "reply lost".to_string()).raise()
            }
            LinkFault::TimedOut { nanos } => {
                SourceError::unreachable(owner, op, format!("timed out after {nanos} ns")).raise()
            }
            LinkFault::OwnerDown => {
                SourceError::unreachable(owner, op, "owner down".to_string()).raise()
            }
        }
    }
}

/// The kind of fault a [`FaultPlan`] injects at its armed exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The serving replica dies permanently: the triggering exchange and
    /// every later exchange with that replica report `OwnerDown`.
    Crash,
    /// The owner executes the request but the reply is lost once. The
    /// retry resolves via the at-most-once cache — the owner must not
    /// execute the request a second time.
    DropReply,
    /// The owner executes the request but the reply arrives late by the
    /// given modelled nanoseconds, once; the lateness is charged against
    /// the session's retry deadline.
    Delay(u64),
    /// The link flakes for the given number of consecutive exchanges:
    /// requests are lost before reaching the owner (no side effects).
    Flake(u32),
}

impl FaultKind {
    fn code(self) -> u64 {
        match self {
            FaultKind::Crash => 1,
            FaultKind::DropReply => 2,
            FaultKind::Delay(_) => 3,
            FaultKind::Flake(_) => 4,
        }
    }

    /// The stable name recorded in `fault_injected` trace events.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::DropReply => "drop_reply",
            FaultKind::Delay(_) => "delay",
            FaultKind::Flake(_) => "flake",
        }
    }
}

/// A deterministic fault schedule, shared by every faulty link of a
/// session: *when the session's global exchange counter reaches `op`,
/// inject the armed [`FaultKind`] on the replica serving that exchange.*
///
/// The plan is cheap to clone (shared state) and thread-safe, so a test
/// can hold one handle while the session drives exchanges through
/// another. Re-arming an exhausted plan is allowed — chaos sweeps arm
/// the same plan at successive ordinals.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<PlanState>,
}

#[derive(Debug, Default)]
struct PlanState {
    /// Physical exchanges observed (including retries), 1-based.
    ops: AtomicU64,
    /// Exchange ordinal to fire at; `0` = disarmed.
    fail_at: AtomicU64,
    /// Encoded [`FaultKind`]; `0` = none.
    kind: AtomicU64,
    /// Kind parameter (delay nanos).
    param: AtomicU64,
    /// Injections left (`DropReply`/`Delay` arm 1, `Flake(c)` arms `c`).
    remaining: AtomicU64,
    /// `(owner << 16 | replica) + 1` of the crashed replica; `0` = none.
    crashed: AtomicU64,
}

impl FaultPlan {
    /// A disarmed plan: links consult it but nothing ever fires.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the plan: at global exchange `op` (1-based), inject `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is zero — exchange ordinals are 1-based.
    pub fn arm(&self, op: u64, kind: FaultKind) {
        assert!(op > 0, "exchange ordinals are 1-based");
        let state = &self.inner;
        state.fail_at.store(op, Ordering::Relaxed);
        state.kind.store(kind.code(), Ordering::Relaxed);
        let (param, remaining) = match kind {
            FaultKind::Crash => (0, 1),
            FaultKind::DropReply => (0, 1),
            FaultKind::Delay(nanos) => (nanos, 1),
            FaultKind::Flake(count) => (0, u64::from(count)),
        };
        state.param.store(param, Ordering::Relaxed);
        state.remaining.store(remaining, Ordering::Relaxed);
    }

    /// Disarms the plan without clearing the exchange counter or a
    /// latched crash.
    pub fn disarm(&self) {
        self.inner.fail_at.store(0, Ordering::Relaxed);
        self.inner.kind.store(0, Ordering::Relaxed);
        self.inner.remaining.store(0, Ordering::Relaxed);
    }

    /// Physical exchanges observed so far (a clean run's total tells a
    /// chaos sweep how many ordinals to inject at).
    pub fn ops(&self) -> u64 {
        self.inner.ops.load(Ordering::Relaxed)
    }

    fn next_op(&self) -> u64 {
        self.inner.ops.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn armed_kind(&self, op: u64) -> Option<FaultKind> {
        let fail_at = self.inner.fail_at.load(Ordering::Relaxed);
        if fail_at == 0 || op < fail_at {
            return None;
        }
        match self.inner.kind.load(Ordering::Relaxed) {
            1 => Some(FaultKind::Crash),
            2 => Some(FaultKind::DropReply),
            3 => Some(FaultKind::Delay(self.inner.param.load(Ordering::Relaxed))),
            4 => Some(FaultKind::Flake(0)), // count lives in `remaining`
            _ => None,
        }
    }

    /// Consumes one pending injection; `false` when none are left.
    fn consume(&self) -> bool {
        self.inner
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(1)
            })
            .is_ok()
    }

    fn latch_crash(&self, owner: usize, replica: usize) {
        self.inner
            .crashed
            .store(encode_replica(owner, replica), Ordering::Relaxed);
    }

    fn is_crashed(&self, owner: usize, replica: usize) -> bool {
        self.inner.crashed.load(Ordering::Relaxed) == encode_replica(owner, replica)
    }
}

fn encode_replica(owner: usize, replica: usize) -> u64 {
    ((owner as u64) << 16 | replica as u64) + 1
}

/// Per-session resilience bounds. All quantities except `reply_timeout`
/// are *modelled*: backoff and delay charge simulated nanoseconds
/// against `deadline_nanos`, nothing ever sleeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per request on one replica before failing over (the first
    /// attempt is not a retry).
    pub max_retries: u32,
    /// Modelled time budget per owner: once retries have charged this
    /// many simulated nanoseconds, the session fails over rather than
    /// retrying further.
    pub deadline_nanos: u64,
    /// First backoff; attempt `a` backs off `base << (a - 1)` plus a
    /// seeded jitter below `base`.
    pub base_backoff_nanos: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Wall-clock guard on every reply wait: a worker that does not
    /// reply within this window is treated as down. This is a liveness
    /// backstop for genuinely dead threads, not a modelled quantity —
    /// it should stay far above any real scheduling delay.
    pub reply_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            deadline_nanos: 5_000_000,
            base_backoff_nanos: 1_000,
            seed: 0x5eed,
            reply_timeout: Duration::from_secs(5),
        }
    }
}

/// What a session's resilience machinery did, summed over all owners.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected by the session's [`FaultPlan`].
    pub injected: u64,
    /// Retry attempts (beyond first attempts) across all owners.
    pub retries: u64,
    /// Successful replica failovers.
    pub failovers: u64,
    /// Modelled nanoseconds spent backing off between retries.
    pub backoff_nanos: u64,
}

impl topk_trace::MetricSource for FaultStats {
    fn record_metrics(&self, registry: &mut topk_trace::MetricsRegistry) {
        registry.counter_add("fault.injected", self.injected);
        registry.counter_add("fault.retries", self.retries);
        registry.counter_add("fault.failovers", self.failovers);
        registry.counter_add("fault.backoff_nanos", self.backoff_nanos);
    }
}

/// Shared, single-threaded tally cell (`FaultStats` is `Copy`).
pub(crate) type FaultTally = Rc<Cell<FaultStats>>;

fn tally_update(tally: &FaultTally, update: impl FnOnce(&mut FaultStats)) {
    let mut stats = tally.get();
    update(&mut stats);
    tally.set(stats);
}

/// SplitMix64: the same tiny mixer the workspace's seeded generators
/// build on — one multiply-xor-shift pipeline, full 64-bit avalanche.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A transport decorator that injects the [`FaultPlan`]'s scheduled
/// faults. Sits *above* the real transport, so `DropReply`/`Delay`
/// genuinely execute the request at the owner before discarding or
/// delaying its reply — exactly the ambiguity retries must handle.
#[derive(Debug)]
pub(crate) struct FaultyLink<'a> {
    inner: Box<dyn OwnerLink + 'a>,
    plan: FaultPlan,
    owner: usize,
    replica: usize,
    tally: FaultTally,
    /// Whether any attempt of the current logical request reached the
    /// inner transport. A retry of a request that was swallowed before
    /// the transport (a flake) must be presented to the transport as a
    /// *first* transmission, or at-most-once sequencing would dedup it
    /// against the previous request.
    forwarded: Cell<bool>,
}

impl<'a> FaultyLink<'a> {
    pub(crate) fn new(
        inner: Box<dyn OwnerLink + 'a>,
        plan: FaultPlan,
        owner: usize,
        replica: usize,
        tally: FaultTally,
    ) -> Self {
        FaultyLink {
            inner,
            plan,
            owner,
            replica,
            tally,
            forwarded: Cell::new(false),
        }
    }

    /// Passes an attempt through to the transport, downgrading it to a
    /// first transmission when no earlier attempt of this logical
    /// request got through.
    fn forward(&self, request: Request, attempt: u32) -> Result<Response, LinkFault> {
        let attempt = if self.forwarded.get() { attempt } else { 0 };
        self.forwarded.set(true);
        self.inner.exchange(request, attempt)
    }

    fn inject(&self, op: u64, kind: FaultKind) {
        tally_update(&self.tally, |stats| stats.injected += 1);
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::FaultInjected {
                owner: self.owner as u64,
                op,
                kind: kind.name(),
            });
        }
    }
}

impl OwnerLink for FaultyLink<'_> {
    fn exchange(&self, request: Request, attempt: u32) -> Result<Response, LinkFault> {
        if attempt == 0 {
            self.forwarded.set(false);
        }
        if self.plan.is_crashed(self.owner, self.replica) {
            return Err(LinkFault::OwnerDown);
        }
        let op = self.plan.next_op();
        match self.plan.armed_kind(op) {
            Some(FaultKind::Crash) if self.plan.consume() => {
                self.plan.latch_crash(self.owner, self.replica);
                self.inject(op, FaultKind::Crash);
                Err(LinkFault::OwnerDown)
            }
            Some(FaultKind::DropReply) if self.plan.consume() => {
                // The owner executes; only the reply is lost.
                let _ = self.forward(request, attempt)?;
                self.inject(op, FaultKind::DropReply);
                Err(LinkFault::ReplyLost)
            }
            Some(FaultKind::Delay(nanos)) if self.plan.consume() => {
                let _ = self.forward(request, attempt)?;
                self.inject(op, FaultKind::Delay(nanos));
                Err(LinkFault::TimedOut { nanos })
            }
            Some(FaultKind::Flake(_)) if self.plan.consume() => {
                // Lost before reaching the owner: no side effects.
                self.inject(op, FaultKind::Flake(0));
                Err(LinkFault::ReplyLost)
            }
            _ => self.forward(request, attempt),
        }
    }

    fn owner_index(&self) -> usize {
        self.inner.owner_index()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn tail_score(&self) -> Score {
        self.inner.tail_score()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn best_position(&self) -> Result<Option<Position>, LinkFault> {
        if self.plan.is_crashed(self.owner, self.replica) {
            return Err(LinkFault::OwnerDown);
        }
        self.inner.best_position()
    }

    fn reset_owner(&self) -> Result<(), LinkFault> {
        if self.plan.is_crashed(self.owner, self.replica) {
            return Err(LinkFault::OwnerDown);
        }
        self.inner.reset_owner()
    }
}

/// Whether a successful request changed owner-side session state that a
/// failover target must reconstruct: tracked accesses move the best
/// position, direct accesses additionally advance the unseen cursor.
fn mutates_owner_state(request: &Request) -> bool {
    match request {
        Request::SortedAccess { track, .. }
        | Request::RandomAccess { track, .. }
        | Request::SortedBlock { track, .. } => *track,
        Request::DirectAccessNext => true,
    }
}

/// The retry/failover driver around one owner's replica links.
///
/// Fault-free it is a transparent pass-through to replica 0 (plus an
/// originator-side journal append for state-mutating requests), so a
/// clean session's wire behaviour is bit-identical with or without it.
/// On a transient fault it retries the *same* request with the same
/// at-most-once sequence number under deterministic exponential backoff;
/// on a dead replica (or exhausted retries/deadline) it fails over:
/// verifies the next replica against the catalog, replays the journal to
/// rebuild owner-side session state, and re-issues the request. A
/// request posted ahead goes to the active replica, and all of this
/// happens when its reply is collected.
#[derive(Debug)]
pub(crate) struct ResilientLink<'a> {
    replicas: Vec<Box<dyn OwnerLink + 'a>>,
    owner: usize,
    policy: RetryPolicy,
    active: Cell<usize>,
    /// Logical requests issued (jitter diversity across a session).
    op: Cell<u64>,
    /// Modelled nanoseconds charged against `policy.deadline_nanos`.
    spent_nanos: Cell<u64>,
    /// Successful state-mutating requests, in order, for replay.
    journal: RefCell<Vec<Request>>,
    tally: FaultTally,
}

impl<'a> ResilientLink<'a> {
    /// # Panics
    ///
    /// Panics if `replicas` is empty — every owner needs at least one.
    pub(crate) fn new(
        replicas: Vec<Box<dyn OwnerLink + 'a>>,
        owner: usize,
        policy: RetryPolicy,
        tally: FaultTally,
    ) -> Self {
        assert!(!replicas.is_empty(), "an owner needs at least one replica");
        ResilientLink {
            replicas,
            owner,
            policy,
            active: Cell::new(0),
            op: Cell::new(0),
            spent_nanos: Cell::new(0),
            journal: RefCell::new(Vec::new()),
            tally,
        }
    }

    fn backoff_nanos(&self, attempt: u32) -> u64 {
        let base = self.policy.base_backoff_nanos.max(1);
        let exponential = base.saturating_shl(attempt.saturating_sub(1).min(63));
        let jitter = splitmix64(
            self.policy
                .seed
                .wrapping_add(self.op.get().wrapping_mul(0x9E37_79B9))
                .wrapping_add(u64::from(attempt).wrapping_mul(0x85EB_CA6B)),
        ) % base;
        exponential.saturating_add(jitter)
    }

    fn charge(&self, nanos: u64) {
        self.spent_nanos
            .set(self.spent_nanos.get().saturating_add(nanos));
    }

    /// Advances `active` to the next replica that matches the catalog and
    /// accepts a journal replay, then runs `and_then` against it.
    /// Consumes replicas until one works or none are left.
    fn fail_over_with<T>(
        &self,
        op_name: &str,
        and_then: impl Fn(&dyn OwnerLink) -> Result<T, LinkFault>,
    ) -> Result<T, LinkFault> {
        let expected = (
            self.replicas[0].len(),
            self.replicas[0].tail_score(),
            self.replicas[0].epoch(),
        );
        let mut candidate = self.active.get() + 1;
        while candidate < self.replicas.len() {
            let link = self.replicas[candidate].as_ref();
            let found = (link.len(), link.tail_score(), link.epoch());
            if found != expected {
                return Err(LinkFault::Diverged {
                    detail: format!(
                        "replica {candidate} of owner {} disagrees with the catalog: \
                         (len, tail, epoch) = {found:?}, expected {expected:?}",
                        self.owner
                    ),
                });
            }
            let journal = self.journal.borrow();
            let replayed = journal.len() as u64;
            let replay_ok = journal.iter().all(|req| link.exchange(*req, 0).is_ok());
            drop(journal);
            if !replay_ok {
                candidate += 1;
                continue;
            }
            match and_then(link) {
                Ok(value) => {
                    self.active.set(candidate);
                    self.spent_nanos.set(0);
                    tally_update(&self.tally, |stats| stats.failovers += 1);
                    if topk_trace::active() {
                        topk_trace::record(topk_trace::TraceEvent::Failover {
                            owner: self.owner as u64,
                            replica: candidate as u64,
                            replayed,
                        });
                    }
                    return Ok(value);
                }
                Err(_) => candidate += 1,
            }
        }
        Err(LinkFault::Unrecoverable {
            detail: format!(
                "{op_name}: all {} replica(s) of owner {} exhausted",
                self.replicas.len(),
                self.owner
            ),
        })
    }
}

impl OwnerLink for ResilientLink<'_> {
    /// The same as [`complete`](OwnerLink::complete): a request posted
    /// ahead is collected, any other is exchanged.
    fn exchange(&self, request: Request, _attempt: u32) -> Result<Response, LinkFault> {
        self.complete(request)
    }

    /// Posts to the active replica; a failover, if one is needed, happens
    /// when the reply is collected.
    fn post(&self, request: Request) {
        self.replicas[self.active.get()].post(request);
    }

    /// The first attempt collects the reply (of a request posted ahead,
    /// or exchanged now), every retry retransmits the request under the
    /// same sequence number, and a dead replica or exhausted budget fails
    /// over. A successful state-mutating request is journaled once,
    /// however many attempts it took.
    fn complete(&self, request: Request) -> Result<Response, LinkFault> {
        self.op.set(self.op.get() + 1);
        let mut attempt: u32 = 0;
        let served = loop {
            let replica = &self.replicas[self.active.get()];
            let outcome = if attempt == 0 {
                replica.complete(request)
            } else {
                replica.exchange(request, attempt)
            };
            match outcome {
                Ok(response) => break Ok(response),
                Err(LinkFault::OwnerDown) => {
                    break self.fail_over_with("exchange", |link| link.exchange(request, 0))
                }
                Err(LinkFault::ReplyLost) => {}
                Err(LinkFault::TimedOut { nanos }) => self.charge(nanos),
                Err(terminal) => break Err(terminal),
            }
            attempt += 1;
            if attempt > self.policy.max_retries
                || self.spent_nanos.get() >= self.policy.deadline_nanos
            {
                break self.fail_over_with("exchange", |link| link.exchange(request, 0));
            }
            let backoff = self.backoff_nanos(attempt);
            self.charge(backoff);
            tally_update(&self.tally, |stats| {
                stats.retries += 1;
                stats.backoff_nanos += backoff;
            });
            if topk_trace::active() {
                topk_trace::record(topk_trace::TraceEvent::RetryAttempt {
                    owner: self.owner as u64,
                    attempt: u64::from(attempt),
                    backoff_nanos: backoff,
                });
            }
        };
        if served.is_ok() && mutates_owner_state(&request) {
            self.journal.borrow_mut().push(request);
        }
        served
    }

    fn owner_index(&self) -> usize {
        self.owner
    }

    fn len(&self) -> usize {
        self.replicas[0].len()
    }

    fn tail_score(&self) -> Score {
        self.replicas[0].tail_score()
    }

    fn epoch(&self) -> u64 {
        self.replicas[0].epoch()
    }

    fn best_position(&self) -> Result<Option<Position>, LinkFault> {
        match self.replicas[self.active.get()].best_position() {
            Ok(position) => Ok(position),
            Err(LinkFault::Diverged { detail }) => Err(LinkFault::Diverged { detail }),
            Err(_) => self.fail_over_with("best position", |link| link.best_position()),
        }
    }

    fn reset_owner(&self) -> Result<(), LinkFault> {
        self.journal.borrow_mut().clear();
        self.spent_nanos.set(0);
        match self.replicas[self.active.get()].reset_owner() {
            Ok(()) => Ok(()),
            Err(LinkFault::Diverged { detail }) => Err(LinkFault::Diverged { detail }),
            Err(_) => self.fail_over_with("reset", |link| link.reset_owner()),
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= 64 || self > (u64::MAX >> shift) {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_lists::ItemId;

    /// Shared exchange log: (replica tag, request, inner attempt).
    type ExchangeLog = Rc<RefCell<Vec<(usize, Request, u32)>>>;

    /// A scripted in-memory link for driving the retry machinery without
    /// a runtime: every transmission succeeds with `Exhausted` and is
    /// logged. Like the runtime's transport, it splits an exchange into
    /// `post` and `complete` and numbers first transmissions.
    #[derive(Debug)]
    struct ScriptedLink {
        owner: usize,
        len: usize,
        tail: Score,
        epoch: u64,
        log: ExchangeLog,
        dead: Rc<Cell<bool>>,
        /// Sequence number of the latest first transmission.
        seq: Rc<Cell<u64>>,
        /// Sequence numbers the owner executed; a retransmission of an
        /// executed one is served from its reply cache instead.
        executed: Rc<RefCell<Vec<u64>>>,
        /// Whether the next `complete` loses its reply.
        lose_reply: Cell<bool>,
    }

    impl ScriptedLink {
        fn boxed(
            _owner: usize,
            replica_tag: usize,
            log: &ExchangeLog,
        ) -> Box<dyn OwnerLink + 'static> {
            Box::new(ScriptedLink {
                owner: replica_tag,
                len: 4,
                tail: Score::from_f64(1.0),
                epoch: 7,
                log: Rc::clone(log),
                dead: Rc::new(Cell::new(false)),
                seq: Rc::default(),
                executed: Rc::default(),
                lose_reply: Cell::new(false),
            }) as Box<dyn OwnerLink>
            // `owner` doubles as the replica tag in the log; the real
            // owner index is irrelevant to these tests.
        }
    }

    impl ScriptedLink {
        fn transmit(&self, request: Request, attempt: u32) {
            if attempt == 0 {
                self.seq.set(self.seq.get() + 1);
            }
            let seq = self.seq.get();
            if !self.executed.borrow().contains(&seq) {
                self.executed.borrow_mut().push(seq);
            }
            self.log.borrow_mut().push((self.owner, request, attempt));
        }
    }

    impl OwnerLink for ScriptedLink {
        fn exchange(&self, request: Request, attempt: u32) -> Result<Response, LinkFault> {
            if self.dead.get() {
                return Err(LinkFault::OwnerDown);
            }
            self.transmit(request, attempt);
            Ok(Response::Exhausted)
        }

        fn post(&self, request: Request) {
            if !self.dead.get() {
                self.transmit(request, 0);
            }
        }

        fn complete(&self, _request: Request) -> Result<Response, LinkFault> {
            if self.dead.get() {
                return Err(LinkFault::OwnerDown);
            }
            if self.lose_reply.replace(false) {
                return Err(LinkFault::ReplyLost);
            }
            Ok(Response::Exhausted)
        }

        fn owner_index(&self) -> usize {
            self.owner
        }

        fn len(&self) -> usize {
            self.len
        }

        fn tail_score(&self) -> Score {
            self.tail
        }

        fn epoch(&self) -> u64 {
            self.epoch
        }

        fn best_position(&self) -> Result<Option<Position>, LinkFault> {
            if self.dead.get() {
                return Err(LinkFault::OwnerDown);
            }
            Ok(None)
        }

        fn reset_owner(&self) -> Result<(), LinkFault> {
            if self.dead.get() {
                return Err(LinkFault::OwnerDown);
            }
            Ok(())
        }
    }

    fn tally() -> FaultTally {
        Rc::new(Cell::new(FaultStats::default()))
    }

    #[test]
    fn a_flake_storm_retries_with_the_same_attempt_chain() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let plan = FaultPlan::new();
        plan.arm(1, FaultKind::Flake(2));
        let t = tally();
        let inner = FaultyLink::new(ScriptedLink::boxed(0, 0, &log), plan, 0, 0, Rc::clone(&t));
        let link = ResilientLink::new(
            vec![Box::new(inner)],
            0,
            RetryPolicy::default(),
            Rc::clone(&t),
        );
        let response = link.exchange(Request::DirectAccessNext, 0).unwrap();
        assert_eq!(response, Response::Exhausted);
        // Two flaked attempts never reached the transport, so the third
        // arrives as a *first* transmission — anything else would make
        // at-most-once sequencing dedup it against the previous request.
        assert_eq!(
            log.borrow().as_slice(),
            &[(0, Request::DirectAccessNext, 0)]
        );
        let stats = t.get();
        assert_eq!(stats.injected, 2);
        assert_eq!(stats.retries, 2);
        assert!(stats.backoff_nanos > 0);
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let t = tally();
        let link = ResilientLink::new(
            vec![ScriptedLink::boxed(
                0,
                0,
                &Rc::new(RefCell::new(Vec::new())),
            )],
            0,
            RetryPolicy::default(),
            t,
        );
        link.op.set(3);
        let a1 = link.backoff_nanos(1);
        let a2 = link.backoff_nanos(2);
        let a3 = link.backoff_nanos(3);
        assert_eq!(a1, link.backoff_nanos(1), "same inputs, same backoff");
        assert!(a2 > a1 / 2 && a3 > a2 / 2, "exponential envelope");
        assert!(a3 >= 4_000, "attempt 3 shifts the base twice");
        link.op.set(4);
        assert_ne!(link.backoff_nanos(1), a1, "jitter varies per op");
    }

    #[test]
    fn exhausted_retries_without_a_spare_replica_are_unrecoverable() {
        let plan = FaultPlan::new();
        plan.arm(1, FaultKind::Flake(u32::MAX));
        let t = tally();
        let inner = FaultyLink::new(
            ScriptedLink::boxed(0, 0, &Rc::new(RefCell::new(Vec::new()))),
            plan,
            0,
            0,
            Rc::clone(&t),
        );
        let link = ResilientLink::new(
            vec![Box::new(inner)],
            0,
            RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            t,
        );
        let err = link.exchange(Request::DirectAccessNext, 0).unwrap_err();
        assert!(matches!(err, LinkFault::Unrecoverable { .. }), "{err:?}");
    }

    #[test]
    fn failover_replays_the_journal_onto_the_next_replica() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let primary = ScriptedLink {
            owner: 0,
            len: 4,
            tail: Score::from_f64(1.0),
            epoch: 7,
            log: Rc::clone(&log),
            dead: Rc::new(Cell::new(false)),
            seq: Rc::default(),
            executed: Rc::default(),
            lose_reply: Cell::new(false),
        };
        let kill = Rc::clone(&primary.dead);
        let t = tally();
        let link = ResilientLink::new(
            vec![Box::new(primary), ScriptedLink::boxed(0, 1, &log)],
            0,
            RetryPolicy::default(),
            Rc::clone(&t),
        );
        let tracked = Request::SortedAccess {
            position: Position::FIRST,
            track: true,
        };
        let untracked = Request::SortedAccess {
            position: Position::FIRST,
            track: false,
        };
        link.exchange(tracked, 0).unwrap();
        link.exchange(untracked, 0).unwrap();
        link.exchange(Request::DirectAccessNext, 0).unwrap();
        kill.set(true);
        log.borrow_mut().clear();
        link.exchange(untracked, 0).unwrap();
        // Replica 1 replayed the two state-mutating requests (not the
        // untracked probe), then served the failed request.
        assert_eq!(
            log.borrow().as_slice(),
            &[
                (1, tracked, 0),
                (1, Request::DirectAccessNext, 0),
                (1, untracked, 0)
            ]
        );
        assert_eq!(t.get().failovers, 1);
        assert_eq!(link.active.get(), 1);
    }

    #[test]
    fn a_diverged_replica_is_refused() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let primary = ScriptedLink {
            owner: 0,
            len: 4,
            tail: Score::from_f64(1.0),
            epoch: 7,
            log: Rc::clone(&log),
            dead: Rc::new(Cell::new(true)),
            seq: Rc::default(),
            executed: Rc::default(),
            lose_reply: Cell::new(false),
        };
        let stale = ScriptedLink {
            owner: 1,
            len: 4,
            tail: Score::from_f64(1.0),
            epoch: 8, // one update ahead of the catalog
            log: Rc::clone(&log),
            dead: Rc::new(Cell::new(false)),
            seq: Rc::default(),
            executed: Rc::default(),
            lose_reply: Cell::new(false),
        };
        let link = ResilientLink::new(
            vec![Box::new(primary), Box::new(stale)],
            0,
            RetryPolicy::default(),
            tally(),
        );
        let err = link.exchange(Request::DirectAccessNext, 0).unwrap_err();
        assert!(matches!(err, LinkFault::Diverged { .. }), "{err:?}");
    }

    #[test]
    fn a_crash_latches_for_the_serving_replica_only() {
        let plan = FaultPlan::new();
        plan.arm(2, FaultKind::Crash);
        let log = Rc::new(RefCell::new(Vec::new()));
        let t = tally();
        let faulty = FaultyLink::new(ScriptedLink::boxed(0, 0, &log), plan.clone(), 0, 0, t);
        let ra = Request::RandomAccess {
            item: ItemId(1),
            with_position: false,
            track: false,
        };
        assert!(faulty.exchange(ra, 0).is_ok(), "op 1 is clean");
        assert!(matches!(faulty.exchange(ra, 0), Err(LinkFault::OwnerDown)));
        assert!(
            matches!(faulty.exchange(ra, 0), Err(LinkFault::OwnerDown)),
            "crash is permanent"
        );
        assert!(
            !plan.is_crashed(0, 1),
            "replica 1 of the same owner is unaffected"
        );
    }

    #[test]
    fn delay_faults_charge_the_modelled_deadline() {
        let plan = FaultPlan::new();
        plan.arm(1, FaultKind::Delay(10_000_000)); // 10 ms >> 5 ms deadline
        let t = tally();
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = FaultyLink::new(ScriptedLink::boxed(0, 0, &log), plan, 0, 0, Rc::clone(&t));
        let spare = ScriptedLink::boxed(0, 1, &log);
        let link = ResilientLink::new(
            vec![Box::new(inner), spare],
            0,
            RetryPolicy::default(),
            Rc::clone(&t),
        );
        let response = link.exchange(Request::DirectAccessNext, 0).unwrap();
        assert_eq!(response, Response::Exhausted);
        // The blown deadline forced a failover instead of a retry chain.
        assert_eq!(t.get().failovers, 1);
        assert_eq!(t.get().retries, 0);
    }

    #[test]
    fn a_lost_completion_retries_under_its_sequence_number_and_journals_once() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let scripted = ScriptedLink {
            owner: 0,
            len: 4,
            tail: Score::from_f64(1.0),
            epoch: 7,
            log: Rc::clone(&log),
            dead: Rc::new(Cell::new(false)),
            seq: Rc::default(),
            executed: Rc::default(),
            lose_reply: Cell::new(true),
        };
        let seq = Rc::clone(&scripted.seq);
        let executed = Rc::clone(&scripted.executed);
        let t = tally();
        let link = ResilientLink::new(
            vec![Box::new(scripted)],
            0,
            RetryPolicy::default(),
            Rc::clone(&t),
        );
        let tracked = Request::RandomAccess {
            item: ItemId(3),
            with_position: false,
            track: true,
        };
        link.post(tracked);
        assert_eq!(link.complete(tracked).unwrap(), Response::Exhausted);
        // The post went out as a first transmission; the retry after the
        // lost reply is a retransmission under the same sequence number,
        // so the owner executed the request once.
        assert_eq!(log.borrow().as_slice(), &[(0, tracked, 0), (0, tracked, 1)]);
        assert_eq!(seq.get(), 1);
        assert_eq!(executed.borrow().as_slice(), &[1]);
        assert_eq!(link.journal.borrow().as_slice(), &[tracked]);
        assert_eq!(t.get().retries, 1);
        assert_eq!(t.get().failovers, 0);
    }
}
