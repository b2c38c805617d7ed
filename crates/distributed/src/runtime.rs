//! The message-passing runtime, the one distributed backend: one worker
//! thread per list owner, reached through request/reply channels
//! (channels first, sockets later):
//!
//! * [`ClusterRuntime::spawn`] starts one OS thread per list (`m` worker
//!   threads). Each worker owns its [`SortedList`] and serves typed
//!   [`Request`] / [`Response`] messages over an [`mpsc`](std::sync::mpsc)
//!   channel — the
//!   only way to reach a list is to message its owner, exactly like a
//!   deployment where each list lives on a different node.
//!   [`ClusterRuntime::spawn_replicated`] hosts every list on `r`
//!   replica workers instead of one, the substrate for failover.
//! * [`ClusterRuntime::connect`] opens an isolated *session*: every
//!   worker lazily keeps per-session owner state (best-position tracker,
//!   served-access count), so **any number of queries can run
//!   concurrently against one shared runtime** — each from its own
//!   thread, each with its own [`NetworkStats`] — without interfering.
//!   This is where the thread-per-owner design pays off for real (not
//!   just simulated) wall-clock: `q` concurrent sessions keep all `m`
//!   owners busy at once.
//! * [`AsyncClusterSources`] is the session's
//!   [`SourceSet`] view, so all seven
//!   `topk_core` algorithms run over the runtime **unmodified** — it
//!   speaks the wire mapping of [`crate::source`] (one trait call, one
//!   exchange), so answers and access counters are those of the
//!   in-memory backend, and message/payload/round counts match the
//!   figures of the original hand-written protocols (pinned by
//!   `tests/cross_backend.rs`).
//!
//! # Fault tolerance
//!
//! Sessions never hang on a dead owner and never execute a retried
//! request twice:
//!
//! * every request carries a per-(session, replica) **sequence number**;
//!   workers cache the last reply per session and serve a duplicate
//!   sequence from the cache instead of re-executing — so a retry after
//!   a lost reply is *at-most-once*, even for state-mutating tracked and
//!   direct accesses;
//! * every reply wait is bounded by the session's
//!   [`RetryPolicy::reply_timeout`] wall-clock guard, so a worker killed
//!   mid-query ([`ClusterRuntime::kill_owner`], or a crash injected via
//!   [`SessionOptions::faults`]) surfaces as a typed
//!   [`TopKError::Source`](topk_core::TopKError) instead of blocking
//!   forever;
//! * with replication, the session's resilient links fail over to the
//!   next replica — verifying it against the catalog and replaying the
//!   journal of state-mutating requests — and answers stay bit-identical
//!   to an unreplicated, fault-free run;
//! * for an owner whose replicas are *all* gone,
//!   [`ClusterRuntime::outage`] hands the catalog bracket to
//!   `topk_core::run_on_degraded`, which serves a certified best-effort
//!   answer over a [`ClusterRuntime::connect_surviving`] session.
//!
//! # Requests in flight
//!
//! Within one session most accesses are serial: each trait call needs its
//! reply before the algorithm can continue. Resolving an item is the
//! exception. TA, BPA and BPA2 announce its `m − 1` random accesses
//! through [`SourceSet::prefetch_random`], and the session sends all of
//! those requests at once, so the owners serve them side by side and each
//! following `random_access` waits only for its own reply. Replies are
//! still read, recorded and counted in list order, so answers, counters
//! and every [`NetworkStats`] figure, the modelled makespan included, are
//! those of a serial run. The model keeps pricing overlap from the round
//! structure, not from the host clock: [`RoundStats`](crate::RoundStats)
//! reports both the serialized sum and the overlapped makespan of every
//! round, flakiness-free.
//!
//! Sessions with a fault plan ([`SessionOptions::faults`]) stay serial.
//! The plan fires its fault at one exchange ordinal, counted as exchanges
//! are made; the fault-injecting link therefore sends nothing ahead, so
//! every exchange keeps the ordinal it has in a serial run and a plan
//! armed at ordinal `N` hits the same request as before.
//!
//! Session bring-up, reset and teardown scatter-gather over all `m`
//! worker channels at once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use topk_core::degraded::ListOutage;
use topk_lists::source::{ListSource, SourceSet};
use topk_lists::tracker::TrackerKind;
use topk_lists::{BatchingSource, Database, ItemId, Position, Score, SortedList};

use crate::cluster::{NetworkRecorder, NetworkStats};
use crate::fault::{
    FaultPlan, FaultStats, FaultTally, FaultyLink, LinkFault, ResilientLink, RetryPolicy,
};
use crate::latency::LatencyModel;
use crate::message::{Request, Response};
use crate::owner::ListOwner;
use crate::source::{ClusterSource, OwnerLink};

/// Identifies one originator session on the runtime. Sessions are cheap:
/// per session each worker keeps one best-position tracker, an access
/// counter and the last reply (for at-most-once retries).
type SessionId = u64;

/// Uncounted owner introspection returned by a state snapshot request.
#[derive(Debug, Clone, Copy)]
struct OwnerSnapshot {
    best_position: Option<Position>,
    accesses_served: u64,
}

/// Per-session worker state: the owner plus the at-most-once reply
/// cache. A retried request re-sends its sequence number; serving the
/// cached reply instead of re-executing keeps side-effecting requests
/// (tracked accesses, direct-access cursor advances) exactly-once at the
/// owner even when replies are lost.
struct SessionState {
    owner: ListOwner,
    last_seq: u64,
    last_reply: Option<Response>,
}

/// The messages a worker thread understands. `Handle` carries the wire
/// [`Request`] plus the channel to reply on; the rest is session
/// management (uncounted — it models node-local control, not the query
/// protocol).
enum WorkerMsg {
    /// Creates fresh per-session owner state.
    Open { session: SessionId },
    /// Serves one wire request for a session. `seq` is the session's
    /// per-replica sequence number; a repeat of the previous `seq`
    /// re-sends the cached reply without executing.
    Handle {
        session: SessionId,
        seq: u64,
        request: Request,
        reply: Sender<Response>,
    },
    /// Resets a session's owner state (seen positions, access count).
    ResetOwner {
        session: SessionId,
        done: Sender<()>,
    },
    /// Reports a session's best position and served-access count.
    Snapshot {
        session: SessionId,
        reply: Sender<OwnerSnapshot>,
    },
    /// Discards a session's owner state.
    Close { session: SessionId },
    /// Terminates the worker loop.
    Shutdown,
}

/// The worker body: holds one copy of the list, keeps one
/// [`SessionState`] per open session, and serves messages until shutdown.
/// Every session's owner shares the worker's list through the `Arc` and
/// adds only its own tracker and counters.
///
/// A message for an unknown session is *dropped*, not a panic: the
/// originator's reply timeout turns the silence into a typed fault. An
/// owner must survive a confused client.
fn worker_loop(list: Arc<SortedList>, tracker: TrackerKind, inbox: Receiver<WorkerMsg>) {
    let mut sessions: HashMap<SessionId, SessionState> = HashMap::new();
    while let Ok(msg) = inbox.recv() {
        match msg {
            WorkerMsg::Open { session } => {
                sessions.insert(
                    session,
                    SessionState {
                        owner: ListOwner::with_tracker(Arc::clone(&list), tracker),
                        last_seq: 0,
                        last_reply: None,
                    },
                );
            }
            WorkerMsg::Handle {
                session,
                seq,
                request,
                reply,
            } => {
                let Some(state) = sessions.get_mut(&session) else {
                    continue;
                };
                let response = match (&state.last_reply, seq == state.last_seq) {
                    // At-most-once: a duplicate sequence number means the
                    // previous reply was lost in flight — re-send it, do
                    // not execute the request a second time.
                    (Some(cached), true) => cached.clone(),
                    _ => {
                        let fresh = state.owner.handle(request);
                        state.last_seq = seq;
                        state.last_reply = Some(fresh.clone());
                        fresh
                    }
                };
                // A send error means the session hung up mid-request
                // (originator dropped); the work is simply discarded.
                let _ = reply.send(response);
            }
            WorkerMsg::ResetOwner { session, done } => {
                if let Some(state) = sessions.get_mut(&session) {
                    state.owner.reset();
                    state.last_seq = 0;
                    state.last_reply = None;
                }
                let _ = done.send(());
            }
            WorkerMsg::Snapshot { session, reply } => {
                if let Some(state) = sessions.get(&session) {
                    let _ = reply.send(OwnerSnapshot {
                        best_position: state.owner.best_position(),
                        accesses_served: state.owner.accesses_served(),
                    });
                }
            }
            WorkerMsg::Close { session } => {
                sessions.remove(&session);
            }
            WorkerMsg::Shutdown => break,
        }
    }
}

/// Catalog metadata kept originator-side per list, known at registration
/// time: reading it is free, and failover targets must agree with it.
#[derive(Debug, Clone, Copy)]
struct CatalogEntry {
    len: usize,
    top_score: Score,
    tail_score: Score,
    epoch: u64,
}

/// Per-session knobs for [`ClusterRuntime::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Coalesce sequential sorted scans into `SortedBlock` messages of
    /// this many entries (`None` = one message per access).
    pub block_len: Option<usize>,
    /// Retry/backoff/failover bounds for this session.
    pub retry: RetryPolicy,
    /// Deterministic fault schedule to inject on this session's links.
    pub faults: Option<FaultPlan>,
}

impl SessionOptions {
    /// Options with the given fault plan and everything else default.
    pub fn with_faults(faults: FaultPlan) -> Self {
        SessionOptions {
            faults: Some(faults),
            ..SessionOptions::default()
        }
    }
}

/// A cluster of list owners running on their own threads, reachable only
/// through message passing.
///
/// The runtime is [`Sync`]: share it by reference and open one session
/// ([`ClusterRuntime::connect`]) per concurrent query. Dropping the
/// runtime shuts every worker down and joins its thread.
///
/// ```
/// use topk_core::examples_paper::figure2_database;
/// use topk_core::{Bpa2, TopKAlgorithm, TopKQuery};
/// use topk_distributed::{ClusterRuntime, LatencyModel};
/// use topk_lists::TrackerKind;
///
/// let db = figure2_database();
/// let runtime = ClusterRuntime::with_latency(
///     &db,
///     TrackerKind::BitArray,
///     LatencyModel::lan(db.num_lists(), 42),
/// );
/// let mut sources = runtime.connect();
/// let result = Bpa2.run_on(&mut sources, &TopKQuery::top(3)).unwrap();
/// assert_eq!(result.len(), 3);
///
/// let network = sources.network();
/// assert_eq!(network.messages, 72); // one request + one response per access
/// // Overlapping the in-round requests beats the serialized schedule.
/// assert!(network.makespan_nanos() < network.serialized_nanos());
/// ```
#[derive(Debug)]
pub struct ClusterRuntime {
    /// `workers[list][replica]` — every replica worker hosts a clone of
    /// the list and serves the same protocol.
    workers: Vec<Vec<Sender<WorkerMsg>>>,
    threads: Vec<JoinHandle<()>>,
    catalog: Vec<CatalogEntry>,
    latency: LatencyModel,
    next_session: AtomicU64,
}

impl ClusterRuntime {
    /// Spawns one worker thread per list of the database, with the
    /// default bit-array trackers and a zero (free-network) latency
    /// model.
    pub fn spawn(database: &Database) -> Self {
        let m = database.num_lists();
        Self::with_latency(database, TrackerKind::BitArray, LatencyModel::zero(m))
    }

    /// As [`ClusterRuntime::spawn`], hosting every list on `replicas`
    /// identical workers so sessions can fail over.
    pub fn spawn_replicated(database: &Database, replicas: usize) -> Self {
        Self::with_latency_replicated(
            database,
            TrackerKind::BitArray,
            LatencyModel::zero(database.num_lists()),
            replicas,
        )
    }

    /// As [`ClusterRuntime::spawn`] with an explicit tracker strategy for
    /// the owners and an explicit latency model, so sessions report
    /// non-zero simulated timings. The kind argument stays because the
    /// benchmark harness passes it; it is resolved once per owner, by
    /// [`TrackerKind::source`].
    ///
    /// # Panics
    ///
    /// Panics if the model does not price exactly one link per list.
    pub fn with_latency(database: &Database, kind: TrackerKind, latency: LatencyModel) -> Self {
        Self::with_latency_replicated(database, kind, latency, 1)
    }

    /// The fully general constructor: tracker strategy, latency model
    /// and replication factor. It takes a [`TrackerKind`] because
    /// [`ClusterRuntime::with_latency`] forwards one.
    ///
    /// # Panics
    ///
    /// Panics if the model does not price exactly one link per list, or
    /// if `replicas` is zero.
    pub fn with_latency_replicated(
        database: &Database,
        kind: TrackerKind,
        latency: LatencyModel,
        replicas: usize,
    ) -> Self {
        assert_eq!(
            latency.num_links(),
            database.num_lists(),
            "latency model must price one link per owner"
        );
        assert!(replicas >= 1, "each list needs at least one worker");
        let mut workers = Vec::with_capacity(database.num_lists());
        let mut threads = Vec::with_capacity(database.num_lists() * replicas);
        let mut catalog = Vec::with_capacity(database.num_lists());
        for (i, list) in database.lists().enumerate() {
            let top_score = match list.entry_at(Position::FIRST) {
                Some(entry) => entry.score,
                // lint:allow(fail-stop) -- Database lists are non-empty by construction
                None => unreachable!("Database lists are non-empty"),
            };
            catalog.push(CatalogEntry {
                len: list.len(),
                top_score,
                tail_score: list.last_entry().score,
                epoch: list.epoch(),
            });
            // One copy of the list, shared by every replica's worker.
            let list = Arc::new(list.clone());
            let mut lanes = Vec::with_capacity(replicas);
            for r in 0..replicas {
                let (tx, rx) = channel();
                let list = Arc::clone(&list);
                let handle = std::thread::Builder::new()
                    .name(format!("list-owner-{i}-r{r}"))
                    .spawn(move || worker_loop(list, kind, rx))
                    // lint:allow(fail-stop) -- cannot-spawn-threads at bring-up is a config error, not a runtime fault
                    .expect("spawn list-owner worker thread");
                lanes.push(tx);
                threads.push(handle);
            }
            workers.push(lanes);
        }
        ClusterRuntime {
            workers,
            threads,
            catalog,
            latency,
            next_session: AtomicU64::new(0),
        }
    }

    /// Number of list-owner lists (`m`) — the logical owner count,
    /// independent of replication.
    pub fn num_owners(&self) -> usize {
        self.workers.len()
    }

    /// Replication factor: workers hosting each list.
    pub fn replicas(&self) -> usize {
        self.workers[0].len()
    }

    /// Number of items per list (`n`).
    pub fn num_items(&self) -> usize {
        self.catalog[0].len
    }

    /// The latency model pricing this runtime's links.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The catalog bracket for `list` when every replica of it is gone:
    /// any of its items scores within `[tail, top]`, which is exactly
    /// what `topk_core::run_on_degraded` needs to certify a best-effort
    /// answer computed over the surviving lists.
    pub fn outage(&self, list: usize) -> ListOutage {
        let entry = self.catalog[list];
        ListOutage {
            list,
            floor: entry.tail_score,
            ceiling: entry.top_score,
        }
    }

    /// Kills one replica worker: its thread exits and its channel
    /// closes, so in-flight and future requests to it surface as typed
    /// faults (failing over when the session has replicas to spare).
    /// Deterministic: the worker is fully gone when this returns.
    ///
    /// # Panics
    ///
    /// Panics if `list` or `replica` is out of range.
    pub fn kill_owner(&self, list: usize, replica: usize) {
        let worker = &self.workers[list][replica];
        let _ = worker.send(WorkerMsg::Shutdown);
        // Spin until the worker has dropped its receiver (uses a no-op
        // control message as the probe). The channel is FIFO, so the
        // first failing send proves the shutdown was processed; joining
        // the thread itself happens at runtime drop.
        while worker
            .send(WorkerMsg::Close {
                session: SessionId::MAX,
            })
            .is_ok()
        {
            std::thread::yield_now();
        }
    }

    /// Opens a fresh session: scatter-sends an open message to all
    /// workers (each creates per-session owner state) and returns the
    /// session's [`SourceSet`] view. Sessions are isolated — open one per
    /// concurrent query.
    pub fn connect(&self) -> AsyncClusterSources<'_> {
        self.connect_with(SessionOptions::default())
    }

    /// As [`ClusterRuntime::connect`] with explicit per-session options
    /// (batching, retry policy, fault injection).
    pub fn connect_with(&self, options: SessionOptions) -> AsyncClusterSources<'_> {
        AsyncClusterSources::build(self, options, &[])
    }

    /// Opens a session over the *surviving* lists only, for serving a
    /// degraded answer when the lists in `dead` are unreachable. The
    /// session's sources cover every list **not** in `dead` (in list
    /// order); pair it with [`ClusterRuntime::outage`] brackets and
    /// `topk_core::run_on_degraded`.
    pub fn connect_surviving(&self, dead: &[usize]) -> AsyncClusterSources<'_> {
        AsyncClusterSources::build(self, SessionOptions::default(), dead)
    }

    fn open_session(&self) -> SessionId {
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        for lanes in &self.workers {
            for worker in lanes {
                // A dead replica simply misses the session; reaching it
                // later surfaces as an owner-down fault, not a panic.
                let _ = worker.send(WorkerMsg::Open { session });
            }
        }
        session
    }
}

impl Drop for ClusterRuntime {
    fn drop(&mut self) {
        for lanes in &self.workers {
            for worker in lanes {
                let _ = worker.send(WorkerMsg::Shutdown);
            }
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The channel transport behind one session's view of one owner replica:
/// requests travel to the worker thread, replies come back over the
/// session's per-replica reply channel, and every *successful* exchange
/// is recorded in the session's shared [`NetworkRecorder`] under the
/// logical owner's lane — when its reply is read, so a request posted
/// ahead is recorded in the order the session collects it.
///
/// At most one request is in flight per link, so the worker's one-entry
/// reply cache still covers every retry.
#[derive(Debug)]
struct AsyncOwnerLink<'a> {
    worker: &'a Sender<WorkerMsg>,
    session: SessionId,
    owner: usize,
    catalog: CatalogEntry,
    /// Per-replica at-most-once sequence; bumped only on first attempts,
    /// so retries of the same logical request reuse it.
    seq: Cell<u64>,
    /// Reply lane, replaced wholesale after a timeout so a straggler
    /// reply can never alias the next exchange.
    reply: RefCell<(Sender<Response>, Receiver<Response>)>,
    reply_timeout: Duration,
    recorder: Rc<RefCell<NetworkRecorder>>,
    /// The request `post` sent ahead whose reply is still unread.
    posted: Cell<Option<Request>>,
}

impl AsyncOwnerLink<'_> {
    /// Sends `request` to the worker; only a first attempt takes a new
    /// sequence number, so a retry is served from the reply cache.
    fn send(&self, request: Request, attempt: u32) -> Result<(), LinkFault> {
        if attempt == 0 {
            self.seq.set(self.seq.get() + 1);
        }
        let reply_tx = self.reply.borrow().0.clone();
        self.worker
            .send(WorkerMsg::Handle {
                session: self.session,
                seq: self.seq.get(),
                request,
                reply: reply_tx,
            })
            .map_err(|_| LinkFault::OwnerDown)
    }

    /// Waits for the reply to `request` and records the exchange.
    fn receive(&self, request: Request) -> Result<Response, LinkFault> {
        let received = self.reply.borrow().1.recv_timeout(self.reply_timeout);
        let Ok(response) = received else {
            // The worker is gone or wedged. Retire the reply lane: if the
            // reply arrives after all, it must not be read as the answer
            // to a *different* future request.
            *self.reply.borrow_mut() = channel();
            return Err(LinkFault::OwnerDown);
        };
        self.recorder
            .borrow_mut()
            .record(self.owner, &request, &response);
        Ok(response)
    }

    /// Collects the reply of a posted request that no access claimed.
    /// The owner served it, so it is recorded like any exchange; it is
    /// then dropped, never read as the answer to a later request.
    fn settle(&self) {
        if let Some(unclaimed) = self.posted.take() {
            let _ = self.receive(unclaimed);
        }
    }
}

impl OwnerLink for AsyncOwnerLink<'_> {
    fn exchange(&self, request: Request, attempt: u32) -> Result<Response, LinkFault> {
        self.settle();
        self.send(request, attempt)?;
        self.receive(request)
    }

    fn post(&self, request: Request) {
        self.settle();
        // A failed send leaves nothing posted; `complete` then exchanges
        // the request and meets the dead owner itself.
        if self.send(request, 0).is_ok() {
            self.posted.set(Some(request));
        }
    }

    fn complete(&self, request: Request) -> Result<Response, LinkFault> {
        if self.posted.get() == Some(request) {
            self.posted.set(None);
            return self.receive(request);
        }
        self.exchange(request, 0)
    }

    fn owner_index(&self) -> usize {
        self.owner
    }

    fn len(&self) -> usize {
        self.catalog.len
    }

    fn tail_score(&self) -> Score {
        self.catalog.tail_score
    }

    fn epoch(&self) -> u64 {
        self.catalog.epoch
    }

    fn best_position(&self) -> Result<Option<Position>, LinkFault> {
        let (tx, rx) = channel();
        self.worker
            .send(WorkerMsg::Snapshot {
                session: self.session,
                reply: tx,
            })
            .map_err(|_| LinkFault::OwnerDown)?;
        match rx.recv_timeout(self.reply_timeout) {
            Ok(snapshot) => Ok(snapshot.best_position),
            Err(_) => Err(LinkFault::OwnerDown),
        }
    }

    fn reset_owner(&self) -> Result<(), LinkFault> {
        // A reply still owed to an unwound query belongs to no one: retire
        // the lane so the next exchange cannot read it.
        if self.posted.take().is_some() {
            *self.reply.borrow_mut() = channel();
        }
        let (tx, rx) = channel();
        self.worker
            .send(WorkerMsg::ResetOwner {
                session: self.session,
                done: tx,
            })
            .map_err(|_| LinkFault::OwnerDown)?;
        rx.recv_timeout(self.reply_timeout)
            .map_err(|_| LinkFault::OwnerDown)
    }
}

/// One session's [`SourceSet`] over a [`ClusterRuntime`].
///
/// Every trait call is one request/reply exchange with the owning worker
/// thread, through the wire mapping of [`crate::source`] — so every
/// `topk_core` algorithm runs over it unmodified, with the answers and
/// access counters of the in-memory backend. Each owner is reached
/// through a resilient link (retry, backoff, replica failover — see
/// [`crate::fault`]); fault-free the wrapper is a transparent
/// pass-through, so the pins below hold bit-for-bit.
///
/// ```
/// use topk_core::examples_paper::figure2_database;
/// use topk_core::{Bpa2, TopKAlgorithm, TopKQuery};
/// use topk_distributed::ClusterRuntime;
///
/// let db = figure2_database();
/// let query = TopKQuery::top(3);
/// let bpa2 = Bpa2;
///
/// // The same algorithm value, in memory and over the owner threads:
/// let local = bpa2.run(&db, &query).unwrap();
/// let runtime = ClusterRuntime::spawn(&db);
/// let mut session = runtime.connect();
/// let remote = bpa2.run_on(&mut session, &query).unwrap();
///
/// assert!(remote.scores_match(&local, 1e-9));
/// assert_eq!(remote.stats().accesses, local.stats().accesses);
/// // 36 accesses -> 72 messages: one request + one response each.
/// assert_eq!(session.network().messages, 72);
/// assert_eq!(session.accesses_served(), 36);
/// ```
#[derive(Debug)]
pub struct AsyncClusterSources<'a> {
    runtime: &'a ClusterRuntime,
    session: SessionId,
    recorder: Rc<RefCell<NetworkRecorder>>,
    tally: FaultTally,
    /// Each source's owner link, shared so that
    /// [`SourceSet::prefetch_random`] can post requests ahead.
    links: Vec<Rc<dyn OwnerLink + 'a>>,
    sources: Vec<Box<dyn ListSource + 'a>>,
}

impl<'a> AsyncClusterSources<'a> {
    /// As [`ClusterRuntime::connect`], with every source wrapped in a
    /// [`BatchingSource`] so sequential sorted scans travel as
    /// `SortedBlock` messages of `block_len` entries.
    pub fn batched(runtime: &'a ClusterRuntime, block_len: usize) -> Self {
        runtime.connect_with(SessionOptions {
            block_len: Some(block_len),
            ..SessionOptions::default()
        })
    }

    /// Opens a session over every list not in `dead` and records its
    /// `session_open` trace event: the one place a session starts.
    fn build(runtime: &'a ClusterRuntime, options: SessionOptions, dead: &[usize]) -> Self {
        let session = runtime.open_session();
        let recorder = Rc::new(RefCell::new(NetworkRecorder::new(
            runtime.num_owners(),
            runtime.latency.clone(),
        )));
        let tally: FaultTally = Rc::new(Cell::new(FaultStats::default()));
        let links: Vec<Rc<dyn OwnerLink + 'a>> = (0..runtime.num_owners())
            .filter(|owner| !dead.contains(owner))
            .map(|owner| {
                let replicas: Vec<Box<dyn OwnerLink + 'a>> = runtime.workers[owner]
                    .iter()
                    .enumerate()
                    .map(|(replica, worker)| {
                        let link = AsyncOwnerLink {
                            worker,
                            session,
                            owner,
                            catalog: runtime.catalog[owner],
                            seq: Cell::new(0),
                            reply: RefCell::new(channel()),
                            reply_timeout: options.retry.reply_timeout,
                            recorder: Rc::clone(&recorder),
                            posted: Cell::new(None),
                        };
                        match &options.faults {
                            Some(plan) => Box::new(FaultyLink::new(
                                Box::new(link),
                                plan.clone(),
                                owner,
                                replica,
                                Rc::clone(&tally),
                            )) as Box<dyn OwnerLink + 'a>,
                            None => Box::new(link) as Box<dyn OwnerLink + 'a>,
                        }
                    })
                    .collect();
                Rc::new(ResilientLink::new(
                    replicas,
                    owner,
                    options.retry,
                    Rc::clone(&tally),
                )) as Rc<dyn OwnerLink + 'a>
            })
            .collect();
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::SessionOpen {
                owners: links.len() as u64,
            });
        }
        let sources = links
            .iter()
            .map(|link| {
                let source = Box::new(ClusterSource::new(Rc::clone(link))) as Box<dyn ListSource>;
                match options.block_len {
                    None => source,
                    Some(len) => Box::new(BatchingSource::new(source, len)) as Box<dyn ListSource>,
                }
            })
            .collect();
        AsyncClusterSources {
            runtime,
            session,
            recorder,
            tally,
            links,
            sources,
        }
    }

    /// Network statistics accumulated by this session so far (messages,
    /// payload, per-round traffic and simulated timings).
    pub fn network(&self) -> NetworkStats {
        self.recorder.borrow().stats()
    }

    /// What this session's resilience machinery did so far (injected
    /// faults, retries, failovers, modelled backoff).
    pub fn fault_stats(&self) -> FaultStats {
        self.tally.get()
    }

    /// Total accesses served for this session, gathered by
    /// scatter-sending a snapshot request to all workers at once and
    /// collecting the replies (uncounted introspection). Dead workers
    /// simply do not answer; live replicas that never served the session
    /// report zero, so the sum is exact across failovers.
    pub fn accesses_served(&self) -> u64 {
        let (tx, rx) = channel();
        for lanes in &self.runtime.workers {
            for worker in lanes {
                let _ = worker.send(WorkerMsg::Snapshot {
                    session: self.session,
                    reply: tx.clone(),
                });
            }
        }
        drop(tx);
        rx.iter().map(|snapshot| snapshot.accesses_served).sum()
    }
}

impl SourceSet for AsyncClusterSources<'_> {
    fn num_lists(&self) -> usize {
        self.sources.len()
    }

    fn source(&mut self, i: usize) -> &mut dyn ListSource {
        self.sources[i].as_mut()
    }

    fn source_ref(&self, i: usize) -> &dyn ListSource {
        self.sources[i].as_ref()
    }

    fn begin_round(&mut self) {
        self.recorder.borrow_mut().begin_round();
        for source in &mut self.sources {
            source.begin_round();
        }
    }

    /// Sends the `m − 1` random-access requests at once, so the owners
    /// serve them side by side and each following `random_access` waits
    /// only for its own reply. Replies are still read, recorded and
    /// counted in list order, so every figure matches a serial run.
    /// Under a [`FaultPlan`] the faulty links send nothing ahead and the
    /// accesses stay serial, keeping the plan's exchange numbering.
    fn prefetch_random(&mut self, item: ItemId, skip: usize, with_position: bool, track: bool) {
        let request = Request::RandomAccess {
            item,
            with_position,
            track,
        };
        for (j, link) in self.links.iter().enumerate() {
            if j != skip {
                link.post(request);
            }
        }
    }

    fn reset(&mut self) {
        self.recorder.borrow_mut().reset();
        for source in &mut self.sources {
            source.reset();
        }
    }
}

impl Drop for AsyncClusterSources<'_> {
    fn drop(&mut self) {
        for lanes in &self.runtime.workers {
            for worker in lanes {
                // Best effort: on shutdown races the worker is already
                // gone and its sessions with it.
                let _ = worker.send(WorkerMsg::Close {
                    session: self.session,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::examples_paper::{figure1_database, figure2_database};
    use topk_core::{AlgorithmKind, Bpa2, NaiveScan, TopKAlgorithm, TopKError, TopKQuery, Tput};
    use topk_lists::SourceErrorKind;

    use crate::fault::FaultKind;

    /// A session that sends nothing ahead: it forwards every call except
    /// `prefetch_random`, so the trait's no-op default applies and each
    /// access is one exchange, made when the access is.
    struct Serial<'r>(AsyncClusterSources<'r>);

    impl SourceSet for Serial<'_> {
        fn num_lists(&self) -> usize {
            self.0.num_lists()
        }

        fn source(&mut self, i: usize) -> &mut dyn ListSource {
            self.0.source(i)
        }

        fn source_ref(&self, i: usize) -> &dyn ListSource {
            self.0.source_ref(i)
        }

        fn begin_round(&mut self) {
            self.0.begin_round();
        }

        fn reset(&mut self) {
            self.0.reset();
        }
    }

    #[test]
    fn runtime_mirrors_database_dimensions() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        assert_eq!(runtime.num_owners(), 3);
        assert_eq!(runtime.replicas(), 1);
        assert_eq!(runtime.num_items(), 12);
        assert_eq!(runtime.latency(), &LatencyModel::zero(3));
    }

    #[test]
    fn owners_can_use_any_tracker() {
        let db = figure1_database();
        for kind in TrackerKind::ALL {
            let runtime = ClusterRuntime::with_latency(&db, kind, LatencyModel::zero(3));
            let mut session = runtime.connect();
            session.source(1).direct_access_next().unwrap();
            assert_eq!(session.source_ref(1).best_position(), Position::new(1));
        }
    }

    #[test]
    fn a_session_matches_a_serial_session_exactly() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let reference = Bpa2.run(&db, &query).unwrap();

        let runtime =
            ClusterRuntime::with_latency(&db, TrackerKind::BitArray, LatencyModel::lan(3, 7));
        let mut serial = Serial(runtime.connect());
        Bpa2.run_on(&mut serial, &query).unwrap();
        let mut session = runtime.connect();
        let result = Bpa2.run_on(&mut session, &query).unwrap();

        assert!(result.scores_match(&reference, 1e-9));
        assert_eq!(result.stats().accesses, reference.stats().accesses);
        assert_eq!(
            session.network(),
            serial.0.network(),
            "messages, payload, rounds and simulated timings must be bit-identical"
        );
        assert_eq!(session.accesses_served(), serial.0.accesses_served());
        assert_eq!(session.fault_stats(), FaultStats::default());
    }

    #[test]
    fn sessions_are_isolated() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let runtime = ClusterRuntime::spawn(&db);

        // Partially exhaust a first session's trackers…
        let mut first = runtime.connect();
        for i in 0..3 {
            first.source(i).direct_access_next().unwrap();
        }

        // …a second session still sees a fresh cluster.
        let mut second = runtime.connect();
        let result = Bpa2.run_on(&mut second, &query).unwrap();
        let expected = Bpa2.run(&db, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        assert_eq!(result.stats().accesses, expected.stats().accesses);
        assert_eq!(first.network().messages, 6);
    }

    #[test]
    fn reset_restores_a_fresh_session() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut session = runtime.connect();
        let query = TopKQuery::top(3);
        let first = Bpa2.run_on(&mut session, &query).unwrap();
        session.reset();
        assert_eq!(session.network(), NetworkStats::default());
        assert_eq!(session.accesses_served(), 0);
        let second = Bpa2.run_on(&mut session, &query).unwrap();
        assert!(second.scores_match(&first, 1e-9));
        assert_eq!(second.stats().accesses, first.stats().accesses);
    }

    #[test]
    fn batched_sessions_coalesce_scans() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let query = TopKQuery::top(3);
        let mut session = AsyncClusterSources::batched(&runtime, 4);
        let result = NaiveScan.run_on(&mut session, &query).unwrap();
        let expected = NaiveScan.run(&db, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        // 12 positions per list in blocks of 4: 3 exchanges per list.
        assert_eq!(session.network().messages, 2 * 3 * 3);
    }

    #[test]
    fn every_algorithm_runs_over_the_runtime() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let query = TopKQuery::top(3);
        let expected = NaiveScan.run(&db, &query).unwrap();
        for kind in AlgorithmKind::ALL {
            let mut session = runtime.connect();
            let result = kind.create().run_on(&mut session, &query).unwrap();
            assert!(result.scores_match(&expected, 1e-9), "{kind:?}");
        }
    }

    #[test]
    fn overlapped_makespan_beats_serialized_for_round_synchronous_protocols() {
        let db = figure1_database();
        let runtime =
            ClusterRuntime::with_latency(&db, TrackerKind::BitArray, LatencyModel::lan(3, 11));
        let mut session = runtime.connect();
        Tput.run_on(&mut session, &TopKQuery::top(3)).unwrap();
        let network = session.network();
        assert!(network.makespan_nanos() > 0);
        assert!(network.makespan_nanos() < network.serialized_nanos());
        assert!(network.overlap_speedup().unwrap() > 1.0);
    }

    #[test]
    fn a_killed_owner_yields_a_typed_error_not_a_hang() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut session = runtime.connect_with(SessionOptions {
            retry: RetryPolicy {
                reply_timeout: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
            ..SessionOptions::default()
        });
        runtime.kill_owner(1, 0);
        let err = Bpa2.run_on(&mut session, &TopKQuery::top(3)).unwrap_err();
        match err {
            TopKError::Source(source) => {
                assert_eq!(source.kind, SourceErrorKind::Unreachable);
                assert_eq!(source.list, Some(1));
            }
            other => panic!("expected a typed source error, got {other:?}"),
        }
    }

    #[test]
    fn a_killed_replica_fails_over_to_an_identical_answer() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let expected = Bpa2.run(&db, &query).unwrap();

        let runtime = ClusterRuntime::spawn_replicated(&db, 2);
        assert_eq!(runtime.replicas(), 2);
        let mut session = runtime.connect();
        // Warm the session, then kill list 0's primary mid-stream.
        session.source(0).direct_access_next().unwrap();
        runtime.kill_owner(0, 0);
        session.reset();
        let result = Bpa2.run_on(&mut session, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        assert!(session.fault_stats().failovers >= 1);
    }

    #[test]
    fn injected_crash_with_a_replica_keeps_answers_bit_identical() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let expected = Bpa2.run(&db, &query).unwrap();
        let runtime = ClusterRuntime::spawn_replicated(&db, 2);
        let plan = FaultPlan::new();
        plan.arm(5, FaultKind::Crash);
        let mut session = runtime.connect_with(SessionOptions::with_faults(plan));
        let result = Bpa2.run_on(&mut session, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        let stats = session.fault_stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.failovers, 1);
    }

    #[test]
    fn a_degraded_session_serves_certified_intervals() {
        let db = figure2_database();
        let runtime = ClusterRuntime::spawn(&db);
        runtime.kill_owner(2, 0);
        let mut surviving = runtime.connect_surviving(&[2]);
        assert_eq!(surviving.num_lists(), 2);
        let outage = runtime.outage(2);
        let answer =
            topk_core::run_on_degraded(&Bpa2, &mut surviving, &TopKQuery::top(3), &[outage])
                .unwrap();
        assert_eq!(answer.items.len(), 3);
        // Every true overall score (full database) is inside its bracket.
        for (ranked, interval) in answer.items.iter().zip(&answer.intervals) {
            let truth: f64 = db
                .local_scores(ranked.item)
                .unwrap()
                .iter()
                .map(|s| s.value())
                .sum();
            assert!(interval.contains(Score::from_f64(truth)));
        }
    }

    /// m = 4 lists of 60 items with distinct scores per list, so TA, BPA
    /// and BPA2 resolve many items before they stop.
    fn four_list_database() -> Database {
        Database::from_unsorted_lists(
            (0..4u64)
                .map(|l| {
                    (1..=60u64)
                        .map(|i| (i, ((i * (17 + 6 * l)) % 61) as f64))
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    fn short_timeout() -> SessionOptions {
        SessionOptions {
            retry: RetryPolicy {
                reply_timeout: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
            ..SessionOptions::default()
        }
    }

    #[test]
    fn an_unwind_between_post_and_complete_leaves_no_stale_reply() {
        let db = figure2_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut session = runtime.connect_with(short_timeout());
        runtime.kill_owner(1, 0);
        // BPA2's first resolution posts to lists 1 and 2, then fails
        // collecting list 1's reply while list 2's is still pending.
        let err = Bpa2.run_on(&mut session, &TopKQuery::top(3)).unwrap_err();
        assert!(
            matches!(&err, TopKError::Source(source) if source.list == Some(1)),
            "{err:?}"
        );

        session.reset();
        let entry = session
            .source(2)
            .sorted_access(Position::FIRST, false)
            .unwrap();
        let top = db.list(2).unwrap().entry_at(Position::FIRST).unwrap();
        assert_eq!((entry.item, entry.score), (top.item, top.score));
        // The stale reply was neither read nor recorded after the reset.
        assert_eq!(session.network().messages, 2);
        assert_eq!(session.accesses_served(), 1);
    }

    #[test]
    fn an_unclaimed_hint_is_settled_as_the_exchange_it_was() {
        let db = figure1_database();
        let latency = LatencyModel::lan(3, 7);
        let item = db.list(0).unwrap().entry_at(Position::FIRST).unwrap().item;

        // The caller announces a resolution, then scans position 1 of
        // every list instead of making the announced random accesses.
        let runtime = ClusterRuntime::with_latency(&db, TrackerKind::BitArray, latency);
        let mut session = runtime.connect();
        session.prefetch_random(item, 0, false, false);
        for i in 0..3 {
            let entry = session
                .source(i)
                .sorted_access(Position::FIRST, false)
                .unwrap();
            let top = db.list(i).unwrap().entry_at(Position::FIRST).unwrap();
            assert_eq!(entry.item, top.item, "list {i} read its own reply");
        }

        // Each posted request was served, so the network and the owners
        // account for it where it was settled: before the next exchange
        // on its list. The originator counts only the accesses it made.
        let mut serial = Serial(runtime.connect());
        serial.source(0).sorted_access(Position::FIRST, false);
        for i in 1..3 {
            serial.source(i).random_access(item, false, false);
            serial.source(i).sorted_access(Position::FIRST, false);
        }
        assert_eq!(session.network(), serial.0.network());
        assert_eq!(session.accesses_served(), serial.0.accesses_served());
        let counted = session.total_counters();
        assert_eq!((counted.sorted, counted.random), (3, 0));
    }

    #[test]
    fn failover_from_a_killed_primary_keeps_every_protocol_bit_identical() {
        let db = four_list_database();
        let latency = LatencyModel::lan(4, 5);
        let query = TopKQuery::top(5);
        let fault_free = ClusterRuntime::with_latency(&db, TrackerKind::BitArray, latency.clone());
        for kind in [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2] {
            let reference = kind.create().run(&db, &query).unwrap();
            let mut serial = Serial(fault_free.connect());
            kind.create().run_on(&mut serial, &query).unwrap();
            for dead in 0..4 {
                let runtime = ClusterRuntime::with_latency_replicated(
                    &db,
                    TrackerKind::BitArray,
                    latency.clone(),
                    2,
                );
                runtime.kill_owner(dead, 0);
                let mut session = runtime.connect_with(short_timeout());
                let result = kind.create().run_on(&mut session, &query).unwrap();
                assert_eq!(result.item_ids(), reference.item_ids(), "{kind:?} {dead}");
                assert_eq!(result.scores(), reference.scores(), "{kind:?} {dead}");
                assert_eq!(
                    result.stats().accesses,
                    reference.stats().accesses,
                    "{kind:?} {dead}"
                );
                assert_eq!(session.network(), serial.0.network(), "{kind:?} {dead}");
                assert_eq!(session.accesses_served(), serial.0.accesses_served());
                assert_eq!(session.fault_stats().failovers, 1, "{kind:?} {dead}");
            }
        }
    }

    /// Kills one primary just before the `at`-th list access of a query,
    /// wherever that falls between posting a resolution's requests and
    /// collecting their replies.
    struct KillMidQuery<'s, 'r> {
        session: &'s mut AsyncClusterSources<'r>,
        runtime: &'r ClusterRuntime,
        victim: usize,
        at: usize,
        calls: usize,
    }

    impl SourceSet for KillMidQuery<'_, '_> {
        fn num_lists(&self) -> usize {
            self.session.num_lists()
        }

        fn source(&mut self, i: usize) -> &mut dyn ListSource {
            self.calls += 1;
            if self.calls == self.at {
                self.runtime.kill_owner(self.victim, 0);
            }
            self.session.source(i)
        }

        fn source_ref(&self, i: usize) -> &dyn ListSource {
            self.session.source_ref(i)
        }

        fn begin_round(&mut self) {
            self.session.begin_round();
        }

        fn prefetch_random(&mut self, item: ItemId, skip: usize, with_position: bool, track: bool) {
            self.session
                .prefetch_random(item, skip, with_position, track);
        }

        fn reset(&mut self) {
            self.session.reset();
        }
    }

    #[test]
    fn a_primary_killed_mid_query_fails_over_to_identical_answers() {
        let db = four_list_database();
        let query = TopKQuery::top(5);
        for kind in [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2] {
            let reference = kind.create().run(&db, &query).unwrap();
            // At accesses 2 and 7 the primary of list 2 dies with a request
            // posted to it; at access 5 the next resolution's post meets
            // the dead primary.
            for at in [2, 5, 7, 23] {
                let runtime = ClusterRuntime::spawn_replicated(&db, 2);
                let mut session = runtime.connect_with(short_timeout());
                let mut killing = KillMidQuery {
                    session: &mut session,
                    runtime: &runtime,
                    victim: 2,
                    at,
                    calls: 0,
                };
                let result = kind.create().run_on(&mut killing, &query).unwrap();
                assert_eq!(result.item_ids(), reference.item_ids(), "{kind:?} {at}");
                assert_eq!(result.scores(), reference.scores(), "{kind:?} {at}");
                assert_eq!(
                    result.stats().accesses,
                    reference.stats().accesses,
                    "{kind:?} {at}"
                );
                assert_eq!(session.fault_stats().failovers, 1, "{kind:?} {at}");
            }
        }
    }
}
