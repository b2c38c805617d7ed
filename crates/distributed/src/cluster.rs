//! The simulated cluster: list owners plus network accounting.

use std::cell::{Ref, RefCell};

use topk_lists::tracker::TrackerKind;
use topk_lists::{Database, Score};

use crate::latency::LatencyModel;
use crate::message::{Request, Response};
use crate::owner::ListOwner;

/// Messages, payload and simulated time exchanged during one originator
/// round (between two [`Cluster::begin_round`] calls). A protocol's
/// wall-clock lower bound is its number of *rounds*, not its number of
/// messages, once requests within a round overlap — the two time fields
/// quantify exactly that gap under a [`LatencyModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Messages exchanged during the round (requests + responses).
    pub messages: u64,
    /// Payload shipped during the round, in scalar units.
    pub payload_units: u64,
    /// Simulated time of the round with every exchange serialized (the
    /// blocking originator): the sum of all exchange costs, in
    /// nanoseconds.
    pub serialized_nanos: u64,
    /// Simulated makespan of the round with in-round requests overlapped:
    /// requests to different owners run concurrently, requests to the
    /// same owner queue, so this is the maximum over owners of the
    /// per-owner summed exchange costs, in nanoseconds. Achievable for
    /// round-synchronous protocols; an optimistic lower bound where a
    /// round's requests depend on same-round replies (see
    /// [`crate::latency`]).
    pub makespan_nanos: u64,
}

/// Aggregate network statistics for one distributed query execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total number of messages exchanged (requests + responses).
    pub messages: u64,
    /// Number of request messages sent by the originator.
    pub requests: u64,
    /// Number of response messages returned by list owners.
    pub responses: u64,
    /// Total payload shipped, in scalar units (see
    /// [`crate::message::Request::payload_units`]).
    pub payload_units: u64,
    /// Per-round breakdown of traffic and simulated time, one entry per
    /// originator round. Traffic before the first
    /// [`Cluster::begin_round`] lands in an implicit first round.
    pub per_round: Vec<RoundStats>,
}

impl NetworkStats {
    /// Number of originator rounds that exchanged at least the round
    /// marker (i.e. `per_round.len()`).
    pub fn rounds(&self) -> usize {
        self.per_round.len()
    }

    /// The heaviest round, by message count.
    pub fn peak_round(&self) -> Option<RoundStats> {
        self.per_round.iter().copied().max_by_key(|r| r.messages)
    }

    /// Total simulated time with every exchange serialized (the blocking
    /// originator), in nanoseconds.
    pub fn serialized_nanos(&self) -> u64 {
        self.per_round.iter().map(|r| r.serialized_nanos).sum()
    }

    /// Total simulated makespan with in-round requests overlapped, in
    /// nanoseconds. Rounds are barriers (round `r + 1` needs round `r`'s
    /// replies), so the query makespan is the sum of per-round makespans.
    pub fn makespan_nanos(&self) -> u64 {
        self.per_round.iter().map(|r| r.makespan_nanos).sum()
    }

    /// How much faster the overlapped schedule is than the serialized one
    /// (`serialized / makespan`); `None` under a zero latency model.
    pub fn overlap_speedup(&self) -> Option<f64> {
        let makespan = self.makespan_nanos();
        (makespan > 0).then(|| self.serialized_nanos() as f64 / makespan as f64)
    }
}

impl topk_trace::MetricSource for NetworkStats {
    fn record_metrics(&self, registry: &mut topk_trace::MetricsRegistry) {
        registry.counter_add("net.messages", self.messages);
        registry.counter_add("net.requests", self.requests);
        registry.counter_add("net.responses", self.responses);
        registry.counter_add("net.payload_units", self.payload_units);
        registry.counter_add("net.serialized_nanos", self.serialized_nanos());
        registry.counter_add("net.makespan_nanos", self.makespan_nanos());
        for round in &self.per_round {
            registry.histogram_record(
                "net.round_messages",
                topk_trace::MESSAGE_BUCKETS,
                round.messages,
            );
        }
    }
}

/// The shared accounting engine behind [`Cluster`] and the asynchronous
/// [`ClusterRuntime`](crate::ClusterRuntime) sessions: every exchanged
/// request/response pair flows through [`NetworkRecorder::record`], which
/// tallies messages, payload, and the two simulated schedules (serialized
/// and overlapped) under one [`LatencyModel`]. Because both backends use
/// this same recorder, their [`NetworkStats`] are bit-identical for the
/// same algorithm run.
#[derive(Debug)]
pub(crate) struct NetworkRecorder {
    stats: NetworkStats,
    latency: LatencyModel,
    /// Simulated busy time of each owner within the current round — the
    /// per-owner "lanes" whose maximum is the round's overlapped makespan.
    lanes: Vec<u64>,
}

impl NetworkRecorder {
    pub(crate) fn new(num_owners: usize, latency: LatencyModel) -> Self {
        assert_eq!(
            latency.num_links(),
            num_owners,
            "latency model must price one link per owner"
        );
        NetworkRecorder {
            stats: NetworkStats::default(),
            latency,
            lanes: vec![0; num_owners],
        }
    }

    pub(crate) fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    pub(crate) fn record(&mut self, owner: usize, request: &Request, response: &Response) {
        let payload = request.payload_units() + response.payload_units();
        let cost = self.latency.exchange_nanos(owner, request, response);
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::OwnerExchange {
                owner: owner as u64,
                payload_units: payload,
                nanos: cost,
            });
        }
        self.stats.requests += 1;
        self.stats.responses += 1;
        self.stats.messages += 2;
        self.stats.payload_units += payload;
        if self.stats.per_round.is_empty() {
            self.stats.per_round.push(RoundStats::default());
        }
        let round = self.stats.per_round.last_mut().expect("non-empty");
        round.messages += 2;
        round.payload_units += payload;
        round.serialized_nanos += cost;
        self.lanes[owner] += cost;
        round.makespan_nanos = round.makespan_nanos.max(self.lanes[owner]);
    }

    pub(crate) fn begin_round(&mut self) {
        self.stats.per_round.push(RoundStats::default());
        self.lanes.fill(0);
    }

    pub(crate) fn stats(&self) -> NetworkStats {
        self.stats.clone()
    }

    pub(crate) fn reset(&mut self) {
        self.stats = NetworkStats::default();
        self.lanes.fill(0);
    }
}

/// A set of [`ListOwner`] nodes (one per list of a database) reachable only
/// through [`Cluster::send`], which tallies every exchanged message.
///
/// The cluster hands out shared references to itself (interior
/// mutability), so the `m` per-list [`ClusterSource`] handles of a
/// [`ClusterSources`] set can coexist while routing through one tally.
///
/// This is the *synchronous* backend: every [`Cluster::send`] handles the
/// request in the caller's thread. The simulated timings it reports are
/// computed under the same [`LatencyModel`] and overlap schedule as the
/// thread-per-owner [`ClusterRuntime`](crate::ClusterRuntime), so the two
/// backends agree number for number.
///
/// [`ClusterSource`]: crate::source::ClusterSource
/// [`ClusterSources`]: crate::source::ClusterSources
#[derive(Debug)]
pub struct Cluster {
    owners: Vec<RefCell<ListOwner>>,
    recorder: RefCell<NetworkRecorder>,
}

impl Cluster {
    /// Builds one owner per list of the database, each with the default
    /// bit-array best-position tracker and a zero (free-network) latency
    /// model.
    pub fn new(database: &Database) -> Self {
        let m = database.num_lists();
        Self::with_latency(database, TrackerKind::BitArray, LatencyModel::zero(m))
    }

    /// As [`Cluster::new`] with an explicit tracker strategy for the owners
    /// and an explicit latency model, so the per-round [`RoundStats`]
    /// carry non-zero simulated timings. It takes a [`TrackerKind`] to stay
    /// parallel to [`ClusterRuntime::with_latency`], whose kind argument
    /// the benchmark harness passes.
    ///
    /// [`ClusterRuntime::with_latency`]: crate::ClusterRuntime::with_latency
    ///
    /// # Panics
    ///
    /// Panics if the model does not price exactly one link per list.
    pub fn with_latency(database: &Database, kind: TrackerKind, latency: LatencyModel) -> Self {
        Cluster {
            owners: database
                .lists()
                .map(|list| RefCell::new(ListOwner::with_tracker(list.clone(), kind)))
                .collect(),
            recorder: RefCell::new(NetworkRecorder::new(database.num_lists(), latency)),
        }
    }

    /// Number of list-owner nodes (`m`).
    pub fn num_owners(&self) -> usize {
        self.owners.len()
    }

    /// Number of items per list (`n`).
    pub fn num_items(&self) -> usize {
        self.owners[0].borrow().len()
    }

    /// The latency model pricing this cluster's links.
    pub fn latency(&self) -> LatencyModel {
        self.recorder.borrow().latency().clone()
    }

    /// Sends a request to owner `i` and returns its response, counting both
    /// messages.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid owner index; protocols only address
    /// owners `0..m`.
    pub fn send(&self, owner: usize, request: Request) -> Response {
        let response = self.owners[owner].borrow_mut().handle(request);
        self.recorder
            .borrow_mut()
            .record(owner, &request, &response);
        response
    }

    /// Marks the start of a new originator round in the per-round network
    /// accounting.
    pub fn begin_round(&self) {
        self.recorder.borrow_mut().begin_round();
    }

    /// Network statistics accumulated so far.
    pub fn network(&self) -> NetworkStats {
        self.recorder.borrow().stats()
    }

    /// Total accesses served by every owner (sorted + random + direct).
    pub fn accesses_served(&self) -> u64 {
        self.owners
            .iter()
            .map(|o| o.borrow().accesses_served())
            .sum()
    }

    /// Read-only view of owner `i` (used by tests and for uncounted
    /// introspection such as best positions and catalog metadata).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, or if the owner is currently
    /// handling a request.
    pub fn owner(&self, i: usize) -> Ref<'_, ListOwner> {
        self.owners[i].borrow()
    }

    /// The tail score of owner `i`'s list — catalog metadata, uncounted.
    pub fn tail_score(&self, i: usize) -> Score {
        self.owners[i].borrow().tail_score()
    }

    /// Resets owner `i`'s per-query state (seen positions, served-access
    /// count), leaving the network tally and the other owners untouched.
    pub fn owner_reset(&self, i: usize) {
        self.owners[i].borrow_mut().reset();
    }

    /// Resets network statistics, keeping owner state. Useful when a single
    /// cluster serves several measured queries in a bench.
    pub fn reset_network(&self) {
        self.recorder.borrow_mut().reset();
    }

    /// Resets network statistics *and* every owner's per-query state
    /// (seen positions, served-access counts), so the cluster can serve a
    /// fresh query over unchanged lists.
    pub fn reset(&self) {
        self.reset_network();
        for owner in &self.owners {
            owner.borrow_mut().reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::examples_paper::figure1_database;
    use topk_lists::{ItemId, Position};

    #[test]
    fn cluster_mirrors_database_dimensions() {
        let db = figure1_database();
        let cluster = Cluster::new(&db);
        assert_eq!(cluster.num_owners(), 3);
        assert_eq!(cluster.num_items(), 12);
        assert_eq!(cluster.accesses_served(), 0);
        assert_eq!(cluster.network(), NetworkStats::default());
        assert_eq!(cluster.latency(), LatencyModel::zero(3));
    }

    #[test]
    fn send_counts_messages_and_payload() {
        let db = figure1_database();
        let cluster = Cluster::new(&db);
        let resp = cluster.send(
            0,
            Request::SortedAccess {
                position: Position::FIRST,
                track: false,
            },
        );
        match resp {
            Response::Entry { item, .. } => assert_eq!(item, ItemId(1)),
            other => panic!("unexpected response {other:?}"),
        }
        let stats = cluster.network();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.responses, 1);
        // 1 unit for the position operand + 3 units for the entry response.
        assert_eq!(stats.payload_units, 4);
        assert_eq!(cluster.accesses_served(), 1);

        cluster.reset_network();
        assert_eq!(cluster.network().messages, 0);
        assert_eq!(
            cluster.accesses_served(),
            1,
            "owner state survives a network reset"
        );

        cluster.reset();
        assert_eq!(
            cluster.accesses_served(),
            0,
            "a full reset clears owner state"
        );
    }

    #[test]
    fn per_round_accounting_splits_traffic_at_round_marks() {
        let db = figure1_database();
        let cluster = Cluster::new(&db);
        let sorted = |p: usize| Request::SortedAccess {
            position: Position::new(p).unwrap(),
            track: false,
        };

        cluster.begin_round();
        cluster.send(0, sorted(1));
        cluster.send(1, sorted(1));
        cluster.begin_round();
        cluster.send(0, sorted(2));

        let stats = cluster.network();
        assert_eq!(stats.rounds(), 2);
        assert_eq!(stats.per_round[0].messages, 4);
        assert_eq!(stats.per_round[1].messages, 2);
        let sum: u64 = stats.per_round.iter().map(|r| r.messages).sum();
        assert_eq!(sum, stats.messages);
        let payload: u64 = stats.per_round.iter().map(|r| r.payload_units).sum();
        assert_eq!(payload, stats.payload_units);
        assert_eq!(stats.peak_round().unwrap().messages, 4);
    }

    #[test]
    fn traffic_before_the_first_round_mark_lands_in_an_implicit_round() {
        let db = figure1_database();
        let cluster = Cluster::new(&db);
        cluster.send(
            0,
            Request::SortedAccess {
                position: Position::FIRST,
                track: false,
            },
        );
        let stats = cluster.network();
        assert_eq!(stats.rounds(), 1);
        assert_eq!(stats.per_round[0].messages, 2);
    }

    #[test]
    fn owners_can_use_any_tracker() {
        let db = figure1_database();
        for kind in TrackerKind::ALL {
            let cluster = Cluster::with_latency(&db, kind, LatencyModel::zero(db.num_lists()));
            cluster.send(1, Request::DirectAccessNext);
            assert_eq!(cluster.owner(1).best_position(), Position::new(1));
        }
    }

    #[test]
    fn tail_scores_are_catalog_metadata() {
        let db = figure1_database();
        let cluster = Cluster::new(&db);
        for i in 0..cluster.num_owners() {
            let expected = db.list(i).unwrap().last_entry().score;
            assert_eq!(cluster.tail_score(i), expected);
        }
        assert_eq!(
            cluster.network().messages,
            0,
            "catalog reads are not messages"
        );
    }

    #[test]
    fn zero_latency_reports_zero_times() {
        let db = figure1_database();
        let cluster = Cluster::new(&db);
        cluster.send(0, Request::DirectAccessNext);
        let stats = cluster.network();
        assert_eq!(stats.serialized_nanos(), 0);
        assert_eq!(stats.makespan_nanos(), 0);
        assert_eq!(stats.overlap_speedup(), None);
    }

    #[test]
    fn overlapped_makespan_is_the_max_owner_lane_per_round() {
        let db = figure1_database();
        // 1 µs RTT, no bandwidth term: every exchange costs exactly 1000.
        let cluster = Cluster::with_latency(
            &db,
            TrackerKind::BitArray,
            LatencyModel::uniform(3, 1_000, 0),
        );
        let sorted = |p: usize| Request::SortedAccess {
            position: Position::new(p).unwrap(),
            track: false,
        };

        // Round 1: two exchanges with owner 0, one with owner 1.
        cluster.begin_round();
        cluster.send(0, sorted(1));
        cluster.send(0, sorted(2));
        cluster.send(1, sorted(1));
        // Round 2: one exchange with each owner.
        cluster.begin_round();
        for owner in 0..3 {
            cluster.send(owner, sorted(3));
        }

        let stats = cluster.network();
        assert_eq!(stats.per_round[0].serialized_nanos, 3_000);
        assert_eq!(
            stats.per_round[0].makespan_nanos, 2_000,
            "owner 0's two queued exchanges dominate round 1"
        );
        assert_eq!(stats.per_round[1].serialized_nanos, 3_000);
        assert_eq!(
            stats.per_round[1].makespan_nanos, 1_000,
            "three independent owners overlap perfectly"
        );
        assert_eq!(stats.serialized_nanos(), 6_000);
        assert_eq!(stats.makespan_nanos(), 3_000);
        assert!((stats.overlap_speedup().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_term_charges_per_payload_unit() {
        let db = figure1_database();
        let cluster =
            Cluster::with_latency(&db, TrackerKind::BitArray, LatencyModel::uniform(3, 0, 10));
        // SortedAccess request = 1 unit, Entry response = 3 units.
        cluster.send(
            0,
            Request::SortedAccess {
                position: Position::FIRST,
                track: false,
            },
        );
        let stats = cluster.network();
        assert_eq!(stats.serialized_nanos(), 40);
        assert_eq!(stats.makespan_nanos(), 40);
    }
}
