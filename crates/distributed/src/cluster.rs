//! Network accounting for the simulated cluster: what a session's
//! exchanges with the list owners cost in messages, payload and
//! simulated time.

use crate::latency::LatencyModel;
use crate::message::{Request, Response};

/// Messages, payload and simulated time exchanged during one originator
/// round (between two `SourceSet::begin_round` calls). A protocol's
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
    /// originator round. Traffic before the first round mark lands in
    /// an implicit first round.
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

/// The accounting engine behind every
/// [`ClusterRuntime`](crate::ClusterRuntime) session: every exchanged
/// request/response pair flows through [`NetworkRecorder::record`], which
/// tallies messages, payload, and the two simulated schedules (serialized
/// and overlapped) under one [`LatencyModel`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use topk_lists::{ItemId, Position, Score};

    fn sorted(p: usize) -> Request {
        Request::SortedAccess {
            position: Position::new(p).unwrap(),
            track: false,
        }
    }

    /// The reply to a sorted access: 3 payload units.
    fn entry(p: usize) -> Response {
        Response::Entry {
            item: ItemId(p as u64),
            score: Score::from_f64(1.0),
            position: Position::new(p).unwrap(),
            best_position_score: None,
        }
    }

    fn zero(num_owners: usize) -> NetworkRecorder {
        NetworkRecorder::new(num_owners, LatencyModel::zero(num_owners))
    }

    #[test]
    fn send_counts_messages_and_payload() {
        let mut recorder = zero(3);
        recorder.record(0, &sorted(1), &entry(1));
        let stats = recorder.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.responses, 1);
        // 1 unit for the position operand + 3 units for the entry response.
        assert_eq!(stats.payload_units, 4);

        recorder.reset();
        assert_eq!(recorder.stats(), NetworkStats::default());
    }

    #[test]
    fn per_round_accounting_splits_traffic_at_round_marks() {
        let mut recorder = zero(3);
        recorder.begin_round();
        recorder.record(0, &sorted(1), &entry(1));
        recorder.record(1, &sorted(1), &entry(1));
        recorder.begin_round();
        recorder.record(0, &sorted(2), &entry(2));

        let stats = recorder.stats();
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
        let mut recorder = zero(3);
        recorder.record(0, &sorted(1), &entry(1));
        let stats = recorder.stats();
        assert_eq!(stats.rounds(), 1);
        assert_eq!(stats.per_round[0].messages, 2);
    }

    #[test]
    fn zero_latency_reports_zero_times() {
        let mut recorder = zero(3);
        recorder.record(0, &Request::DirectAccessNext, &entry(1));
        let stats = recorder.stats();
        assert_eq!(stats.serialized_nanos(), 0);
        assert_eq!(stats.makespan_nanos(), 0);
        assert_eq!(stats.overlap_speedup(), None);
    }

    #[test]
    fn overlapped_makespan_is_the_max_owner_lane_per_round() {
        // 1 µs RTT, no bandwidth term: every exchange costs exactly 1000.
        let mut recorder = NetworkRecorder::new(3, LatencyModel::uniform(3, 1_000, 0));

        // Round 1: two exchanges with owner 0, one with owner 1.
        recorder.begin_round();
        recorder.record(0, &sorted(1), &entry(1));
        recorder.record(0, &sorted(2), &entry(2));
        recorder.record(1, &sorted(1), &entry(1));
        // Round 2: one exchange with each owner.
        recorder.begin_round();
        for owner in 0..3 {
            recorder.record(owner, &sorted(3), &entry(3));
        }

        let stats = recorder.stats();
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
        let mut recorder = NetworkRecorder::new(3, LatencyModel::uniform(3, 0, 10));
        // SortedAccess request = 1 unit, Entry response = 3 units.
        recorder.record(0, &sorted(1), &entry(1));
        let stats = recorder.stats();
        assert_eq!(stats.serialized_nanos(), 40);
        assert_eq!(stats.makespan_nanos(), 40);
    }
}
