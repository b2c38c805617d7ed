//! Deterministic network-latency modelling for the simulated cluster.
//!
//! The paper's communication argument (Section 5) counts messages and the
//! scalars they carry; this module adds the missing third axis — *time* —
//! so the round savings of the distributed protocols translate into
//! simulated wall-clock savings. A [`LatencyModel`] prices one
//! request/response exchange with owner `i` as
//!
//! ```text
//! cost(i, req, resp) = rtt(i) + per_unit · (payload(req) + payload(resp))
//! ```
//!
//! i.e. a per-link round-trip time plus a per-payload-unit bandwidth cost.
//! Per-link RTTs are drawn once from a seeded generator (the in-tree
//! `rand` stand-in), so every run over the same model is bit-identical —
//! there is no `Instant` anywhere in the simulated timings, and therefore
//! no flakiness. Costs are expressed in simulated nanoseconds.
//!
//! Two schedules are priced from the same per-exchange costs (see
//! [`RoundStats`](crate::RoundStats)):
//!
//! * **serialized** — every exchange waits for the previous one, the
//!   behaviour of a naive blocking originator: the sum of all costs;
//! * **overlapped makespan** — within one originator round all requests
//!   are in flight concurrently, and only exchanges with the *same* owner
//!   queue behind each other (an owner serves one request at a time):
//!   per round, the maximum over owners of that owner's summed costs.
//!   Rounds are barriers — round `r + 1` starts only when round `r` has
//!   fully completed.
//!
//! The overlap schedule treats all requests within a round as mutually
//! independent (a *scatter bound*). Be precise about what that means per
//! protocol:
//!
//! * For **round-synchronous** protocols — the naive single-round scatter
//!   scan, TPUT's three phases — the requests of a round really are known
//!   up front, so the makespan is an *achievable* schedule and approaches
//!   `serialized / m` (bounded by the RTT jitter: the slowest lane
//!   dominates).
//! * For protocols whose rounds contain **data-dependent** requests —
//!   TA/BPA issue `m − 1` random accesses only after the sorted access
//!   that revealed the item; BPA2's direct accesses react to random
//!   accesses earlier in the same round — the makespan is an *optimistic
//!   lower bound*: a real originator could not start a request before the
//!   reply it depends on. The backend cannot see those data dependencies
//!   through the access API, so it does not chain them; this is also why
//!   TA, BPA and BPA2 report the *same* per-round overlap factor as the
//!   round-synchronous protocols rather than a smaller one. Their
//!   *relative* ranking on simulated wall clock is still meaningful — it
//!   is driven by rounds × per-lane work, where BPA2's fewer accesses and
//!   fewer rounds win — but their absolute makespans are floors, not
//!   forecasts. Over the [`ClusterRuntime`](crate::ClusterRuntime) part
//!   of that overlap is real: the `m − 1` random accesses that resolve
//!   one item travel together (announced through
//!   `SourceSet::prefetch_random`), while each resolution still waits for
//!   the access that revealed its item. The modelled makespan does not
//!   change with it, because it is priced from the recorded exchanges
//!   and rounds alone, and those are the same whether the requests
//!   travelled one by one or together.
//!
//! The CI overlap gate (`network_latency` bench) therefore only asserts
//! the speedup for TPUT and the batched naive scan, the two protocols for
//! which the schedule is achievable.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::message::{Request, Response};

/// Prices one request/response exchange in simulated nanoseconds: a
/// per-link round-trip time plus a per-payload-unit bandwidth cost.
///
/// Models are cheap to build and immutable; a
/// [`ClusterRuntime`](crate::ClusterRuntime) holds one and prices every
/// exchange of every session with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyModel {
    /// Round-trip time of the originator ↔ owner `i` link, in nanoseconds.
    rtts: Vec<u64>,
    /// Cost per payload scalar (request + response), in nanoseconds.
    per_unit: u64,
}

/// ~100 µs base RTT: same-rack gigabit LAN territory.
const LAN_BASE_RTT: u64 = 100_000;
/// ~30 ms base RTT: cross-continent WAN territory.
const WAN_BASE_RTT: u64 = 30_000_000;
/// ~64 ns per scalar on a LAN (8 bytes at ≈1 Gbit/s).
const LAN_PER_UNIT: u64 = 64;
/// ~640 ns per scalar on a WAN (8 bytes at ≈100 Mbit/s).
const WAN_PER_UNIT: u64 = 640;

impl LatencyModel {
    /// A model where every exchange is free. This is the default of
    /// [`ClusterRuntime::spawn`](crate::ClusterRuntime::spawn), so
    /// message/payload accounting carries no timings unless a model is
    /// asked for.
    pub fn zero(num_links: usize) -> Self {
        Self::uniform(num_links, 0, 0)
    }

    /// Identical links: `rtt_nanos` per round trip and `per_unit_nanos`
    /// per payload scalar on every link.
    pub fn uniform(num_links: usize, rtt_nanos: u64, per_unit_nanos: u64) -> Self {
        LatencyModel {
            rtts: vec![rtt_nanos; num_links],
            per_unit: per_unit_nanos,
        }
    }

    /// A LAN profile: per-link RTTs jittered deterministically around
    /// 100 µs (±50%), ~64 ns per payload scalar.
    pub fn lan(num_links: usize, seed: u64) -> Self {
        Self::jittered(num_links, seed, LAN_BASE_RTT, LAN_PER_UNIT)
    }

    /// A WAN profile: per-link RTTs jittered deterministically around
    /// 30 ms (±50%), ~640 ns per payload scalar.
    pub fn wan(num_links: usize, seed: u64) -> Self {
        Self::jittered(num_links, seed, WAN_BASE_RTT, WAN_PER_UNIT)
    }

    /// Per-link RTTs drawn uniformly from `[base/2, 3·base/2)`, fully
    /// determined by `seed`.
    pub fn jittered(num_links: usize, seed: u64, base_rtt_nanos: u64, per_unit_nanos: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        LatencyModel {
            rtts: (0..num_links)
                .map(|_| {
                    let jitter: f64 = rng.random(); // [0, 1)
                    let scale = 0.5 + jitter; // [0.5, 1.5)
                    (base_rtt_nanos as f64 * scale) as u64
                })
                .collect(),
            per_unit: per_unit_nanos,
        }
    }

    /// Number of originator ↔ owner links the model prices.
    pub fn num_links(&self) -> usize {
        self.rtts.len()
    }

    /// The round-trip time of link `i`, in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid link index.
    pub fn rtt_nanos(&self, link: usize) -> u64 {
        self.rtts[link]
    }

    /// The bandwidth cost per payload scalar, in nanoseconds.
    pub fn per_unit_nanos(&self) -> u64 {
        self.per_unit
    }

    /// Simulated cost of one exchange with owner `link`, in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not a valid link index.
    pub fn exchange_nanos(&self, link: usize, request: &Request, response: &Response) -> u64 {
        self.rtts[link] + self.per_unit * (request.payload_units() + response.payload_units())
    }
}

/// Formats simulated nanoseconds as a human-readable duration (used by the
/// latency bench and examples).
pub fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_lists::Position;

    #[test]
    fn zero_model_prices_everything_at_zero() {
        let model = LatencyModel::zero(3);
        assert_eq!(model.num_links(), 3);
        let req = Request::DirectAccessNext;
        let resp = Response::Exhausted;
        for link in 0..3 {
            assert_eq!(model.exchange_nanos(link, &req, &resp), 0);
        }
    }

    #[test]
    fn uniform_model_charges_rtt_plus_bandwidth() {
        let model = LatencyModel::uniform(2, 1_000, 10);
        let req = Request::SortedAccess {
            position: Position::FIRST,
            track: false,
        }; // 1 unit
        let resp = Response::Exhausted; // 0 units
        assert_eq!(model.exchange_nanos(0, &req, &resp), 1_000 + 10);
        assert_eq!(model.per_unit_nanos(), 10);
        assert_eq!(model.rtt_nanos(1), 1_000);
    }

    #[test]
    fn jittered_profiles_are_deterministic_and_bounded() {
        let a = LatencyModel::lan(8, 42);
        let b = LatencyModel::lan(8, 42);
        assert_eq!(a, b, "same seed, same model");
        let c = LatencyModel::lan(8, 43);
        assert_ne!(a, c, "different seed, different links");
        for link in 0..8 {
            let rtt = a.rtt_nanos(link);
            assert!((LAN_BASE_RTT / 2..LAN_BASE_RTT * 3 / 2 + 1).contains(&rtt));
        }
        let wan = LatencyModel::wan(4, 7);
        for link in 0..4 {
            assert!(wan.rtt_nanos(link) > a.rtt_nanos(link % 8));
        }
    }

    #[test]
    fn nanos_format_scales_units() {
        assert_eq!(format_nanos(12), "12 ns");
        assert_eq!(format_nanos(4_200), "4.2 µs");
        assert_eq!(format_nanos(7_350_000), "7.35 ms");
        assert_eq!(format_nanos(2_500_000_000), "2.50 s");
    }
}
