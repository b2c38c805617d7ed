//! Distributed top-k query execution, simulated.
//!
//! Section 5 of the paper motivates BPA2 with distributed systems: "in a
//! distributed system, BPA needs to retrieve the position of each accessed
//! data item and keep the seen positions at the query originator … thus
//! incurring communication cost", and the evaluation argues that "the
//! number of messages … is proportional to the number of accesses done to
//! the lists".
//!
//! This crate simulates that setting in process:
//!
//! * every sorted list is held by a [`ListOwner`] node that also manages
//!   the list's best position (as BPA2 prescribes); an owner is the
//!   access core of `topk_lists::tracked` over its list, so it counts,
//!   tracks and piggybacks by the same code as every local backend,
//! * a [`ClusterRuntime`] ([`runtime`]) runs one worker thread per list
//!   owner behind request/reply channels and serves any number of
//!   concurrent, isolated query sessions ([`AsyncClusterSources`]),
//! * a session maps the backend-generic
//!   [`ListSource`](topk_lists::source::ListSource) API onto typed
//!   [`message`]s ([`source`]), so the *same* `topk_core` algorithms
//!   execute distributed, with no re-implementation:
//!   `alg.run_on(&mut runtime.connect(), &query)` — no adapter types,
//! * every session counts every message, its payload, a per-round
//!   breakdown, and — under a pluggable, deterministic [`LatencyModel`] —
//!   the *simulated time* of two schedules per round: every exchange
//!   serialized versus in-round requests overlapped across owners
//!   ([`NetworkStats`], [`RoundStats`]). Cutting *rounds* (the paper's
//!   BPA2 argument) is exactly what makes the overlapped makespan drop,
//! * the resulting [`NetworkStats`] quantify the communication-cost claims:
//!   BPA2 sends fewer messages than BPA (fewer accesses) *and* smaller ones
//!   (no positions shipped to the originator).
//!
//! The simulation is deterministic: latencies come from the seeded
//! [`LatencyModel`], never from the host clock, and replies are recorded
//! in the order the originator reads them, so a session reports the same
//! figures on every run.
//!
//! ```
//! use topk_core::examples_paper::figure2_database;
//! use topk_core::{Bpa2, TopKAlgorithm, TopKQuery};
//! use topk_distributed::ClusterRuntime;
//!
//! let db = figure2_database();
//! let runtime = ClusterRuntime::spawn(&db);
//! let mut session = runtime.connect();
//! let result = Bpa2.run_on(&mut session, &TopKQuery::top(3)).unwrap();
//! assert_eq!(result.len(), 3);
//! // One request and one response per access: 36 accesses -> 72 messages.
//! assert_eq!(session.network().messages, 72);
//! // Four originator rounds, accounted message by message.
//! assert_eq!(session.network().rounds(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod latency;
pub mod message;
pub mod owner;
pub mod runtime;
pub mod source;

pub use cluster::{NetworkStats, RoundStats};
pub use fault::{FaultKind, FaultPlan, FaultStats, RetryPolicy};
pub use latency::{format_nanos, LatencyModel};
pub use message::{Request, Response};
pub use owner::ListOwner;
pub use runtime::{AsyncClusterSources, ClusterRuntime, SessionOptions};

/// The query-originator protocols of Section 5 are the core algorithms run
/// over a runtime session; these tests pin what that costs on the wire.
#[cfg(test)]
mod protocol {
    mod tests {
        use crate::{ClusterRuntime, NetworkStats, SessionOptions};
        use topk_core::examples_paper::{figure1_database, figure2_database};
        use topk_core::{AlgorithmKind, Ta, TopKAlgorithm, TopKQuery, TopKResult};

        const PROTOCOLS: [AlgorithmKind; 4] = [
            AlgorithmKind::Naive,
            AlgorithmKind::Ta,
            AlgorithmKind::Bpa,
            AlgorithmKind::Bpa2,
        ];

        /// Runs `kind` over a fresh session on `runtime`: the result,
        /// the accesses the owners served and the network tallies.
        fn run(
            runtime: &ClusterRuntime,
            kind: AlgorithmKind,
            k: usize,
        ) -> (TopKResult, u64, NetworkStats) {
            let mut session = runtime.connect();
            let result = kind
                .create()
                .run_on(&mut session, &TopKQuery::top(k))
                .unwrap();
            (result, session.accesses_served(), session.network())
        }

        #[test]
        fn all_protocols_agree_with_the_centralized_algorithms() {
            for db in [figure1_database(), figure2_database()] {
                let runtime = ClusterRuntime::spawn(&db);
                for k in [1, 3, 6, 12] {
                    let reference = Ta::literal().run(&db, &TopKQuery::top(k)).unwrap();
                    for kind in PROTOCOLS {
                        let (result, _, _) = run(&runtime, kind, k);
                        assert_eq!(result.scores(), reference.scores(), "{kind:?} with k = {k}");
                    }
                }
            }
        }

        #[test]
        fn message_counts_are_proportional_to_accesses() {
            // "The number of messages … is proportional to the number of
            // accesses done to the lists": one request + one response each.
            // (BPA2's final exhausted direct probes are the only exception and
            // only occur once the whole list has been read, which never
            // happens on this query.)
            let runtime = ClusterRuntime::spawn(&figure1_database());
            for kind in PROTOCOLS {
                let (_, accesses, network) = run(&runtime, kind, 3);
                assert_eq!(network.messages, 2 * accesses, "{kind:?}");
            }
        }

        #[test]
        fn distributed_runs_match_centralized_access_counts() {
            let db = figure1_database();
            let runtime = ClusterRuntime::spawn(&db);
            for kind in PROTOCOLS {
                let centralized = kind.create().run(&db, &TopKQuery::top(3)).unwrap();
                let (_, accesses, _) = run(&runtime, kind, 3);
                assert_eq!(accesses, centralized.stats().total_accesses(), "{kind:?}");
            }
            assert_eq!(run(&runtime, AlgorithmKind::Naive, 3).1, 3 * 12);
        }

        #[test]
        fn distributed_bpa2_matches_centralized_bpa2_on_figure2() {
            let db = figure2_database();
            let runtime = ClusterRuntime::spawn(&db);
            let (result, accesses, network) = run(&runtime, AlgorithmKind::Bpa2, 3);
            let centralized = AlgorithmKind::Bpa2.create().run(&db, &TopKQuery::top(3));
            assert_eq!(accesses, centralized.unwrap().stats().total_accesses());
            assert_eq!((accesses, result.stats().rounds), (36, 4));
            // Per-round accounting: one bucket per round, summing to the total.
            assert_eq!(network.rounds() as u64, result.stats().rounds);
            let sum: u64 = network.per_round.iter().map(|r| r.messages).sum();
            assert_eq!(sum, network.messages);
        }

        #[test]
        fn bpa2_ships_less_payload_than_bpa() {
            // BPA ships item positions back to the originator on every random
            // access; BPA2 does not. On top of doing fewer accesses, each BPA2
            // response is therefore smaller.
            let runtime = ClusterRuntime::spawn(&figure2_database());
            let (_, bpa_accesses, bpa) = run(&runtime, AlgorithmKind::Bpa, 3);
            let (_, bpa2_accesses, bpa2) = run(&runtime, AlgorithmKind::Bpa2, 3);
            assert!(bpa2_accesses < bpa_accesses);
            assert!(bpa2.payload_units < bpa.payload_units);
            assert!(bpa2.messages < bpa.messages);
        }

        /// A reused runtime starts every session from fresh owner state,
        /// so a second run reports the same answers and figures as the
        /// first (BPA2's owner-side trackers would otherwise be exhausted
        /// and return no answers at all).
        #[test]
        fn a_cluster_serves_repeated_executions_independently() {
            let runtime = ClusterRuntime::spawn(&figure2_database());
            let query = TopKQuery::top(3);
            let mut runs = Vec::new();
            for block_len in [None, Some(64)] {
                // BPA2 issues no untracked sorted accesses, so batching leaves
                // its messages unchanged; both kinds of session start fresh.
                let mut session = runtime.connect_with(SessionOptions {
                    block_len,
                    ..SessionOptions::default()
                });
                let result = AlgorithmKind::Bpa2
                    .create()
                    .run_on(&mut session, &query)
                    .unwrap();
                let network = session.network();
                let figures = (
                    session.accesses_served(),
                    network.messages,
                    network.rounds(),
                );
                assert_eq!((result.len(), figures), (3, (36, 72, 4)));
                runs.push((result.items().to_vec(), network));
            }
            assert_eq!(runs[0], runs[1]);
        }
    }
}
