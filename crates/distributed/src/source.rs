//! The wire mapping of the distributed backend: `ClusterSource` maps
//! the backend-generic [`ListSource`] calls onto the typed [`Request`] /
//! [`Response`] messages of the wire protocol, so the *core* algorithms
//! (`topk_core::Ta`, `Bpa`, `Bpa2`, …) run unmodified against the list
//! owners of a [`ClusterRuntime`](crate::ClusterRuntime).
//!
//! A distributed protocol is *one line* — a core algorithm run over
//! `runtime.connect()` — so local/distributed drift bugs are impossible
//! by construction. The mapping is exact: each trait call sends exactly
//! the message the original hand-written protocols sent, with the same
//! `track` / `with_position` flags, so message counts and payload sizes
//! are unchanged (the cross-backend equivalence suite pins those
//! figures).
//!
//! | [`ListSource`] call | [`Request`] |
//! |---|---|
//! | `sorted_access(p, track)` | `SortedAccess { position, track }` |
//! | `random_access(d, with_position, track)` | `RandomAccess { item, with_position, track }` |
//! | `direct_access_next()` | `DirectAccessNext` |
//! | `sorted_block(p, len, track)` | `SortedBlock { start, len, track }` (one round trip) |
//!
//! At the other end of every exchange,
//! [`ListOwner::handle`](crate::ListOwner::handle) makes the inverse
//! mapping onto the owner's access core, so the owner's replies and
//! counts follow the same rules as every local backend.
//!
//! `best_position` and `tail_score` are *not* messages: the former is
//! simulation introspection used only for run statistics (the algorithms'
//! stopping logic uses the piggybacked best scores, as Section 5.1
//! prescribes), the latter is catalog metadata known at registration.
//!
//! The request/response *transport* sits behind the crate-private
//! `OwnerLink` trait. A runtime session reaches each owner's worker
//! thread through its channels ([`crate::runtime`]), wrapped in the
//! fault-injection and resilience links of [`crate::fault`]; a socket
//! transport would be one more `OwnerLink`, under this same mapping.

use std::rc::Rc;

use topk_lists::source::{ListSource, SourceEntry, SourceScore};
use topk_lists::{AccessCounters, ItemId, Position, Score};

use crate::fault::LinkFault;
use crate::message::{Request, Response};

/// How a [`ClusterSource`] reaches its list owner: one blocking
/// request/response exchange, plus the uncounted owner introspection the
/// simulation exposes for statistics. Implementations are responsible for
/// recording the exchange in their backend's network accounting.
///
/// An exchange may also be split in two halves: [`post`](OwnerLink::post)
/// sends a request ahead and [`complete`](OwnerLink::complete) collects
/// its reply, so a session can keep requests to several owners in flight
/// at once. The defaults keep a transport serial: `post` sends nothing
/// and `complete` does the whole exchange.
///
/// Exchanges are fallible: a transport may report a [`LinkFault`]
/// instead of a response. The channel transport surfaces dead workers
/// and timeouts, and the resilience decorators (`crate::fault`) consume
/// the transient variants so that only terminal faults reach the source
/// adapter.
pub(crate) trait OwnerLink: std::fmt::Debug {
    /// Sends one request to the owner and waits for its response.
    ///
    /// `attempt` is 0 for the first transmission of a logical request
    /// and increments on each retry of the *same* request, letting
    /// at-most-once transports reuse their sequence number so a retried
    /// request is never executed twice.
    fn exchange(&self, request: Request, attempt: u32) -> Result<Response, LinkFault>;

    /// Sends `request` without waiting for its reply. Only the next
    /// [`complete`](OwnerLink::complete) of the same request collects
    /// it; the default sends nothing.
    fn post(&self, _request: Request) {}

    /// Returns the reply to `request`: waits for it when
    /// [`post`](OwnerLink::post) sent the request ahead, otherwise
    /// exchanges it now as a first attempt (the default).
    fn complete(&self, request: Request) -> Result<Response, LinkFault> {
        self.exchange(request, 0)
    }

    /// Index of the owner this link reaches (for typed error reports).
    fn owner_index(&self) -> usize;

    /// Number of entries in the owner's list (catalog metadata).
    fn len(&self) -> usize;

    /// The owner's list-tail score (catalog metadata).
    fn tail_score(&self) -> Score;

    /// The owner's list epoch (catalog metadata; failover targets must
    /// agree).
    fn epoch(&self) -> u64;

    /// The owner's current best position (uncounted introspection).
    fn best_position(&self) -> Result<Option<Position>, LinkFault>;

    /// Resets the owner's per-query state (seen positions, access count).
    fn reset_owner(&self) -> Result<(), LinkFault>;
}

/// One remote list, reached through an owner transport (a
/// [`ClusterRuntime`](crate::ClusterRuntime) worker's channels, behind
/// the session's resilience link).
///
/// Accesses are mirrored into originator-side [`AccessCounters`] (the
/// owner only keeps a total), so [`RunStats`](topk_core::RunStats) report
/// the same per-mode counts over this backend as over the in-memory one.
#[derive(Debug)]
pub(crate) struct ClusterSource<'a> {
    /// Shared with the session, which may post random accesses ahead.
    link: Rc<dyn OwnerLink + 'a>,
    counters: AccessCounters,
}

impl<'a> ClusterSource<'a> {
    /// A source speaking the wire mapping over any transport.
    pub(crate) fn new(link: Rc<dyn OwnerLink + 'a>) -> Self {
        ClusterSource {
            link,
            counters: AccessCounters::default(),
        }
    }

    /// One exchange under the fail-stop contract: a terminal
    /// [`LinkFault`] becomes a typed [`SourceError`] unwound to
    /// `TopKAlgorithm::run_on`
    /// ([`SourceError::raise`](topk_lists::source::SourceError::raise)),
    /// never a panic message of our own. A random access the session
    /// posted ahead (`SourceSet::prefetch_random`) only waits for its
    /// reply.
    fn dispatch(&self, op: &'static str, request: Request) -> Response {
        match self.link.complete(request) {
            Ok(response) => response,
            Err(fault) => fault.raise(self.link.owner_index(), op),
        }
    }
}

impl ListSource for ClusterSource<'_> {
    fn len(&self) -> usize {
        self.link.len()
    }

    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        self.counters.sorted += 1;
        match self.dispatch("sorted access", Request::SortedAccess { position, track }) {
            Response::Entry {
                item,
                score,
                position,
                best_position_score,
            } => Some(SourceEntry {
                position,
                item,
                score,
                best_position_score,
            }),
            Response::Exhausted => None,
            other => unreachable!("sorted access returned {other:?}"),
        }
    }

    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        self.counters.random += 1;
        match self.dispatch(
            "random access",
            Request::RandomAccess {
                item,
                with_position,
                track,
            },
        ) {
            Response::LocalScore {
                score,
                position,
                best_position_score,
            } => Some(SourceScore {
                score,
                position,
                best_position_score,
            }),
            Response::Exhausted => None,
            other => unreachable!("random access returned {other:?}"),
        }
    }

    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        match self.dispatch("direct access", Request::DirectAccessNext) {
            Response::Entry {
                item,
                score,
                position,
                best_position_score,
            } => {
                // Counted only on success: an exhausted probe is not a
                // list access (the owner does not count it either).
                self.counters.direct += 1;
                Some(SourceEntry {
                    position,
                    item,
                    score,
                    best_position_score,
                })
            }
            Response::Exhausted => None,
            other => unreachable!("direct access returned {other:?}"),
        }
    }

    fn sorted_block(&mut self, start: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        let response = self.dispatch(
            "sorted block",
            Request::SortedBlock {
                start,
                len: len.min(u32::MAX as usize) as u32,
                track,
            },
        );
        match response {
            Response::Entries {
                start,
                items,
                best_position_score,
            } => {
                self.counters.sorted += items.len() as u64;
                let last = items.len().saturating_sub(1);
                items
                    .into_iter()
                    .enumerate()
                    .map(|(j, (item, score))| SourceEntry {
                        // lint:allow(fail-stop) -- start is a NonZero position and j >= 0, so the sum is >= 1
                        position: Position::new(start.get() + j).expect("pos >= 1"),
                        item,
                        score,
                        // The piggyback describes the owner's state after
                        // the whole block; attach it to the last entry.
                        best_position_score: if j == last { best_position_score } else { None },
                    })
                    .collect()
            }
            other => unreachable!("sorted block returned {other:?}"),
        }
    }

    fn best_position(&self) -> Option<Position> {
        match self.link.best_position() {
            Ok(position) => position,
            Err(fault) => fault.raise(self.link.owner_index(), "best position"),
        }
    }

    fn tail_score(&self) -> Score {
        self.link.tail_score()
    }

    fn counters(&self) -> AccessCounters {
        self.counters
    }

    fn reset(&mut self) {
        self.counters = AccessCounters::default();
        // Best effort: resetting a session whose owner (and every
        // replica) is already dead must not unwind outside `run_on` —
        // the very next counted exchange will surface the typed error.
        let _ = self.link.reset_owner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::examples_paper::figure1_database;
    use topk_lists::source::SourceSet;

    use crate::ClusterRuntime;

    #[test]
    fn trait_calls_map_onto_the_wire_protocol_one_to_one() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut sources = runtime.connect();
        assert_eq!(sources.num_lists(), 3);
        assert_eq!(sources.num_items(), 12);

        let entry = sources
            .source(0)
            .sorted_access(Position::FIRST, false)
            .unwrap();
        assert_eq!(entry.position, Position::FIRST);
        let ps = sources
            .source(1)
            .random_access(entry.item, true, false)
            .unwrap();
        assert!(ps.position.is_some());
        let direct = sources.source(2).direct_access_next().unwrap();
        assert_eq!(direct.position, Position::FIRST);

        // One request + one response per access.
        assert_eq!(sources.network().messages, 6);
        assert_eq!(sources.accesses_served(), 3);
        // Originator-side counters mirror the owners, per mode.
        let totals = sources.total_counters();
        assert_eq!(totals.sorted, 1);
        assert_eq!(totals.random, 1);
        assert_eq!(totals.direct, 1);
    }

    #[test]
    fn exhausted_probes_are_messages_but_not_accesses() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut sources = runtime.connect();
        // Drain list 0 through direct accesses…
        while sources.source(0).direct_access_next().is_some() {}
        let served = sources.accesses_served();
        let messages = sources.network().messages;
        // …the draining loop's final (exhausted) probe exchanged messages
        // without serving an access.
        assert_eq!(served, 12);
        assert_eq!(messages, 2 * 12 + 2);
        assert_eq!(sources.source_ref(0).counters().direct, 12);
        assert_eq!(sources.source_ref(0).best_position(), Position::new(12));
    }

    #[test]
    fn a_sorted_block_is_one_round_trip() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut sources = runtime.connect();
        let entries = sources.source(0).sorted_block(Position::FIRST, 5, false);
        assert_eq!(entries.len(), 5);
        assert_eq!(sources.network().messages, 2, "five entries, one exchange");
        assert_eq!(sources.accesses_served(), 5);
        assert_eq!(sources.source_ref(0).counters().sorted, 5);
        for (j, entry) in entries.iter().enumerate() {
            assert_eq!(entry.position.get(), j + 1);
        }
    }

    #[test]
    fn reset_clears_counters_owners_and_network() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut sources = runtime.connect();
        sources.source(0).direct_access_next().unwrap();
        sources
            .source(1)
            .sorted_access(Position::FIRST, true)
            .unwrap();
        sources.reset();
        assert_eq!(sources.total_counters(), AccessCounters::default());
        assert_eq!(sources.network().messages, 0);
        assert_eq!(sources.accesses_served(), 0);
        assert_eq!(sources.source_ref(0).best_position(), None);
        assert_eq!(sources.source_ref(1).best_position(), None);
    }

    #[test]
    fn tail_scores_come_from_the_catalog_not_the_wire() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let sources = runtime.connect();
        for i in 0..3 {
            assert_eq!(
                sources.source_ref(i).tail_score(),
                db.list(i).unwrap().last_entry().score
            );
        }
        assert_eq!(sources.network().messages, 0);
    }
}
