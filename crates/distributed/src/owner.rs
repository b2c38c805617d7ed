//! List-owner nodes: one sorted list behind the wire protocol.
//!
//! An owner is the access core
//! ([`TrackedSource`](topk_lists::tracked::TrackedSource)) over its list,
//! built by [`TrackerKind::source`], so it counts, tracks and piggybacks
//! by exactly the rules every other backend follows. [`ListOwner::handle`]
//! only translates one [`Request`] into the matching [`ListSource`] call
//! and its reply into a [`Response`].

use std::sync::Arc;

use topk_lists::source::{ListSource, SourceEntry};
use topk_lists::tracker::TrackerKind;
use topk_lists::{Position, SortedList};

use crate::message::{Request, Response};

/// A node that owns one sorted list and, for BPA2-style protocols, manages
/// the list's best position locally (Section 5.2: "the best positions are
/// managed by the list owners").
#[derive(Debug)]
pub struct ListOwner {
    source: Box<dyn ListSource>,
}

impl ListOwner {
    /// Creates an owner for the given list using the default (bit-array)
    /// best-position tracker.
    pub fn new(list: impl Into<Arc<SortedList>>) -> Self {
        Self::with_tracker(list, TrackerKind::BitArray)
    }

    /// Creates an owner with an explicit best-position tracking strategy.
    /// Owners of one shared `Arc<SortedList>` share its entries.
    pub fn with_tracker(list: impl Into<Arc<SortedList>>, kind: TrackerKind) -> Self {
        ListOwner {
            source: kind.source(list.into()),
        }
    }

    /// Forgets all per-query state (seen positions, access counts), so the
    /// owner can serve a fresh query over its unchanged list.
    pub fn reset(&mut self) {
        self.source.reset();
    }

    /// Number of list accesses this owner has served (sorted + random +
    /// direct).
    pub fn accesses_served(&self) -> u64 {
        self.source.counters().total()
    }

    /// The owner's current best position, if any position has been seen.
    pub fn best_position(&self) -> Option<Position> {
        self.source.best_position()
    }

    /// Handles one request from the query originator.
    pub fn handle(&mut self, request: Request) -> Response {
        let source = &mut self.source;
        match request {
            Request::SortedAccess { position, track } => {
                entry_reply(source.sorted_access(position, track))
            }
            Request::DirectAccessNext => entry_reply(source.direct_access_next()),
            Request::RandomAccess {
                item,
                with_position,
                track,
            } => match source.random_access(item, with_position, track) {
                Some(found) => Response::LocalScore {
                    score: found.score,
                    position: found.position,
                    best_position_score: found.best_position_score,
                },
                None => Response::Exhausted,
            },
            Request::SortedBlock { start, len, track } => {
                let entries = source.sorted_block(start, len as usize, track);
                Response::Entries {
                    start,
                    best_position_score: entries.last().and_then(|e| e.best_position_score),
                    items: entries.iter().map(|e| (e.item, e.score)).collect(),
                }
            }
        }
    }
}

/// The reply to a sorted or direct access.
fn entry_reply(entry: Option<SourceEntry>) -> Response {
    match entry {
        Some(entry) => Response::Entry {
            item: entry.item,
            score: entry.score,
            position: entry.position,
            best_position_score: entry.best_position_score,
        },
        None => Response::Exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_lists::{ItemId, Score};

    fn owner() -> ListOwner {
        let list = SortedList::from_unsorted(vec![
            (ItemId(1), 30.0),
            (ItemId(2), 20.0),
            (ItemId(3), 10.0),
        ])
        .unwrap();
        ListOwner::new(list)
    }

    fn pos(p: usize) -> Position {
        Position::new(p).unwrap()
    }

    #[test]
    fn sorted_access_reads_and_optionally_tracks() {
        let mut o = owner();
        let resp = o.handle(Request::SortedAccess {
            position: pos(1),
            track: false,
        });
        match resp {
            Response::Entry {
                item,
                score,
                best_position_score,
                ..
            } => {
                assert_eq!(item, ItemId(1));
                assert_eq!(score.value(), 30.0);
                assert!(best_position_score.is_none());
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(
            o.best_position(),
            None,
            "track=false must not update the tracker"
        );

        let resp = o.handle(Request::SortedAccess {
            position: pos(1),
            track: true,
        });
        match resp {
            Response::Entry {
                best_position_score,
                ..
            } => {
                assert_eq!(best_position_score.unwrap().value(), 30.0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(o.best_position(), Some(pos(1)));
        assert_eq!(o.accesses_served(), 2);
    }

    #[test]
    fn sorted_access_past_the_end_is_exhausted() {
        let mut o = owner();
        assert_eq!(
            o.handle(Request::SortedAccess {
                position: pos(9),
                track: true
            }),
            Response::Exhausted
        );
    }

    #[test]
    fn random_access_reports_position_only_when_asked() {
        let mut o = owner();
        let r = o.handle(Request::RandomAccess {
            item: ItemId(3),
            with_position: false,
            track: false,
        });
        match r {
            Response::LocalScore {
                score, position, ..
            } => {
                assert_eq!(score.value(), 10.0);
                assert!(position.is_none());
            }
            other => panic!("unexpected response {other:?}"),
        }
        let r = o.handle(Request::RandomAccess {
            item: ItemId(3),
            with_position: true,
            track: true,
        });
        match r {
            Response::LocalScore { position, .. } => assert_eq!(position, Some(pos(3))),
            other => panic!("unexpected response {other:?}"),
        }
        let r = o.handle(Request::RandomAccess {
            item: ItemId(42),
            with_position: true,
            track: true,
        });
        assert_eq!(r, Response::Exhausted);
    }

    #[test]
    fn direct_access_walks_unseen_positions_and_reports_best_changes() {
        let mut o = owner();
        // Mark position 2 via a tracked random access first.
        o.handle(Request::RandomAccess {
            item: ItemId(2),
            with_position: false,
            track: true,
        });
        assert_eq!(o.best_position(), None);

        // Direct access must hit position 1 (smallest unseen) and, because
        // position 2 is already seen, the best position jumps to 2.
        let r = o.handle(Request::DirectAccessNext);
        match r {
            Response::Entry {
                item,
                position,
                best_position_score,
                ..
            } => {
                assert_eq!(item, ItemId(1));
                assert_eq!(position, pos(1));
                assert_eq!(best_position_score.unwrap().value(), 20.0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Next direct access hits position 3; afterwards the list is
        // exhausted.
        let r = o.handle(Request::DirectAccessNext);
        match r {
            Response::Entry { position, .. } => assert_eq!(position, pos(3)),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(o.handle(Request::DirectAccessNext), Response::Exhausted);
        assert_eq!(
            o.accesses_served(),
            3,
            "the exhausted direct access is not an access"
        );
    }

    #[test]
    fn sorted_block_reads_consecutive_entries_and_counts_each() {
        let mut o = owner();
        let r = o.handle(Request::SortedBlock {
            start: pos(2),
            len: 5,
            track: false,
        });
        match r {
            Response::Entries {
                start,
                items,
                best_position_score,
            } => {
                assert_eq!(start, pos(2));
                assert_eq!(
                    items,
                    vec![
                        (ItemId(2), Score::from_f64(20.0)),
                        (ItemId(3), Score::from_f64(10.0)),
                    ]
                );
                assert!(best_position_score.is_none());
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(o.accesses_served(), 2, "one access per returned entry");
        assert_eq!(
            o.best_position(),
            None,
            "track=false leaves the tracker alone"
        );

        // A tracked block from position 1 moves the best position and
        // piggybacks its score.
        let r = o.handle(Request::SortedBlock {
            start: pos(1),
            len: 2,
            track: true,
        });
        match r {
            Response::Entries {
                best_position_score,
                ..
            } => {
                assert_eq!(best_position_score.unwrap().value(), 20.0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(o.best_position(), Some(pos(2)));

        // Past the end: empty block, nothing counted.
        let before = o.accesses_served();
        let r = o.handle(Request::SortedBlock {
            start: pos(9),
            len: 3,
            track: false,
        });
        match r {
            Response::Entries { items, .. } => assert!(items.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(o.accesses_served(), before);
    }

    #[test]
    fn reset_restores_a_fresh_owner_over_the_same_list() {
        let mut o = owner();
        o.handle(Request::DirectAccessNext);
        o.handle(Request::SortedAccess {
            position: pos(2),
            track: true,
        });
        assert!(o.accesses_served() > 0);
        o.reset();
        assert_eq!(o.accesses_served(), 0);
        assert_eq!(o.best_position(), None);
        // Direct access starts over from position 1.
        match o.handle(Request::DirectAccessNext) {
            Response::Entry { position, .. } => assert_eq!(position, pos(1)),
            other => panic!("unexpected response {other:?}"),
        }
    }
}
