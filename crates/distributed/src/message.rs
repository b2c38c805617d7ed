//! The wire protocol between the query originator and the list owners.
//!
//! Payload sizes are measured in abstract *units*, one unit per scalar
//! (item id, score, position). This is deliberately coarse: the paper's
//! communication argument is about *which* scalars travel (BPA ships seen
//! positions to the originator, BPA2 does not), not about byte-level
//! encodings.

use topk_lists::{ItemId, Position, Score};

/// A request sent by the query originator to one list owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Read the entry at `position` (sorted access of TA/BPA; the owner
    /// does not track positions for these protocols unless asked).
    SortedAccess {
        /// 1-based position to read.
        position: Position,
        /// Whether the owner should record the position as seen and keep
        /// its best position up to date (BPA-style bookkeeping).
        track: bool,
    },
    /// Look up `item` and return its local score.
    RandomAccess {
        /// The item to look up.
        item: ItemId,
        /// Whether the response must include the item's position (BPA needs
        /// it at the originator).
        with_position: bool,
        /// Whether the owner should record the position as seen (BPA2 keeps
        /// this bookkeeping owner-side).
        track: bool,
    },
    /// BPA2's direct access: read the entry at the owner's `bp + 1` (the
    /// smallest unseen position) and mark it seen.
    DirectAccessNext,
    /// Batched sorted access: read up to `len` consecutive entries
    /// starting at `start`, in one round trip. Used by the batching
    /// decorator (`topk_lists::source::BatchingSource`) to coalesce
    /// sequential scans; each entry still counts as one access at the
    /// owner.
    SortedBlock {
        /// 1-based position of the first entry to read.
        start: Position,
        /// Maximum number of entries to return (clamped to the list end).
        len: u32,
        /// Whether the owner should record every returned position as
        /// seen (BPA-style bookkeeping, owner-side).
        track: bool,
    },
}

impl Request {
    /// Payload size of the request in scalar units (message headers are not
    /// modelled).
    pub fn payload_units(&self) -> u64 {
        match self {
            Request::SortedAccess { .. } => 1, // position
            Request::RandomAccess { .. } => 1, // item id
            Request::DirectAccessNext => 0,    // no operands
            Request::SortedBlock { .. } => 2,  // start position + length
        }
    }
}

/// A response returned by a list owner.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An entry read under sorted or direct access.
    Entry {
        /// The item at the accessed position.
        item: ItemId,
        /// Its local score.
        score: Score,
        /// The accessed position (present so the originator can implement
        /// BPA's originator-side position bookkeeping; BPA2 ignores it).
        position: Position,
        /// The local score at the owner's best position, included when the
        /// access changed the best position (BPA2 step 3).
        best_position_score: Option<Score>,
    },
    /// The answer to a random access.
    LocalScore {
        /// The item's local score in the owner's list.
        score: Score,
        /// The item's position, included only when the originator asked for
        /// it (BPA).
        position: Option<Position>,
        /// The local score at the owner's best position, included when the
        /// access changed the best position (BPA2 step 3).
        best_position_score: Option<Score>,
    },
    /// The answer to a [`Request::SortedBlock`]: consecutive entries
    /// starting at `start` (possibly fewer than asked when the list ends,
    /// possibly empty when `start` is past the end). Positions are
    /// implicit — `items[j]` sits at position `start + j` — so a block of
    /// `len` entries ships `2·len + 1` scalars where `len` separate
    /// [`Response::Entry`] replies would ship `3·len`.
    Entries {
        /// Position of the first returned entry.
        start: Position,
        /// `(item, local score)` pairs in position order.
        items: Vec<(ItemId, Score)>,
        /// The local score at the owner's best position, included when the
        /// (tracked) block moved the best position.
        best_position_score: Option<Score>,
    },
    /// The requested position does not exist (past the end of the list, or
    /// every position has already been seen for [`Request::DirectAccessNext`]).
    Exhausted,
}

impl Response {
    /// Payload size of the response in scalar units.
    pub fn payload_units(&self) -> u64 {
        match self {
            Response::Entry {
                best_position_score,
                ..
            } => 3 + u64::from(best_position_score.is_some()),
            Response::LocalScore {
                position,
                best_position_score,
                ..
            } => 1 + u64::from(position.is_some()) + u64::from(best_position_score.is_some()),
            Response::Entries {
                items,
                best_position_score,
                ..
            } => 1 + 2 * items.len() as u64 + u64::from(best_position_score.is_some()),
            Response::Exhausted => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(p: usize) -> Position {
        Position::new(p).unwrap()
    }

    #[test]
    fn request_payloads() {
        assert_eq!(
            Request::SortedAccess {
                position: pos(3),
                track: true
            }
            .payload_units(),
            1
        );
        assert_eq!(
            Request::RandomAccess {
                item: ItemId(1),
                with_position: true,
                track: true
            }
            .payload_units(),
            1
        );
        assert_eq!(Request::DirectAccessNext.payload_units(), 0);
        assert_eq!(
            Request::SortedBlock {
                start: pos(1),
                len: 16,
                track: false
            }
            .payload_units(),
            2
        );
    }

    #[test]
    fn a_block_ships_fewer_scalars_than_its_entries_would() {
        let items: Vec<(ItemId, Score)> = (0..8)
            .map(|i| (ItemId(i), Score::from_f64(i as f64)))
            .collect();
        let block = Response::Entries {
            start: pos(1),
            items,
            best_position_score: None,
        };
        // 8 entries: 2·8 + 1 = 17 units against 8 Entry replies at 3 each.
        assert_eq!(block.payload_units(), 17);
        assert!(block.payload_units() < 8 * 3);
        let empty = Response::Entries {
            start: pos(1),
            items: Vec::new(),
            best_position_score: Some(Score::from_f64(1.0)),
        };
        assert_eq!(empty.payload_units(), 2);
    }

    #[test]
    fn response_payload_grows_with_optional_fields() {
        let base = Response::LocalScore {
            score: Score::from_f64(1.0),
            position: None,
            best_position_score: None,
        };
        let with_pos = Response::LocalScore {
            score: Score::from_f64(1.0),
            position: Some(pos(9)),
            best_position_score: None,
        };
        let with_both = Response::LocalScore {
            score: Score::from_f64(1.0),
            position: Some(pos(9)),
            best_position_score: Some(Score::from_f64(0.5)),
        };
        assert_eq!(base.payload_units(), 1);
        assert_eq!(with_pos.payload_units(), 2);
        assert_eq!(with_both.payload_units(), 3);
    }

    #[test]
    fn entry_and_misc_payloads() {
        let entry = Response::Entry {
            item: ItemId(4),
            score: Score::from_f64(2.0),
            position: pos(1),
            best_position_score: None,
        };
        assert_eq!(entry.payload_units(), 3);
        assert_eq!(Response::Exhausted.payload_units(), 0);
    }
}
