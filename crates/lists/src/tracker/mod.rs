//! Best-position tracking (Section 5.2 of the paper).
//!
//! During BPA/BPA2 execution every list owner must know, after each access,
//! the *best position* of its list: the greatest seen position `bp` such
//! that every position in `1..=bp` has been seen (under sorted, random or
//! direct access). The paper proposes three strategies:
//!
//! * a **naive set** scan — O(u²) over the whole query, kept here as the
//!   strawman ([`NaiveSetTracker`]),
//! * a **bit array** of `n` bits with a moving `bp` pointer — O(n) total
//!   advance work ([`BitArrayTracker`], §5.2.1),
//! * a **B+tree** of seen positions whose leaf chain is walked to advance
//!   `bp` — O(log u) per access ([`BPlusTreeTracker`], §5.2.2).
//!
//! All three implement [`PositionTracker`] and are interchangeable from the
//! algorithms' point of view. The access core holds its tracker by value,
//! as a type parameter defaulting to the bit array; a [`TrackerKind`]
//! picked at run time becomes a tracker type only in
//! [`TrackerKind::source`]. `topk-bench` contains an ablation comparing
//! them.

mod bit_array;
mod bptree_tracker;
mod naive;

pub use bit_array::BitArrayTracker;
pub use bptree_tracker::BPlusTreeTracker;
pub use naive::NaiveSetTracker;

use crate::item::Position;
use crate::source::ListSource;
use crate::tracked::{ListStore, TrackedSource};

/// Records the positions of one list that have been seen during query
/// execution and maintains the list's best position.
///
/// Every backend keeps one tracker per list: the access core
/// ([`TrackedSource`]) holds it by value, as a type parameter, whatever
/// the storage format. BPA's originator keeps its own bit-array-style
/// row per list, with the seen score in each slot, instead of a tracker.
pub trait PositionTracker: std::fmt::Debug {
    /// Creates a tracker for a list of `n` items with no position seen.
    fn new(n: usize) -> Self
    where
        Self: Sized;

    /// Marks a position as seen (idempotent). Returns `true` if the
    /// position was newly marked.
    fn mark_seen(&mut self, position: Position) -> bool;

    /// Marks every position in `from..=to` as seen (inclusive; a no-op
    /// when `from > to`). Exactly equivalent to marking each position of
    /// the range individually — implementations may override this with a
    /// bulk fast path, but the resulting tracker state must be identical.
    fn mark_range_seen(&mut self, from: Position, to: Position) {
        let mut position = from;
        while position <= to {
            self.mark_seen(position);
            position = position.next();
        }
    }

    /// The current best position: the greatest position `bp` such that all
    /// positions `1..=bp` have been seen, or `None` when position 1 has not
    /// been seen yet.
    fn best_position(&self) -> Option<Position>;

    /// Whether the given position has been seen.
    fn is_seen(&self, position: Position) -> bool;

    /// Number of distinct positions seen so far.
    fn seen_count(&self) -> usize;

    /// The list size `n` this tracker was created for.
    fn capacity(&self) -> usize;

    /// The smallest position that has **not** been seen yet (`bp + 1`).
    ///
    /// BPA2 drives its direct accesses to this position.
    fn first_unseen(&self) -> Position {
        match self.best_position() {
            None => Position::FIRST,
            Some(bp) => bp.next(),
        }
    }

    /// Resets the tracker to an empty seen-set over a list of `capacity`
    /// items.
    fn clear_resize(&mut self, capacity: usize);
}

/// The available tracker implementations, used to select one at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrackerKind {
    /// Bit array of `n` bits (§5.2.1). Default, as in the paper's own
    /// evaluation ("the best positions are managed using the Bit Array
    /// approach").
    #[default]
    BitArray,
    /// B+tree of seen positions (§5.2.2).
    BPlusTree,
    /// Naive scan over a hash set of seen positions (the strawman of §5.2).
    NaiveSet,
}

impl TrackerKind {
    /// Serves `store` through the access core with a tracker of this
    /// kind. The kind is matched once, here; every access of the returned
    /// source is statically dispatched to that tracker type.
    pub fn source<'a, S: ListStore + 'a>(self, store: S) -> Box<dyn ListSource + 'a> {
        match self {
            TrackerKind::BitArray => Box::new(TrackedSource::new(store)),
            TrackerKind::BPlusTree => {
                Box::new(TrackedSource::<_, BPlusTreeTracker>::from_store(store))
            }
            TrackerKind::NaiveSet => {
                Box::new(TrackedSource::<_, NaiveSetTracker>::from_store(store))
            }
        }
    }

    /// All tracker kinds, for exhaustive tests and ablation benches.
    pub const ALL: [TrackerKind; 3] = [
        TrackerKind::BitArray,
        TrackerKind::BPlusTree,
        TrackerKind::NaiveSet,
    ];
}

#[cfg(test)]
mod tests {
    use std::any::type_name;

    use super::*;

    /// Exercises the common tracker contract against one implementation.
    fn check_contract<T: PositionTracker>() {
        let mut tracker = T::new(10);
        assert_eq!(tracker.best_position(), None);
        assert_eq!(tracker.first_unseen(), Position::FIRST);
        assert_eq!(tracker.seen_count(), 0);
        assert_eq!(tracker.capacity(), 10);

        // Seeing position 3 first does not create a prefix.
        assert!(tracker.mark_seen(Position::new(3).unwrap()));
        assert_eq!(tracker.best_position(), None);
        assert!(tracker.is_seen(Position::new(3).unwrap()));
        assert!(!tracker.is_seen(Position::new(1).unwrap()));

        // Seeing position 1 creates prefix [1..1].
        assert!(tracker.mark_seen(Position::new(1).unwrap()));
        assert_eq!(tracker.best_position(), Position::new(1));
        assert_eq!(tracker.first_unseen(), Position::new(2).unwrap());

        // Seeing position 2 bridges the gap: prefix extends through 3.
        assert!(tracker.mark_seen(Position::new(2).unwrap()));
        assert_eq!(tracker.best_position(), Position::new(3));
        assert_eq!(tracker.first_unseen(), Position::new(4).unwrap());

        // Idempotent marking.
        assert!(!tracker.mark_seen(Position::new(2).unwrap()));
        assert_eq!(tracker.seen_count(), 3);

        // Fill the rest.
        for p in 4..=10 {
            tracker.mark_seen(Position::new(p).unwrap());
        }
        assert_eq!(tracker.best_position(), Position::new(10));
        assert_eq!(tracker.seen_count(), 10);
        // first_unseen past the end of the list is still reported (callers
        // check it against n before issuing the access).
        assert_eq!(tracker.first_unseen(), Position::new(11).unwrap());
    }

    #[test]
    fn all_trackers_satisfy_contract() {
        check_contract::<BitArrayTracker>();
        check_contract::<BPlusTreeTracker>();
        check_contract::<NaiveSetTracker>();
    }

    /// `mark_range_seen` (overridden or default) must leave the tracker in
    /// exactly the state that marking every position individually leaves
    /// it in — the invariant the bulk block-scan path relies on.
    fn check_range_marking<T: PositionTracker>() {
        let name = type_name::<T>();
        let ranges: [(usize, usize); 6] = [(3, 9), (1, 1), (60, 70), (64, 64), (10, 130), (2, 5)];
        let mut bulk = T::new(130);
        let mut one_by_one = T::new(130);
        for &(lo, hi) in &ranges {
            bulk.mark_range_seen(Position::new(lo).unwrap(), Position::new(hi).unwrap());
            for p in lo..=hi {
                one_by_one.mark_seen(Position::new(p).unwrap());
            }
            assert_eq!(
                bulk.best_position(),
                one_by_one.best_position(),
                "{name} after [{lo}, {hi}]"
            );
            assert_eq!(bulk.seen_count(), one_by_one.seen_count(), "{name}");
        }
        for p in 1..=130 {
            let pos = Position::new(p).unwrap();
            assert_eq!(bulk.is_seen(pos), one_by_one.is_seen(pos), "{name} at {p}");
        }
    }

    #[test]
    fn range_marking_matches_individual_marking() {
        check_range_marking::<BitArrayTracker>();
        check_range_marking::<BPlusTreeTracker>();
        check_range_marking::<NaiveSetTracker>();
    }

    fn check_empty_range<T: PositionTracker>() {
        let mut tracker = T::new(16);
        tracker.mark_range_seen(Position::new(5).unwrap(), Position::new(4).unwrap());
        assert_eq!(tracker.seen_count(), 0);
        assert_eq!(tracker.best_position(), None);
    }

    #[test]
    fn empty_range_is_a_no_op() {
        check_empty_range::<BitArrayTracker>();
        check_empty_range::<BPlusTreeTracker>();
        check_empty_range::<NaiveSetTracker>();
    }

    #[test]
    fn default_kind_is_bit_array() {
        assert_eq!(TrackerKind::default(), TrackerKind::BitArray);
    }

    /// Each kind resolves to its own tracker type, and the source it
    /// builds tracks through that type.
    #[test]
    fn each_kind_resolves_to_its_tracker_type() {
        let list = crate::SortedList::from_unsorted(
            (1..=8u64).map(|i| (crate::ItemId(i), i as f64)).collect(),
        )
        .unwrap();
        let names = ["BitArrayTracker", "BPlusTreeTracker", "NaiveSetTracker"];
        for (kind, name) in TrackerKind::ALL.into_iter().zip(names) {
            let mut source = kind.source(&list);
            assert!(format!("{source:?}").contains(name), "{kind:?}");
            source.direct_access_next().unwrap();
            source
                .sorted_access(Position::new(3).unwrap(), true)
                .unwrap();
            source
                .sorted_access(Position::new(2).unwrap(), true)
                .unwrap();
            assert_eq!(source.best_position(), Position::new(3), "{kind:?}");
        }
    }

    #[test]
    fn trackers_agree_on_interleaved_pattern() {
        let mut trackers: Vec<Box<dyn PositionTracker>> = vec![
            Box::new(BitArrayTracker::new(64)),
            Box::new(BPlusTreeTracker::new(64)),
            Box::new(NaiveSetTracker::new(64)),
        ];
        // Mark a scattered pattern: odd positions first, then even.
        for p in (1..=63usize).step_by(2).chain((2..=64usize).step_by(2)) {
            let pos = Position::new(p).unwrap();
            let results: Vec<bool> = trackers.iter_mut().map(|t| t.mark_seen(pos)).collect();
            assert!(results.windows(2).all(|w| w[0] == w[1]));
            let bests: Vec<Option<Position>> = trackers.iter().map(|t| t.best_position()).collect();
            assert!(
                bests.windows(2).all(|w| w[0] == w[1]),
                "trackers disagree after marking {p}: {bests:?}"
            );
        }
        for t in &trackers {
            assert_eq!(t.best_position(), Position::new(64));
        }
    }
}
