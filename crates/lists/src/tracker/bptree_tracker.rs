//! B+tree best-position tracking (Section 5.2.2).

use crate::bptree::BPlusTree;
use crate::item::Position;
use crate::tracker::PositionTracker;

/// Tracks seen positions in a [`BPlusTree`] and advances the best position
/// by walking successive keys of the leaf chain, following Section 5.2.2:
///
/// ```text
/// while (bp.next ≠ null) and (bp.next.element = bp.element + 1) do
///     bp := bp.next;
/// ```
///
/// Each access costs O(log u) for the insertion; the advance loop performs
/// at most `u` steps over the whole query. Space is O(u) — proportional to
/// the number of *seen* positions rather than the list size `n`, which is
/// the point of this variant when `n ≫ u`.
///
/// Implementation note: the paper keeps `bp` as a pointer into the leaf
/// chain. Our arena-based B+tree invalidates cursors on splits, so the
/// tracker stores the best position *value* and advances it with
/// [`BPlusTree::successor`] probes; the asymptotic costs are unchanged
/// (O(log u) per advance step instead of O(1), dominated by the O(log u)
/// insertion either way).
#[derive(Debug, Clone)]
pub struct BPlusTreeTracker {
    seen: BPlusTree,
    n: usize,
    /// Best position value; 0 = none.
    bp: u64,
}

impl BPlusTreeTracker {
    /// Creates a tracker for a list of `n` items with no position seen.
    pub fn new(n: usize) -> Self {
        BPlusTreeTracker {
            seen: BPlusTree::new(),
            n,
            bp: 0,
        }
    }

    /// Read-only view of the underlying B+tree (used by tests and the
    /// tracker ablation bench).
    pub fn tree(&self) -> &BPlusTree {
        &self.seen
    }
}

impl PositionTracker for BPlusTreeTracker {
    fn mark_seen(&mut self, position: Position) -> bool {
        let p = position.get();
        assert!(
            p <= self.n,
            "position {p} out of range for list of {} items",
            self.n
        );
        let newly = self.seen.insert(p as u64);
        while self.seen.successor(self.bp + 1) == Some(self.bp + 1) {
            self.bp += 1;
        }
        newly
    }

    fn best_position(&self) -> Option<Position> {
        Position::new(self.bp as usize)
    }

    fn is_seen(&self, position: Position) -> bool {
        self.seen.contains(position.get() as u64)
    }

    fn seen_count(&self) -> usize {
        self.seen.len()
    }

    fn capacity(&self) -> usize {
        self.n
    }

    fn clear_resize(&mut self, capacity: usize) {
        self.seen = BPlusTree::new();
        self.n = capacity;
        self.bp = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let t = BPlusTreeTracker::new(50);
        assert_eq!(t.best_position(), None);
        assert_eq!(t.seen_count(), 0);
        assert_eq!(t.capacity(), 50);
    }

    #[test]
    fn advances_over_contiguous_prefix() {
        let mut t = BPlusTreeTracker::new(50);
        t.mark_seen(Position::new(2).unwrap());
        t.mark_seen(Position::new(3).unwrap());
        assert_eq!(t.best_position(), None);
        t.mark_seen(Position::new(1).unwrap());
        assert_eq!(t.best_position(), Position::new(3));
    }

    #[test]
    fn space_tracks_seen_not_capacity() {
        let mut t = BPlusTreeTracker::new(1_000_000);
        t.mark_seen(Position::new(999_999).unwrap());
        t.mark_seen(Position::new(1).unwrap());
        assert_eq!(t.tree().len(), 2);
        assert_eq!(t.best_position(), Position::new(1));
    }

    #[test]
    fn idempotent_marking() {
        let mut t = BPlusTreeTracker::new(10);
        assert!(t.mark_seen(Position::new(4).unwrap()));
        assert!(!t.mark_seen(Position::new(4).unwrap()));
        assert_eq!(t.seen_count(), 1);
        assert!(t.is_seen(Position::new(4).unwrap()));
        assert!(!t.is_seen(Position::new(5).unwrap()));
    }

    #[test]
    fn large_backfill_pattern() {
        // Mark every position except 1, then mark 1 and check bp jumps to n.
        let n = 3000;
        let mut t = BPlusTreeTracker::new(n);
        for p in 2..=n {
            t.mark_seen(Position::new(p).unwrap());
        }
        assert_eq!(t.best_position(), None);
        t.mark_seen(Position::new(1).unwrap());
        assert_eq!(t.best_position(), Position::new(n));
        t.tree().check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn marking_out_of_range_panics() {
        let mut t = BPlusTreeTracker::new(4);
        t.mark_seen(Position::new(5).unwrap());
    }
}
