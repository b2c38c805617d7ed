//! Naive best-position tracking: the strawman of Section 5.2.

use std::collections::HashSet;

use crate::item::Position;
use crate::tracker::PositionTracker;

/// Maintains the seen positions in a hash set and recomputes the best
/// position by scanning forward from position 1 on every query.
///
/// This is the "simple method" the paper dismisses in Section 5.2: finding
/// the best position costs O(u) per call (O(u²) over the query) because no
/// pointer is maintained between calls. It is kept as a correctness
/// reference and as the baseline of the tracker ablation bench.
#[derive(Debug, Clone, Default)]
pub struct NaiveSetTracker {
    seen: HashSet<usize>,
    n: usize,
}

impl PositionTracker for NaiveSetTracker {
    fn new(n: usize) -> Self {
        NaiveSetTracker {
            seen: HashSet::new(),
            n,
        }
    }

    fn mark_seen(&mut self, position: Position) -> bool {
        let p = position.get();
        assert!(
            p <= self.n,
            "position {p} out of range for list of {} items",
            self.n
        );
        self.seen.insert(p)
    }

    fn best_position(&self) -> Option<Position> {
        let mut bp = 0usize;
        while self.seen.contains(&(bp + 1)) {
            bp += 1;
        }
        Position::new(bp)
    }

    fn is_seen(&self, position: Position) -> bool {
        self.seen.contains(&position.get())
    }

    fn seen_count(&self) -> usize {
        self.seen.len()
    }

    fn capacity(&self) -> usize {
        self.n
    }

    fn clear_resize(&mut self, capacity: usize) {
        self.seen.clear();
        self.n = capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomputes_best_position_on_demand() {
        let mut t = NaiveSetTracker::new(10);
        assert_eq!(t.best_position(), None);
        t.mark_seen(Position::new(2).unwrap());
        t.mark_seen(Position::new(1).unwrap());
        assert_eq!(t.best_position(), Position::new(2));
        t.mark_seen(Position::new(4).unwrap());
        assert_eq!(t.best_position(), Position::new(2));
        t.mark_seen(Position::new(3).unwrap());
        assert_eq!(t.best_position(), Position::new(4));
        assert_eq!(t.seen_count(), 4);
        assert_eq!(t.capacity(), 10);
        assert!(t.is_seen(Position::new(3).unwrap()));
        assert!(!t.is_seen(Position::new(9).unwrap()));
    }

    #[test]
    fn idempotent_marking() {
        let mut t = NaiveSetTracker::new(10);
        assert!(t.mark_seen(Position::new(1).unwrap()));
        assert!(!t.mark_seen(Position::new(1).unwrap()));
        assert_eq!(t.seen_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn marking_out_of_range_panics() {
        let mut t = NaiveSetTracker::new(2);
        t.mark_seen(Position::new(3).unwrap());
    }
}
