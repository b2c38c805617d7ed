//! The paper's access modes and their counters.
//!
//! The paper's cost model (Section 2) charges each algorithm per *sorted
//! access* (read the next entry of a list in score order) and per *random
//! access* (look up a given item in a list); BPA2 adds *direct access*
//! (read the entry at a given position, Section 5.1). Every
//! [`ListSource`](crate::source::ListSource) backend increments per-list
//! [`AccessCounters`] on each of those calls. Algorithms in `topk-core`
//! only touch list data through sources, so the reported counts are
//! exactly the accesses performed.

/// The three access modes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Sequential access to the next entry in descending score order (§2).
    Sorted,
    /// Lookup of a given data item in a list (§2).
    Random,
    /// Read of the entry at a given position (§5.1, used by BPA2).
    Direct,
}

/// Counts of accesses performed against one list (or aggregated over a
/// whole database).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Number of sorted accesses.
    pub sorted: u64,
    /// Number of random accesses.
    pub random: u64,
    /// Number of direct accesses.
    pub direct: u64,
}

impl topk_trace::MetricSource for AccessCounters {
    fn record_metrics(&self, registry: &mut topk_trace::MetricsRegistry) {
        registry.counter_add("access.sorted", self.sorted);
        registry.counter_add("access.random", self.random);
        registry.counter_add("access.direct", self.direct);
    }
}

impl AccessCounters {
    /// Total number of accesses of any mode.
    #[inline]
    pub fn total(&self) -> u64 {
        self.sorted + self.random + self.direct
    }

    /// Component-wise sum of two counter sets.
    #[inline]
    pub fn combined(&self, other: &AccessCounters) -> AccessCounters {
        AccessCounters {
            sorted: self.sorted + other.sorted,
            random: self.random + other.random,
            direct: self.direct + other.direct,
        }
    }

    /// Count for one specific mode.
    #[inline]
    pub fn of(&self, mode: AccessMode) -> u64 {
        match mode {
            AccessMode::Sorted => self.sorted,
            AccessMode::Random => self.random,
            AccessMode::Direct => self.direct,
        }
    }
}

/// The counting contract, checked on the in-memory backend.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::item::{ItemId, Position};
    use crate::source::{InMemorySource, ListSource};

    fn db() -> Database {
        Database::from_unsorted_lists(vec![
            vec![(1, 30.0), (2, 11.0), (3, 26.0)],
            vec![(1, 21.0), (2, 28.0), (3, 14.0)],
        ])
        .unwrap()
    }

    #[test]
    fn counters_start_at_zero() {
        let db = db();
        let l0 = InMemorySource::new(db.list(0).unwrap());
        assert_eq!(l0.counters(), AccessCounters::default());
        assert_eq!(l0.len(), 3);
    }

    #[test]
    fn sorted_access_counts_and_reads() {
        let db = db();
        let mut l0 = InMemorySource::new(db.list(0).unwrap());
        let e = l0.sorted_access(Position::FIRST, false).unwrap();
        assert_eq!(e.item, ItemId(1));
        assert_eq!(l0.counters().sorted, 1);
        // Past-the-end sorted access is counted but returns None.
        assert!(l0.sorted_access(Position::new(9).unwrap(), false).is_none());
        assert_eq!(l0.counters().sorted, 2);
    }

    #[test]
    fn random_access_counts_and_returns_position() {
        let db = db();
        let mut l1 = InMemorySource::new(db.list(1).unwrap());
        let ps = l1.random_access(ItemId(3), true, false).unwrap();
        assert_eq!(ps.position.unwrap().get(), 3);
        assert_eq!(ps.score.value(), 14.0);
        assert_eq!(l1.counters().random, 1);
        assert!(l1.random_access(ItemId(42), true, false).is_none());
        assert_eq!(l1.counters().random, 2);
    }

    #[test]
    fn direct_access_counts_separately() {
        let db = db();
        let mut l0 = InMemorySource::new(db.list(0).unwrap());
        l0.direct_access_next().unwrap();
        let c = l0.counters();
        assert_eq!((c.sorted, c.random, c.direct, c.total()), (0, 0, 1, 1));
        assert_eq!(c.of(AccessMode::Direct), 1);
        assert_eq!(c.of(AccessMode::Sorted), 0);
        assert_eq!(c.of(AccessMode::Random), 0);
    }

    #[test]
    fn counters_reset_for_a_fresh_query() {
        let db = db();
        let mut l0 = InMemorySource::new(db.list(0).unwrap());
        l0.sorted_access(Position::FIRST, false);
        l0.random_access(ItemId(1), false, false);
        assert_eq!(l0.counters().total(), 2);
        l0.reset();
        assert_eq!(l0.counters(), AccessCounters::default());
    }

    #[test]
    fn combined_adds_componentwise() {
        let a = AccessCounters {
            sorted: 1,
            random: 2,
            direct: 3,
        };
        let b = AccessCounters {
            sorted: 10,
            random: 20,
            direct: 30,
        };
        assert_eq!(
            a.combined(&b),
            AccessCounters {
                sorted: 11,
                random: 22,
                direct: 33
            }
        );
    }

    #[test]
    fn raw_bypasses_counting() {
        // Catalog reads (length, tail score, epoch, best position) are
        // not list accesses.
        let db = db();
        let l0 = InMemorySource::new(db.list(0).unwrap());
        assert_eq!(l0.tail_score().value(), 11.0);
        assert_eq!(l0.epoch(), 0);
        assert_eq!(l0.best_position(), None);
        assert!(!l0.is_empty());
        assert_eq!(l0.len(), 3);
        assert_eq!(l0.counters().total(), 0);
    }
}
