//! The access core: the paper's counted, tracked list access, written
//! once for every backend.
//!
//! TA, BPA and BPA2 are defined over three access modes plus per-list
//! best-position bookkeeping (Sections 2, 5.1 and 5.2). [`TrackedSource`]
//! implements [`ListSource`] once with all of those rules:
//!
//! * **Counting.** A sorted access is counted even past the end of the
//!   list, a random access even when the item is absent, and a direct
//!   access only when it reads a position. A block counts its in-bounds
//!   reads.
//! * **Tracking.** A tracked access marks its position seen in the
//!   source's [`PositionTracker`]; when the best position moves, the score
//!   there rides back on the reply (the piggyback of §5.1, step 3). A
//!   tracked block marks its range with one bulk update and piggybacks
//!   once, on its last entry.
//! * **Direct access** reads the smallest unseen position `bp + 1`.
//! * **Reset** clears the counters and the tracker in place.
//!
//! A [`ListStore`] hides only the storage format: how an entry, an item
//! or a block is read. The backends are stores:
//!
//! * `&SortedList` and `Arc<SortedList>` — in memory ([`InMemorySource`]),
//!   and the list owners of `topk-distributed`;
//! * [`ShardedStore`](crate::sharded::ShardedStore) — a shared list read
//!   in position-range shards whose block reads fan out on a thread pool;
//! * `topk_storage::PagedStore` — a paged file read through an LRU page
//!   cache.
//!
//! The core is generic over its store and its tracker, so every access is
//! statically dispatched to the store's read and the tracker's update. The
//! tracker is held by value and defaults to the paper's bit array
//! ([`BitArrayTracker`], §5.2.1);
//! [`TrackerKind::source`](crate::tracker::TrackerKind::source) is the one
//! place a tracker kind chosen at run time becomes a tracker type. The bit
//! array allocates its words on the first tracked access, so opening or
//! resetting a source costs no tracker memory until something is marked:
//! TA, BPA and a cache-hit standing serve never pay for it.
//!
//! ```
//! use topk_lists::prelude::*;
//! use topk_lists::tracked::TrackedSource;
//!
//! let list = SortedList::from_unsorted(vec![(ItemId(1), 0.9), (ItemId(2), 0.4)]).unwrap();
//! let mut source = TrackedSource::new(&list);
//! // Seeing position 1 sets the best position, and its score rides back.
//! let entry = source.sorted_access(Position::FIRST, true).unwrap();
//! assert_eq!(entry.best_position_score, Some(Score::new(0.9).unwrap()));
//! assert_eq!(source.best_position(), Some(Position::FIRST));
//! ```

use std::ops::Deref;

use crate::access::AccessCounters;
use crate::item::{ItemId, Position, Score};
use crate::sorted_list::{PositionedScore, SortedList};
use crate::source::{CacheCounters, ListSource, SourceEntry, SourceScore};
use crate::tracker::{BitArrayTracker, PositionTracker};

/// The storage format behind a [`TrackedSource`]: raw, uncounted reads of
/// one sorted list. Counting and tracking are the core's business.
pub trait ListStore: std::fmt::Debug {
    /// Number of entries in the list (`n`).
    fn len(&self) -> usize;

    /// Whether the list is empty (never true for validated lists).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at `position`, or `None` past the end of the list.
    fn entry(&mut self, position: Position) -> Option<(ItemId, Score)>;

    /// The position and score of `item`, or `None` when it is absent.
    fn lookup(&mut self, item: ItemId) -> Option<PositionedScore>;

    /// The score at `position`, or `None` past the end: the read behind
    /// the best-position piggyback.
    fn score_at(&mut self, position: Position) -> Option<Score>;

    /// The entries at `first..=last`, both within the list, in position
    /// order and with no piggyback. The default reads one entry at a
    /// time; stores that can read a run at once override it.
    fn read_block(&mut self, first: Position, last: Position) -> Vec<SourceEntry> {
        let mut entries = Vec::with_capacity(last.get() + 1 - first.get());
        let mut position = first;
        while position <= last {
            let Some((item, score)) = self.entry(position) else {
                break;
            };
            entries.push(SourceEntry {
                position,
                item,
                score,
                best_position_score: None,
            });
            position = position.next();
        }
        entries
    }

    /// The score of the list's last entry (catalog metadata).
    fn tail_score(&self) -> Score;

    /// The list's mutation epoch (see [`ListSource::epoch`]).
    fn epoch(&self) -> u64 {
        0
    }

    /// Page-cache statistics (see [`ListSource::cache_counters`]).
    fn cache_counters(&self) -> CacheCounters {
        CacheCounters::default()
    }

    /// Drops per-query store state (cached pages, a latched error) when
    /// the source resets.
    fn reset(&mut self) {}
}

/// An in-memory list, borrowed or shared: reads go straight to the
/// [`SortedList`], and a block is one slice walk.
impl<L> ListStore for L
where
    L: Deref<Target = SortedList> + std::fmt::Debug,
{
    fn len(&self) -> usize {
        SortedList::len(self)
    }

    fn entry(&mut self, position: Position) -> Option<(ItemId, Score)> {
        self.entry_at(position)
            .map(|entry| (entry.item, entry.score))
    }

    fn lookup(&mut self, item: ItemId) -> Option<PositionedScore> {
        SortedList::lookup(self, item)
    }

    fn score_at(&mut self, position: Position) -> Option<Score> {
        SortedList::score_at(self, position)
    }

    fn read_block(&mut self, first: Position, last: Position) -> Vec<SourceEntry> {
        self.slice_at(first, last.get() + 1 - first.get())
            .iter()
            .enumerate()
            .map(|(offset, &(item, score))| SourceEntry {
                position: Position::from_index(first.index() + offset),
                item,
                score,
                best_position_score: None,
            })
            .collect()
    }

    fn tail_score(&self) -> Score {
        self.last_entry().score
    }

    fn epoch(&self) -> u64 {
        SortedList::epoch(self)
    }
}

/// The in-memory backend: the access core over one borrowed
/// [`SortedList`].
pub type InMemorySource<'a> = TrackedSource<&'a SortedList>;

/// One list served through the paper's access modes: a [`ListStore`]
/// plus per-mode [`AccessCounters`] and a source-side
/// [`PositionTracker`] of type `T`. See the [module docs](self) for the
/// rules.
#[derive(Debug)]
pub struct TrackedSource<S, T = BitArrayTracker> {
    store: S,
    tracker: T,
    counters: AccessCounters,
}

impl<S: ListStore> TrackedSource<S> {
    /// Serves `store` with the bit-array tracker.
    pub fn new(store: S) -> Self {
        Self::from_store(store)
    }
}

impl<S: ListStore, T: PositionTracker> TrackedSource<S, T> {
    /// Serves `store` with a tracker of type `T`, named by the caller:
    /// `TrackedSource::<_, BPlusTreeTracker>::from_store(store)`.
    pub fn from_store(store: S) -> Self {
        TrackedSource {
            tracker: T::new(store.len()),
            store,
            counters: AccessCounters::default(),
        }
    }

    /// The store behind this source.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Marks a position seen; if the best position moved, returns the
    /// score at the new best position (the piggyback of §5.1).
    fn mark_and_report(&mut self, position: Position) -> Option<Score> {
        let before = self.tracker.best_position();
        self.tracker.mark_seen(position);
        self.report_move(before)
    }

    /// The score at the best position when it differs from `before`.
    fn report_move(&mut self, before: Option<Position>) -> Option<Score> {
        let after = self.tracker.best_position();
        if after != before {
            after.and_then(|bp| self.store.score_at(bp))
        } else {
            None
        }
    }
}

impl<S: ListStore, T: PositionTracker> ListSource for TrackedSource<S, T> {
    fn len(&self) -> usize {
        self.store.len()
    }

    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        self.counters.sorted += 1; // counted even past the end
        let (item, score) = self.store.entry(position)?;
        let best_position_score = if track {
            self.mark_and_report(position)
        } else {
            None
        };
        Some(SourceEntry {
            position,
            item,
            score,
            best_position_score,
        })
    }

    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        self.counters.random += 1; // counted even when the item is absent
        let ps = self.store.lookup(item)?;
        let best_position_score = if track {
            self.mark_and_report(ps.position)
        } else {
            None
        };
        Some(SourceScore {
            score: ps.score,
            position: with_position.then_some(ps.position),
            best_position_score,
        })
    }

    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        // Past the end every position has been seen: no read, no count.
        let position = self.tracker.first_unseen();
        let (item, score) = self.store.entry(position)?;
        self.counters.direct += 1;
        let best_position_score = self.mark_and_report(position);
        Some(SourceEntry {
            position,
            item,
            score,
            best_position_score,
        })
    }

    fn sorted_block(&mut self, start: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        let end = self
            .store
            .len()
            .min(start.get().saturating_add(len).saturating_sub(1));
        let Some(last) = Position::new(end).filter(|&last| last >= start) else {
            return Vec::new(); // nothing in bounds: nothing read, nothing counted
        };
        let mut entries = self.store.read_block(start, last);
        self.counters.sorted += entries.len() as u64;
        if track {
            // One bulk mark; the score at the best position after the
            // block rides on its last entry only.
            let before = self.tracker.best_position();
            self.tracker.mark_range_seen(start, last);
            let piggyback = self.report_move(before);
            if let Some(entry) = entries.last_mut() {
                entry.best_position_score = piggyback;
            }
        }
        entries
    }

    fn best_position(&self) -> Option<Position> {
        self.tracker.best_position()
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    fn tail_score(&self) -> Score {
        self.store.tail_score()
    }

    fn counters(&self) -> AccessCounters {
        self.counters
    }

    fn cache_counters(&self) -> CacheCounters {
        self.store.cache_counters()
    }

    fn reset(&mut self) {
        self.counters = AccessCounters::default();
        self.tracker.clear_resize(self.store.len());
        self.store.reset();
    }
}
