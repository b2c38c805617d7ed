//! The disk-backed execution backend: [`PagedSource`], the access core
//! over a [`PagedStore`].
//!
//! The counting, tracking and piggyback rules are the core's
//! ([`TrackedSource`]), the same code every other backend runs, so
//! algorithm runs are bit-identical to the in-memory backend. The store
//! adds only physics: entries are decoded from pages fetched through a
//! deterministic LRU cache, whose hits and misses surface through
//! [`ListSource::cache_counters`](topk_lists::ListSource::cache_counters)
//! and are priced by `topk_core::CostModel::total_cost`.

use std::path::Path;

use topk_lists::source::{CacheCounters, SourceError};
use topk_lists::tracked::{ListStore, TrackedSource};
use topk_lists::{ItemId, Position, PositionedScore, Score};

use crate::cache::{CacheCapacity, PageCache};
use crate::error::StorageError;
use crate::file::{ListMeta, PagedListFile};
use crate::io::{FileIo, PageIo};

/// One paged list file served through the access core.
pub type PagedSource = TrackedSource<PagedStore>;

/// The [`ListStore`] of one paged list file: the file, its LRU page
/// cache, and the error that aborted the current query, if any.
///
/// IO failures during a query follow the fail-stop contract: the error
/// is latched ([`PagedStore::last_error`]) and raised as a
/// [`SourceError`] unwind, which `run_on` converts to a typed `Err`.
/// Resetting the source clears the latch and the cache, so a retry runs
/// from a cold, consistent state.
#[derive(Debug)]
pub struct PagedStore {
    file: PagedListFile,
    cache: PageCache,
    last_error: Option<SourceError>,
}

impl PagedStore {
    /// Opens and fully validates a paged list file with the given cache
    /// capacity, reading the item index's fences (one small read per
    /// item-index page).
    pub fn open(path: &Path, capacity: CacheCapacity) -> Result<PagedStore, StorageError> {
        Self::from_io(Box::new(FileIo::open(path)?), capacity)
    }

    /// Builds and fully validates a store over any [`PageIo`] — the seam
    /// the fault tests inject failing doubles through.
    pub(crate) fn from_io(
        io: Box<dyn PageIo>,
        capacity: CacheCapacity,
    ) -> Result<PagedStore, StorageError> {
        Ok(Self::from_file(PagedListFile::open(io)?, capacity))
    }

    /// Serves a file another open already validated: builds the store
    /// with a cold cache and no system call.
    pub(crate) fn with_meta(io: Box<dyn PageIo>, meta: ListMeta, capacity: CacheCapacity) -> Self {
        Self::from_file(PagedListFile::with_meta(io, meta), capacity)
    }

    fn from_file(file: PagedListFile, capacity: CacheCapacity) -> PagedStore {
        PagedStore {
            file,
            cache: PageCache::new(capacity),
            last_error: None,
        }
    }

    /// The IO or corruption failure that aborted the current query, if
    /// any. Cleared when the source resets.
    pub fn last_error(&self) -> Option<&SourceError> {
        self.last_error.as_ref()
    }

    /// Latches `err` and raises the fail-stop unwind (see
    /// [`SourceError::raise`]).
    fn raise(&mut self, op: &str, err: StorageError) -> ! {
        let error = SourceError::new(op, err.to_string());
        self.last_error = Some(error.clone());
        error.raise()
    }

    /// Reads the entry at `position` through the cache, or `None` past
    /// the end of the list.
    fn read(&mut self, position: Position, op: &str) -> Option<(ItemId, Score)> {
        if position.get() > self.file.len() {
            return None;
        }
        match self.file.entry(position.index(), &mut self.cache) {
            Ok(entry) => Some(entry),
            Err(err) => self.raise(op, err),
        }
    }
}

impl ListStore for PagedStore {
    fn len(&self) -> usize {
        self.file.len()
    }

    fn entry(&mut self, position: Position) -> Option<(ItemId, Score)> {
        self.read(position, "entry read")
    }

    fn lookup(&mut self, item: ItemId) -> Option<PositionedScore> {
        match self.file.lookup(item, &mut self.cache) {
            Ok(found) => found,
            Err(err) => self.raise("random access", err),
        }
    }

    fn score_at(&mut self, position: Position) -> Option<Score> {
        self.read(position, "best-position read")
            .map(|(_, score)| score)
    }

    fn tail_score(&self) -> Score {
        self.file.tail_score()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    fn reset(&mut self) {
        self.cache.clear();
        self.last_error = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;
    use crate::layout::PageLayout;
    use crate::writer::encode_list;
    use topk_lists::source::ListSource;
    use topk_lists::{ItemId, Position, SortedList};

    fn list() -> SortedList {
        SortedList::from_unsorted(
            (1..=12u64)
                .map(|i| (ItemId(i), ((i * 5) % 17) as f64))
                .collect(),
        )
        .unwrap()
    }

    fn paged(page_size: usize, capacity: CacheCapacity) -> PagedSource {
        let image = encode_list(&list(), PageLayout::with_page_size(page_size));
        PagedSource::new(PagedStore::from_io(Box::new(MemIo::new(image)), capacity).unwrap())
    }

    #[test]
    fn cache_counters_are_deterministic_and_reset_to_cold() {
        let script = |source: &mut PagedSource| {
            for pos in [1usize, 5, 9, 1, 12, 3] {
                source.sorted_access(Position::new(pos).unwrap(), false);
            }
            source.random_access(ItemId(7), true, false);
            source.cache_counters()
        };
        let first = script(&mut paged(64, CacheCapacity::Pages(2)));
        let second = script(&mut paged(64, CacheCapacity::Pages(2)));
        assert_eq!(first, second, "same script, same cache traffic");
        assert!(first.misses > 0, "a 2-page cache cannot hold the file");

        // After a reset the same script sees the same cold-cache traffic.
        let mut source = paged(64, CacheCapacity::Pages(2));
        let warm = script(&mut source);
        source.reset();
        assert_eq!(script(&mut source), warm);
    }

    #[test]
    fn smaller_caches_never_miss_less() {
        // The LRU inclusion property on a fixed access script.
        let script = |source: &mut PagedSource| {
            for pos in (1..=12usize).chain([1, 2, 3]) {
                source.sorted_access(Position::new(pos).unwrap(), false);
            }
            for item in [3u64, 9, 11] {
                source.random_access(ItemId(item), false, false);
            }
            source.cache_counters().misses
        };
        let tight = script(&mut paged(64, CacheCapacity::Pages(1)));
        let small = script(&mut paged(64, CacheCapacity::Pages(2)));
        let unbounded = script(&mut paged(64, CacheCapacity::Unbounded));
        assert!(unbounded <= small && small <= tight);
        assert!(unbounded > 0, "even the unbounded cache faults pages in");
    }
}
