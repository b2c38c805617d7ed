//! The sharded storage backend: range-partitioned sorted lists scanned in
//! parallel on a shared work-stealing pool.
//!
//! A [`ShardedList`] splits one sorted list into **contiguous
//! position-range shards** — shard `s` physically owns the entries at
//! positions `start(s) ..= end(s)` plus a shard-local best-position
//! tracker — so block fetches and scans parallelise across shards while
//! the *logical* access semantics of [`ListSource`] stay untouched:
//!
//! * [`ShardedSource::sorted_block`] partitions the requested range by
//!   shard and dispatches one scan job per shard onto the shared
//!   [`ThreadPool`]; results are merged **in shard order** and tracker
//!   state is combined deterministically, so entries, per-mode access
//!   counters and the block-level best-score piggyback are bit-identical
//!   to [`InMemorySource`](crate::source::InMemorySource) — independent
//!   of shard count and pool width.
//! * Single-position accesses (`sorted_access`, `random_access`,
//!   `direct_access_next`) route to the owning shard directly: a one-entry
//!   lookup has nothing to parallelise, and keeping it on the calling
//!   thread preserves the exact per-access counting contract.
//! * The list-level best position is the merge of the per-shard trackers:
//!   walk the shards in range order while each is completely seen, and
//!   stop inside the first shard with a gap (the longest seen prefix of
//!   the whole list). The merge is cached and advanced incrementally
//!   after every mark, so reads and tracked accesses stay O(1) amortized
//!   regardless of the shard count.
//!
//! [`ShardedDatabase`] holds one `Arc<ShardedList>` per list; cloning the
//! `Arc`s into per-query [`ShardedSource`]s is cheap, so any number of
//! concurrent queries (see `topk_core::batch::QueryBatch`) share one
//! physical copy of the data and one pool.
//!
//! ```
//! use topk_lists::prelude::*;
//! use topk_lists::sharded::ShardedDatabase;
//! use topk_pool::ThreadPool;
//!
//! let db = Database::from_unsorted_lists(vec![
//!     vec![(1, 30.0), (2, 11.0), (3, 26.0), (4, 19.0)],
//!     vec![(1, 21.0), (2, 28.0), (3, 14.0), (4, 17.0)],
//! ])
//! .unwrap();
//!
//! let pool = ThreadPool::new(2);
//! let sharded = ShardedDatabase::new(&db, 2); // 2 shards per list
//! let mut sources = sharded.sources(&pool);   // a plain SourceSet
//!
//! // A block scan spanning both shards of list 0, served in parallel.
//! let block = sources.source(0).sorted_block(Position::FIRST, 4, false);
//! assert_eq!(block.len(), 4);
//! assert_eq!(sources.total_counters().sorted, 4);
//! ```

use std::sync::Arc;

use topk_pool::ThreadPool;

use crate::access::AccessCounters;
use crate::database::Database;
use crate::error::ListError;
use crate::item::{ItemId, Position, Score};
use crate::item_index::ItemIndex;
use crate::sorted_list::{ScoreUpdate, SortedList};
use crate::source::{ListSource, SourceEntry, SourceScore, Sources};
use crate::tracker::{PositionTracker, TrackerKind};

/// One contiguous position range of a sharded list, physically owning its
/// entries.
#[derive(Debug, Clone)]
struct ShardSpan {
    /// 1-based position of the shard's first entry in the whole list.
    start: usize,
    /// Entries in list order; index `j` holds position `start + j`.
    entries: Vec<(ItemId, Score)>,
}

impl ShardSpan {
    /// 1-based position of the shard's last entry.
    fn end(&self) -> usize {
        self.start + self.entries.len() - 1
    }
}

/// A sorted list split into contiguous position-range shards.
///
/// All per-query state (trackers, counters) lives in [`ShardedSource`], so
/// one `Arc<ShardedList>` serves any number of concurrent queries. The
/// list itself is updatable — [`ShardedList::update_score`],
/// [`ShardedList::insert`], [`ShardedList::delete`] route each mutation to
/// the owning shard and repair the cached merged position index in place —
/// but mutation requires `&mut`, so live query views are **snapshot
/// isolated**: `ShardedDatabase` mutates through `Arc::make_mut`, which
/// clones the list if any open view still shares it, and open views keep
/// serving their pre-mutation snapshot until reopened. The monotone
/// [`ShardedList::epoch`] tells observers which snapshot they hold.
#[derive(Debug, Clone)]
pub struct ShardedList {
    shards: Vec<ShardSpan>,
    /// Item → 0-based global index (position − 1) and score: the cached
    /// merge of the per-shard spans (random access stays O(1) and reads
    /// no shard), the same index type as `SortedList`'s. Repaired in
    /// place on mutation.
    index: ItemIndex,
    n: usize,
    /// Monotone mutation counter: 0 at construction, +1 per mutation.
    epoch: u64,
}

impl ShardedList {
    /// Splits `list` into `num_shards` contiguous position ranges of
    /// near-equal size (the first `n % num_shards` shards hold one extra
    /// entry). `num_shards` is clamped to `1..=n`.
    pub fn from_list(list: &SortedList, num_shards: usize) -> Self {
        let n = list.len();
        let shards = num_shards.clamp(1, n);
        let base = n / shards;
        let extra = n % shards;

        let mut spans = Vec::with_capacity(shards);
        let mut entries_iter = list.iter();
        let mut start = 1usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            let entries: Vec<(ItemId, Score)> = entries_iter
                .by_ref()
                .take(len)
                .map(|e| (e.item, e.score))
                .collect();
            spans.push(ShardSpan { start, entries });
            start += len;
        }

        ShardedList {
            shards: spans,
            index: list.index().clone(),
            n,
            epoch: 0,
        }
    }

    /// Monotone mutation counter (see `SortedList::epoch`).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of entries in the whole list (`n`).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the list is empty (never true: sharding takes a validated
    /// non-empty [`SortedList`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards the list is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard owning the 1-based position `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is zero or past the end of the list.
    fn shard_of(&self, p: usize) -> usize {
        debug_assert!(p >= 1 && p <= self.n, "position {p} out of 1..={}", self.n);
        self.shards.partition_point(|span| span.start <= p) - 1
    }

    /// The entry at a 1-based position, or `None` past the end.
    fn entry(&self, p: usize) -> Option<(ItemId, Score)> {
        if p == 0 || p > self.n {
            return None;
        }
        let span = &self.shards[self.shard_of(p)];
        Some(span.entries[p - span.start])
    }

    /// The score at a 1-based position, or `None` past the end.
    fn score_at(&self, p: usize) -> Option<Score> {
        self.entry(p).map(|(_, score)| score)
    }

    /// An item's 1-based position and score, or `None` if absent.
    fn lookup(&self, item: ItemId) -> Option<(usize, Score)> {
        let (i, score) = self.index.lookup(item)?;
        Some((i + 1, score))
    }

    /// The score of the list's last entry (catalog metadata).
    fn tail_score(&self) -> Score {
        let last = self.shards.last().expect("a sharded list has >= 1 shard");
        last.entries.last().expect("every shard holds >= 1 entry").1
    }

    /// Changes an item's local score, moving its entry between shards if
    /// needed: the mutation is routed to the owning shards and the cached
    /// merged position index is repaired in place over the rotated range
    /// only.
    ///
    /// Placement follows `SortedList::update_score` exactly — the same
    /// input sequence leaves sharded and unsharded lists with identical
    /// position-for-position content, which the cross-backend tests pin.
    ///
    /// # Errors
    ///
    /// Returns an error if the item is not present or the score is NaN.
    pub fn update_score(&mut self, item: ItemId, score: f64) -> Result<ScoreUpdate, ListError> {
        let new_score = Score::new(score)?;
        let p_old = self.index.get(item).ok_or(ListError::UnknownItem(item))? + 1;
        let (_, old_score) = self.remove_global(p_old);
        let p_new = self.insertion_position(item, new_score);
        self.insert_global(p_new, item, new_score);
        self.repair_index_range(p_old.min(p_new), p_old.max(p_new));
        self.index.set_score(item, new_score);
        self.epoch += 1;
        self.debug_assert_consistent();
        Ok(ScoreUpdate {
            item,
            old_score,
            new_score,
            old_position: Position::from_index(p_old - 1),
            new_position: Position::from_index(p_new - 1),
            epoch: self.epoch,
        })
    }

    /// Inserts a new item at the position its score sorts to (same
    /// placement rule as `SortedList::insert`), growing the owning shard.
    ///
    /// # Errors
    ///
    /// Returns an error if the score is NaN or the item is already present.
    pub fn insert(&mut self, item: ItemId, score: f64) -> Result<(), ListError> {
        let score = Score::new(score)?;
        if self.index.contains(item) {
            return Err(ListError::DuplicateItem(item));
        }
        let p = self.insertion_position(item, score);
        self.insert_global(p, item, score);
        self.repair_index_range(p + 1, self.n);
        self.index.insert(item, p - 1, score);
        self.epoch += 1;
        self.debug_assert_consistent();
        Ok(())
    }

    /// Deletes an item, shrinking the owning shard (an emptied shard is
    /// dropped from the layout).
    ///
    /// # Errors
    ///
    /// Returns an error if the item is not present or is the last entry.
    pub fn delete(&mut self, item: ItemId) -> Result<(), ListError> {
        let p = self.index.get(item).ok_or(ListError::UnknownItem(item))? + 1;
        if self.n == 1 {
            return Err(ListError::EmptyList);
        }
        self.remove_global(p);
        self.index.remove(item);
        self.repair_index_range(p, self.n);
        self.epoch += 1;
        self.debug_assert_consistent();
        Ok(())
    }

    /// The 1-based position a fresh `(item, score)` entry sorts to,
    /// mirroring `SortedList::insertion_index`: after all strictly greater
    /// scores, then after equal scores with smaller item ids.
    fn insertion_position(&self, item: ItemId, score: Score) -> usize {
        // Transiently empty while `update_score` holds the removed entry.
        if self.n == 0 {
            return 1;
        }
        let mut p = self.n + 1;
        for span in &self.shards {
            let Some(tail) = span.entries.last() else {
                continue; // transiently emptied single shard
            };
            if tail.1 > score {
                continue; // the whole shard sorts before the new entry
            }
            let local = span.entries.partition_point(|&(_, s)| s > score);
            p = span.start + local;
            break;
        }
        while p <= self.n {
            let (other, s) = self.entry(p).expect("p <= n");
            if s == score && other < item {
                p += 1;
            } else {
                break;
            }
        }
        p
    }

    /// Removes the entry at global position `p` from its owning shard,
    /// shifting the start of every later shard down by one. Does **not**
    /// touch the item index; callers repair it range-wise.
    fn remove_global(&mut self, p: usize) -> (ItemId, Score) {
        let shard = self.shard_of(p);
        let removed = {
            let span = &mut self.shards[shard];
            span.entries.remove(p - span.start)
        };
        if self.shards[shard].entries.is_empty() && self.shards.len() > 1 {
            self.shards.remove(shard);
        }
        let from = if shard < self.shards.len()
            && self.shards[shard].start <= p
            && !self.shards[shard].entries.is_empty()
        {
            shard + 1
        } else {
            shard
        };
        let from = from.min(self.shards.len());
        for span in &mut self.shards[from..] {
            if span.start > p {
                span.start -= 1;
            }
        }
        self.n -= 1;
        removed
    }

    /// Splices an entry in at global position `p` (`1..=n+1`), growing the
    /// shard owning that position (the last shard for an append), and
    /// shifting the start of every later shard up by one. Does **not**
    /// touch the item index; callers repair it range-wise.
    fn insert_global(&mut self, p: usize, item: ItemId, score: Score) {
        if self.n == 0 {
            // Transiently empty (`update_score` of the only entry): the one
            // remaining shard takes the entry back.
            debug_assert_eq!(p, 1);
            self.shards[0].start = 1;
            self.shards[0].entries.push((item, score));
            self.n = 1;
            return;
        }
        let shard = self.shard_of(p.min(self.n));
        let span = &mut self.shards[shard];
        span.entries.insert(p - span.start, (item, score));
        for later in &mut self.shards[shard + 1..] {
            later.start += 1;
        }
        self.n += 1;
    }

    /// Re-derives the item → position cache for global positions
    /// `lo..=hi` (clamped; a no-op when the range is empty) by reading
    /// the owning shards — the in-place merged-index repair.
    fn repair_index_range(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.n);
        let mut p = lo.max(1);
        while p <= hi {
            let shard = self.shard_of(p);
            let span = &self.shards[shard];
            let upper = hi.min(span.end());
            let run = &span.entries[p - span.start..=upper - span.start];
            self.index.reindex(run, p - 1);
            p = upper + 1;
        }
    }

    /// Debug-only check that the in-place repairs match a rebuild from
    /// scratch: spans contiguous from position 1, scores descending across
    /// the whole list, index identical to a fresh scan.
    fn debug_assert_consistent(&self) {
        #[cfg(debug_assertions)]
        {
            let mut expected_start = 1usize;
            let mut previous: Option<Score> = None;
            let mut merged = Vec::with_capacity(self.n);
            for span in &self.shards {
                debug_assert_eq!(
                    span.start, expected_start,
                    "shard spans must stay contiguous"
                );
                debug_assert!(!span.entries.is_empty(), "no shard may be empty");
                for &(item, score) in &span.entries {
                    if let Some(prev) = previous {
                        debug_assert!(prev >= score, "descending-score invariant broken");
                    }
                    previous = Some(score);
                    merged.push((item, score));
                }
                expected_start = span.end() + 1;
            }
            debug_assert_eq!(expected_start - 1, self.n, "span coverage must equal n");
            let rebuilt = ItemIndex::build(&merged).expect("entries hold no duplicates");
            debug_assert!(rebuilt == self.index, "merged index diverged from rebuild");
        }
    }
}

/// Scans the in-bounds positions `lo..=hi` (global, both within shard
/// `span`) of one shard, marking them seen when `track` is set. This is
/// the shard-local job [`ShardedSource::sorted_block`] dispatches onto the
/// pool.
fn scan_span(
    span: &ShardSpan,
    tracker: &mut dyn PositionTracker,
    lo: usize,
    hi: usize,
    track: bool,
) -> Vec<SourceEntry> {
    let entries: Vec<SourceEntry> = span.entries[lo - span.start..=hi - span.start]
        .iter()
        .enumerate()
        .map(|(offset, &(item, score))| SourceEntry {
            position: Position::from_index(lo - 1 + offset),
            item,
            score,
            best_position_score: None,
        })
        .collect();
    if track {
        let local_lo = Position::new(lo - span.start + 1).expect("lo >= span.start");
        let local_hi = Position::new(hi - span.start + 1).expect("hi >= span.start");
        tracker.mark_range_seen(local_lo, local_hi);
    }
    entries
}

/// One sharded list served through the [`ListSource`] access model, with
/// per-shard best-position trackers and shard-parallel block scans on a
/// shared [`ThreadPool`].
#[derive(Debug)]
pub struct ShardedSource<'p> {
    pool: &'p ThreadPool,
    list: Arc<ShardedList>,
    /// One tracker per shard, over the shard's local positions.
    trackers: Vec<Box<dyn PositionTracker>>,
    kind: TrackerKind,
    counters: AccessCounters,
    /// Cached merge of the per-shard trackers: the list-level best
    /// position (0 = none yet). Advanced incrementally after every mark
    /// ([`ShardedSource::advance_best`]), so reading it is O(1) — like
    /// the in-memory bit array's moving pointer — instead of an
    /// O(shard count) walk per access.
    best: usize,
}

impl<'p> ShardedSource<'p> {
    /// Opens a query-local view of a sharded list with the default
    /// bit-array trackers.
    pub fn new(list: Arc<ShardedList>, pool: &'p ThreadPool) -> Self {
        Self::with_tracker(list, pool, TrackerKind::BitArray)
    }

    /// Opens a query-local view with an explicit tracking strategy.
    pub fn with_tracker(list: Arc<ShardedList>, pool: &'p ThreadPool, kind: TrackerKind) -> Self {
        let trackers = list
            .shards
            .iter()
            .map(|span| kind.create(span.entries.len()))
            .collect();
        ShardedSource {
            pool,
            list,
            trackers,
            kind,
            counters: AccessCounters::default(),
            best: 0,
        }
    }

    /// The cached list-level best position (O(1) read).
    fn global_best(&self) -> Option<Position> {
        Position::new(self.best)
    }

    /// Advances the cached best position over the per-shard trackers:
    /// starting at the shard owning `best + 1`, jump to that shard's
    /// local best (its tracker already maintains the local prefix) and
    /// keep walking while shards are completely covered. Amortized O(1)
    /// per mark — every step either stops or permanently consumes
    /// positions/shards, bounding the total walk per query by n plus the
    /// shard count (the in-memory bit array's moving-pointer argument,
    /// lifted to the merge).
    fn advance_best(&mut self) {
        while self.best < self.list.len() {
            let shard = self.list.shard_of(self.best + 1);
            let span = &self.list.shards[shard];
            match self.trackers[shard].best_position() {
                Some(local) => {
                    let candidate = span.start - 1 + local.get();
                    if candidate <= self.best {
                        break; // position best + 1 has not been seen
                    }
                    self.best = candidate;
                    if self.best < span.end() {
                        break; // gap inside this shard
                    }
                    // Shard completely covered: continue into the next.
                }
                None => break,
            }
        }
        debug_assert_eq!(
            Position::new(self.best),
            self.merged_best_reference(),
            "cached best position diverged from the tracker merge"
        );
    }

    /// The full O(shard count) merge of the per-shard trackers — the
    /// specification [`ShardedSource::advance_best`] is checked against
    /// in debug builds: walk the shards in range order while completely
    /// seen; the prefix ends inside the first shard with a gap.
    fn merged_best_reference(&self) -> Option<Position> {
        let mut best = 0usize;
        for (span, tracker) in self.list.shards.iter().zip(&self.trackers) {
            match tracker.best_position() {
                Some(local) if local.get() == span.entries.len() => {
                    best = span.end();
                }
                Some(local) => {
                    best = span.start - 1 + local.get();
                    break;
                }
                None => break,
            }
        }
        Position::new(best)
    }

    /// Marks the global position seen in its owning shard's tracker.
    fn mark_global(&mut self, position: Position) {
        let p = position.get();
        let shard = self.list.shard_of(p);
        let local = Position::new(p - self.list.shards[shard].start + 1)
            .expect("positions within a shard are >= its start");
        self.trackers[shard].mark_seen(local);
    }

    /// Marks a position seen; if the merged best position changed, returns
    /// the local score at the new best position (the §5.1 piggyback) —
    /// exactly `InMemorySource::mark_and_report` over the merged state.
    fn mark_and_report(&mut self, position: Position) -> Option<Score> {
        let before = self.best;
        self.mark_global(position);
        self.advance_best();
        if self.best != before {
            self.list.score_at(self.best)
        } else {
            None
        }
    }
}

impl ListSource for ShardedSource<'_> {
    fn len(&self) -> usize {
        self.list.len()
    }

    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        self.counters.sorted += 1; // counted even past the end
        let (item, score) = self.list.entry(position.get())?;
        let best = if track {
            self.mark_and_report(position)
        } else {
            None
        };
        Some(SourceEntry {
            position,
            item,
            score,
            best_position_score: best,
        })
    }

    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        self.counters.random += 1; // counted even when the item is absent
        let (p, score) = self.list.lookup(item)?;
        let position = Position::new(p).expect("indexed positions are 1-based");
        let best = if track {
            self.mark_and_report(position)
        } else {
            None
        };
        Some(SourceScore {
            score,
            position: with_position.then_some(position),
            best_position_score: best,
        })
    }

    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        let next = match self.global_best() {
            None => Position::FIRST,
            Some(bp) => bp.next(),
        };
        if next.get() > self.list.len() {
            return None; // every position seen; no read attempt is made
        }
        self.counters.direct += 1;
        let (item, score) = self
            .list
            .entry(next.get())
            .expect("first unseen position is within list bounds");
        let best = self.mark_and_report(next);
        Some(SourceEntry {
            position: next,
            item,
            score,
            best_position_score: best,
        })
    }

    fn sorted_block(&mut self, start: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        let first = start.get();
        let last = self
            .list
            .len()
            .min(first.saturating_add(len).saturating_sub(1));
        if last < first {
            return Vec::new(); // nothing in bounds: nothing counted
        }
        let before = if track { self.global_best() } else { None };

        let first_shard = self.list.shard_of(first);
        let last_shard = self.list.shard_of(last);
        let mut entries = if first_shard == last_shard {
            // Single shard involved: scan inline, nothing to fan out.
            scan_span(
                &self.list.shards[first_shard],
                self.trackers[first_shard].as_mut(),
                first,
                last,
                track,
            )
        } else {
            // One scan job per shard on the shared pool; `scope_run`
            // returns in submission (= shard) order, so the merge is
            // deterministic regardless of pool width.
            let list = &self.list;
            let jobs: Vec<_> = self.trackers[first_shard..=last_shard]
                .iter_mut()
                .enumerate()
                .map(|(offset, tracker)| {
                    let shard = first_shard + offset;
                    let span = &list.shards[shard];
                    let lo = first.max(span.start);
                    let hi = last.min(span.end());
                    let tracker = tracker.as_mut();
                    move || scan_span(span, tracker, lo, hi, track)
                })
                .collect();
            self.pool.scope_run(jobs).concat()
        };

        self.counters.sorted += entries.len() as u64;
        if track {
            // One cache advance for the whole block (the shard jobs only
            // marked their local trackers).
            self.advance_best();
            let after = self.global_best();
            if after != before {
                if let Some(entry) = entries.last_mut() {
                    entry.best_position_score = after.and_then(|bp| self.list.score_at(bp.get()));
                }
            }
        }
        entries
    }

    fn best_position(&self) -> Option<Position> {
        self.global_best()
    }

    fn tail_score(&self) -> Score {
        self.list.tail_score()
    }

    fn epoch(&self) -> u64 {
        // The epoch of the snapshot this view holds — *not* the database's
        // current epoch: mutations after the view was opened went through
        // `Arc::make_mut` into a fresh copy.
        self.list.epoch()
    }

    fn counters(&self) -> AccessCounters {
        self.counters
    }

    fn reset(&mut self) {
        self.counters = AccessCounters::default();
        self.best = 0;
        self.trackers = self
            .list
            .shards
            .iter()
            .map(|span| self.kind.create(span.entries.len()))
            .collect();
    }
}

/// A database whose every list is range-partitioned into shards, shared by
/// any number of concurrent queries.
///
/// This is the physical layout behind the batched front door: build it
/// once, then open a cheap per-query [`Sources`] view per query (each view
/// has its own trackers and counters; the entry data is shared through
/// `Arc`s).
#[derive(Debug, Clone)]
pub struct ShardedDatabase {
    lists: Vec<Arc<ShardedList>>,
    n: usize,
}

impl ShardedDatabase {
    /// Shards every list of `database` into `shards_per_list` contiguous
    /// position ranges (clamped to `1..=n`).
    pub fn new(database: &Database, shards_per_list: usize) -> Self {
        ShardedDatabase {
            lists: database
                .lists()
                .map(|list| Arc::new(ShardedList::from_list(list, shards_per_list)))
                .collect(),
            n: database.num_items(),
        }
    }

    /// Number of lists (`m`).
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Number of items per list (`n`).
    pub fn num_items(&self) -> usize {
        self.n
    }

    /// Number of shards each list is split into.
    pub fn shards_per_list(&self) -> usize {
        self.lists
            .first()
            .map(|list| list.shard_count())
            .unwrap_or(0)
    }

    /// Opens a per-query [`Sources`] view over the shared shards with the
    /// default bit-array trackers. The view composes like any other
    /// source set — e.g. [`Sources::batched`] turns sequential scans into
    /// the shard-parallel block fetches.
    pub fn sources<'p>(&self, pool: &'p ThreadPool) -> Sources<'p> {
        self.sources_with_tracker(pool, TrackerKind::BitArray)
    }

    /// Per-list epochs: each list's monotone mutation counter.
    pub fn epochs(&self) -> Vec<u64> {
        self.lists.iter().map(|list| list.epoch()).collect()
    }

    /// Changes one item's local score in list `list`, routing the mutation
    /// to the owning shards. Open query views are untouched (snapshot
    /// isolation): if any view still shares the list, `Arc::make_mut`
    /// clones it first and the mutation lands in the fresh copy.
    ///
    /// # Errors
    ///
    /// Returns an error if the list index is out of range, the item is not
    /// present, or the score is NaN.
    pub fn update_score(
        &mut self,
        list: usize,
        item: ItemId,
        score: f64,
    ) -> Result<ScoreUpdate, ListError> {
        let m = self.lists.len();
        let entry = self
            .lists
            .get_mut(list)
            .ok_or(ListError::ListIndexOutOfRange {
                index: list,
                len: m,
            })?;
        Arc::make_mut(entry).update_score(item, score)
    }

    /// Inserts a new item with one local score per list (validated up
    /// front, so a failed insert leaves the database untouched).
    ///
    /// # Errors
    ///
    /// Returns an error if the score count mismatches, any score is NaN,
    /// or the item is already present.
    pub fn insert_item(&mut self, item: ItemId, scores: &[f64]) -> Result<(), ListError> {
        if scores.len() != self.lists.len() {
            return Err(ListError::ScoreCountMismatch {
                expected: self.lists.len(),
                found: scores.len(),
            });
        }
        for &score in scores {
            Score::new(score)?;
        }
        if self.lists.iter().any(|list| list.index.contains(item)) {
            return Err(ListError::DuplicateItem(item));
        }
        for (list, &score) in self.lists.iter_mut().zip(scores) {
            Arc::make_mut(list)
                .insert(item, score)
                .expect("validated insert cannot fail");
        }
        self.n += 1;
        Ok(())
    }

    /// Deletes an item from every list.
    ///
    /// # Errors
    ///
    /// Returns an error if the item is not present or is the last one.
    pub fn delete_item(&mut self, item: ItemId) -> Result<(), ListError> {
        if !self.lists.iter().all(|list| list.index.contains(item)) {
            return Err(ListError::UnknownItem(item));
        }
        if self.n == 1 {
            return Err(ListError::EmptyList);
        }
        for list in &mut self.lists {
            Arc::make_mut(list)
                .delete(item)
                .expect("validated delete cannot fail");
        }
        self.n -= 1;
        Ok(())
    }

    /// Opens a per-query view with an explicit tracking strategy.
    pub fn sources_with_tracker<'p>(&self, pool: &'p ThreadPool, kind: TrackerKind) -> Sources<'p> {
        Sources::new(
            self.lists
                .iter()
                .map(|list| {
                    Box::new(ShardedSource::with_tracker(Arc::clone(list), pool, kind))
                        as Box<dyn ListSource>
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSet;

    fn db() -> Database {
        // 2 lists x 10 items with distinct scores.
        Database::from_unsorted_lists(vec![
            (1..=10u64).map(|i| (i, (11 - i) as f64 * 3.0)).collect(),
            (1..=10u64).map(|i| (i, i as f64 * 2.0)).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn shards_partition_positions_contiguously() {
        let database = db();
        // 10 items over 3 shards: sizes 4, 3, 3 starting at 1, 5, 8.
        let list = ShardedList::from_list(database.list(0).unwrap(), 3);
        assert_eq!(list.shard_count(), 3);
        assert_eq!(list.len(), 10);
        let bounds: Vec<(usize, usize)> = list.shards.iter().map(|s| (s.start, s.end())).collect();
        assert_eq!(bounds, vec![(1, 4), (5, 7), (8, 10)]);
        for p in 1..=10 {
            let shard = list.shard_of(p);
            assert!(list.shards[shard].start <= p && p <= list.shards[shard].end());
            // Entries agree with the unsharded list.
            let reference = database
                .list(0)
                .unwrap()
                .entry_at(Position::new(p).unwrap())
                .unwrap();
            assert_eq!(list.entry(p), Some((reference.item, reference.score)));
        }
        assert_eq!(list.entry(11), None);
        assert_eq!(list.tail_score().value(), 3.0);
    }

    #[test]
    fn shard_count_is_clamped_to_the_list_size() {
        let database = db();
        let list = ShardedList::from_list(database.list(0).unwrap(), 99);
        assert_eq!(list.shard_count(), 10);
        let list = ShardedList::from_list(database.list(0).unwrap(), 0);
        assert_eq!(list.shard_count(), 1);
        assert!(!list.is_empty());
    }

    #[test]
    fn merged_best_position_walks_full_shards() {
        let database = db();
        let pool = ThreadPool::new(1);
        let sharded = ShardedDatabase::new(&database, 3);
        let mut source = ShardedSource::new(Arc::clone(&sharded.lists[0]), &pool);

        // Fill shard 0 (positions 1-4) out of order via random accesses.
        for item in [2u64, 4, 1, 3] {
            source.random_access(ItemId(item), false, true).unwrap();
        }
        assert_eq!(source.best_position(), Position::new(4));

        // A gap in shard 1 (position 5 missing) pins the merge there even
        // after deeper positions are seen.
        source
            .sorted_access(Position::new(6).unwrap(), true)
            .unwrap();
        source
            .sorted_access(Position::new(9).unwrap(), true)
            .unwrap();
        assert_eq!(source.best_position(), Position::new(4));

        // Bridging the gap extends the prefix through both seen runs.
        let entry = source
            .sorted_access(Position::new(5).unwrap(), true)
            .unwrap();
        assert_eq!(source.best_position(), Position::new(6));
        // The piggyback reports the score at the merged best position.
        assert_eq!(
            entry.best_position_score,
            database
                .list(0)
                .unwrap()
                .score_at(Position::new(6).unwrap())
        );
    }

    #[test]
    fn direct_access_walks_the_merged_first_unseen() {
        let database = db();
        let pool = ThreadPool::new(2);
        let sharded = ShardedDatabase::new(&database, 4);
        let mut source = ShardedSource::new(Arc::clone(&sharded.lists[1]), &pool);
        for expected in 1..=10usize {
            let entry = source.direct_access_next().unwrap();
            assert_eq!(entry.position.get(), expected);
        }
        assert!(source.direct_access_next().is_none());
        assert_eq!(source.counters().direct, 10, "exhaustion is not counted");
        assert_eq!(source.best_position(), Position::new(10));
    }

    #[test]
    fn parallel_blocks_merge_in_shard_order() {
        let database = db();
        let reference: Vec<(ItemId, Score)> = database
            .list(0)
            .unwrap()
            .iter()
            .map(|e| (e.item, e.score))
            .collect();
        for shards in [1, 2, 3, 5, 10] {
            for threads in [1, 2, 4] {
                let pool = ThreadPool::new(threads);
                let sharded = ShardedDatabase::new(&database, shards);
                let mut sources = sharded.sources(&pool);
                let block = sources.source(0).sorted_block(Position::FIRST, 10, false);
                let got: Vec<(ItemId, Score)> = block.iter().map(|e| (e.item, e.score)).collect();
                assert_eq!(got, reference, "{shards} shards / {threads} threads");
                let positions: Vec<usize> = block.iter().map(|e| e.position.get()).collect();
                assert_eq!(positions, (1..=10).collect::<Vec<_>>());
                assert_eq!(sources.total_counters().sorted, 10);
            }
        }
    }

    #[test]
    fn tracked_cross_shard_block_piggybacks_once() {
        let database = db();
        let pool = ThreadPool::new(2);
        let sharded = ShardedDatabase::new(&database, 3);
        let mut sources = sharded.sources(&pool);
        let block = sources
            .source(0)
            .sorted_block(Position::new(2).unwrap(), 5, true);
        assert_eq!(block.len(), 5, "positions 2..=6");
        // No prefix through position 1 yet: no piggyback anywhere.
        assert!(block.iter().all(|e| e.best_position_score.is_none()));
        assert_eq!(sources.source_ref(0).best_position(), None);

        // Seeing position 1 bridges the prefix through position 6.
        let entry = sources
            .source(0)
            .sorted_access(Position::FIRST, true)
            .unwrap();
        assert_eq!(sources.source_ref(0).best_position(), Position::new(6));
        assert_eq!(
            entry.best_position_score,
            database
                .list(0)
                .unwrap()
                .score_at(Position::new(6).unwrap())
        );

        // A fresh tracked block that moves the best position piggybacks on
        // its last entry only.
        let block = sources
            .source(0)
            .sorted_block(Position::new(7).unwrap(), 4, true);
        assert_eq!(block.len(), 4);
        assert!(block[..3].iter().all(|e| e.best_position_score.is_none()));
        assert_eq!(
            block[3].best_position_score,
            database
                .list(0)
                .unwrap()
                .score_at(Position::new(10).unwrap())
        );
    }

    #[test]
    fn out_of_bounds_blocks_match_the_in_memory_contract() {
        let database = db();
        let pool = ThreadPool::new(1);
        let sharded = ShardedDatabase::new(&database, 4);
        let mut sources = sharded.sources(&pool);
        // Entirely past the end: empty, uncounted.
        assert!(sources
            .source(0)
            .sorted_block(Position::new(11).unwrap(), 5, true)
            .is_empty());
        assert_eq!(sources.total_counters().sorted, 0);
        // Clipped: only in-bounds reads are counted.
        let block = sources
            .source(0)
            .sorted_block(Position::new(8).unwrap(), 100, false);
        assert_eq!(block.len(), 3);
        assert_eq!(sources.total_counters().sorted, 3);
        // Past-the-end single access stays a counted miss.
        assert!(sources
            .source(0)
            .sorted_access(Position::new(11).unwrap(), false)
            .is_none());
        assert_eq!(sources.total_counters().sorted, 4);
    }

    #[test]
    fn reset_restores_a_fresh_query_view() {
        let database = db();
        let pool = ThreadPool::new(2);
        let sharded = ShardedDatabase::new(&database, 3);
        let mut sources = sharded.sources(&pool);
        sources.source(0).sorted_block(Position::FIRST, 7, true);
        sources.source(1).random_access(ItemId(3), true, true);
        sources.reset();
        assert_eq!(sources.total_counters(), AccessCounters::default());
        assert_eq!(sources.source_ref(0).best_position(), None);
        assert_eq!(sources.source_ref(1).best_position(), None);
        let entry = sources.source(0).direct_access_next().unwrap();
        assert_eq!(entry.position, Position::FIRST);
    }

    #[test]
    fn mutations_route_to_the_owning_shard_and_repair_the_index() {
        let database = db();
        let mut list = ShardedList::from_list(database.list(0).unwrap(), 3);
        assert_eq!(list.epoch(), 0);

        // List 0 holds scores 30, 27, ..., 3 for items 1..=10. Move item 9
        // (score 6.0, position 9) to the top.
        let update = list.update_score(ItemId(9), 40.0).unwrap();
        assert_eq!(update.old_position, Position::new(9).unwrap());
        assert_eq!(update.new_position, Position::FIRST);
        assert!(!update.is_decrease());
        assert_eq!(list.entry(1), Some((ItemId(9), Score::new(40.0).unwrap())));
        assert_eq!(list.lookup(ItemId(9)), Some((1, Score::new(40.0).unwrap())));
        // Everything that was above position 9 shifted down by one.
        assert_eq!(list.lookup(ItemId(1)).unwrap().0, 2);
        assert_eq!(list.lookup(ItemId(8)).unwrap().0, 9);
        assert_eq!(list.epoch(), 1);

        // Insert between existing scores; delete from the middle.
        list.insert(ItemId(42), 25.5).unwrap();
        assert_eq!(list.len(), 11);
        let (p, _) = list.lookup(ItemId(42)).unwrap();
        assert_eq!(p, 4, "40, 30, 27, then 25.5");
        list.delete(ItemId(42)).unwrap();
        assert_eq!(list.len(), 10);
        assert_eq!(list.lookup(ItemId(42)), None);
        assert_eq!(list.epoch(), 3);

        // Errors leave the epoch alone.
        assert!(matches!(
            list.update_score(ItemId(77), 1.0),
            Err(ListError::UnknownItem(ItemId(77)))
        ));
        assert!(matches!(
            list.insert(ItemId(9), 1.0),
            Err(ListError::DuplicateItem(ItemId(9)))
        ));
        assert_eq!(list.epoch(), 3);
    }

    #[test]
    fn deleting_a_whole_shard_drops_its_span() {
        let database = db();
        // 10 shards of one entry each.
        let mut list = ShardedList::from_list(database.list(0).unwrap(), 10);
        assert_eq!(list.shard_count(), 10);
        list.delete(ItemId(5)).unwrap(); // position 5's singleton shard
        assert_eq!(list.shard_count(), 9);
        assert_eq!(list.len(), 9);
        assert_eq!(list.lookup(ItemId(6)).unwrap().0, 5);

        // Shrink all the way down to one entry; the last delete is refused.
        for item in [1u64, 2, 3, 4, 6, 7, 8, 9] {
            list.delete(ItemId(item)).unwrap();
        }
        assert_eq!(list.len(), 1);
        assert!(matches!(list.delete(ItemId(10)), Err(ListError::EmptyList)));
        // A single-entry list can still rotate its one item.
        let update = list.update_score(ItemId(10), 99.0).unwrap();
        assert_eq!(update.new_position, Position::FIRST);
        assert_eq!(list.entry(1), Some((ItemId(10), Score::new(99.0).unwrap())));
    }

    #[test]
    fn mutated_sharded_layout_matches_the_sorted_list() {
        // The same mutation sequence must leave sharded and unsharded
        // lists with identical position-for-position content — ties and
        // cross-shard moves included — for every shard count.
        let scored: Vec<(ItemId, f64)> = [
            (1u64, 9.0),
            (2, 7.0),
            (3, 7.0),
            (4, 7.0),
            (5, 5.0),
            (6, 3.0),
            (7, 2.0),
            (8, 1.0),
        ]
        .into_iter()
        .map(|(item, score)| (ItemId(item), score))
        .collect();
        for shards in [1, 2, 3, 5, 8] {
            let mut reference = SortedList::from_unsorted(scored.clone()).unwrap();
            let mut sharded = ShardedList::from_list(&reference, shards);
            let step = |reference: &mut SortedList, sharded: &mut ShardedList| {
                for p in 1..=reference.len() {
                    let entry = reference.entry_at(Position::new(p).unwrap()).unwrap();
                    assert_eq!(
                        sharded.entry(p),
                        Some((entry.item, entry.score)),
                        "{shards} shards, position {p}"
                    );
                }
                assert_eq!(sharded.len(), reference.len());
                assert_eq!(sharded.epoch(), reference.epoch());
            };
            // Tie insertion: lands after items 2 and 3 (smaller ids).
            reference.insert(ItemId(20), 7.0).unwrap();
            sharded.insert(ItemId(20), 7.0).unwrap();
            step(&mut reference, &mut sharded);
            // Update into an existing tie run.
            let a = reference.update_score(ItemId(7), 7.0).unwrap();
            let b = sharded.update_score(ItemId(7), 7.0).unwrap();
            assert_eq!(
                (a.old_position, a.new_position),
                (b.old_position, b.new_position)
            );
            step(&mut reference, &mut sharded);
            // Cross-list move down, then a delete, then an append-at-tail.
            reference.update_score(ItemId(1), 0.5).unwrap();
            sharded.update_score(ItemId(1), 0.5).unwrap();
            reference.delete(ItemId(5)).unwrap();
            sharded.delete(ItemId(5)).unwrap();
            reference.insert(ItemId(30), 0.1).unwrap();
            sharded.insert(ItemId(30), 0.1).unwrap();
            step(&mut reference, &mut sharded);
        }
    }

    #[test]
    fn open_views_keep_their_pre_mutation_snapshot() {
        let database = db();
        let pool = ThreadPool::new(2);
        let mut sharded = ShardedDatabase::new(&database, 3);
        let mut before = sharded.sources(&pool);

        sharded.update_score(0, ItemId(10), 50.0).unwrap();
        sharded.insert_item(ItemId(11), &[1.5, 1.5]).unwrap();
        assert_eq!(sharded.epochs(), vec![2, 1]);
        assert_eq!(sharded.num_items(), 11);

        // The view opened before the mutations still serves the original
        // snapshot: old length, old ordering, epoch 0.
        assert_eq!(before.source_ref(0).len(), 10);
        assert_eq!(before.epochs(), vec![0, 0]);
        let top = before
            .source(0)
            .sorted_access(Position::FIRST, false)
            .unwrap();
        assert_eq!(top.item, ItemId(1), "score 30.0 still leads the snapshot");
        assert!(before
            .source(0)
            .random_access(ItemId(11), false, false)
            .is_none());

        // A fresh view sees the mutated state.
        let mut after = sharded.sources(&pool);
        assert_eq!(after.source_ref(0).len(), 11);
        assert_eq!(after.epochs(), vec![2, 1]);
        let top = after
            .source(0)
            .sorted_access(Position::FIRST, false)
            .unwrap();
        assert_eq!(top.item, ItemId(10), "updated to 50.0");

        // Validation failures leave the database untouched.
        assert!(matches!(
            sharded.insert_item(ItemId(12), &[1.0]),
            Err(ListError::ScoreCountMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            sharded.update_score(9, ItemId(1), 1.0),
            Err(ListError::ListIndexOutOfRange { index: 9, len: 2 })
        ));
        assert_eq!(sharded.epochs(), vec![2, 1]);

        sharded.delete_item(ItemId(11)).unwrap();
        assert_eq!(sharded.num_items(), 10);
        assert_eq!(sharded.epochs(), vec![3, 2]);
    }

    #[test]
    fn sharded_database_reports_its_shape() {
        let database = db();
        let sharded = ShardedDatabase::new(&database, 5);
        assert_eq!(sharded.num_lists(), 2);
        assert_eq!(sharded.num_items(), 10);
        assert_eq!(sharded.shards_per_list(), 5);
        let pool = ThreadPool::new(1);
        assert_eq!(sharded.sources(&pool).num_lists(), 2);
    }
}
