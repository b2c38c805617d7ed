//! Backend-generic list access: the execution API of the top-k algorithms.
//!
//! The paper defines TA, BPA and BPA2 purely in terms of three access
//! modes (sorted, random, direct — Section 2 and Section 5.1) plus the
//! per-list *best position* bookkeeping of Section 5.2. Nothing in the
//! algorithms requires the lists to be in memory: the same driver loop
//! works against a local array, a remote list owner, or a shard. This
//! module captures exactly that contract:
//!
//! * [`ListSource`] — one list reachable through the three access modes,
//!   with optional source-side position tracking (`track`) and an access
//!   counter per mode. The `track`/`with_position` flags mirror the wire
//!   protocol of `topk-distributed`: they decide *which scalars travel*,
//!   so a networked backend can charge payload exactly as the paper's
//!   Section 5 communication argument requires.
//! * [`SourceSet`] — the `m` sources a query executes against, plus round
//!   demarcation ([`SourceSet::begin_round`]) so backends can account or
//!   coalesce per originator round.
//! * [`InMemorySource`] / [`Sources::in_memory`] — the in-process backend
//!   over borrowed [`SortedList`](crate::SortedList)s. It is the access core
//!   ([`TrackedSource`](crate::tracked::TrackedSource)) over an in-memory
//!   store; the sharded, paged and list-owner backends are the same core
//!   over their own stores.
//! * [`BatchingSource`] — a decorator that serves sorted accesses from a
//!   prefetched block ([`ListSource::sorted_block`]), the groundwork for
//!   sharded and asynchronous backends where accesses are coalesced into
//!   fewer round trips.
//!
//! Algorithms live in `topk-core` and receive `&mut dyn SourceSet`; the
//! distributed backend (`AsyncClusterSources`, a `ClusterRuntime`
//! session) lives in `topk-distributed`.
//!
//! ```
//! use topk_lists::prelude::*;
//! use topk_lists::source::{ListSource, SourceSet, Sources};
//!
//! let db = Database::from_unsorted_lists(vec![
//!     vec![(1, 30.0), (2, 11.0), (3, 26.0)],
//!     vec![(1, 21.0), (2, 28.0), (3, 14.0)],
//! ])
//! .unwrap();
//! let mut sources = Sources::in_memory(&db);
//! assert_eq!(sources.num_lists(), 2);
//!
//! // Sorted access to position 1 of list 0, untracked.
//! let entry = sources.source(0).sorted_access(Position::FIRST, false).unwrap();
//! assert_eq!(entry.item, ItemId(1));
//! assert_eq!(sources.total_counters().sorted, 1);
//!
//! // Tracked random access: the source keeps the best position itself.
//! // Item 2 tops list 1 (score 28), so seeing it sets the best position.
//! sources.source(1).random_access(ItemId(2), false, true).unwrap();
//! assert_eq!(sources.source_ref(1).best_position(), Some(Position::FIRST));
//! ```

use crate::access::AccessCounters;
use crate::database::Database;
use crate::item::{ItemId, Position, Score};
use crate::tracker::TrackerKind;

pub use crate::tracked::InMemorySource;

/// Hit/miss statistics of a backend-side page cache.
///
/// In-memory backends have no cache and report zeros; disk-backed
/// backends (`topk-storage`) count one hit or miss per page lookup.
/// Misses are the unit the cost model charges for physical IO — they
/// form a fourth access class next to sorted/random/direct, because a
/// logical access that hits the cache costs no disk read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Page lookups served from the cache.
    pub hits: u64,
    /// Page lookups that had to read the backing store.
    pub misses: u64,
}

impl CacheCounters {
    /// Total page lookups (hits + misses).
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Element-wise sum of two snapshots.
    pub fn combined(&self, other: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

impl topk_trace::MetricSource for CacheCounters {
    fn record_metrics(&self, registry: &mut topk_trace::MetricsRegistry) {
        registry.counter_add("cache.hits", self.hits);
        registry.counter_add("cache.misses", self.misses);
    }
}

/// What class of failure a [`SourceError`] reports — the typed half of
/// the fail-stop contract, so callers can tell an IO fault from an
/// unreachable owner without parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceErrorKind {
    /// The backend operation itself failed (disk IO, corrupt page,
    /// truncated file). The default for [`SourceError::new`].
    #[default]
    Access,
    /// A remote list owner stopped answering and the session exhausted
    /// its retries and replicas (`topk-distributed`).
    Unreachable,
    /// A replica disagreed with the failed owner's catalog (length, tail
    /// score or epoch), so failing over to it would change answers.
    Diverged,
}

/// A failure of the physical layer behind a [`ListSource`] (disk IO,
/// corrupt page, truncated file, dead list owner) that made a list
/// access impossible.
///
/// The `ListSource` access methods return `Option` — `None` means "no
/// such entry", never "the read failed" — so fallible backends follow a
/// **fail-stop contract**: they latch the error and call
/// [`SourceError::raise`], which unwinds with the error as payload.
/// `topk_core::TopKAlgorithm::run_on` catches exactly that payload and
/// converts it into a typed `Err`, so callers see a normal `Result` and
/// no algorithm needs error-handling code in its inner loop. After an
/// error, a source is unusable until [`ListSource::reset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    /// The failure class (IO fault, unreachable owner, diverged replica).
    pub kind: SourceErrorKind,
    /// The access that failed (e.g. `"sorted_access"`, `"page read"`).
    pub op: String,
    /// Backend-specific description of the failure.
    pub detail: String,
    /// The 0-based index of the list the failure hit, when the backend
    /// knows it (distributed backends do; a lone paged list does not).
    pub list: Option<usize>,
}

impl SourceError {
    /// Builds an error for a failed operation ([`SourceErrorKind::Access`],
    /// no list index).
    pub fn new(op: impl Into<String>, detail: impl Into<String>) -> Self {
        SourceError {
            kind: SourceErrorKind::Access,
            op: op.into(),
            detail: detail.into(),
            list: None,
        }
    }

    /// An [`SourceErrorKind::Unreachable`] error: list `list`'s owner
    /// stopped answering and retries/replicas are exhausted.
    pub fn unreachable(list: usize, op: impl Into<String>, detail: impl Into<String>) -> Self {
        SourceError {
            kind: SourceErrorKind::Unreachable,
            op: op.into(),
            detail: detail.into(),
            list: Some(list),
        }
    }

    /// An [`SourceErrorKind::Diverged`] error: a failover target for list
    /// `list` disagreed with the failed owner's catalog.
    pub fn diverged(list: usize, op: impl Into<String>, detail: impl Into<String>) -> Self {
        SourceError {
            kind: SourceErrorKind::Diverged,
            op: op.into(),
            detail: detail.into(),
            list: Some(list),
        }
    }

    /// Raises this error as a fail-stop unwind. The payload is the
    /// `SourceError` itself; `topk_core::TopKAlgorithm::run_on` downcasts
    /// it back into a typed `Err`. Unwinds with any other payload (real
    /// bugs, assertion failures) are not intercepted there.
    pub fn raise(self) -> ! {
        std::panic::panic_any(self)
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.list {
            Some(list) => write!(f, "list {list} source {} failed: {}", self.op, self.detail),
            None => write!(f, "list source {} failed: {}", self.op, self.detail),
        }
    }
}

impl std::error::Error for SourceError {}

/// The outcome of a sorted or direct access against a [`ListSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceEntry {
    /// 1-based position of the accessed entry.
    pub position: Position,
    /// The data item at that position.
    pub item: ItemId,
    /// Its local score in this list.
    pub score: Score,
    /// The local score at the source's best position, present only when
    /// the access was tracked *and* moved the best position (the BPA2
    /// piggyback of Section 5.1, step 3).
    pub best_position_score: Option<Score>,
}

/// The outcome of a random access against a [`ListSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceScore {
    /// The item's local score in this list.
    pub score: Score,
    /// The item's position, present only when requested via
    /// `with_position` (BPA needs it at the originator; TA does not, and
    /// over a network it is payload that need not travel).
    pub position: Option<Position>,
    /// The local score at the source's best position, present only when
    /// the access was tracked and moved the best position.
    pub best_position_score: Option<Score>,
}

/// One sorted list reachable through the paper's three access modes.
///
/// Every access is counted ([`ListSource::counters`]). The `track` flags
/// ask the *source* to record the touched position in its best-position
/// tracker (Section 5.2) — the owner-side bookkeeping BPA2 relies on;
/// when the best position changes, the new best score is piggybacked on
/// the reply. Untracked accesses leave the tracker alone, which is what
/// TA-style protocols request.
pub trait ListSource: std::fmt::Debug {
    /// Number of entries in the list (`n`).
    fn len(&self) -> usize;

    /// Whether the list is empty (never true for validated databases).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// *Sorted access*: read the entry at `position` (§2). Counted even
    /// when the position is past the end of the list (the read attempt
    /// happened). `track` marks the position seen source-side.
    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry>;

    /// *Random access*: look up `item` (§2). Counted even when the item is
    /// absent. `with_position` asks for the item's position in the reply;
    /// `track` marks the revealed position seen source-side.
    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore>;

    /// *Direct access* to the smallest unseen position `bp + 1` (§5.1) and
    /// mark it seen. Returns `None` — uncounted — once every position has
    /// been seen.
    fn direct_access_next(&mut self) -> Option<SourceEntry>;

    /// Reads up to `len` consecutive entries starting at `start` under
    /// sorted access, stopping at the end of the list.
    ///
    /// The best-position piggyback is *block-level* on every backend:
    /// when `track` moved the best position, the score at the final best
    /// position rides on the **last** returned entry only (a networked
    /// backend reports the owner's state once per exchange, and the
    /// default implementation matches that contract).
    ///
    /// The default implementation loops over [`ListSource::sorted_access`];
    /// backends that can serve a block in one exchange (one network
    /// message, one shard scan) override it. [`BatchingSource`] turns
    /// per-position scans into calls of this method.
    fn sorted_block(&mut self, start: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        let end = self
            .len()
            .min(start.get().saturating_add(len).saturating_sub(1));
        let mut entries = Vec::with_capacity(end.saturating_sub(start.get() - 1));
        // The last best-position change during the block is the best
        // position after it, so carrying it to the final entry reports
        // exactly what a one-exchange backend piggybacks.
        let mut last_change = None;
        for pos in start.get()..=end {
            match self.sorted_access(Position::new(pos).expect("pos >= 1"), track) {
                Some(mut entry) => {
                    last_change = entry.best_position_score.or(last_change);
                    entry.best_position_score = None;
                    entries.push(entry);
                }
                None => break,
            }
        }
        if let Some(entry) = entries.last_mut() {
            entry.best_position_score = last_change;
        }
        entries
    }

    /// Announces the start of an originator round (the round-batching
    /// hook). A round boundary is a barrier — no request of round `r + 1`
    /// may be issued before round `r` completes — so decorators and
    /// asynchronous backends that coalesce or keep work in flight (block
    /// prefetchers, scatter-gather runtimes) must flush it here. (Requests
    /// *within* a round may still depend on one another; the barrier is
    /// the coarsest dependency structure, not the only one.) Plain
    /// sources have nothing pending and ignore the call; decorators such
    /// as [`BatchingSource`] forward it to their inner source.
    fn begin_round(&mut self) {}

    /// The source's current best position (Section 5.2), `None` while
    /// position 1 has not been seen. Reading it is originator-side
    /// introspection for statistics, not a list access.
    fn best_position(&self) -> Option<Position>;

    /// The mutation epoch of the list behind this source (see
    /// `SortedList::epoch`). Catalog metadata, not an access: standing
    /// queries compare epochs to decide whether a cached answer is still
    /// current, and coalescing decorators compare them to invalidate
    /// prefetched blocks. Immutable backends (disk pages, remote owners
    /// of frozen lists) keep the default constant `0`.
    fn epoch(&self) -> u64 {
        0
    }

    /// The score of the list's last entry. Catalog metadata (the minimum
    /// of a sorted list is known at registration time), not an access.
    fn tail_score(&self) -> Score;

    /// Accesses performed against this source so far.
    fn counters(&self) -> AccessCounters;

    /// Page-cache statistics for this source. Backends without a cache
    /// (everything in-memory) report the default all-zero snapshot;
    /// disk-backed sources surface their LRU page cache here so the
    /// cost model can charge physical reads separately from logical
    /// accesses.
    fn cache_counters(&self) -> CacheCounters {
        CacheCounters::default()
    }

    /// Clears counters and tracking state, so the same source can serve a
    /// fresh query over unchanged data. Fallible backends also clear any
    /// latched [`SourceError`] and drop cached pages, so a retry runs
    /// from a cold, consistent state.
    fn reset(&mut self);
}

/// The `m` sources one top-k query executes against.
///
/// This is the execution backend of `topk_core::TopKAlgorithm`: the
/// in-memory backend is [`Sources::in_memory`], the distributed one is
/// `topk_distributed::AsyncClusterSources`, and decorators such as
/// [`BatchingSource`] compose with either.
pub trait SourceSet {
    /// Number of lists (`m`).
    fn num_lists(&self) -> usize;

    /// Mutable access to list `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics when `i >= num_lists()`; algorithms only address lists
    /// `0..m`.
    fn source(&mut self, i: usize) -> &mut dyn ListSource;

    /// Shared access to list `i` (0-based), for counters and catalog
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics when `i >= num_lists()`.
    fn source_ref(&self, i: usize) -> &dyn ListSource;

    /// Announces the start of an originator round. Backends use this for
    /// per-round accounting (e.g. `NetworkStats::per_round`) and must
    /// forward it to their sources ([`ListSource::begin_round`]) so
    /// coalescing decorators can flush pending work at the barrier.
    fn begin_round(&mut self) {}

    /// Announces that the caller is about to resolve `item`: it will call
    /// [`ListSource::random_access`]`(item, with_position, track)` on
    /// every list except `skip`, in list order, before any other access
    /// to those lists. TA, BPA and BPA2 announce every item they resolve.
    ///
    /// A hint, not an access: the default does nothing, and when the
    /// announced accesses follow, no answer, counter or network figure
    /// changes. A backend whose random accesses are request/reply
    /// exchanges may send all `m − 1` requests at once here, so each
    /// following `random_access` waits only for its own reply instead of
    /// a full round trip (the distributed runtime's sessions do). Such a
    /// backend must stay correct when the accesses do not follow, as
    /// after an unwind: no reply may be read as the answer to another
    /// access, and [`reset`](SourceSet::reset) discards what is still in
    /// flight.
    fn prefetch_random(&mut self, _item: ItemId, _skip: usize, _with_position: bool, _track: bool) {
    }

    /// Resets every source (counters, trackers, round state) so the set
    /// can serve another query over the same data.
    fn reset(&mut self);

    /// Number of items per list (`n`).
    fn num_items(&self) -> usize {
        self.source_ref(0).len()
    }

    /// Per-list access-counter snapshots, in list order.
    fn per_list_counters(&self) -> Vec<AccessCounters> {
        (0..self.num_lists())
            .map(|i| self.source_ref(i).counters())
            .collect()
    }

    /// Counters aggregated over all lists.
    fn total_counters(&self) -> AccessCounters {
        (0..self.num_lists())
            .map(|i| self.source_ref(i).counters())
            .fold(AccessCounters::default(), |acc, c| acc.combined(&c))
    }

    /// Per-list page-cache snapshots, in list order (all zero for
    /// cache-less backends).
    fn per_list_cache_counters(&self) -> Vec<CacheCounters> {
        (0..self.num_lists())
            .map(|i| self.source_ref(i).cache_counters())
            .collect()
    }

    /// Page-cache statistics aggregated over all lists.
    fn total_cache_counters(&self) -> CacheCounters {
        (0..self.num_lists())
            .map(|i| self.source_ref(i).cache_counters())
            .fold(CacheCounters::default(), |acc, c| acc.combined(&c))
    }

    /// Per-list mutation epochs, in list order ([`ListSource::epoch`]).
    /// A standing query snapshots this vector with its cached answer and
    /// serves the cache only while a fresh observation matches.
    fn epochs(&self) -> Vec<u64> {
        (0..self.num_lists())
            .map(|i| self.source_ref(i).epoch())
            .collect()
    }
}

/// A prefetching decorator: untracked sorted accesses are served from a
/// block fetched through [`ListSource::sorted_block`], so sequential scans
/// cost one backend exchange per `block_len` positions instead of one per
/// position.
///
/// This is the coalescing groundwork for the sharded and asynchronous
/// backends on the roadmap. Two consequences worth knowing:
///
/// * **Counters reflect the backend.** Prefetched-but-unread entries are
///   counted by the inner source, so access counts can exceed what the
///   algorithm consumed (by at most `block_len - 1` per list). Answers
///   are unaffected.
/// * Tracked sorted accesses, random accesses and direct accesses are
///   forwarded unbatched — their reply depends on source-side tracker
///   state at access time and cannot be served from a stale block.
#[derive(Debug)]
pub struct BatchingSource<'a> {
    inner: Box<dyn ListSource + 'a>,
    block_len: usize,
    /// Consecutive prefetched entries; `buffer[j]` is the entry at
    /// position `buffer_start + j`.
    buffer: Vec<SourceEntry>,
    buffer_start: usize,
    /// The inner source's epoch when the buffer was filled; a mismatch
    /// means the list mutated under us and the block is stale.
    buffer_epoch: u64,
}

impl<'a> BatchingSource<'a> {
    /// Wraps a source, coalescing untracked sorted accesses into blocks of
    /// `block_len` positions.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero.
    pub fn new(inner: Box<dyn ListSource + 'a>, block_len: usize) -> Self {
        assert!(block_len > 0, "block_len must be at least 1");
        let buffer_epoch = inner.epoch();
        BatchingSource {
            inner,
            block_len,
            buffer: Vec::new(),
            buffer_start: 0,
            buffer_epoch,
        }
    }

    fn buffered(&self, position: Position) -> Option<SourceEntry> {
        if self.inner.epoch() != self.buffer_epoch {
            // The list mutated since the block was prefetched; serving
            // from it would return pre-mutation entries.
            return None;
        }
        let p = position.get();
        if p >= self.buffer_start && p < self.buffer_start + self.buffer.len() {
            Some(self.buffer[p - self.buffer_start])
        } else {
            None
        }
    }
}

impl ListSource for BatchingSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        if track || position.get() > self.inner.len() {
            // Tracked accesses need live tracker state; past-the-end
            // probes must stay a counted read attempt on the backend.
            return self.inner.sorted_access(position, track);
        }
        if let Some(entry) = self.buffered(position) {
            return Some(entry);
        }
        let entries = self.inner.sorted_block(position, self.block_len, false);
        let first = entries.first().copied();
        self.buffer = entries;
        self.buffer_start = position.get();
        self.buffer_epoch = self.inner.epoch();
        first
    }

    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        self.inner.random_access(item, with_position, track)
    }

    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        self.inner.direct_access_next()
    }

    fn sorted_block(&mut self, start: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        self.inner.sorted_block(start, len, track)
    }

    fn begin_round(&mut self) {
        // The prefetched block stays valid across rounds as long as the
        // inner epoch is unchanged (checked on every buffered read); only
        // the inner source may have round-sensitive state to flush.
        self.inner.begin_round();
    }

    fn best_position(&self) -> Option<Position> {
        self.inner.best_position()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn tail_score(&self) -> Score {
        self.inner.tail_score()
    }

    fn counters(&self) -> AccessCounters {
        self.inner.counters()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.inner.cache_counters()
    }

    fn reset(&mut self) {
        self.buffer.clear();
        self.buffer_start = 0;
        self.buffer_epoch = self.inner.epoch();
        self.inner.reset();
    }
}

/// A [`SourceSet`] holding its sources by value — the container used by
/// the in-memory backend and by decorator compositions.
#[derive(Debug)]
pub struct Sources<'a> {
    sources: Vec<Box<dyn ListSource + 'a>>,
}

impl<'a> Sources<'a> {
    /// Builds a set from already-constructed sources.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty (a database has at least one list).
    pub fn new(sources: Vec<Box<dyn ListSource + 'a>>) -> Self {
        assert!(!sources.is_empty(), "a source set needs at least one list");
        Sources { sources }
    }

    /// The in-memory backend over a database, with the default bit-array
    /// best-position trackers.
    pub fn in_memory(database: &'a Database) -> Self {
        Self::in_memory_with_tracker(database, TrackerKind::BitArray)
    }

    /// The in-memory backend with an explicit tracking strategy, resolved
    /// by [`TrackerKind::source`]. The tracker ablation uses it to compare
    /// the §5.2 strategies; the benchmark harness opens its sources here.
    pub fn in_memory_with_tracker(database: &'a Database, kind: TrackerKind) -> Self {
        Self::new(database.lists().map(|list| kind.source(list)).collect())
    }

    /// Wraps every source in a [`BatchingSource`] with the given block
    /// length.
    pub fn batched(self, block_len: usize) -> Self {
        Self::new(
            self.sources
                .into_iter()
                .map(|inner| Box::new(BatchingSource::new(inner, block_len)) as Box<dyn ListSource>)
                .collect(),
        )
    }

    /// Wraps every source in a tracing decorator; see [`TracedSources`].
    ///
    /// [`TracedSources`]: crate::traced::TracedSources
    pub fn traced(self) -> crate::traced::TracedSources<'a> {
        crate::traced::TracedSources::wrap(self)
    }

    /// Appends `other`'s lists after this set's, so a query can span
    /// heterogeneous backends (e.g. some lists paged, some sharded).
    /// List indices of `other` shift up by `self.num_lists()`.
    pub fn merge(mut self, other: Sources<'a>) -> Sources<'a> {
        self.sources.extend(other.sources);
        self
    }

    /// Surrenders the boxed sources for decorator construction.
    pub(crate) fn into_boxes(self) -> Vec<Box<dyn ListSource + 'a>> {
        self.sources
    }
}

impl SourceSet for Sources<'_> {
    fn num_lists(&self) -> usize {
        self.sources.len()
    }

    fn source(&mut self, i: usize) -> &mut dyn ListSource {
        self.sources[i].as_mut()
    }

    fn source_ref(&self, i: usize) -> &dyn ListSource {
        self.sources[i].as_ref()
    }

    fn begin_round(&mut self) {
        for source in &mut self.sources {
            source.begin_round();
        }
    }

    fn reset(&mut self) {
        for source in &mut self.sources {
            source.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::sorted_list::SortedList;
    use crate::tracked::{ListStore, TrackedSource};
    use crate::tracker::{BPlusTreeTracker, BitArrayTracker, NaiveSetTracker, PositionTracker};

    fn db() -> Database {
        Database::from_unsorted_lists(vec![
            vec![(1, 30.0), (2, 11.0), (3, 26.0)],
            vec![(1, 21.0), (2, 28.0), (3, 14.0)],
        ])
        .unwrap()
    }

    #[test]
    fn in_memory_counts_match_the_accessor_contract() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        assert_eq!(sources.num_lists(), 2);
        assert_eq!(sources.num_items(), 3);

        let entry = sources
            .source(0)
            .sorted_access(Position::FIRST, false)
            .unwrap();
        assert_eq!(entry.item, ItemId(1));
        assert_eq!(entry.score.value(), 30.0);
        assert!(entry.best_position_score.is_none());

        // Past-the-end sorted access: counted, returns None.
        assert!(sources
            .source(0)
            .sorted_access(Position::new(9).unwrap(), false)
            .is_none());
        assert_eq!(sources.source_ref(0).counters().sorted, 2);
        assert_eq!(sources.total_counters().of(AccessMode::Sorted), 2);
        assert_eq!(sources.per_list_counters()[1], AccessCounters::default());
    }

    #[test]
    fn untracked_accesses_leave_the_tracker_alone() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        sources.source(0).sorted_access(Position::FIRST, false);
        sources.source(0).random_access(ItemId(2), true, false);
        assert_eq!(sources.source_ref(0).best_position(), None);
    }

    #[test]
    fn tracked_accesses_move_the_best_position_and_piggyback_its_score() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        let source = sources.source(0);

        // List 0 sorted order: (1, 30), (3, 26), (2, 11). Seeing position 2
        // first creates no prefix, so nothing is piggybacked.
        let ps = source.random_access(ItemId(3), false, true).unwrap();
        assert_eq!(ps.score.value(), 26.0);
        assert!(ps.position.is_none(), "position only when asked");
        assert!(ps.best_position_score.is_none());
        assert_eq!(source.best_position(), None);

        // Seeing position 1 bridges the prefix through position 2: the
        // best position jumps to 2 and its score rides along.
        let entry = source.sorted_access(Position::FIRST, true).unwrap();
        assert_eq!(entry.best_position_score.unwrap().value(), 26.0);
        assert_eq!(source.best_position(), Position::new(2));
    }

    #[test]
    fn direct_access_walks_unseen_positions_without_counting_exhaustion() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        let source = sources.source(1);
        for expected in 1..=3usize {
            let entry = source.direct_access_next().unwrap();
            assert_eq!(entry.position.get(), expected);
        }
        assert!(source.direct_access_next().is_none());
        let counters = source.counters();
        assert_eq!(counters.direct, 3, "the exhausted attempt is not an access");
        assert_eq!(source.best_position(), Position::new(3));
    }

    #[test]
    fn tail_score_is_catalog_metadata() {
        let db = db();
        let sources = Sources::in_memory(&db);
        assert_eq!(sources.source_ref(0).tail_score().value(), 11.0);
        assert_eq!(sources.source_ref(1).tail_score().value(), 14.0);
        assert_eq!(sources.total_counters(), AccessCounters::default());
    }

    #[test]
    fn reset_clears_counters_and_tracking() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        sources.source(0).direct_access_next().unwrap();
        sources
            .source(1)
            .sorted_access(Position::FIRST, true)
            .unwrap();
        sources.reset();
        assert_eq!(sources.total_counters(), AccessCounters::default());
        assert_eq!(sources.source_ref(0).best_position(), None);
        assert_eq!(sources.source_ref(1).best_position(), None);
        // And the set is fully usable again.
        let entry = sources.source(0).direct_access_next().unwrap();
        assert_eq!(entry.position, Position::FIRST);
    }

    #[test]
    fn default_sorted_block_stops_at_the_end_of_the_list() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        let entries = sources
            .source(0)
            .sorted_block(Position::new(2).unwrap(), 10, false);
        assert_eq!(entries.len(), 2, "positions 2 and 3 only");
        assert_eq!(entries[0].position.get(), 2);
        assert_eq!(entries[1].position.get(), 3);
        // Exactly two read attempts — no counted miss past the end.
        assert_eq!(sources.source_ref(0).counters().sorted, 2);
    }

    #[test]
    fn tracked_sorted_block_piggybacks_once_on_the_last_entry() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        let entries = sources.source(0).sorted_block(Position::FIRST, 3, true);
        assert_eq!(entries.len(), 3);
        // Block-level contract: intermediate entries carry no piggyback
        // even though the best position moved at every one of them…
        assert!(entries[0].best_position_score.is_none());
        assert!(entries[1].best_position_score.is_none());
        // …and the final entry reports the best score after the block
        // (position 3 of list 0 holds score 11).
        assert_eq!(entries[2].best_position_score.unwrap().value(), 11.0);
        assert_eq!(sources.source_ref(0).best_position(), Position::new(3));
    }

    #[test]
    fn batching_serves_sequential_scans_from_one_block() {
        let db = db();
        let mut sources = Sources::in_memory(&db).batched(3);
        let source = sources.source(0);
        let scores: Vec<f64> = (1..=3)
            .map(|p| {
                source
                    .sorted_access(Position::new(p).unwrap(), false)
                    .unwrap()
                    .score
                    .value()
            })
            .collect();
        assert_eq!(scores, vec![30.0, 26.0, 11.0]);
        // The inner source saw one block of 3 reads, not 3 separate calls
        // — counters pass through to the backend.
        assert_eq!(source.counters().sorted, 3);
        // Past-the-end probes still reach the backend and are counted.
        assert!(source
            .sorted_access(Position::new(4).unwrap(), false)
            .is_none());
        assert_eq!(source.counters().sorted, 4);
    }

    #[test]
    fn batching_forwards_tracked_and_non_sorted_accesses() {
        let db = db();
        let mut sources = Sources::in_memory(&db).batched(2);
        let source = sources.source(1);
        let entry = source.sorted_access(Position::FIRST, true).unwrap();
        assert_eq!(entry.best_position_score.unwrap().value(), 28.0);
        assert_eq!(source.best_position(), Some(Position::FIRST));
        assert!(source.random_access(ItemId(2), true, true).is_some());
        assert!(source.direct_access_next().is_some());
        assert_eq!(source.tail_score().value(), 14.0);
        assert_eq!(source.len(), 3);
        assert!(!source.is_empty());

        source.reset();
        assert_eq!(source.counters(), AccessCounters::default());
        assert_eq!(source.best_position(), None);
    }

    /// A store over a borrowed list that keeps the trait's default
    /// entry-by-entry `read_block`: the reference for the slice walk.
    #[derive(Debug)]
    struct EntryByEntry<'a>(&'a SortedList);

    impl ListStore for EntryByEntry<'_> {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn entry(&mut self, position: Position) -> Option<(ItemId, Score)> {
            ListStore::entry(&mut self.0, position)
        }
        fn lookup(&mut self, item: ItemId) -> Option<crate::PositionedScore> {
            self.0.lookup(item)
        }
        fn score_at(&mut self, position: Position) -> Option<Score> {
            self.0.score_at(position)
        }
        fn tail_score(&self) -> Score {
            self.0.last_entry().score
        }
    }

    fn twelve_entry_db() -> Database {
        // One list of 12 entries with distinct scores, plus a sibling so
        // the database shape matches the paper's (m >= 2).
        Database::from_unsorted_lists(vec![
            (1..=12u64).map(|i| (i, (13 - i) as f64 * 2.0)).collect(),
            (1..=12u64).map(|i| (i, i as f64)).collect(),
        ])
        .unwrap()
    }

    /// The in-memory slice walk is bit-identical to the default
    /// entry-by-entry block read — same entries, same counters, same
    /// tracker state, same block-level piggyback — across tracked and
    /// untracked blocks interleaved with the other access modes.
    fn check_fast_block_path<T: PositionTracker>() {
        let db = twelve_entry_db();
        let name = std::any::type_name::<T>();
        let mut fast = TrackedSource::<_, T>::from_store(db.list(0).unwrap());
        let mut slow = TrackedSource::<_, T>::from_store(EntryByEntry(db.list(0).unwrap()));

        // (start, len, track) patterns: head block, mid overlap, exact
        // tail, past-the-end clip, fully out of bounds, single entry.
        let blocks = [
            (1, 4, true),
            (3, 5, false),
            (5, 8, true),
            (12, 1, true),
            (9, 99, false),
            (13, 3, true),
            (2, 1, false),
        ];
        for &(start, len, track) in &blocks {
            let start = Position::new(start).unwrap();
            assert_eq!(
                fast.sorted_block(start, len, track),
                slow.sorted_block(start, len, track),
                "{name} block at {start} x {len} (track: {track})"
            );
            assert_eq!(fast.counters(), slow.counters(), "{name}");
            assert_eq!(fast.best_position(), slow.best_position(), "{name}");

            // Interleave the other access modes so later blocks start
            // from non-trivial tracker state.
            assert_eq!(
                fast.random_access(ItemId(7), true, true),
                slow.random_access(ItemId(7), true, true)
            );
            assert_eq!(fast.direct_access_next(), slow.direct_access_next());
        }

        fast.reset();
        slow.reset();
        assert_eq!(fast.counters(), AccessCounters::default());
        assert_eq!(
            fast.sorted_block(Position::FIRST, 12, true),
            slow.sorted_block(Position::FIRST, 12, true),
            "{name} after reset"
        );
    }

    #[test]
    fn fast_block_path_matches_the_default_path() {
        check_fast_block_path::<BitArrayTracker>();
        check_fast_block_path::<BPlusTreeTracker>();
        check_fast_block_path::<NaiveSetTracker>();
    }

    #[test]
    fn fast_block_path_counts_only_in_bounds_reads() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        // Start past the end: no entries, nothing counted (the default
        // path's loop never runs either).
        let entries = sources
            .source(0)
            .sorted_block(Position::new(7).unwrap(), 5, false);
        assert!(entries.is_empty());
        assert_eq!(sources.source_ref(0).counters().sorted, 0);
        // Clipped block: only the two in-bounds reads are counted.
        let entries = sources
            .source(0)
            .sorted_block(Position::new(2).unwrap(), 100, true);
        assert_eq!(entries.len(), 2);
        assert_eq!(
            sources.source_ref(0).counters(),
            AccessCounters {
                sorted: 2,
                random: 0,
                direct: 0
            }
        );
    }

    #[test]
    fn epochs_pass_through_sources_and_decorators() {
        let mut db = db();
        db.update_score(1, ItemId(3), 29.0).unwrap();
        {
            let sources = Sources::in_memory(&db);
            assert_eq!(sources.epochs(), vec![0, 1]);
            assert_eq!(sources.source_ref(1).epoch(), 1);
        }
        let batched = Sources::in_memory(&db).batched(2);
        assert_eq!(batched.epochs(), vec![0, 1]);
    }

    /// A source over interior-mutable data: lets tests mutate the list
    /// *while a decorator holds it*, which the borrow-based in-memory
    /// source cannot express. Only the paths the batching decorator
    /// exercises are implemented.
    #[derive(Debug)]
    struct SharedListSource {
        list: std::rc::Rc<std::cell::RefCell<SortedList>>,
        counters: AccessCounters,
    }

    impl ListSource for SharedListSource {
        fn len(&self) -> usize {
            self.list.borrow().len()
        }
        fn sorted_access(&mut self, position: Position, _track: bool) -> Option<SourceEntry> {
            self.counters.sorted += 1;
            self.list.borrow().entry_at(position).map(|e| SourceEntry {
                position: e.position,
                item: e.item,
                score: e.score,
                best_position_score: None,
            })
        }
        fn random_access(
            &mut self,
            item: ItemId,
            with_position: bool,
            _track: bool,
        ) -> Option<SourceScore> {
            self.counters.random += 1;
            self.list.borrow().lookup(item).map(|ps| SourceScore {
                score: ps.score,
                position: with_position.then_some(ps.position),
                best_position_score: None,
            })
        }
        fn direct_access_next(&mut self) -> Option<SourceEntry> {
            None
        }
        fn best_position(&self) -> Option<Position> {
            None
        }
        fn epoch(&self) -> u64 {
            self.list.borrow().epoch()
        }
        fn tail_score(&self) -> Score {
            self.list.borrow().last_entry().score
        }
        fn counters(&self) -> AccessCounters {
            self.counters
        }
        fn reset(&mut self) {
            self.counters = AccessCounters::default();
        }
    }

    #[test]
    fn batching_invalidates_the_prefetched_block_on_epoch_change() {
        let list = std::rc::Rc::new(std::cell::RefCell::new(
            SortedList::from_unsorted(vec![
                (ItemId(1), 30.0),
                (ItemId(2), 20.0),
                (ItemId(3), 10.0),
            ])
            .unwrap(),
        ));
        let inner = SharedListSource {
            list: std::rc::Rc::clone(&list),
            counters: AccessCounters::default(),
        };
        let mut batched = BatchingSource::new(Box::new(inner), 3);

        // Prefetch positions 1..=3, then serve position 2 from the buffer.
        assert_eq!(
            batched.sorted_access(Position::FIRST, false).unwrap().item,
            ItemId(1)
        );
        let stale_would_be = batched
            .sorted_access(Position::new(2).unwrap(), false)
            .unwrap();
        assert_eq!(stale_would_be.item, ItemId(2));
        assert_eq!(batched.counters().sorted, 3, "one block of 3 prefetched");

        // Mutate under the decorator: item 3 jumps to the top.
        list.borrow_mut().update_score(ItemId(3), 40.0).unwrap();
        assert_eq!(batched.epoch(), 1);

        // The buffered entry for position 2 is stale (it now holds item 1);
        // the epoch check forces a re-fetch instead of serving it.
        let fresh = batched
            .sorted_access(Position::new(2).unwrap(), false)
            .unwrap();
        assert_eq!(fresh.item, ItemId(1));
        assert_eq!(fresh.score.value(), 30.0);
        assert!(
            batched.counters().sorted > 3,
            "the stale block was not served"
        );
    }

    #[test]
    #[should_panic(expected = "block_len")]
    fn zero_block_len_is_rejected() {
        let db = db();
        let _ = Sources::in_memory(&db).batched(0);
    }

    #[test]
    #[should_panic(expected = "at least one list")]
    fn empty_source_set_is_rejected() {
        let _ = Sources::new(Vec::new());
    }
}
