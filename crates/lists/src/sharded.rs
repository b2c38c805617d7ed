//! The sharded storage backend: sorted lists read in contiguous
//! position ranges whose block reads run in parallel on a shared
//! work-stealing pool.
//!
//! A sharded list is the list itself — one shared [`SortedList`] — plus a
//! shard count. The shard ranges are derived from the list's current
//! length: `n` entries over `S` shards (`S` clamped to `1..=n`) give each
//! shard `n / S` consecutive positions, and the first `n % S` shards one
//! more. Mutations go through [`Database`], the one mutation path, and the
//! ranges follow the new length, so they stay contiguous by construction.
//!
//! A query reads a sharded list through [`ShardedSource`], the access core
//! ([`TrackedSource`]) over a [`ShardedStore`], so counting, the one
//! best-position tracker per list and the piggyback follow exactly the
//! rules of every other backend. The store only decides how entries are
//! read:
//!
//! * a block that spans several shards dispatches one copy job per shard
//!   onto the shared [`ThreadPool`], and the copies are concatenated in
//!   shard order, so the result is independent of shard count and pool
//!   width;
//! * a block within one shard, a single-position read and a random access
//!   go straight to the list on the calling thread.
//!
//! [`ShardedDatabase`] is a [`Database`] plus the shard count. Its lists
//! are shared copy-on-write, so opening per-query [`ShardedSource`]s is
//! cheap, and any number of concurrent queries (see
//! `topk_core::batch::QueryBatch`) share one physical copy of the data and
//! one pool.
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

use crate::database::Database;
use crate::error::ListError;
use crate::item::{ItemId, Position, Score};
use crate::sorted_list::{PositionedScore, ScoreUpdate, SortedList};
use crate::source::{ListSource, SourceEntry, Sources};
use crate::tracked::{ListStore, TrackedSource};
use crate::tracker::TrackerKind;

/// The shard ranges of an `n`-entry list cut into `count` shards: shard
/// `s` holds `base + 1` entries when `s < extra` and `base` otherwise.
#[derive(Debug, Clone, Copy)]
struct Layout {
    count: usize,
    base: usize,
    extra: usize,
}

impl Layout {
    /// The layout of `n >= 1` entries over `shards` shards, clamped to
    /// `1..=n`.
    fn new(n: usize, shards: usize) -> Self {
        let count = shards.clamp(1, n);
        Layout {
            count,
            base: n / count,
            extra: n % count,
        }
    }

    /// The 0-based entry index where shard `s` starts (`start(count)` is
    /// one past the last entry).
    fn start(&self, s: usize) -> usize {
        s * self.base + s.min(self.extra)
    }

    /// The shard holding the 0-based entry index `i`.
    fn shard_of(&self, i: usize) -> usize {
        let long = self.extra * (self.base + 1);
        if i < long {
            i / (self.base + 1)
        } else {
            self.extra + (i - long) / self.base
        }
    }
}

/// The [`ListStore`] of a sharded list: a shared snapshot of the list,
/// the shard count its ranges derive from, and the pool its block reads
/// fan out on.
///
/// All per-query state (tracker, counters) lives in the [`ShardedSource`]
/// around it. The snapshot is never mutated: a [`Database`] mutation
/// copies a list that an open view still shares (`Arc::make_mut`), so a
/// view keeps serving its pre-mutation snapshot until reopened.
#[derive(Debug)]
pub struct ShardedStore<'p> {
    list: Arc<SortedList>,
    shards: usize,
    pool: &'p ThreadPool,
}

impl<'p> ShardedStore<'p> {
    /// A store reading `list` in `shards` position ranges (clamped to
    /// `1..=n`), with block reads on `pool`.
    pub fn new(list: Arc<SortedList>, shards: usize, pool: &'p ThreadPool) -> Self {
        ShardedStore { list, shards, pool }
    }

    /// The shard ranges at the list's current length.
    fn layout(&self) -> Layout {
        Layout::new(self.list.len(), self.shards)
    }
}

/// One sharded list served through the access core: one best-position
/// tracker over the whole list, shard-parallel block reads.
pub type ShardedSource<'p> = TrackedSource<ShardedStore<'p>>;

impl ListStore for ShardedStore<'_> {
    fn len(&self) -> usize {
        self.list.len()
    }

    fn entry(&mut self, position: Position) -> Option<(ItemId, Score)> {
        ListStore::entry(&mut self.list, position)
    }

    fn lookup(&mut self, item: ItemId) -> Option<PositionedScore> {
        ListStore::lookup(&mut self.list, item)
    }

    fn score_at(&mut self, position: Position) -> Option<Score> {
        ListStore::score_at(&mut self.list, position)
    }

    fn read_block(&mut self, first: Position, last: Position) -> Vec<SourceEntry> {
        let layout = self.layout();
        let (lo, hi) = (first.index(), last.index());
        let shards = layout.shard_of(lo)..=layout.shard_of(hi);
        if shards.start() == shards.end() {
            // Single shard involved: read inline, nothing to fan out.
            return self.list.read_block(first, last);
        }
        // One copy job per shard on the shared pool; `scope_run` returns
        // in submission (= shard) order, so the merge is deterministic
        // regardless of pool width.
        let list: &SortedList = &self.list;
        let jobs: Vec<_> = shards
            .map(|s| {
                let from = Position::from_index(lo.max(layout.start(s)));
                let to = Position::from_index(hi.min(layout.start(s + 1) - 1));
                move || {
                    let mut shard = list;
                    shard.read_block(from, to)
                }
            })
            .collect();
        self.pool.scope_run(jobs).concat()
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
}

/// A database whose every list is read in shard-parallel position ranges,
/// shared by any number of concurrent queries.
///
/// This is the backend behind the batched front door: build it once, then
/// open a cheap per-query [`Sources`] view per query (each view has its
/// own tracker and counters per list; the entry data is shared through
/// `Arc`s). Mutations forward to the [`Database`] inside.
#[derive(Debug, Clone)]
pub struct ShardedDatabase {
    database: Database,
    shards_per_list: usize,
}

impl ShardedDatabase {
    /// Reads every list of `database` in `shards_per_list` contiguous
    /// position ranges (clamped to `1..=n`). The lists are shared with
    /// `database` copy-on-write, not copied.
    pub fn new(database: &Database, shards_per_list: usize) -> Self {
        ShardedDatabase {
            database: database.clone(),
            shards_per_list,
        }
    }

    /// The database the shards are read from.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Number of lists (`m`).
    pub fn num_lists(&self) -> usize {
        self.database.num_lists()
    }

    /// Number of items per list (`n`).
    pub fn num_items(&self) -> usize {
        self.database.num_items()
    }

    /// Number of shards each list is split into at its current length.
    pub fn shards_per_list(&self) -> usize {
        Layout::new(self.num_items(), self.shards_per_list).count
    }

    /// Opens a per-query [`Sources`] view over the shared lists with the
    /// default bit-array trackers. The view composes like any other
    /// source set — e.g. [`Sources::batched`] turns sequential scans into
    /// the shard-parallel block fetches.
    pub fn sources<'p>(&self, pool: &'p ThreadPool) -> Sources<'p> {
        self.sources_with_tracker(pool, TrackerKind::BitArray)
    }

    /// Opens a per-query view with an explicit tracking strategy.
    pub fn sources_with_tracker<'p>(&self, pool: &'p ThreadPool, kind: TrackerKind) -> Sources<'p> {
        Sources::new(
            self.database
                .shared_lists()
                .iter()
                .map(|list| {
                    let store = ShardedStore::new(Arc::clone(list), self.shards_per_list, pool);
                    Box::new(ShardedSource::with_tracker(store, kind)) as Box<dyn ListSource>
                })
                .collect(),
        )
    }

    /// Per-list epochs: each list's monotone mutation counter.
    pub fn epochs(&self) -> Vec<u64> {
        self.database.epochs()
    }

    /// Changes one item's local score in list `list`; see
    /// [`Database::update_score`]. Open query views are untouched
    /// (snapshot isolation).
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
        self.database.update_score(list, item, score)
    }

    /// Inserts a new item with one local score per list; see
    /// [`Database::insert_item`].
    ///
    /// # Errors
    ///
    /// Returns an error if the score count mismatches, any score is NaN,
    /// or the item is already present.
    pub fn insert_item(&mut self, item: ItemId, scores: &[f64]) -> Result<(), ListError> {
        self.database.insert_item(item, scores)
    }

    /// Deletes an item from every list; see [`Database::delete_item`].
    ///
    /// # Errors
    ///
    /// Returns an error if the item is not present or is the last one.
    pub fn delete_item(&mut self, item: ItemId) -> Result<(), ListError> {
        self.database.delete_item(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessCounters;
    use crate::source::SourceSet;

    fn db() -> Database {
        // 2 lists x 10 items with distinct scores.
        Database::from_unsorted_lists(vec![
            (1..=10u64).map(|i| (i, (11 - i) as f64 * 3.0)).collect(),
            (1..=10u64).map(|i| (i, i as f64 * 2.0)).collect(),
        ])
        .unwrap()
    }

    /// A store over list `list` of `database` in `shards` ranges.
    fn store<'p>(
        database: &Database,
        list: usize,
        shards: usize,
        pool: &'p ThreadPool,
    ) -> ShardedStore<'p> {
        ShardedStore::new(Arc::clone(&database.shared_lists()[list]), shards, pool)
    }

    #[test]
    fn shards_partition_positions_contiguously() {
        let database = db();
        let pool = ThreadPool::new(1);
        // 10 items over 3 shards: sizes 4, 3, 3 starting at 1, 5, 8.
        let mut list = store(&database, 0, 3, &pool);
        assert_eq!(list.layout().count, 3);
        assert_eq!(ListStore::len(&list), 10);
        let layout = list.layout();
        let bounds: Vec<(usize, usize)> = (0..3)
            .map(|s| (layout.start(s) + 1, layout.start(s + 1)))
            .collect();
        assert_eq!(bounds, vec![(1, 4), (5, 7), (8, 10)]);
        for p in 1..=10 {
            let shard = layout.shard_of(p - 1);
            assert!(bounds[shard].0 <= p && p <= bounds[shard].1);
            // Entries agree with the unsharded list.
            let position = Position::new(p).unwrap();
            let reference = database.list(0).unwrap().entry_at(position).unwrap();
            assert_eq!(
                list.entry(position),
                Some((reference.item, reference.score))
            );
        }
        assert_eq!(list.entry(Position::new(11).unwrap()), None);
        assert_eq!(list.tail_score().value(), 3.0);

        // Every length and shard count: the ranges tile `0..n` in order,
        // the first `n % S` one entry longer, and `shard_of` agrees.
        for n in 1..=24 {
            for shards in 0..=26 {
                let layout = Layout::new(n, shards);
                assert_eq!(layout.count, shards.clamp(1, n));
                assert_eq!((layout.start(0), layout.start(layout.count)), (0, n));
                for s in 0..layout.count {
                    let len = layout.start(s + 1) - layout.start(s);
                    assert_eq!(len, n / layout.count + usize::from(s < n % layout.count));
                    for i in layout.start(s)..layout.start(s + 1) {
                        assert_eq!(layout.shard_of(i), s, "n {n}, {shards} shards, index {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn shard_count_is_clamped_to_the_list_size() {
        let database = db();
        let pool = ThreadPool::new(1);
        assert_eq!(store(&database, 0, 99, &pool).layout().count, 10);
        let list = store(&database, 0, 0, &pool);
        assert_eq!(list.layout().count, 1);
        assert!(!list.is_empty());
    }

    #[test]
    fn merged_best_position_walks_full_shards() {
        let database = db();
        let pool = ThreadPool::new(1);
        let mut source = ShardedSource::new(store(&database, 0, 3, &pool));

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
        let mut source = ShardedSource::new(store(&database, 1, 4, &pool));
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
    fn blocks_fan_out_over_the_ranges_of_the_mutated_list() {
        // Every mutation goes through the database; the shard ranges follow
        // the new length. A fresh view's whole-list block runs one pool
        // task per shard — min(S, n), down to n < S — a block inside one
        // shard runs none, and the entries are the in-memory source's.
        const SHARDS: usize = 4;
        let pool = ThreadPool::new(2);
        let mut sharded = ShardedDatabase::new(&db(), SHARDS);
        let check = |sharded: &ShardedDatabase| {
            let n = sharded.num_items();
            assert_eq!(sharded.shards_per_list(), SHARDS.min(n));
            let mut expected = Sources::in_memory(sharded.database());
            let mut sources = sharded.sources(&pool);
            for list in 0..sharded.num_lists() {
                let before = pool.tasks_executed();
                let block = sources.source(list).sorted_block(Position::FIRST, n, false);
                assert_eq!(pool.tasks_executed() - before, SHARDS.min(n), "n = {n}");
                let reference = expected
                    .source(list)
                    .sorted_block(Position::FIRST, n, false);
                assert_eq!(block, reference, "n = {n}");

                let before = pool.tasks_executed();
                let block = sources.source(list).sorted_block(Position::FIRST, 1, false);
                assert_eq!(pool.tasks_executed(), before, "one shard, no fan-out");
                assert_eq!(block[..], reference[..1]);
            }
        };
        check(&sharded);
        sharded.update_score(0, ItemId(9), 40.0).unwrap();
        sharded.update_score(1, ItemId(1), 1.0).unwrap();
        sharded.insert_item(ItemId(42), &[25.5, 100.0]).unwrap();
        check(&sharded);
        for item in [42u64, 1, 2, 3, 4, 5, 6, 7, 8] {
            sharded.delete_item(ItemId(item)).unwrap();
            check(&sharded);
        }
        assert_eq!(sharded.num_items(), 2);
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
