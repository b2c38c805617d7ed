//! `ShardedDatabase`: the name of the retired sharded backend, kept only
//! because the end-to-end benchmark in `perfbench/` compiles against it.
//!
//! It is a [`Database`] whose per-query views are the in-memory access
//! core over the database's shared `Arc<SortedList>`s — the store the list
//! owners use. Opening a view copies no entries, and a view opened before
//! an update keeps serving its pre-update snapshot (a [`Database`]
//! mutation copies a list that an open view still shares). Batches run in
//! parallel per query: use [`Sources::in_memory`] with
//! `topk_core::batch::QueryBatch`.
//!
//! The shard count of [`ShardedDatabase::new`] and the pool of
//! [`ShardedDatabase::sources`] are unused; they stay in the signatures
//! because perfbench passes them. Once perfbench opens
//! [`Sources::in_memory`] over its `Database` itself, the shim can go.
//!
//! ```
//! use topk_lists::prelude::*;
//! use topk_lists::sharded::ShardedDatabase;
//! use topk_pool::ThreadPool;
//!
//! let db = Database::from_unsorted_lists(vec![
//!     vec![(1, 30.0), (2, 11.0)],
//!     vec![(1, 21.0), (2, 28.0)],
//! ])
//! .unwrap();
//! let pool = ThreadPool::new(1);
//! let mut live = ShardedDatabase::new(&db, 2);
//! let mut before = live.sources(&pool);
//! live.update_score(0, ItemId(2), 40.0).unwrap();
//! // The view opened before the update still serves the old order.
//! let top = before.source(0).sorted_access(Position::FIRST, false).unwrap();
//! assert_eq!(top.item, ItemId(1));
//! assert_eq!(live.epochs(), vec![1, 0]);
//! ```

use std::sync::Arc;

use topk_pool::ThreadPool;

use crate::database::Database;
use crate::error::ListError;
use crate::item::ItemId;
use crate::sorted_list::ScoreUpdate;
use crate::source::Sources;
use crate::tracker::TrackerKind;

/// A live, updatable [`Database`] whose views share its lists; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardedDatabase {
    database: Database,
}

impl ShardedDatabase {
    /// Shares the lists of `database` copy-on-write. `_shards_per_list`
    /// is unused (perfbench passes it).
    pub fn new(database: &Database, _shards_per_list: usize) -> Self {
        ShardedDatabase {
            database: database.clone(),
        }
    }

    /// Opens a per-query view with the default bit-array trackers.
    /// `pool` is unused (perfbench passes it).
    pub fn sources<'p>(&self, pool: &'p ThreadPool) -> Sources<'p> {
        self.sources_with_tracker(pool, TrackerKind::BitArray)
    }

    /// Opens a per-query view with an explicit tracking strategy.
    /// `_pool` is unused (perfbench passes it).
    pub fn sources_with_tracker<'p>(
        &self,
        _pool: &'p ThreadPool,
        kind: TrackerKind,
    ) -> Sources<'p> {
        Sources::new(
            self.database
                .shared_lists()
                .iter()
                .map(|list| kind.source(Arc::clone(list)))
                .collect(),
        )
    }

    /// Per-list epochs: each list's monotone mutation counter.
    pub fn epochs(&self) -> Vec<u64> {
        self.database.epochs()
    }

    /// Changes one item's local score in list `list`; see
    /// [`Database::update_score`]. Open views keep their snapshot.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Position;
    use crate::source::{SourceEntry, SourceScore, SourceSet};

    /// What a view replies to one fixed access script per list, and its
    /// best positions afterwards.
    type Replies = (
        Vec<Option<SourceEntry>>,
        Vec<Option<SourceScore>>,
        Vec<Option<Position>>,
    );

    fn script(sources: &mut Sources<'_>) -> Replies {
        let (mut entries, mut scores, mut best) = (Vec::new(), Vec::new(), Vec::new());
        for list in 0..sources.num_lists() {
            let source = sources.source(list);
            entries.push(source.sorted_access(Position::FIRST, true));
            let block = source.sorted_block(Position::new(3).unwrap(), 4, true);
            entries.extend(block.into_iter().map(Some));
            scores.push(source.random_access(ItemId(2), true, true));
            entries.push(source.direct_access_next());
            entries.push(source.sorted_access(Position::new(99).unwrap(), false));
            best.push(source.best_position());
        }
        (entries, scores, best)
    }

    #[test]
    fn open_views_keep_their_pre_mutation_snapshot() {
        // 2 lists x 10 items with distinct scores.
        let database = Database::from_unsorted_lists(vec![
            (1..=10u64).map(|i| (i, (11 - i) as f64 * 3.0)).collect(),
            (1..=10u64).map(|i| (i, i as f64 * 2.0)).collect(),
        ])
        .unwrap();
        let pool = ThreadPool::new(1);
        for kind in TrackerKind::ALL {
            let mut live = ShardedDatabase::new(&database, 3);
            let mut before = live.sources_with_tracker(&pool, kind);
            live.update_score(0, ItemId(10), 50.0).unwrap();
            live.update_score(1, ItemId(1), 1.0).unwrap();
            assert_eq!(live.epochs(), vec![1, 1]);
            assert!(matches!(
                live.update_score(9, ItemId(1), 1.0),
                Err(ListError::ListIndexOutOfRange { index: 9, len: 2 })
            ));
            assert_eq!(live.epochs(), vec![1, 1], "{kind:?}: a failed update");

            // The view opened before the updates still serves the original
            // snapshot, reply for reply and counter for counter.
            assert_eq!(before.epochs(), vec![0, 0]);
            let mut expected = Sources::in_memory_with_tracker(&database, kind);
            assert_eq!(script(&mut before), script(&mut expected), "{kind:?}");
            assert_eq!(before.per_list_counters(), expected.per_list_counters());

            // A fresh view sees the updated lists.
            let mut mirror = database.clone();
            mirror.update_score(0, ItemId(10), 50.0).unwrap();
            mirror.update_score(1, ItemId(1), 1.0).unwrap();
            let mut after = live.sources_with_tracker(&pool, kind);
            assert_eq!(after.epochs(), vec![1, 1]);
            let mut expected = Sources::in_memory_with_tracker(&mirror, kind);
            assert_eq!(script(&mut after), script(&mut expected), "{kind:?}");
            assert_eq!(after.per_list_counters(), expected.per_list_counters());
        }
    }
}
