//! Sorted-list substrate for top-k query processing.
//!
//! This crate implements the storage layer that the algorithms of
//! [Akbarinia et al., VLDB 2007] run on:
//!
//! * [`SortedList`] — a list of `(item, local score)` pairs sorted in
//!   descending score order, with an item → position index so that *random
//!   access* (look up a given item) is O(1).
//! * [`item_index`] — that index: a dense array while item ids are
//!   dense, otherwise a hash map on the fixed [`ItemHasher`] (whose
//!   [`ItemMap`] the algorithms' per-query maps use).
//! * [`Database`] — a set of `m` sorted lists over the same `n` data items
//!   (the paper's "database").
//! * [`source`] — the one access model every backend implements:
//!   [`ListSource`] serves *sorted*, *random* and *direct* accesses and
//!   [`SourceSet`] groups the `m` lists of a query. Every access is
//!   counted ([`AccessCounters`]), so the middleware-cost metrics of the
//!   paper's evaluation are measured rather than estimated.
//!   [`Sources::in_memory`] is the in-process backend.
//! * [`tracked`] — the access core: [`TrackedSource`] implements the
//!   counting, tracking and piggyback rules of [`ListSource`] once, over
//!   any [`ListStore`] (in memory, sharded, paged, list owner).
//! * [`tracker`] — the *best position* bookkeeping of Section 5.2 of the
//!   paper: a [`tracker::PositionTracker`] trait with the bit-array
//!   (§5.2.1), B+tree (§5.2.2) and naive-set strategies.
//! * [`bptree`] — the order-configurable B+tree with linked leaves used by
//!   the B+tree tracker.
//!
//! * [`sharded`] — the range-partitioned read path: each shared sorted
//!   list read in contiguous position ranges derived from its length,
//!   whose block reads run in parallel on a shared `topk_pool::ThreadPool`
//!   ([`ShardedDatabase`]/[`ShardedSource`]).
//!
//! The crate's only dependency is the std-only `topk-pool` work-stealing
//! pool, and it is deliberately free of any algorithm logic; the
//! algorithms live in `topk-core`.
//!
//! # Example
//!
//! ```
//! use topk_lists::prelude::*;
//!
//! let list = SortedList::from_unsorted(vec![(ItemId(7), 0.3), (ItemId(1), 0.9)]).unwrap();
//! assert_eq!(list.entry_at(Position::new(1).unwrap()).unwrap().item, ItemId(1));
//! assert_eq!(list.position_of(ItemId(7)), Some(Position::new(2).unwrap()));
//! ```
//!
//! [Akbarinia et al., VLDB 2007]: https://hal.inria.fr/inria-00378836

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod access;
pub mod bptree;
pub mod database;
pub mod error;
pub mod item;
pub mod item_index;
pub mod sharded;
pub mod sorted_list;
pub mod source;
pub mod traced;
pub mod tracked;
pub mod tracker;

pub use access::{AccessCounters, AccessMode};
pub use bptree::BPlusTree;
pub use database::Database;
pub use error::ListError;
pub use item::{ItemId, Position, Score};
pub use item_index::{ItemHasher, ItemMap};
pub use sharded::{ShardedDatabase, ShardedSource, ShardedStore};
pub use sorted_list::{ListDelta, ListEntry, PositionedScore, ScoreUpdate, SortedList};
pub use source::{
    BatchingSource, CacheCounters, InMemorySource, ListSource, SourceEntry, SourceError,
    SourceErrorKind, SourceScore, SourceSet, Sources,
};
pub use tracked::{ListStore, TrackedSource};
pub use tracker::{
    BPlusTreeTracker, BitArrayTracker, NaiveSetTracker, PositionTracker, TrackerKind,
};

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::access::{AccessCounters, AccessMode};
    pub use crate::database::Database;
    pub use crate::error::ListError;
    pub use crate::item::{ItemId, Position, Score};
    pub use crate::sharded::{ShardedDatabase, ShardedSource, ShardedStore};
    pub use crate::sorted_list::{ListDelta, ListEntry, PositionedScore, ScoreUpdate, SortedList};
    pub use crate::source::{
        BatchingSource, CacheCounters, InMemorySource, ListSource, SourceEntry, SourceError,
        SourceScore, SourceSet, Sources,
    };
    pub use crate::traced::{TracedSource, TracedSources};
    pub use crate::tracked::TrackedSource;
    pub use crate::tracker::{
        BPlusTreeTracker, BitArrayTracker, NaiveSetTracker, PositionTracker, TrackerKind,
    };
}
