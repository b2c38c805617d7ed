//! Disk-backed paged list storage for the top-k algorithms.
//!
//! Every other backend in the workspace keeps its lists in `Vec`s; this
//! crate stores them as **paged files** so databases larger than RAM can
//! still serve the paper's three access modes:
//!
//! * [`layout`]/`writer` — the on-disk format: fixed-size pages of
//!   little-endian `(item, score)` entries in descending score order,
//!   a checksummed header with entry count and tail score, a page index
//!   of per-page tail scores, and an item index for `O(log n)` random
//!   access (the indexed lookup the paper's `cr = log n` cost assumes).
//! * [`PagedSource`] — a `ListSource` over one such file: the access
//!   core of `topk_lists::tracked` over a [`PagedStore`], which reads
//!   pages through a deterministic LRU cache ([`CacheCapacity`]). Logical
//!   accesses are bit-identical to the in-memory backend; the physical
//!   difference shows up only in per-source hit/miss counters, which
//!   `topk_core::CostModel::total_cost` prices as a fourth access class.
//! * [`PagedDatabase`] — writes/opens a directory of list files and
//!   hands out `Sources`, so `plan_and_run_on`, `QueryBatch` and the
//!   `.batched(block_len)` decorator compose unchanged over disk.
//!
//! IO failures follow the fail-stop contract of
//! `topk_lists::source::SourceError`: a failed page read latches a typed
//! error and unwinds; `TopKAlgorithm::run_on` converts the unwind into
//! `Err(TopKError::Source)`. The in-crate fault-injection suite drives
//! every read through failing `PageIo` doubles to prove it.
//!
//! # Running bigger than RAM
//!
//! Write a database to disk once, then run any algorithm over it with a
//! bounded number of resident pages (this snippet is mirrored in the
//! README):
//!
//! ```
//! use topk_core::prelude::*;
//! use topk_lists::prelude::*;
//! use topk_storage::{CacheCapacity, PageLayout, PagedDatabase, ScratchDir};
//!
//! let db = Database::from_unsorted_lists(vec![
//!     (1..=100u64).map(|i| (i, ((i * 37) % 101) as f64)).collect(),
//!     (1..=100u64).map(|i| (i, ((i * 61) % 103) as f64)).collect(),
//! ])
//! .unwrap();
//!
//! // One-time: lay the lists out as paged files (64-byte pages keep the
//! // example tiny; the default is 4 KiB).
//! let dir = ScratchDir::new("bigger-than-ram");
//! let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(64)).unwrap();
//!
//! // Query time: at most 2 pages of each list are ever resident.
//! let mut sources = paged.sources(CacheCapacity::Pages(2)).unwrap();
//! let result = Bpa2.run_on(&mut sources, &TopKQuery::top(5)).unwrap();
//! assert_eq!(result.len(), 5);
//!
//! // Identical answers and access counts to the in-memory backend —
//! // only the page cache knows the difference, and the cost model can
//! // price its misses as physical reads.
//! let in_memory = Bpa2.run(&db, &TopKQuery::top(5)).unwrap();
//! assert!(result.scores_match(&in_memory, 0.0));
//! assert_eq!(result.stats().accesses, in_memory.stats().accesses);
//! let cache = sources.total_cache_counters();
//! assert!(cache.misses > 0, "the data came off disk");
//! let model = CostModel::paper_default(db.num_items()).with_page_miss_cost(8.0);
//! assert!(model.total_cost(&result.stats().accesses, &cache) > model.execution_cost(&result.stats().accesses));
//!
//! // Plan without an in-memory copy: the planner's statistics are sampled
//! // through the paged sources themselves, which are reset afterwards.
//! let stats = DatabaseStats::collect_on(&mut sources).unwrap();
//! let (plan, planned) = plan_and_run_on(&mut sources, &stats, &TopKQuery::top(5)).unwrap();
//! assert!(planned.scores_match(&in_memory, 0.0));
//! println!("planner chose {:?}", plan.choice());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod database;
pub mod error;
mod file;
mod io;
pub mod layout;
pub mod scratch;
pub mod source;
mod writer;

#[cfg(test)]
mod fault;

pub use cache::CacheCapacity;
pub use database::PagedDatabase;
pub use error::StorageError;
pub use layout::{PageLayout, DEFAULT_PAGE_SIZE, MIN_PAGE_SIZE};
pub use scratch::ScratchDir;
pub use source::{PagedSource, PagedStore};
pub use writer::write_list;

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::cache::CacheCapacity;
    pub use crate::database::PagedDatabase;
    pub use crate::error::StorageError;
    pub use crate::layout::PageLayout;
    pub use crate::scratch::ScratchDir;
    pub use crate::source::{PagedSource, PagedStore};
}
