//! # bpa-topk
//!
//! Umbrella crate for the reproduction of *"Best Position Algorithms for
//! Top-k Queries"* (Akbarinia, Pacitti, Valduriez — VLDB 2007).
//!
//! The workspace implements the paper's two contributions — **BPA** and
//! **BPA2** — together with the baselines it compares against (the naive
//! full scan, Fagin's Algorithm and the Threshold Algorithm), the
//! sorted-list substrate they run on, the synthetic database generators of
//! the paper's evaluation, a distributed-execution simulation and a
//! benchmark harness that regenerates every figure of Section 6.
//!
//! This crate simply re-exports the member crates under stable names so
//! that downstream users can depend on a single crate:
//!
//! ```
//! use bpa_topk::prelude::*;
//!
//! // Build a tiny 2-list database and ask for the top-1 item by sum.
//! let lists = vec![
//!     vec![(0u64, 10.0), (1, 5.0), (2, 1.0)],
//!     vec![(1u64, 8.0), (0, 6.0), (2, 2.0)],
//! ];
//! let db = Database::from_unsorted_lists(lists).unwrap();
//! let result = Bpa.run(&db, &TopKQuery::new(1, Sum)).unwrap();
//! assert_eq!(result.items()[0].item, ItemId(0)); // 10 + 6 = 16
//! ```

#![forbid(unsafe_code)]

pub use topk_apps as apps;
pub use topk_core as core;
pub use topk_datagen as datagen;
pub use topk_distributed as distributed;
pub use topk_lists as lists;
pub use topk_pool as pool;
pub use topk_storage as storage;
pub use topk_trace as trace;

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use topk_core::prelude::*;
    pub use topk_datagen::prelude::*;
    pub use topk_lists::prelude::*;
    pub use topk_storage::prelude::*;
}
