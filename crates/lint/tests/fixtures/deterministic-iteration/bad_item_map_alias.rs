// lint-fixture-path: crates/core/src/topk_buffer.rs
// A type alias hides the hash container from a plain token match:
// `ItemMap` is a `HashMap` on a fixed hasher, so walking it still yields
// hash order, which shifts with every capacity and insertion history.

use topk_lists::{ItemId, ItemMap, Score};

pub fn offered_ids(offered: &ItemMap<Score>) -> Vec<ItemId> {
    offered.keys().copied().collect()
}

pub fn first_resolved() -> Option<ItemId> {
    let resolved = ItemMap::<Score>::default();
    for (item, _) in &resolved {
        return Some(*item);
    }
    None
}
