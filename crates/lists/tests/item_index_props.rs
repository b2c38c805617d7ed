//! The item index behind random access, on dense and sparse ids.
//!
//! A `SortedList`'s index is a dense array while item ids are dense and a
//! hash map otherwise, switching when a far id arrives. No generated
//! database has sparse ids, so these tests are what exercises the hashed
//! shape and the switch: after every insert, delete and score update, the
//! list — read directly and through `ShardedSource` at 1 to 4 shards —
//! must read exactly like a list rebuilt from scratch over the same
//! `(item, score)` pairs.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use topk_lists::{
    ItemId, ListError, ListSource, Position, ShardedSource, ShardedStore, SortedList,
};
use topk_pool::ThreadPool;

/// Dense ids, ids at or above 2^40, and dense ids that later meet far ones.
const FAMILIES: u32 = 3;

/// Maps a generated id in `0..48` onto an item id of the given family.
fn item(family: u32, raw: u64) -> ItemId {
    match family {
        0 => ItemId(raw),
        1 => ItemId((1 << 40) + (raw << 20)),
        _ if raw < 40 => ItemId(raw),
        _ => ItemId(u64::MAX - raw),
    }
}

/// Asserts that `list` reads exactly like a list rebuilt from `model`,
/// directly and through `ShardedSource` at 1 to 4 shards: same entries in
/// the same order, and every item (present or not) found at the rebuilt
/// position with the rebuilt score.
fn assert_matches_rebuild(
    model: &BTreeMap<ItemId, f64>,
    list: &SortedList,
    pool: &ThreadPool,
    absent: &[ItemId],
) {
    let pairs = model.iter().map(|(&item, &score)| (item, score)).collect();
    let rebuilt = SortedList::from_unsorted(pairs).expect("the model is a valid list");
    let expected: Vec<_> = rebuilt.iter().collect();
    assert_eq!(list.iter().collect::<Vec<_>>(), expected);
    for e in &expected {
        assert_eq!(list.lookup(e.item), rebuilt.lookup(e.item), "{}", e.item);
    }
    for &item in absent.iter().filter(|item| !model.contains_key(item)) {
        assert_eq!(list.lookup(item), None, "{item}");
    }

    let shared = Arc::new(list.clone());
    for shards in 1..=4 {
        let mut source = ShardedSource::new(ShardedStore::new(Arc::clone(&shared), shards, pool));
        let block = source.sorted_block(Position::FIRST, expected.len(), false);
        let read: Vec<_> = block
            .iter()
            .map(|e| (e.position, e.item, e.score))
            .collect();
        let want: Vec<_> = expected
            .iter()
            .map(|e| (e.position, e.item, e.score))
            .collect();
        assert_eq!(read, want, "{shards} shards");
        for e in &expected {
            let sorted = source.sorted_access(e.position, false).expect("in bounds");
            assert_eq!((sorted.item, sorted.score), (e.item, e.score));
            let random = source.random_access(e.item, true, false).expect("present");
            assert_eq!((random.position, random.score), (Some(e.position), e.score));
        }
        for &item in absent.iter().filter(|item| !model.contains_key(item)) {
            assert!(source.random_access(item, true, false).is_none(), "{item}");
        }
    }
}

/// Applies `(op, raw id, score)` triples to a `SortedList` and a
/// `BTreeMap` model: op 0 inserts, op 1 deletes, anything else updates
/// the score. The list must accept or refuse each operation as the model
/// predicts, and match a rebuild after every step.
fn run_sequence(family: u32, initial: &[(u64, u32)], ops: &[(u32, u64, u32)]) {
    let pool = ThreadPool::new(1);
    let mut model = BTreeMap::new();
    for &(raw, score) in initial {
        model.insert(item(family, raw), f64::from(score));
    }
    let pairs = model.iter().map(|(&item, &score)| (item, score)).collect();
    let mut list = SortedList::from_unsorted(pairs).expect("the model is a valid list");
    let absent: Vec<ItemId> = (0..48).map(|raw| item(family, raw)).collect();

    for &(op, raw, score) in ops {
        let id = item(family, raw);
        let score = f64::from(score);
        let present = model.contains_key(&id);
        match op {
            0 => {
                let inserted = list.insert(id, score);
                assert_eq!(inserted.is_ok(), !present, "insert {id}");
                if inserted.is_ok() {
                    model.insert(id, score);
                }
            }
            1 => {
                let deleted = list.delete(id);
                assert_eq!(deleted.is_ok(), present && model.len() > 1, "delete {id}");
                if deleted.is_ok() {
                    model.remove(&id);
                }
            }
            _ => {
                let updated = list.update_score(id, score);
                assert_eq!(updated.is_ok(), present, "update {id}");
                if updated.is_ok() {
                    model.insert(id, score);
                }
            }
        }
        assert_matches_rebuild(&model, &list, &pool, &absent);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/delete/update sequences over every id family (small
    /// score range, so tie runs are common) leave the list, read directly
    /// and sharded, equal to a from-scratch rebuild.
    #[test]
    fn mutations_match_a_rebuild_on_dense_and_sparse_ids(
        family in 0u32..FAMILIES,
        initial in proptest::collection::vec((0u64..48, 0u32..6), 1..=16),
        ops in proptest::collection::vec((0u32..3, 0u64..48, 0u32..6), 0..=40),
    ) {
        run_sequence(family, &initial, &ops);
    }
}

fn sparse_pairs() -> Vec<(ItemId, f64)> {
    (0..12u64)
        .map(|i| (ItemId((1 << 40) + i * 0x1_0000_0001), (i % 5) as f64))
        .collect()
}

#[test]
fn lists_over_ids_at_or_above_2_pow_40_serve_every_access() {
    let pool = ThreadPool::new(2);
    let list = SortedList::from_unsorted(sparse_pairs()).unwrap();
    let model: BTreeMap<ItemId, f64> = sparse_pairs().into_iter().collect();
    let absent = [ItemId(0), ItemId((1 << 40) | 1), ItemId(u64::MAX)];
    assert_matches_rebuild(&model, &list, &pool, &absent);
    assert_eq!(
        SortedList::from_unsorted(vec![(ItemId(1 << 41), 1.0), (ItemId(1 << 41), 2.0)])
            .unwrap_err(),
        ListError::DuplicateItem(ItemId(1 << 41))
    );
}

#[test]
fn a_far_insert_into_a_dense_list_keeps_every_lookup() {
    let pool = ThreadPool::new(1);
    let pairs: Vec<(ItemId, f64)> = (0..10u64).map(|i| (ItemId(i), i as f64)).collect();
    let mut model: BTreeMap<ItemId, f64> = pairs.iter().copied().collect();
    let mut list = SortedList::from_unsorted(pairs).unwrap();
    // Ids just past the dense range grow the array; the far one switches
    // the index to its hashed shape mid-stream.
    for (id, score) in [(70u64, 4.5), (1 << 44, 7.5), (71, 0.5)] {
        list.insert(ItemId(id), score).unwrap();
        model.insert(ItemId(id), score);
        assert_matches_rebuild(&model, &list, &pool, &[ItemId(11)]);
    }
    list.update_score(ItemId(1 << 44), -1.0).unwrap();
    model.insert(ItemId(1 << 44), -1.0);
    assert_matches_rebuild(&model, &list, &pool, &[ItemId(11)]);
    assert_eq!(list.last_entry().item, ItemId(1 << 44));
    assert_eq!(list.position_of(ItemId(1 << 44)), Position::new(13));
}

#[test]
fn delete_then_reinsert_of_the_same_id() {
    let pool = ThreadPool::new(1);
    for family in 0..FAMILIES {
        let pairs: Vec<(ItemId, f64)> = (38..46u64)
            .map(|raw| (item(family, raw), raw as f64))
            .collect();
        let mut model: BTreeMap<ItemId, f64> = pairs.iter().copied().collect();
        let mut list = SortedList::from_unsorted(pairs).unwrap();
        let id = item(family, 41);
        for score in [100.0, 41.0, -3.0] {
            list.delete(id).unwrap();
            model.remove(&id);
            assert_matches_rebuild(&model, &list, &pool, &[id]);
            assert_eq!(list.delete(id).unwrap_err(), ListError::UnknownItem(id));
            list.insert(id, score).unwrap();
            model.insert(id, score);
            assert_matches_rebuild(&model, &list, &pool, &[]);
        }
    }
}
