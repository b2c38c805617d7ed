//! The item → (position, score) index behind random access of a
//! [`SortedList`](crate::SortedList), plus the fixed hasher the per-query
//! item maps of the algorithm layer use.
//!
//! Random access is the hottest lookup of every algorithm: TA, BPA and
//! BPA2 issue `m − 1` of them per item they resolve. Two storage shapes
//! serve it (the dense-array against sparse-hash trade-off of
//! multidimensional storage):
//!
//! * **dense** — two arrays indexed by the item id itself, the item's
//!   entry index (`u32`) and its score, used while the ids are dense
//!   (max id < 2n + 64, which every generated database and interned
//!   application satisfies): one bounds check and two independent loads;
//! * **hashed** — an [`ItemMap`] of (index, score) slots on the fixed
//!   [`ItemHasher`] otherwise.
//!
//! The index keeps each item's score beside its entry index so that a
//! random access never reads the list entry it points to: the two loads
//! depend only on the id and overlap, where reading the index and then
//! the entry would be two dependent cache misses. That also makes the
//! cost of a random access less sensitive to the load other processes
//! put on the shared caches. A score changes only with its own item's
//! update; the repair after a splice re-points the moved items' indexes
//! and leaves the score array alone.
//!
//! The shape is chosen from the ids alone, with no option. A dense index
//! that receives a far id switches to the hashed shape on the spot and
//! stays there.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::item::{ItemId, Score};

/// A deterministic, std-only hasher for item ids.
///
/// Each `u64` is mixed by the MurmurHash3 `fmix64` finalizer: two odd
/// multiplications, each preceded by a fold of the high bits into the
/// low bits. The folds matter because the table picks its bucket from
/// the hash's **low** bits, and a bare `x·K` leaves those depending only
/// on the id's low bits, so ids strided by a power of two (say, `i << 32`)
/// would all share one bucket. The hasher has no random seed, so maps on
/// it grow, and therefore allocate, identically on every run. For the
/// same reason it does not resist keys crafted to collide: item ids are
/// assigned by the application (see `topk_apps::interner`), never taken
/// verbatim from untrusted input.
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemHasher(u64);

impl ItemHasher {
    fn mix(mut h: u64) -> u64 {
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl Hasher for ItemHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = Self::mix(self.0 ^ x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by item id on the fixed [`ItemHasher`].
pub type ItemMap<V> = HashMap<ItemId, V, BuildHasherDefault<ItemHasher>>;

/// Entry index of an absent id in the dense shape.
const ABSENT: u32 = u32::MAX;

/// One indexed item of the hashed shape: its 0-based entry index and its
/// local score.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: u32,
    score: Score,
}

/// The largest id (exclusive) the dense shape accepts for `n` items.
/// Per-query sets keyed by item (the answer buffer's resolved set) use
/// the same rule to decide which ids a dense array over `0..bound`
/// holds.
pub fn dense_bound(n: usize) -> u64 {
    2 * n as u64 + 64
}

fn slot(at: usize) -> u32 {
    u32::try_from(at)
        .ok()
        .filter(|&s| s != ABSENT)
        .expect("list positions fit in u32")
}

#[derive(Debug, Clone)]
enum Shape {
    /// `at[id]` holds the 0-based entry index of item `id`, or
    /// [`ABSENT`]; `scores[id]` its score (meaningless when absent). Both
    /// always have the same length.
    Dense {
        at: Vec<u32>,
        scores: Vec<Score>,
    },
    Hashed(ItemMap<Slot>),
}

/// Item → 0-based entry index and score of one sorted list (dense or
/// hashed; see the module docs). Equality is by mapping, not by shape.
#[derive(Debug, Clone)]
pub(crate) struct ItemIndex {
    shape: Shape,
    len: usize,
}

impl ItemIndex {
    /// Indexes `entries[i].0 → (i, entries[i].1)`, picking the shape from
    /// the ids.
    ///
    /// # Errors
    ///
    /// Returns the first item that appears twice.
    pub(crate) fn build(entries: &[(ItemId, Score)]) -> Result<Self, ItemId> {
        let n = entries.len();
        let max = entries.iter().map(|&(item, _)| item.0).max();
        let shape = match max {
            Some(max) if max >= dense_bound(n) => {
                let mut map = ItemMap::default();
                map.reserve(n);
                Shape::Hashed(map)
            }
            max => {
                let slots = max.map_or(0, |m| m as usize + 1);
                Shape::Dense {
                    at: vec![ABSENT; slots],
                    scores: vec![Score::ZERO; slots],
                }
            }
        };
        let mut index = ItemIndex { shape, len: 0 };
        for (i, &(item, score)) in entries.iter().enumerate() {
            if index.get(item).is_some() {
                return Err(item);
            }
            index.insert(item, i, score);
        }
        Ok(index)
    }

    /// The 0-based index of `item`, if present.
    #[inline]
    pub(crate) fn get(&self, item: ItemId) -> Option<usize> {
        self.lookup(item).map(|(at, _)| at)
    }

    /// The 0-based index and the score of `item`, if present.
    #[inline]
    pub(crate) fn lookup(&self, item: ItemId) -> Option<(usize, Score)> {
        match &self.shape {
            Shape::Dense { at, scores } => {
                let id = usize::try_from(item.0).ok()?;
                let (&a, &score) = (at.get(id)?, scores.get(id)?);
                (a != ABSENT).then_some((a as usize, score))
            }
            Shape::Hashed(map) => map.get(&item).map(|s| (s.at as usize, s.score)),
        }
    }

    /// Whether `item` is indexed.
    #[inline]
    pub(crate) fn contains(&self, item: ItemId) -> bool {
        self.get(item).is_some()
    }

    /// Number of indexed items.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is in the dense shape.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.shape, Shape::Dense { .. })
    }

    /// Indexes a new `item` at `at` with its `score`. A far id turns a
    /// dense index hashed.
    pub(crate) fn insert(&mut self, item: ItemId, at: usize, score: Score) {
        let bound = dense_bound(self.len + 1);
        if let Shape::Dense { at: ats, scores } = &self.shape {
            if item.0 >= bound && item.0 >= ats.len() as u64 {
                let mut map = ItemMap::default();
                map.reserve(self.len + 1);
                for (id, (&a, &score)) in ats.iter().zip(scores).enumerate() {
                    if a != ABSENT {
                        map.insert(ItemId(id as u64), Slot { at: a, score });
                    }
                }
                self.shape = Shape::Hashed(map);
            }
        }
        let new = slot(at);
        let previous = match &mut self.shape {
            Shape::Dense { at: ats, scores } => {
                let id = item.0 as usize;
                if id >= ats.len() {
                    ats.resize(id + 1, ABSENT);
                    scores.resize(id + 1, Score::ZERO);
                }
                scores[id] = score;
                std::mem::replace(&mut ats[id], new)
            }
            Shape::Hashed(map) => map
                .insert(item, Slot { at: new, score })
                .map_or(ABSENT, |s| s.at),
        };
        debug_assert_eq!(previous, ABSENT, "{item} indexed twice");
        self.len += 1;
    }

    /// Unindexes `item`, returning its index.
    pub(crate) fn remove(&mut self, item: ItemId) -> Option<usize> {
        let removed = match &mut self.shape {
            Shape::Dense { at, .. } => {
                let a = at.get_mut(usize::try_from(item.0).ok()?)?;
                Some(std::mem::replace(a, ABSENT)).filter(|&a| a != ABSENT)
            }
            Shape::Hashed(map) => map.remove(&item).map(|s| s.at),
        }?;
        self.len -= 1;
        Some(removed as usize)
    }

    /// Re-points every item of `run` (the entries now at indexes
    /// `first..first + run.len()`) at its index: the in-place repair
    /// after a splice, touching only the entries that moved. Scores are
    /// left alone; a moved item whose score changed also needs
    /// [`ItemIndex::set_score`].
    pub(crate) fn reindex(&mut self, run: &[(ItemId, Score)], first: usize) {
        for (offset, &(item, _)) in run.iter().enumerate() {
            let new = slot(first + offset);
            match &mut self.shape {
                Shape::Dense { at, .. } => at[item.0 as usize] = new,
                Shape::Hashed(map) => {
                    map.get_mut(&item).expect("reindexed items are indexed").at = new;
                }
            }
        }
    }

    /// Records a new score for an indexed `item`.
    pub(crate) fn set_score(&mut self, item: ItemId, score: Score) {
        match &mut self.shape {
            Shape::Dense { scores, .. } => scores[item.0 as usize] = score,
            Shape::Hashed(map) => {
                map.get_mut(&item)
                    .expect("rescored items are indexed")
                    .score = score;
            }
        }
    }
}

impl PartialEq for ItemIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        match &self.shape {
            Shape::Dense { at, scores } => at
                .iter()
                .zip(scores)
                .enumerate()
                .filter(|&(_, (&a, _))| a != ABSENT)
                .all(|(id, (&a, &score))| {
                    other.lookup(ItemId(id as u64)) == Some((a as usize, score))
                }),
            Shape::Hashed(map) => map
                .iter()
                .all(|(&item, s)| other.lookup(item) == Some((s.at as usize, s.score))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn entries(ids: &[u64]) -> Vec<(ItemId, Score)> {
        ids.iter()
            .map(|&id| (ItemId(id), Score::from_f64(1.0)))
            .collect()
    }

    #[test]
    fn strided_ids_spread_over_the_low_bucket_bits() {
        // The table takes its bucket from the low bits. A bare `x·K` puts
        // every key `i << 32` into bucket 0 (and `h ^ (h >> 29)` leaves 512
        // of 4 096 buckets in use); the folded mix must reach what a
        // uniform hash reaches, 1 − 1/e ≈ 63% of the buckets, at every
        // power-of-two stride.
        let build = BuildHasherDefault::<ItemHasher>::default();
        for shift in [0u32, 8, 16, 24, 32, 40, 48] {
            let mut used = vec![false; 4096];
            for i in 0..4096u64 {
                used[(build.hash_one(ItemId(i << shift)) & 4095) as usize] = true;
            }
            let spread = used.iter().filter(|&&u| u).count();
            assert!(
                spread >= 2_400,
                "stride 2^{shift}: {spread} of 4096 buckets"
            );
        }
    }

    #[test]
    fn the_hasher_is_deterministic() {
        let a = BuildHasherDefault::<ItemHasher>::default();
        let b = BuildHasherDefault::<ItemHasher>::default();
        assert_eq!(a.hash_one(ItemId(42)), b.hash_one(ItemId(42)));
        assert_ne!(a.hash_one(ItemId(42)), a.hash_one(ItemId(43)));
    }

    #[test]
    fn the_shape_follows_the_ids() {
        assert!(ItemIndex::build(&entries(&[3, 0, 2, 1]))
            .unwrap()
            .is_dense());
        assert!(ItemIndex::build(&entries(&[0, 1, 67])).unwrap().is_dense());
        let sparse = ItemIndex::build(&entries(&[0, 1, 1 << 40])).unwrap();
        assert!(!sparse.is_dense());
        assert_eq!(sparse.get(ItemId(1 << 40)), Some(2));
        assert_eq!(sparse.get(ItemId(5)), None);
    }

    #[test]
    fn duplicates_are_reported() {
        assert_eq!(
            ItemIndex::build(&entries(&[4, 2, 4])).unwrap_err(),
            ItemId(4)
        );
        assert_eq!(
            ItemIndex::build(&entries(&[1 << 50, 9, 1 << 50])).unwrap_err(),
            ItemId(1 << 50)
        );
    }

    #[test]
    fn a_far_insert_switches_to_the_hashed_shape() {
        let mut index = ItemIndex::build(&entries(&[0, 1, 2])).unwrap();
        index.insert(ItemId(60), 3, Score::from_f64(1.0)); // still within 2n + 64
        assert!(index.is_dense());
        index.insert(ItemId(u64::MAX), 4, Score::from_f64(1.0));
        assert!(!index.is_dense());
        for (id, at) in [(0, 0), (1, 1), (2, 2), (60, 3), (u64::MAX, 4)] {
            assert_eq!(index.get(ItemId(id)), Some(at));
        }
        assert_eq!(index.len(), 5);
        assert_eq!(index.remove(ItemId(1)), Some(1));
        assert_eq!(index.remove(ItemId(1)), None);
        assert_eq!(index.len(), 4);
    }

    #[test]
    fn slots_carry_each_items_score() {
        let scored = |pairs: &[(u64, f64)]| -> Vec<(ItemId, Score)> {
            pairs
                .iter()
                .map(|&(id, v)| (ItemId(id), Score::from_f64(v)))
                .collect()
        };
        let mut index = ItemIndex::build(&scored(&[(2, 9.0), (0, 5.0), (1, 4.0)])).unwrap();
        assert_eq!(index.lookup(ItemId(0)), Some((1, Score::from_f64(5.0))));
        // Item 1 rises to the front: the repair re-points the moved items,
        // and only item 1's score changes.
        index.reindex(&scored(&[(1, 9.5), (2, 9.0), (0, 5.0)]), 0);
        assert_eq!(index.lookup(ItemId(1)), Some((0, Score::from_f64(4.0))));
        index.set_score(ItemId(1), Score::from_f64(9.5));
        assert_eq!(index.lookup(ItemId(1)), Some((0, Score::from_f64(9.5))));
        assert_eq!(index.lookup(ItemId(0)), Some((2, Score::from_f64(5.0))));
        // The switch to the hashed shape keeps every score.
        index.insert(ItemId(1 << 41), 3, Score::from_f64(1.0));
        assert!(!index.is_dense());
        assert_eq!(index.lookup(ItemId(1)), Some((0, Score::from_f64(9.5))));
        assert_eq!(
            index.lookup(ItemId(1 << 41)),
            Some((3, Score::from_f64(1.0)))
        );
        // A stale score makes two indexes unequal.
        let fresh = ItemIndex::build(&scored(&[(0, 2.0)])).unwrap();
        let stale = ItemIndex::build(&scored(&[(0, 1.0)])).unwrap();
        assert!(fresh != stale);
    }

    #[test]
    fn equality_is_by_mapping_not_by_shape() {
        let dense = ItemIndex::build(&entries(&[0, 1, 2])).unwrap();
        let mut switched = ItemIndex::build(&entries(&[0, 1, 2])).unwrap();
        switched.insert(ItemId(1 << 45), 3, Score::from_f64(1.0));
        switched.remove(ItemId(1 << 45));
        assert!(!switched.is_dense());
        assert!(dense == switched);
        switched.reindex(&entries(&[1, 0]), 0);
        assert!(dense != switched);
    }
}
