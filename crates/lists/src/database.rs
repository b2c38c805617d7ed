//! A database: `m` sorted lists over the same set of `n` data items.

use std::sync::Arc;

use crate::error::ListError;
use crate::item::{ItemId, Position, Score};
use crate::sorted_list::{ScoreUpdate, SortedList};
use crate::source::SourceSet;

/// SplitMix64 step: the deterministic pseudo-random stream behind
/// [`sample_items`]. Kept local so the crate stays free of dependencies
/// (the `vendor/rand` stand-in lives above this crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's *database*: a set of `m` sorted lists such that every data
/// item appears exactly once in every list.
///
/// Construction validates that invariant, so the algorithms in `topk-core`
/// can rely on it (e.g. a random access for an item seen in one list never
/// fails in another list).
///
/// The lists are shared copy-on-write: cloning a database, or opening a
/// sharded view over it, copies no entries, and a mutation copies a list
/// only while another holder still shares it (`Arc::make_mut`).
#[derive(Debug, Clone)]
pub struct Database {
    lists: Vec<Arc<SortedList>>,
    /// Number of data items in each list (`n`).
    n: usize,
}

impl Database {
    /// Builds a database from already-constructed sorted lists, validating
    /// that every list has the same item set.
    ///
    /// # Errors
    ///
    /// Returns an error if no list is given, lists have different lengths or
    /// an item of the first list is missing from another list (together with
    /// the per-list validation done by [`SortedList`] construction).
    pub fn new(lists: Vec<SortedList>) -> Result<Self, ListError> {
        if lists.is_empty() {
            return Err(ListError::NoLists);
        }
        let n = lists[0].len();
        for (i, list) in lists.iter().enumerate().skip(1) {
            if list.len() != n {
                return Err(ListError::LengthMismatch {
                    expected: n,
                    list: i,
                    found: list.len(),
                });
            }
        }
        // Same length + "every item of list 0 is present in list i" implies
        // equal item sets, because items are unique within a list.
        for item in lists[0].items() {
            for (i, list) in lists.iter().enumerate().skip(1) {
                if !list.contains(item) {
                    return Err(ListError::MissingItem { item, list: i });
                }
            }
        }
        Ok(Database {
            lists: lists.into_iter().map(Arc::new).collect(),
            n,
        })
    }

    /// Convenience constructor: builds each list with
    /// [`SortedList::from_unsorted`] and then validates the database.
    pub fn from_unsorted_lists(lists: Vec<Vec<(u64, f64)>>) -> Result<Self, ListError> {
        let sorted = lists
            .into_iter()
            .map(|pairs| {
                SortedList::from_unsorted(
                    pairs.into_iter().map(|(id, s)| (ItemId(id), s)).collect(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(sorted)
    }

    /// Number of lists (`m`).
    #[inline]
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Number of data items in each list (`n`).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.n
    }

    /// Returns the `i`-th list (0-based).
    ///
    /// # Errors
    ///
    /// Returns [`ListError::ListIndexOutOfRange`] when `i >= m`.
    pub fn list(&self, i: usize) -> Result<&SortedList, ListError> {
        self.lists
            .get(i)
            .map(Arc::as_ref)
            .ok_or(ListError::ListIndexOutOfRange {
                index: i,
                len: self.lists.len(),
            })
    }

    /// Iterates over the lists in order.
    pub fn lists(&self) -> impl Iterator<Item = &SortedList> + '_ {
        self.lists.iter().map(Arc::as_ref)
    }

    /// The shared handles of the lists, in order: what a sharded view
    /// reads without copying the entries.
    pub(crate) fn shared_lists(&self) -> &[Arc<SortedList>] {
        &self.lists
    }

    /// The per-list mutation epochs, in list order. Observers snapshot this
    /// vector and compare it later to detect that any list changed.
    pub fn epochs(&self) -> Vec<u64> {
        self.lists.iter().map(|l| l.epoch()).collect()
    }

    /// Changes one item's local score in one list, preserving the database
    /// invariant (the item set is untouched).
    ///
    /// # Errors
    ///
    /// Returns an error if the list index is out of range, the item is
    /// unknown or the score is NaN.
    pub fn update_score(
        &mut self,
        list: usize,
        item: ItemId,
        score: f64,
    ) -> Result<ScoreUpdate, ListError> {
        let len = self.lists.len();
        let target = self
            .lists
            .get_mut(list)
            .ok_or(ListError::ListIndexOutOfRange { index: list, len })?;
        Arc::make_mut(target).update_score(item, score)
    }

    /// Inserts a new item into **every** list, one local score per list.
    ///
    /// Validation happens up front so a failed insert leaves the database
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if the score count differs from `m`, any score is
    /// NaN, or the item is already present.
    pub fn insert_item(&mut self, item: ItemId, scores: &[f64]) -> Result<(), ListError> {
        if scores.len() != self.lists.len() {
            return Err(ListError::ScoreCountMismatch {
                expected: self.lists.len(),
                found: scores.len(),
            });
        }
        for &raw in scores {
            Score::new(raw)?;
        }
        if self.lists[0].contains(item) {
            return Err(ListError::DuplicateItem(item));
        }
        for (list, &raw) in self.lists.iter_mut().zip(scores) {
            Arc::make_mut(list)
                .insert(item, raw)
                .expect("validated: score finite, item absent");
        }
        self.n += 1;
        Ok(())
    }

    /// Deletes an item from **every** list.
    ///
    /// # Errors
    ///
    /// Returns an error if the item is unknown, or if deleting it would
    /// leave the lists empty.
    pub fn delete_item(&mut self, item: ItemId) -> Result<(), ListError> {
        if !self.lists[0].contains(item) {
            return Err(ListError::UnknownItem(item));
        }
        if self.n == 1 {
            return Err(ListError::EmptyList);
        }
        for list in &mut self.lists {
            Arc::make_mut(list)
                .delete(item)
                .expect("database invariant: item present everywhere, n > 1");
        }
        self.n -= 1;
        Ok(())
    }

    /// Iterates over all item ids (taken from the first list, which by the
    /// database invariant contains every item).
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.lists[0].items()
    }

    /// Returns the vector of local scores of `item`, one per list, or `None`
    /// if the item is unknown.
    ///
    /// This bypasses access accounting and is intended for ground-truth
    /// computations in tests and the naive baseline.
    pub fn local_scores(&self, item: ItemId) -> Option<Vec<Score>> {
        let mut scores = Vec::with_capacity(self.lists.len());
        for list in &self.lists {
            scores.push(list.score_of(item)?);
        }
        Some(scores)
    }
}

/// Deterministically samples up to `max_samples` distinct data items of
/// the database behind `sources` and returns each with its full
/// local-score vector (one score per list, in list order).
///
/// When `max_samples >= n` every item is sampled (in list-0 order), so
/// estimates drawn from the sample are exact on small databases.
/// Otherwise the sample is stratified over the positions of list 0 — one
/// pseudo-random pick per equal-width stratum, seeded by `seed` — which
/// keeps it uniform over items, reproducible, and `m` counted accesses
/// per sampled item: one untracked sorted access to list 0 and one random
/// access to each other list. A failing backend raises its
/// [`SourceError`](crate::source::SourceError) like any other access.
pub fn sample_items(
    sources: &mut dyn SourceSet,
    max_samples: usize,
    seed: u64,
) -> Vec<(ItemId, Vec<Score>)> {
    let (m, n) = (sources.num_lists(), sources.num_items());
    let picks: Vec<usize> = if max_samples >= n {
        (0..n).collect()
    } else {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        (0..max_samples)
            .map(|stratum| {
                // Stratum s covers indices [s·n/max, (s+1)·n/max); strata
                // are non-empty because max_samples < n.
                let lo = stratum * n / max_samples;
                let hi = ((stratum + 1) * n / max_samples).max(lo + 1);
                lo + (splitmix64(&mut state) % (hi - lo) as u64) as usize
            })
            .collect()
    };
    picks
        .into_iter()
        .map(|index| {
            let head = sources
                .source(0)
                .sorted_access(Position::from_index(index), false);
            let head = head.expect("sampled positions lie within 1..=n");
            let others = (1..m).map(|i| {
                let local = sources.source(i).random_access(head.item, false, false);
                local.expect("every item appears in every list").score
            });
            (
                head.item,
                std::iter::once(head.score).chain(others).collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Sources;

    fn db() -> Database {
        Database::from_unsorted_lists(vec![
            vec![(1, 30.0), (2, 11.0), (3, 26.0)],
            vec![(1, 21.0), (2, 28.0), (3, 14.0)],
        ])
        .unwrap()
    }

    #[test]
    fn builds_and_reports_dimensions() {
        let db = db();
        assert_eq!(db.num_lists(), 2);
        assert_eq!(db.num_items(), 3);
        assert_eq!(db.lists().count(), 2);
        assert_eq!(db.items().count(), 3);
    }

    #[test]
    fn list_access_checks_bounds() {
        let db = db();
        assert!(db.list(0).is_ok());
        assert!(db.list(1).is_ok());
        assert_eq!(
            db.list(2).unwrap_err(),
            ListError::ListIndexOutOfRange { index: 2, len: 2 }
        );
    }

    #[test]
    fn rejects_empty_database() {
        assert_eq!(Database::new(vec![]).unwrap_err(), ListError::NoLists);
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = Database::from_unsorted_lists(vec![
            vec![(1, 1.0), (2, 2.0)],
            vec![(1, 1.0), (2, 2.0), (3, 3.0)],
        ])
        .unwrap_err();
        assert!(matches!(err, ListError::LengthMismatch { .. }));
    }

    #[test]
    fn rejects_mismatched_item_sets() {
        let err =
            Database::from_unsorted_lists(vec![vec![(1, 1.0), (2, 2.0)], vec![(1, 1.0), (3, 3.0)]])
                .unwrap_err();
        assert!(matches!(err, ListError::MissingItem { .. }));
    }

    #[test]
    fn local_scores_collects_one_score_per_list() {
        let db = db();
        let scores = db.local_scores(ItemId(3)).unwrap();
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].value(), 26.0);
        assert_eq!(scores[1].value(), 14.0);
        assert!(db.local_scores(ItemId(42)).is_none());
    }

    #[test]
    fn single_list_database_is_valid() {
        let db = Database::from_unsorted_lists(vec![vec![(1, 1.0), (2, 0.5)]]).unwrap();
        assert_eq!(db.num_lists(), 1);
    }

    #[test]
    fn epochs_track_per_list_mutations() {
        let mut db = db();
        assert_eq!(db.epochs(), vec![0, 0]);
        db.update_score(1, ItemId(3), 29.0).unwrap();
        assert_eq!(db.epochs(), vec![0, 1]);
        db.insert_item(ItemId(4), &[5.0, 6.0]).unwrap();
        assert_eq!(db.epochs(), vec![1, 2]);
        db.delete_item(ItemId(4)).unwrap();
        assert_eq!(db.epochs(), vec![2, 3]);
    }

    #[test]
    fn update_score_moves_the_entry_in_one_list() {
        let mut db = db();
        let update = db.update_score(1, ItemId(3), 29.0).unwrap();
        assert_eq!(update.old_position.get(), 3);
        assert_eq!(update.new_position.get(), 1);
        assert_eq!(
            db.local_scores(ItemId(3))
                .unwrap()
                .iter()
                .map(|s| s.value())
                .collect::<Vec<_>>(),
            vec![26.0, 29.0]
        );
        assert!(matches!(
            db.update_score(5, ItemId(3), 1.0).unwrap_err(),
            ListError::ListIndexOutOfRange { .. }
        ));
        assert_eq!(
            db.update_score(0, ItemId(42), 1.0).unwrap_err(),
            ListError::UnknownItem(ItemId(42))
        );
    }

    #[test]
    fn insert_item_validates_before_mutating() {
        let mut db = db();
        assert_eq!(
            db.insert_item(ItemId(4), &[1.0]).unwrap_err(),
            ListError::ScoreCountMismatch {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            db.insert_item(ItemId(4), &[1.0, f64::NAN]).unwrap_err(),
            ListError::NanScore
        );
        assert_eq!(
            db.insert_item(ItemId(1), &[1.0, 2.0]).unwrap_err(),
            ListError::DuplicateItem(ItemId(1))
        );
        // Failed inserts left the database untouched.
        assert_eq!(db.epochs(), vec![0, 0]);
        assert_eq!(db.num_items(), 3);
        db.insert_item(ItemId(4), &[27.0, 1.0]).unwrap();
        assert_eq!(db.num_items(), 4);
        assert_eq!(db.list(0).unwrap().position_of(ItemId(4)), Position::new(2));
        assert_eq!(db.list(1).unwrap().position_of(ItemId(4)), Position::new(4));
    }

    #[test]
    fn delete_item_removes_everywhere() {
        let mut db = db();
        db.delete_item(ItemId(2)).unwrap();
        assert_eq!(db.num_items(), 2);
        assert!(db.local_scores(ItemId(2)).is_none());
        assert_eq!(
            db.delete_item(ItemId(2)).unwrap_err(),
            ListError::UnknownItem(ItemId(2))
        );
        db.delete_item(ItemId(1)).unwrap();
        assert_eq!(db.delete_item(ItemId(3)).unwrap_err(), ListError::EmptyList);
    }

    #[test]
    fn sample_items_returns_all_items_on_small_databases() {
        let db = db();
        let mut sources = Sources::in_memory(&db);
        let samples = sample_items(&mut sources, 10, 42);
        assert_eq!(samples.len(), 3);
        for (item, locals) in &samples {
            assert_eq!(locals.len(), 2);
            assert_eq!(db.local_scores(*item).unwrap(), *locals);
        }
        // One sorted access to list 0 and one random access per other list.
        let counters = sources.total_counters();
        assert_eq!(
            (counters.sorted, counters.random, counters.direct),
            (3, 3, 0)
        );
    }

    #[test]
    fn sample_items_is_deterministic_and_distinct() {
        let lists: Vec<Vec<(u64, f64)>> = vec![
            (0..100).map(|i| (i, i as f64)).collect(),
            (0..100).map(|i| (i, (i * 7 % 100) as f64)).collect(),
        ];
        let db = Database::from_unsorted_lists(lists).unwrap();
        let sample = |budget, seed| sample_items(&mut Sources::in_memory(&db), budget, seed);
        let a = sample(16, 7);
        assert_eq!(a.len(), 16);
        assert_eq!(a, sample(16, 7));
        let mut items: Vec<u64> = a.iter().map(|(item, _)| item.0).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 16, "stratified samples are distinct");
        for (item, locals) in &a {
            assert_eq!(db.local_scores(*item).unwrap(), *locals);
        }
        assert_ne!(
            a,
            sample(16, 8),
            "different seeds pick different strata members"
        );
    }

    #[test]
    fn sample_items_with_zero_budget_is_empty() {
        let lists: Vec<Vec<(u64, f64)>> = vec![(0..10).map(|i| (i, i as f64)).collect()];
        let db = Database::from_unsorted_lists(lists).unwrap();
        let mut sources = Sources::in_memory(&db);
        assert!(sample_items(&mut sources, 0, 1).is_empty());
        assert_eq!(sources.total_counters().total(), 0);
    }
}
