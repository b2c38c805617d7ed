//! A single sorted list `Li` of `(data item, local score)` pairs.

use crate::error::ListError;
use crate::item::{ItemId, Position, Score};
use crate::item_index::ItemIndex;

/// One entry of a sorted list: the data item at a given position together
/// with its local score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListEntry {
    /// 1-based position of the entry in the list.
    pub position: Position,
    /// The data item stored at this position.
    pub item: ItemId,
    /// The item's local score in this list.
    pub score: Score,
}

/// The result of a *random access*: where a given item sits in the list and
/// with which local score.
///
/// BPA needs both pieces of information (Section 4.1, step 1: "do random
/// access to the other lists to find the local score **and the position**
/// of d in every list"); TA only uses the score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionedScore {
    /// 1-based position of the item in the list.
    pub position: Position,
    /// The item's local score in this list.
    pub score: Score,
}

/// A record of one `insert` or `delete` applied to a [`SortedList`].
///
/// Standing-query layers use deltas to decide, without touching the list
/// again, whether a cached answer can survive the mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListDelta {
    /// The inserted or deleted item.
    pub item: ItemId,
    /// Where the entry landed (insert) or used to live (delete).
    pub position: Position,
    /// The entry's local score.
    pub score: Score,
    /// The list's epoch **after** the mutation.
    pub epoch: u64,
}

/// A record of one `update_score` applied to a [`SortedList`]: the score
/// change plus the positional move it caused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreUpdate {
    /// The updated item.
    pub item: ItemId,
    /// The item's local score before the update.
    pub old_score: Score,
    /// The item's local score after the update.
    pub new_score: Score,
    /// The item's position before the update.
    pub old_position: Position,
    /// The item's position after the update.
    pub new_position: Position,
    /// The list's epoch **after** the mutation.
    pub epoch: u64,
}

impl ScoreUpdate {
    /// Whether the update lowered (or kept) the item's local score.
    #[inline]
    pub fn is_decrease(&self) -> bool {
        self.new_score <= self.old_score
    }
}

/// A list of `n` data items sorted in descending order of their local
/// scores, with an item → position index for O(1) random access (a dense
/// array while the item ids are dense, a hash map otherwise; see
/// [`crate::item_index`]).
///
/// This is the paper's `Li`: "each list Li contains n pairs of the form
/// (d, si(d)) … Each list Li is sorted in descending order of its local
/// scores".
///
/// Lists are *updatable*: [`SortedList::insert`], [`SortedList::delete`]
/// and [`SortedList::update_score`] mutate the list while repairing the
/// position index in place, and bump a monotone [`SortedList::epoch`]
/// that version observers (sources, cached standing-query answers) compare
/// against.
#[derive(Debug, Clone)]
pub struct SortedList {
    /// Entries in descending score order. Index `i` holds position `i + 1`.
    entries: Vec<(ItemId, Score)>,
    /// Item → 0-based index into `entries` and the entry's score.
    index: ItemIndex,
    /// Monotone mutation counter: 0 at construction, +1 per mutation.
    epoch: u64,
}

impl SortedList {
    /// Builds a sorted list from arbitrary `(item, score)` pairs, sorting
    /// them by descending score (ties broken by ascending item id so that
    /// construction is deterministic).
    ///
    /// # Errors
    ///
    /// Returns an error if the input is empty, contains NaN scores or
    /// contains the same item twice.
    pub fn from_unsorted(pairs: Vec<(ItemId, f64)>) -> Result<Self, ListError> {
        let mut entries = Vec::with_capacity(pairs.len());
        for (item, raw) in pairs {
            entries.push((item, Score::new(raw)?));
        }
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Self::from_descending_entries(entries)
    }

    /// Builds a sorted list from entries that are **already** in descending
    /// score order, validating the order.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is empty, out of order or contains the
    /// same item twice.
    pub fn from_sorted(pairs: Vec<(ItemId, f64)>) -> Result<Self, ListError> {
        let mut entries = Vec::with_capacity(pairs.len());
        for (item, raw) in pairs {
            entries.push((item, Score::new(raw)?));
        }
        for (i, window) in entries.windows(2).enumerate() {
            if window[0].1 < window[1].1 {
                return Err(ListError::NotSorted { index: i + 1 });
            }
        }
        Self::from_descending_entries(entries)
    }

    fn from_descending_entries(entries: Vec<(ItemId, Score)>) -> Result<Self, ListError> {
        if entries.is_empty() {
            return Err(ListError::EmptyList);
        }
        let index = ItemIndex::build(&entries).map_err(ListError::DuplicateItem)?;
        Ok(SortedList {
            entries,
            index,
            epoch: 0,
        })
    }

    /// Monotone mutation counter: `0` at construction, incremented by one on
    /// every [`SortedList::insert`], [`SortedList::delete`] or
    /// [`SortedList::update_score`]. Observers (sources, cached
    /// standing-query answers) compare epochs to detect staleness.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Inserts a new item, placing it after every entry with a strictly
    /// greater score and, within a tie run, after equal-scored entries with a
    /// smaller item id (the [`SortedList::from_unsorted`] tie order).
    ///
    /// # Errors
    ///
    /// Returns an error if the score is NaN or the item is already present.
    pub fn insert(&mut self, item: ItemId, score: f64) -> Result<ListDelta, ListError> {
        let score = Score::new(score)?;
        if self.index.contains(item) {
            return Err(ListError::DuplicateItem(item));
        }
        let at = self.insertion_index(item, score, None);
        self.entries.insert(at, (item, score));
        self.index.reindex(&self.entries[at + 1..], at + 1);
        self.index.insert(item, at, score);
        self.epoch += 1;
        self.debug_assert_consistent();
        Ok(ListDelta {
            item,
            position: Position::from_index(at),
            score,
            epoch: self.epoch,
        })
    }

    /// Removes an item from the list.
    ///
    /// # Errors
    ///
    /// Returns an error if the item is not present, or if removing it would
    /// leave the list empty (lists are never empty; delete the whole list
    /// instead).
    pub fn delete(&mut self, item: ItemId) -> Result<ListDelta, ListError> {
        let at = self.index.get(item).ok_or(ListError::UnknownItem(item))?;
        if self.entries.len() == 1 {
            return Err(ListError::EmptyList);
        }
        let (_, score) = self.entries.remove(at);
        self.index.remove(item);
        self.index.reindex(&self.entries[at..], at);
        self.epoch += 1;
        self.debug_assert_consistent();
        Ok(ListDelta {
            item,
            position: Position::from_index(at),
            score,
            epoch: self.epoch,
        })
    }

    /// Changes an item's local score, moving its entry to the position the
    /// new score sorts to (same tie order as [`SortedList::insert`]) and
    /// repairing the position index in place. Only the entries between the
    /// old and the new position move, so the repair costs
    /// O(|old − new|), however long the list.
    ///
    /// # Errors
    ///
    /// Returns an error if the item is not present or the score is NaN.
    pub fn update_score(&mut self, item: ItemId, score: f64) -> Result<ScoreUpdate, ListError> {
        let new_score = Score::new(score)?;
        let from = self.index.get(item).ok_or(ListError::UnknownItem(item))?;
        let old_score = self.entries[from].1;
        let to = self.insertion_index(item, new_score, Some(from));
        let (lo, hi) = (from.min(to), from.max(to));
        if to < from {
            self.entries[lo..=hi].rotate_right(1);
        } else {
            self.entries[lo..=hi].rotate_left(1);
        }
        self.entries[to] = (item, new_score);
        self.index.reindex(&self.entries[lo..=hi], lo);
        self.index.set_score(item, new_score);
        self.epoch += 1;
        self.debug_assert_consistent();
        Ok(ScoreUpdate {
            item,
            old_score,
            new_score,
            old_position: Position::from_index(from),
            new_position: Position::from_index(to),
            epoch: self.epoch,
        })
    }

    /// The 0-based index a fresh `(item, score)` entry sorts to: after all
    /// strictly greater scores, then (within the tie run, which is short in
    /// practice) after equal scores with smaller item ids. With
    /// `without = Some(i)` the index is into the list with entry `i`
    /// taken out (where an updated entry lands).
    fn insertion_index(&self, item: ItemId, score: Score, without: Option<usize>) -> usize {
        let skip = without.unwrap_or(usize::MAX);
        let greater = self.entries.partition_point(|&(_, s)| s > score);
        let mut at = greater - usize::from(skip < greater);
        loop {
            let full = if at < skip { at } else { at + 1 };
            match self.entries.get(full) {
                Some(&(other, s)) if s == score && other < item => at += 1,
                _ => return at,
            }
        }
    }

    /// Debug-only check that the in-place index repair matches a rebuild
    /// from scratch and that the descending-score invariant still holds.
    fn debug_assert_consistent(&self) {
        #[cfg(debug_assertions)]
        {
            let rebuilt = ItemIndex::build(&self.entries).expect("entries hold no duplicates");
            debug_assert!(
                rebuilt == self.index,
                "position index diverged from rebuild"
            );
            debug_assert!(
                self.entries.windows(2).all(|w| w[0].1 >= w[1].1),
                "descending-score invariant broken by mutation"
            );
        }
    }

    /// The item → index map, shared with the sharded layout of the list.
    pub(crate) fn index(&self) -> &ItemIndex {
        &self.index
    }

    /// Number of entries (`n`) in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty. Always `false` for lists built through the
    /// public constructors, which reject empty input.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the entry at a 1-based position, or `None` past the end.
    ///
    /// This is the raw read used by both sorted and direct access; the
    /// *accounting* of those access modes lives in
    /// [`crate::source::InMemorySource`].
    #[inline]
    pub fn entry_at(&self, position: Position) -> Option<ListEntry> {
        self.entries
            .get(position.index())
            .map(|&(item, score)| ListEntry {
                position,
                item,
                score,
            })
    }

    /// Returns the 1-based position of an item, or `None` if the item does
    /// not appear in this list.
    #[inline]
    pub fn position_of(&self, item: ItemId) -> Option<Position> {
        self.index.get(item).map(Position::from_index)
    }

    /// Returns the local score of an item, or `None` if the item does not
    /// appear in this list.
    #[inline]
    pub fn score_of(&self, item: ItemId) -> Option<Score> {
        self.index.lookup(item).map(|(_, score)| score)
    }

    /// Looks up an item and returns its position and local score (the raw
    /// read behind *random access*).
    #[inline]
    pub fn lookup(&self, item: ItemId) -> Option<PositionedScore> {
        self.index.lookup(item).map(|(i, score)| PositionedScore {
            position: Position::from_index(i),
            score,
        })
    }

    /// Whether the item appears in this list.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.index.contains(item)
    }

    /// Iterates over the entries in descending score order.
    pub fn iter(&self) -> impl Iterator<Item = ListEntry> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &(item, score))| ListEntry {
                position: Position::from_index(i),
                item,
                score,
            })
    }

    /// Iterates over the item ids in descending score order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.entries.iter().map(|&(item, _)| item)
    }

    /// The score at the given position, or `None` past the end.
    #[inline]
    pub fn score_at(&self, position: Position) -> Option<Score> {
        self.entries.get(position.index()).map(|&(_, score)| score)
    }

    /// The contiguous run of entries starting at `position`, at most `len`
    /// long, clipped to the end of the list (possibly empty). This is the
    /// raw read behind coalesced sorted access
    /// ([`crate::source::InMemorySource`]'s `sorted_block`); like
    /// [`SortedList::entry_at`] it carries no access accounting.
    #[inline]
    pub fn slice_at(&self, position: Position, len: usize) -> &[(ItemId, Score)] {
        let from = position.index().min(self.entries.len());
        let to = position.index().saturating_add(len).min(self.entries.len());
        &self.entries[from..to]
    }

    /// The last (lowest-scored) entry of the list.
    pub fn last_entry(&self) -> ListEntry {
        let i = self.entries.len() - 1;
        let (item, score) = self.entries[i];
        ListEntry {
            position: Position::from_index(i),
            item,
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> SortedList {
        SortedList::from_unsorted(vec![
            (ItemId(1), 30.0),
            (ItemId(4), 28.0),
            (ItemId(9), 27.0),
            (ItemId(3), 26.0),
        ])
        .unwrap()
    }

    #[test]
    fn from_unsorted_sorts_descending() {
        let l =
            SortedList::from_unsorted(vec![(ItemId(2), 1.0), (ItemId(5), 9.0), (ItemId(7), 4.0)])
                .unwrap();
        let items: Vec<_> = l.items().collect();
        assert_eq!(items, vec![ItemId(5), ItemId(7), ItemId(2)]);
    }

    #[test]
    fn from_unsorted_breaks_ties_by_item_id() {
        let l =
            SortedList::from_unsorted(vec![(ItemId(9), 5.0), (ItemId(2), 5.0), (ItemId(4), 5.0)])
                .unwrap();
        let items: Vec<_> = l.items().collect();
        assert_eq!(items, vec![ItemId(2), ItemId(4), ItemId(9)]);
    }

    #[test]
    fn from_sorted_accepts_descending_input() {
        let l = SortedList::from_sorted(vec![(ItemId(1), 3.0), (ItemId(2), 2.0), (ItemId(3), 2.0)]);
        assert!(l.is_ok());
    }

    #[test]
    fn from_sorted_rejects_ascending_input() {
        let err = SortedList::from_sorted(vec![(ItemId(1), 1.0), (ItemId(2), 2.0)]).unwrap_err();
        assert_eq!(err, ListError::NotSorted { index: 1 });
    }

    #[test]
    fn rejects_empty_duplicate_and_nan() {
        assert_eq!(
            SortedList::from_unsorted(vec![]).unwrap_err(),
            ListError::EmptyList
        );
        assert_eq!(
            SortedList::from_unsorted(vec![(ItemId(1), 1.0), (ItemId(1), 2.0)]).unwrap_err(),
            ListError::DuplicateItem(ItemId(1))
        );
        assert_eq!(
            SortedList::from_unsorted(vec![(ItemId(1), f64::NAN)]).unwrap_err(),
            ListError::NanScore
        );
    }

    #[test]
    fn entry_at_is_one_based() {
        let l = list();
        let e = l.entry_at(Position::new(1).unwrap()).unwrap();
        assert_eq!(e.item, ItemId(1));
        assert_eq!(e.score.value(), 30.0);
        let e = l.entry_at(Position::new(4).unwrap()).unwrap();
        assert_eq!(e.item, ItemId(3));
        assert!(l.entry_at(Position::new(5).unwrap()).is_none());
    }

    #[test]
    fn position_and_score_lookup() {
        let l = list();
        assert_eq!(l.position_of(ItemId(9)), Position::new(3));
        assert_eq!(l.score_of(ItemId(9)).unwrap().value(), 27.0);
        assert_eq!(l.position_of(ItemId(99)), None);
        assert_eq!(l.score_of(ItemId(99)), None);
        let ps = l.lookup(ItemId(4)).unwrap();
        assert_eq!(ps.position, Position::new(2).unwrap());
        assert_eq!(ps.score.value(), 28.0);
        assert!(l.lookup(ItemId(100)).is_none());
        assert!(l.contains(ItemId(1)));
        assert!(!l.contains(ItemId(2)));
    }

    #[test]
    fn iter_yields_positions_in_order() {
        let l = list();
        let positions: Vec<_> = l.iter().map(|e| e.position.get()).collect();
        assert_eq!(positions, vec![1, 2, 3, 4]);
    }

    #[test]
    fn len_and_last_entry() {
        let l = list();
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
        let last = l.last_entry();
        assert_eq!(last.item, ItemId(3));
        assert_eq!(last.position.get(), 4);
    }

    #[test]
    fn score_at_matches_entry_at() {
        let l = list();
        for e in l.iter() {
            assert_eq!(l.score_at(e.position), Some(e.score));
        }
        assert_eq!(l.score_at(Position::new(10).unwrap()), None);
    }

    #[test]
    fn insert_places_and_bumps_epoch() {
        let mut l = list();
        assert_eq!(l.epoch(), 0);
        let delta = l.insert(ItemId(7), 27.5).unwrap();
        assert_eq!(delta.position.get(), 3);
        assert_eq!(delta.epoch, 1);
        assert_eq!(l.epoch(), 1);
        let items: Vec<_> = l.items().collect();
        assert_eq!(
            items,
            vec![ItemId(1), ItemId(4), ItemId(7), ItemId(9), ItemId(3)]
        );
        assert_eq!(l.position_of(ItemId(3)), Position::new(5));
        assert_eq!(
            l.insert(ItemId(7), 1.0).unwrap_err(),
            ListError::DuplicateItem(ItemId(7))
        );
        assert!(l.insert(ItemId(8), f64::NAN).is_err());
    }

    #[test]
    fn insert_ties_follow_from_unsorted_order() {
        let mut incremental = SortedList::from_unsorted(vec![(ItemId(9), 5.0)]).unwrap();
        incremental.insert(ItemId(2), 5.0).unwrap();
        incremental.insert(ItemId(4), 5.0).unwrap();
        let rebuilt =
            SortedList::from_unsorted(vec![(ItemId(9), 5.0), (ItemId(2), 5.0), (ItemId(4), 5.0)])
                .unwrap();
        let a: Vec<_> = incremental.items().collect();
        let b: Vec<_> = rebuilt.items().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn delete_shifts_index_and_bumps_epoch() {
        let mut l = list();
        let delta = l.delete(ItemId(4)).unwrap();
        assert_eq!(delta.position.get(), 2);
        assert_eq!(delta.score.value(), 28.0);
        assert_eq!(l.epoch(), 1);
        assert_eq!(l.len(), 3);
        assert_eq!(l.position_of(ItemId(9)), Position::new(2));
        assert_eq!(l.position_of(ItemId(3)), Position::new(3));
        assert_eq!(
            l.delete(ItemId(4)).unwrap_err(),
            ListError::UnknownItem(ItemId(4))
        );
    }

    #[test]
    fn delete_refuses_to_empty_the_list() {
        let mut l = SortedList::from_unsorted(vec![(ItemId(1), 1.0)]).unwrap();
        assert_eq!(l.delete(ItemId(1)).unwrap_err(), ListError::EmptyList);
        assert_eq!(l.len(), 1);
        assert_eq!(l.epoch(), 0);
    }

    #[test]
    fn update_score_moves_entry_both_directions() {
        let mut l = list();
        // 27.0 -> 31.0: item 9 moves from position 3 to position 1.
        let up = l.update_score(ItemId(9), 31.0).unwrap();
        assert_eq!(up.old_position.get(), 3);
        assert_eq!(up.new_position.get(), 1);
        assert!(!up.is_decrease());
        // 31.0 -> 25.0: back down to the tail.
        let down = l.update_score(ItemId(9), 25.0).unwrap();
        assert_eq!(down.new_position.get(), 4);
        assert!(down.is_decrease());
        assert_eq!(l.epoch(), 2);
        let items: Vec<_> = l.items().collect();
        assert_eq!(items, vec![ItemId(1), ItemId(4), ItemId(3), ItemId(9)]);
        assert_eq!(
            l.update_score(ItemId(50), 1.0).unwrap_err(),
            ListError::UnknownItem(ItemId(50))
        );
    }

    #[test]
    fn mutated_list_matches_rebuild_from_scratch() {
        let mut l = list();
        l.insert(ItemId(6), 29.0).unwrap();
        l.update_score(ItemId(3), 30.5).unwrap();
        l.delete(ItemId(9)).unwrap();
        let rebuilt = SortedList::from_unsorted(vec![
            (ItemId(1), 30.0),
            (ItemId(4), 28.0),
            (ItemId(3), 30.5),
            (ItemId(6), 29.0),
        ])
        .unwrap();
        let a: Vec<_> = l.iter().collect();
        let b: Vec<_> = rebuilt.iter().collect();
        assert_eq!(a, b);
        assert_eq!(l.epoch(), 3);
        assert_eq!(rebuilt.epoch(), 0);
    }
}
