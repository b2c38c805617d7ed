//! The answer buffer `Y`: the k highest-scored items seen so far.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use topk_lists::{dense_bound, ItemId, ItemMap, Score};

use crate::result::{RankedItem, RunCertificate};

/// Resolutions the buffer makes room for up front (4 KiB): a threshold
/// query resolves hundreds of items or more, and this skips the first
/// doublings of the resolved list without sizing it from `n`.
const RESERVED_RESOLUTIONS: usize = 256;

/// Maintains "the k seen data items whose overall scores are the highest
/// among all data items seen so far" (step 1 of TA, BPA and BPA2).
///
/// Each item may be offered any number of times with the same score (the
/// scan-based algorithms re-resolve items they meet again); only the first
/// offer counts. The buffer exposes the k-th best score, which is what the
/// stopping conditions compare against the thresholds `δ` and `λ`.
///
/// The buffer also remembers every item it was offered with its overall
/// score, in the order of first offer — exactly the items a run resolved —
/// and hands that list to the run's [`RunCertificate`] in
/// [`TopKBuffer::finish`].
///
/// Whether an item was offered is one bit in a seen set over item ids,
/// allocated once for the `n` items of the query's lists: ids below
/// [`dense_bound`]`(n)` (the rule under which a list's item index is a
/// dense array) index the bitset, which is `n / 32` words; any farther id
/// falls back to a hashed set. A query that resolves most of its items
/// therefore never rehashes.
#[derive(Debug, Clone)]
pub struct TopKBuffer {
    k: usize,
    /// Min-heap of the current top-k, keyed by (score, item id) so that the
    /// eviction order is deterministic under ties.
    heap: BinaryHeap<Reverse<(Score, ItemId)>>,
    /// `dense_bound(n)`: ids below it live in `seen`, the rest in `far`.
    bound: u64,
    /// Bit `id` is set once item `id < bound` has been offered.
    seen: Vec<u64>,
    /// Offered ids at or beyond `dense_bound(n)`.
    far: ItemMap<()>,
    /// Every item ever offered with its overall score, in order of first
    /// offer: feeds the run certificate.
    offered: Vec<(ItemId, Score)>,
}

impl TopKBuffer {
    /// Creates a buffer that keeps the `k` best of items drawn from lists
    /// of `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        TopKBuffer {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            bound: dense_bound(n),
            seen: vec![0; dense_bound(n).div_ceil(64) as usize],
            far: ItemMap::default(),
            offered: Vec::with_capacity(n.min(RESERVED_RESOLUTIONS)),
        }
    }

    /// The configured `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Offers an item with its overall score. Returns `true` if this was the
    /// first time the item was offered.
    ///
    /// Offering the same item twice (necessarily with the same overall
    /// score, since overall scores are functions of the item) is a no-op.
    pub fn offer(&mut self, item: ItemId, score: Score) -> bool {
        if !self.mark(item) {
            return false;
        }
        self.offered.push((item, score));
        self.heap.push(Reverse((score, item)));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        true
    }

    /// Marks `item` seen; `false` when it already was.
    #[inline]
    fn mark(&mut self, item: ItemId) -> bool {
        if item.0 < self.bound {
            let word = &mut self.seen[(item.0 / 64) as usize];
            let bit = 1 << (item.0 % 64);
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        } else {
            self.far.insert(item, ()).is_none()
        }
    }

    /// Whether the item has been offered (resolved) before.
    #[inline]
    pub fn was_offered(&self, item: ItemId) -> bool {
        if item.0 < self.bound {
            self.seen[(item.0 / 64) as usize] & (1 << (item.0 % 64)) != 0
        } else {
            self.far.contains_key(&item)
        }
    }

    /// Number of items currently buffered (at most `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no item has been buffered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of distinct items ever offered.
    #[inline]
    pub fn offered_count(&self) -> usize {
        self.offered.len()
    }

    /// The k-th best score seen so far, i.e. the lowest score in the buffer,
    /// provided the buffer already holds `k` items.
    pub fn kth_score(&self) -> Option<Score> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|Reverse((score, _))| *score)
        }
    }

    /// The stopping test shared by TA, BPA and BPA2: does the buffer hold
    /// `k` items whose overall scores are all `>= threshold`?
    pub fn has_k_at_or_above(&self, threshold: Score) -> bool {
        match self.kth_score() {
            Some(kth) => kth >= threshold,
            None => false,
        }
    }

    /// Consumes the buffer and returns the answers together with the
    /// run's certificate: the given per-list `bounds` and every offered
    /// item with its overall score, in the order the items were first
    /// offered (moved in, not copied).
    pub fn finish(self, bounds: Option<Vec<Score>>) -> (Vec<RankedItem>, RunCertificate) {
        let certificate = RunCertificate::new(bounds, self.offered);
        (Self::ranked(self.heap), certificate)
    }

    /// Consumes the buffer and returns the answers in descending score
    /// order (ties broken by ascending item id).
    pub fn into_ranked(self) -> Vec<RankedItem> {
        Self::ranked(self.heap)
    }

    fn ranked(heap: BinaryHeap<Reverse<(Score, ItemId)>>) -> Vec<RankedItem> {
        let mut items: Vec<RankedItem> = heap
            .into_iter()
            .map(|Reverse((score, item))| RankedItem { item, score })
            .collect();
        items.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.item.cmp(&b.item)));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Score {
        Score::from_f64(v)
    }

    #[test]
    fn keeps_only_the_k_best() {
        let mut buf = TopKBuffer::new(2, 16);
        buf.offer(ItemId(1), s(10.0));
        buf.offer(ItemId(2), s(30.0));
        buf.offer(ItemId(3), s(20.0));
        assert_eq!(buf.len(), 2);
        let ranked = buf.into_ranked();
        assert_eq!(ranked[0].item, ItemId(2));
        assert_eq!(ranked[1].item, ItemId(3));
    }

    #[test]
    fn kth_score_requires_a_full_buffer() {
        let mut buf = TopKBuffer::new(3, 16);
        buf.offer(ItemId(1), s(5.0));
        buf.offer(ItemId(2), s(9.0));
        assert_eq!(buf.kth_score(), None);
        assert!(!buf.has_k_at_or_above(s(0.0)));
        buf.offer(ItemId(3), s(7.0));
        assert_eq!(buf.kth_score(), Some(s(5.0)));
        assert!(buf.has_k_at_or_above(s(5.0)));
        assert!(buf.has_k_at_or_above(s(4.9)));
        assert!(!buf.has_k_at_or_above(s(5.1)));
    }

    #[test]
    fn repeated_offers_are_idempotent() {
        let mut buf = TopKBuffer::new(2, 16);
        assert!(buf.offer(ItemId(7), s(1.0)));
        assert!(!buf.offer(ItemId(7), s(1.0)));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.offered_count(), 1);
    }

    #[test]
    fn eviction_updates_membership() {
        let mut buf = TopKBuffer::new(1, 16);
        buf.offer(ItemId(1), s(1.0));
        assert_eq!(buf.kth_score(), Some(s(1.0)));
        buf.offer(ItemId(2), s(2.0));
        assert_eq!(buf.kth_score(), Some(s(2.0)));
        // An evicted item stays offered: offering it again is a no-op.
        assert!(buf.was_offered(ItemId(1)));
        assert!(!buf.offer(ItemId(1), s(1.0)));
        assert_eq!(buf.offered_count(), 2);
        let ranked = buf.into_ranked();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].item, ItemId(2));
    }

    #[test]
    fn finish_certifies_every_offered_item() {
        let mut buf = TopKBuffer::new(1, 16);
        for (id, score) in [(9u64, 3.0), (2, 5.0), (4, 1.0)] {
            buf.offer(ItemId(id), s(score));
        }
        let (ranked, certificate) = buf.finish(Some(vec![s(1.0)]));
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].item, ItemId(2));
        assert_eq!(
            certificate.resolved,
            vec![
                (ItemId(9), s(3.0)),
                (ItemId(2), s(5.0)),
                (ItemId(4), s(1.0))
            ]
        );
        assert_eq!(certificate.bounds, Some(vec![s(1.0)]));
    }

    /// Ids on both sides of `dense_bound(n)` and far beyond it, for a few
    /// `n`: the bitset's last id, the hashed set's first, and one far id.
    fn boundary_ids(n: usize) -> Vec<u64> {
        let bound = dense_bound(n);
        vec![0, 63, 64, bound - 1, bound, bound + 1, 1 << 32, u64::MAX]
    }

    #[test]
    fn offers_are_idempotent_on_both_sides_of_the_dense_bound() {
        for n in [1, 2, 63, 64, 65, 257] {
            let ids = boundary_ids(n);
            let mut buf = TopKBuffer::new(3, n);
            for (rank, &id) in ids.iter().enumerate() {
                assert!(!buf.was_offered(ItemId(id)), "n = {n}, id {id}");
                assert!(buf.offer(ItemId(id), s(rank as f64)), "n = {n}, id {id}");
                assert!(buf.was_offered(ItemId(id)), "n = {n}, id {id}");
                assert_eq!(buf.offered_count(), rank + 1, "n = {n}, id {id}");
            }
            // A repeat offer, with any score, changes nothing.
            for &id in &ids {
                assert!(!buf.offer(ItemId(id), s(100.0)), "n = {n}, id {id}");
            }
            assert_eq!(buf.offered_count(), ids.len());
            // Neighbours of the offered ids stay unseen.
            for id in [1, 62, dense_bound(n) + 2, (1 << 32) + 1] {
                assert!(!buf.was_offered(ItemId(id)), "n = {n}, id {id}");
            }
            let top: Vec<u64> = buf.clone().into_ranked().iter().map(|r| r.item.0).collect();
            assert_eq!(
                top,
                ids[ids.len() - 3..]
                    .iter()
                    .rev()
                    .copied()
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn finish_lists_resolved_items_in_first_offer_order() {
        let n = 65;
        let bound = dense_bound(n);
        // Interleave bitset and hashed ids, with repeats: the certificate
        // keeps each item once, where it was first offered.
        let order = [bound, 5, 1 << 40, bound - 1, 5, bound, 0, bound + 7];
        let mut buf = TopKBuffer::new(2, n);
        for (rank, &id) in order.iter().enumerate() {
            buf.offer(ItemId(id), s(rank as f64));
        }
        let (_, certificate) = buf.finish(None);
        let expected: Vec<(ItemId, Score)> = [(bound, 0.0), (5, 1.0), (1 << 40, 2.0)]
            .into_iter()
            .chain([(bound - 1, 3.0), (0, 6.0), (bound + 7, 7.0)])
            .map(|(id, score)| (ItemId(id), s(score)))
            .collect();
        assert_eq!(certificate.resolved, expected);
        assert_eq!(certificate.bounds, None);
    }

    #[test]
    fn tie_eviction_is_deterministic() {
        // With equal scores, the larger item id is evicted first because the
        // heap key is (score, item) and we pop the minimum.
        let mut buf = TopKBuffer::new(1, 16);
        buf.offer(ItemId(5), s(1.0));
        buf.offer(ItemId(3), s(1.0));
        let ranked = buf.into_ranked();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].item, ItemId(5));
    }

    #[test]
    fn paper_example_positions_1_to_3() {
        // Figure 1, k = 3: after position 3 the buffer holds d3, d5, d8 with
        // scores 70, 70, 71 and the lowest of them is 70.
        let mut buf = TopKBuffer::new(3, 16);
        for (id, score) in [
            (1u64, 65.0),
            (2, 63.0),
            (3, 70.0),
            (4, 66.0),
            (5, 70.0),
            (6, 60.0),
            (7, 61.0),
            (8, 71.0),
            (9, 62.0),
        ] {
            buf.offer(ItemId(id), s(score));
        }
        assert_eq!(buf.kth_score(), Some(s(70.0)));
        let ids = buf.into_ranked().iter().map(|r| r.item).collect::<Vec<_>>();
        assert_eq!(ids, vec![ItemId(8), ItemId(3), ItemId(5)]);
    }

    #[test]
    fn is_empty_and_k_accessors() {
        let buf = TopKBuffer::new(4, 16);
        assert!(buf.is_empty());
        assert_eq!(buf.k(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_panics() {
        let _ = TopKBuffer::new(0, 16);
    }
}
