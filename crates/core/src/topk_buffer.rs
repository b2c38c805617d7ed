//! The answer buffer `Y`: the k highest-scored items seen so far.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use topk_lists::{ItemId, ItemMap, Score};

use crate::result::{RankedItem, RunCertificate};

/// Maintains "the k seen data items whose overall scores are the highest
/// among all data items seen so far" (step 1 of TA, BPA and BPA2).
///
/// Each item may be offered any number of times with the same score (the
/// scan-based algorithms re-resolve items they meet again); only the first
/// offer counts. The buffer exposes the k-th best score, which is what the
/// stopping conditions compare against the thresholds `δ` and `λ`.
///
/// The buffer also remembers every item it was offered with its overall
/// score — exactly the set a run resolved — and hands that set to the
/// run's [`RunCertificate`] in [`TopKBuffer::finish`].
#[derive(Debug, Clone)]
pub struct TopKBuffer {
    k: usize,
    /// Min-heap of the current top-k, keyed by (score, item id) so that the
    /// eviction order is deterministic under ties.
    heap: BinaryHeap<Reverse<(Score, ItemId)>>,
    /// Every item ever offered with its overall score: makes repeated
    /// offers idempotent and feeds the run certificate.
    offered: ItemMap<Score>,
}

impl TopKBuffer {
    /// Creates a buffer that keeps the `k` best items.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        TopKBuffer {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            offered: ItemMap::default(),
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
        if self.offered.insert(item, score).is_some() {
            return false;
        }
        self.heap.push(Reverse((score, item)));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        true
    }

    /// Whether the item has been offered (resolved) before.
    #[inline]
    pub fn was_offered(&self, item: ItemId) -> bool {
        self.offered.contains_key(&item)
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
    /// run's certificate: the given per-list `bounds` and the map of every
    /// offered item to its overall score, moved in as it is.
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
        let mut buf = TopKBuffer::new(2);
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
        let mut buf = TopKBuffer::new(3);
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
        let mut buf = TopKBuffer::new(2);
        assert!(buf.offer(ItemId(7), s(1.0)));
        assert!(!buf.offer(ItemId(7), s(1.0)));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.offered_count(), 1);
    }

    #[test]
    fn eviction_updates_membership() {
        let mut buf = TopKBuffer::new(1);
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
        let mut buf = TopKBuffer::new(1);
        for (id, score) in [(9u64, 3.0), (2, 5.0), (4, 1.0)] {
            buf.offer(ItemId(id), s(score));
        }
        let (ranked, certificate) = buf.finish(Some(vec![s(1.0)]));
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].item, ItemId(2));
        assert_eq!(certificate.resolved.len(), 3);
        assert_eq!(certificate.resolved_score(ItemId(9)), Some(s(3.0)));
        assert_eq!(certificate.resolved_score(ItemId(4)), Some(s(1.0)));
        assert_eq!(certificate.resolved_score(ItemId(7)), None);
        assert_eq!(certificate.bounds, Some(vec![s(1.0)]));
    }

    #[test]
    fn tie_eviction_is_deterministic() {
        // With equal scores, the larger item id is evicted first because the
        // heap key is (score, item) and we pop the minimum.
        let mut buf = TopKBuffer::new(1);
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
        let mut buf = TopKBuffer::new(3);
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
        let buf = TopKBuffer::new(4);
        assert!(buf.is_empty());
        assert_eq!(buf.k(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_panics() {
        let _ = TopKBuffer::new(0);
    }
}
