//! Query results: the top-k items with their overall scores plus run
//! statistics.

use topk_lists::{ItemId, ItemMap, Score};

use crate::stats::RunStats;

/// One answer of a top-k query: a data item and its overall score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedItem {
    /// The data item.
    pub item: ItemId,
    /// Its overall score under the query's scoring function.
    pub score: Score,
}

/// What a run *proved* about the items it did not return — the evidence a
/// standing query (`crate::standing`) needs to decide whether an update
/// can change the answer without re-executing anything.
///
/// The stopping conditions of the threshold family all rest on the same
/// two facts, which the certificate records:
///
/// * every item the run resolved has the recorded overall score, and
/// * any item the run did **not** resolve sits, in every list `i`, at a
///   position deeper than the deepest seen prefix — so its local score is
///   at most `bounds[i]` (TA: the last scores seen under sorted access;
///   BPA/BPA2: the scores at the final best positions).
#[derive(Debug, Clone, PartialEq)]
pub struct RunCertificate {
    /// Per-list upper bounds on the local score of any unresolved item,
    /// or `None` when the algorithm offers no such bound (e.g. TPUT's
    /// phased thresholds do not map onto per-list prefixes).
    pub bounds: Option<Vec<Score>>,
    /// The overall score of every item the run resolved, keyed by item.
    /// Its iteration order is hash order: look items up, or sort before
    /// walking it where order is observable.
    pub resolved: ItemMap<Score>,
}

impl RunCertificate {
    /// Assembles a certificate from the bounds and the resolved map.
    pub fn new(bounds: Option<Vec<Score>>, resolved: ItemMap<Score>) -> Self {
        RunCertificate { bounds, resolved }
    }

    /// The overall score the run resolved for `item`, if any.
    pub fn resolved_score(&self, item: ItemId) -> Option<Score> {
        self.resolved.get(&item).copied()
    }
}

/// The answer set `Y` of a top-k query together with the statistics of the
/// run that produced it.
///
/// Items are ordered by descending overall score; ties are broken by
/// ascending item id so that results are deterministic. Because the problem
/// definition only requires *a* set of k items whose scores dominate the
/// rest, comparisons between algorithms should use [`TopKResult::scores`]
/// (or score multisets), not item identity.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    items: Vec<RankedItem>,
    stats: RunStats,
    certificate: Option<RunCertificate>,
}

impl TopKResult {
    /// Assembles a result, sorting the items by descending score (ties by
    /// ascending item id).
    pub fn new(mut items: Vec<RankedItem>, stats: RunStats) -> Self {
        items.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.item.cmp(&b.item)));
        TopKResult {
            items,
            stats,
            certificate: None,
        }
    }

    /// Attaches the run's [`RunCertificate`] (builder style; algorithms
    /// that can prove bounds on the unseen items call this before
    /// returning).
    pub fn with_certificate(mut self, certificate: RunCertificate) -> Self {
        self.certificate = Some(certificate);
        self
    }

    /// What the run proved about unreturned items, if the algorithm
    /// recorded it.
    pub fn certificate(&self) -> Option<&RunCertificate> {
        self.certificate.as_ref()
    }

    /// The top-k items in descending score order.
    pub fn items(&self) -> &[RankedItem] {
        &self.items
    }

    /// Number of answers returned (equals the query's `k` whenever
    /// `k ≤ n`).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The overall scores in descending order.
    pub fn scores(&self) -> Vec<Score> {
        self.items.iter().map(|r| r.score).collect()
    }

    /// The item ids in descending score order.
    pub fn item_ids(&self) -> Vec<ItemId> {
        self.items.iter().map(|r| r.item).collect()
    }

    /// The lowest overall score among the answers (the score of the k-th
    /// item), or `None` for an empty result.
    pub fn min_score(&self) -> Option<Score> {
        self.items.last().map(|r| r.score)
    }

    /// Run statistics (accesses, stopping position, elapsed time).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Stamps the wall-clock duration measured by
    /// [`run_on`](crate::algorithms::TopKAlgorithm::run_on). Algorithm
    /// bodies leave `elapsed` at zero; timing lives only at that single
    /// entry point so the bodies stay free of wall-clock reads.
    pub(crate) fn set_elapsed(&mut self, elapsed: std::time::Duration) {
        self.stats.elapsed = elapsed;
    }

    /// Compares two results by their score sequences within a tolerance,
    /// which is the right notion of agreement between algorithms when the
    /// database contains ties.
    pub fn scores_match(&self, other: &TopKResult, epsilon: f64) -> bool {
        self.items.len() == other.items.len()
            && self
                .items
                .iter()
                .zip(other.items.iter())
                .all(|(a, b)| (a.score.value() - b.score.value()).abs() <= epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use topk_lists::AccessCounters;

    fn dummy_stats() -> RunStats {
        RunStats {
            accesses: AccessCounters::default(),
            per_list: vec![],
            stop_position: None,
            rounds: 0,
            items_scored: 0,
            elapsed: Duration::ZERO,
        }
    }

    fn ranked(id: u64, score: f64) -> RankedItem {
        RankedItem {
            item: ItemId(id),
            score: Score::from_f64(score),
        }
    }

    #[test]
    fn items_are_sorted_by_descending_score() {
        let r = TopKResult::new(
            vec![ranked(1, 5.0), ranked(2, 9.0), ranked(3, 7.0)],
            dummy_stats(),
        );
        assert_eq!(r.item_ids(), vec![ItemId(2), ItemId(3), ItemId(1)]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.min_score().unwrap().value(), 5.0);
    }

    #[test]
    fn ties_break_by_item_id() {
        let r = TopKResult::new(vec![ranked(9, 5.0), ranked(2, 5.0)], dummy_stats());
        assert_eq!(r.item_ids(), vec![ItemId(2), ItemId(9)]);
    }

    #[test]
    fn scores_match_compares_sequences_not_items() {
        let a = TopKResult::new(vec![ranked(1, 5.0), ranked(2, 5.0)], dummy_stats());
        let b = TopKResult::new(vec![ranked(3, 5.0), ranked(4, 5.0)], dummy_stats());
        let c = TopKResult::new(vec![ranked(3, 5.0), ranked(4, 4.0)], dummy_stats());
        assert!(a.scores_match(&b, 1e-9));
        assert!(!a.scores_match(&c, 1e-9));
        let shorter = TopKResult::new(vec![ranked(1, 5.0)], dummy_stats());
        assert!(!a.scores_match(&shorter, 1e-9));
    }

    #[test]
    fn certificates_attach_and_resolve_by_item() {
        let bare = TopKResult::new(vec![ranked(1, 5.0)], dummy_stats());
        assert!(bare.certificate().is_none());
        let certificate = RunCertificate::new(
            Some(vec![Score::from_f64(4.0)]),
            [
                (ItemId(9), Score::from_f64(2.0)),
                (ItemId(1), Score::from_f64(5.0)),
            ]
            .into_iter()
            .collect(),
        );
        let with = bare.with_certificate(certificate);
        let cert = with.certificate().unwrap();
        assert_eq!(cert.resolved.len(), 2);
        assert_eq!(cert.resolved_score(ItemId(1)), Some(Score::from_f64(5.0)));
        assert_eq!(cert.resolved_score(ItemId(9)), Some(Score::from_f64(2.0)));
        assert_eq!(cert.resolved_score(ItemId(3)), None);
        assert_eq!(cert.bounds.as_ref().unwrap()[0].value(), 4.0);
    }

    #[test]
    fn empty_result_behaviour() {
        let r = TopKResult::new(vec![], dummy_stats());
        assert!(r.is_empty());
        assert_eq!(r.min_score(), None);
        assert!(r.scores().is_empty());
        assert_eq!(r.stats().rounds, 0);
    }
}
