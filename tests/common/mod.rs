//! Helpers shared by the integration suites.

use bpa_topk::lists::source::{ListSource, SourceEntry, SourceScore};
use bpa_topk::lists::{AccessCounters, ItemId, Position, Score};

/// Delegating shim that deliberately does NOT override `sorted_block`:
/// block reads run through the trait's default per-position loop over
/// `sorted_access` — the reference path for every block fast path.
#[derive(Debug)]
pub struct DefaultBlockPath<S>(pub S);

impl<S: ListSource> ListSource for DefaultBlockPath<S> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        self.0.sorted_access(position, track)
    }
    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        self.0.random_access(item, with_position, track)
    }
    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        self.0.direct_access_next()
    }
    fn best_position(&self) -> Option<Position> {
        self.0.best_position()
    }
    fn epoch(&self) -> u64 {
        self.0.epoch()
    }
    fn tail_score(&self) -> Score {
        self.0.tail_score()
    }
    fn counters(&self) -> AccessCounters {
        self.0.counters()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}
