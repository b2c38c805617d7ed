//! The zero-cost-when-disabled tracing decorator for source sets.
//!
//! [`TracedSources`] wraps a [`Sources`] container so that every list
//! access — sorted, random, direct, block — and every round boundary is
//! recorded into the ambient `topk_trace` session. Tracing is
//! **observation-only**: each method forwards to the wrapped source
//! *first* and records what actually happened (including the overridden
//! `sorted_block` fast paths — the decorator never falls back to the
//! trait's default block loop, so backend counters stay bit-identical
//! with tracing on or off). When no session is active, the only overhead
//! per access is one relaxed atomic load.
//!
//! Composition order matters and both orders are expressible:
//!
//! * `sources.traced()` observes the *logical* accesses the algorithm
//!   issues;
//! * `sources.traced().batched(b)` puts the batching decorator outside
//!   the traced layer, so the trace shows the *physical* block accesses.

use crate::access::AccessCounters;
use crate::item::{ItemId, Position, Score};
use crate::source::{CacheCounters, ListSource, SourceEntry, SourceScore, SourceSet, Sources};
use topk_trace::{record, TraceEvent};

/// One list wrapped for tracing; built by [`TracedSources::wrap`].
#[derive(Debug)]
pub struct TracedSource<'a> {
    inner: Box<dyn ListSource + 'a>,
    list: u64,
}

impl ListSource for TracedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        let entry = self.inner.sorted_access(position, track);
        if topk_trace::active() {
            record(TraceEvent::SortedAccess {
                list: self.list,
                position: position.get() as u64,
                hit: entry.is_some(),
            });
        }
        entry
    }

    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        let score = self.inner.random_access(item, with_position, track);
        if topk_trace::active() {
            record(TraceEvent::RandomAccess {
                list: self.list,
                item: item.0,
                found: score.is_some(),
            });
        }
        score
    }

    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        let entry = self.inner.direct_access_next();
        if topk_trace::active() {
            record(TraceEvent::DirectAccess {
                list: self.list,
                hit: entry.is_some(),
            });
        }
        entry
    }

    fn sorted_block(&mut self, start: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        // Forward to the inner implementation (which may be a slice walk
        // or a one-exchange network read), never to the trait's default
        // per-position loop.
        let entries = self.inner.sorted_block(start, len, track);
        if topk_trace::active() {
            record(TraceEvent::BlockAccess {
                list: self.list,
                start: start.get() as u64,
                len: len as u64,
                returned: entries.len() as u64,
            });
        }
        entries
    }

    fn begin_round(&mut self) {
        // Round events are recorded once at the set level (see
        // `TracedSources::begin_round`), not once per list.
        self.inner.begin_round();
    }

    fn best_position(&self) -> Option<Position> {
        self.inner.best_position()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn tail_score(&self) -> Score {
        self.inner.tail_score()
    }

    fn counters(&self) -> AccessCounters {
        self.inner.counters()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.inner.cache_counters()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A [`SourceSet`] recording every access and round into the ambient
/// trace session; see the module docs.
#[derive(Debug)]
pub struct TracedSources<'a> {
    inner: Sources<'a>,
    rounds: u64,
}

impl<'a> TracedSources<'a> {
    /// Wraps every list of `sources` in a [`TracedSource`].
    pub fn wrap(sources: Sources<'a>) -> Self {
        let boxes = sources
            .into_boxes()
            .into_iter()
            .enumerate()
            .map(|(i, inner)| {
                Box::new(TracedSource {
                    inner,
                    list: i as u64,
                }) as Box<dyn ListSource + 'a>
            })
            .collect();
        TracedSources {
            inner: Sources::new(boxes),
            rounds: 0,
        }
    }

    /// Wraps the (already traced) lists in `BatchingSource`s, so the
    /// trace records the physical block accesses the batcher issues.
    pub fn batched(self, block_len: usize) -> Self {
        TracedSources {
            inner: self.inner.batched(block_len),
            rounds: self.rounds,
        }
    }
}

impl SourceSet for TracedSources<'_> {
    fn num_lists(&self) -> usize {
        self.inner.num_lists()
    }

    fn source(&mut self, i: usize) -> &mut dyn ListSource {
        self.inner.source(i)
    }

    fn source_ref(&self, i: usize) -> &dyn ListSource {
        self.inner.source_ref(i)
    }

    fn begin_round(&mut self) {
        self.rounds += 1;
        if topk_trace::active() {
            record(TraceEvent::RoundBegin { round: self.rounds });
        }
        self.inner.begin_round();
    }

    fn reset(&mut self) {
        self.rounds = 0;
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use topk_trace::TraceSession;

    fn sample_database() -> Database {
        Database::from_unsorted_lists(vec![
            vec![(1, 0.9), (2, 0.8), (3, 0.1)],
            vec![(2, 0.7), (3, 0.6), (1, 0.2)],
        ])
        .expect("valid database")
    }

    #[test]
    fn traced_accesses_record_events_and_forward_results() {
        let db = sample_database();
        let mut sources = Sources::in_memory(&db).traced();
        let session = TraceSession::begin();
        sources.begin_round();
        let entry = sources
            .source(0)
            .sorted_access(Position::new(1).expect("valid"), true)
            .expect("position 1 exists");
        assert_eq!(entry.item, ItemId(1));
        let miss = sources.source(1).random_access(ItemId(99), false, false);
        assert!(miss.is_none());
        let block = sources
            .source(0)
            .sorted_block(Position::new(1).expect("valid"), 10, false);
        assert_eq!(block.len(), 3, "block stops at the end of the list");
        let trace = session.finish();
        let kinds: Vec<&str> = trace.events.iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            ["round", "sorted_access", "random_access", "block_access"]
        );
        assert_eq!(
            trace.events[2].event,
            TraceEvent::RandomAccess {
                list: 1,
                item: 99,
                found: false,
            }
        );
        assert_eq!(
            trace.events[3].event,
            TraceEvent::BlockAccess {
                list: 0,
                start: 1,
                len: 10,
                returned: 3,
            }
        );
    }

    #[test]
    fn tracing_disabled_leaves_counters_identical() {
        let db = sample_database();
        let probe = |mut sources: Box<dyn SourceSet>| {
            sources.begin_round();
            let _ = sources
                .source(0)
                .sorted_access(Position::new(1).expect("valid"), true);
            let _ = sources.source(0).random_access(ItemId(2), true, true);
            sources.total_counters()
        };
        let plain = probe(Box::new(Sources::in_memory(&db)));
        let traced_off = probe(Box::new(Sources::in_memory(&db).traced()));
        let session = TraceSession::begin();
        let traced_on = probe(Box::new(Sources::in_memory(&db).traced()));
        let trace = session.finish();
        assert_eq!(plain, traced_off);
        assert_eq!(plain, traced_on);
        assert_eq!(trace.count_kind("sorted_access"), 1);
        assert_eq!(trace.count_kind("random_access"), 1);
    }

    #[test]
    fn batched_traced_sources_record_physical_blocks() {
        let db = sample_database();
        let mut sources = Sources::in_memory(&db).traced().batched(2);
        let session = TraceSession::begin();
        let _ = sources
            .source(0)
            .sorted_access(Position::new(1).expect("valid"), false);
        let trace = session.finish();
        // The batcher turned the single position probe into one block
        // prefetch against the traced physical layer.
        assert_eq!(trace.count_kind("block_access"), 1);
        assert_eq!(trace.count_kind("sorted_access"), 0);
    }
}
