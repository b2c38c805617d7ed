//! The fault-injection suite: every physical read a query performs is a
//! potential failure point, and each one must surface as a **typed
//! error** through `run_on` — never a panic, never a poisoned cache.
//!
//! The doubles wrap [`MemIo`] behind the crate-private [`PageIo`] seam
//! and fail deterministically by *operation count*: a shared
//! [`FaultPlan`] numbers every `read_exact_at` across all lists of a
//! database, and arming the plan at op `i` makes exactly the `i`-th
//! read fail. Sweeping `i` over every op of a full run therefore proves
//! the fail-stop contract at every reachable failure point, for all 7
//! algorithms.

// lint:allow-file(fail-stop) -- this whole module is #[cfg(test)]-gated in lib.rs: its unwraps and panics are test assertions, invisible to per-file test detection

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topk_core::algorithms::AlgorithmKind;
use topk_core::{TopKError, TopKQuery, TopKResult};
use topk_lists::source::{ListSource, SourceSet, Sources};
use topk_lists::{AccessCounters, Database, ItemId, Position};

use crate::cache::CacheCapacity;
use crate::error::StorageError;
use crate::io::{MemIo, PageIo};
use crate::layout::PageLayout;
use crate::source::{PagedSource, PagedStore};
use crate::writer::encode_list;

/// Shared op counter + armed failure point. `fail_at == 0` disarms the
/// plan (op numbering is 1-based).
#[derive(Debug, Clone, Default)]
struct FaultPlan(Arc<FaultPlanState>);

#[derive(Debug, Default)]
struct FaultPlanState {
    reads: AtomicU64,
    fail_at: AtomicU64,
}

impl FaultPlan {
    fn new() -> FaultPlan {
        FaultPlan::default()
    }

    fn arm(&self, op: u64) {
        self.0.fail_at.store(op, Ordering::SeqCst);
    }

    fn reads(&self) -> u64 {
        self.0.reads.load(Ordering::SeqCst)
    }

    /// Numbers this read; `true` means it is the armed failure point.
    fn next_read_fails(&self) -> u64 {
        let op = self.0.reads.fetch_add(1, Ordering::SeqCst) + 1;
        if op == self.0.fail_at.load(Ordering::SeqCst) {
            op
        } else {
            0
        }
    }
}

/// Fails the armed read outright with an IO error.
#[derive(Debug)]
struct FlakyIo {
    inner: MemIo,
    plan: FaultPlan,
}

impl PageIo for FlakyIo {
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let op = self.plan.next_read_fails();
        if op != 0 {
            return Err(std::io::Error::other(format!(
                "injected failure at op {op}"
            )));
        }
        self.inner.read_exact_at(offset, buf)
    }

    fn total_len(&mut self) -> std::io::Result<u64> {
        self.inner.total_len()
    }
}

/// Fails the armed read as a *short read*: the buffer is partially
/// filled with garbage before the error, modelling a torn `pread`. The
/// suite proves the garbage can never be observed afterwards.
#[derive(Debug)]
struct ShortReadIo {
    inner: MemIo,
    plan: FaultPlan,
}

impl PageIo for ShortReadIo {
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let op = self.plan.next_read_fails();
        if op != 0 {
            let torn = buf.len() / 2;
            buf[..torn].fill(0xAA);
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("short read at op {op}: {torn} of {} bytes", buf.len()),
            ));
        }
        self.inner.read_exact_at(offset, buf)
    }

    fn total_len(&mut self) -> std::io::Result<u64> {
        self.inner.total_len()
    }
}

const PAGE_SIZE: usize = 64; // 4 entries/page: every query spans many pages

fn database() -> Database {
    // m = 3, n = 40, deliberately scrambled scores with ties.
    let list = |a: u64, m: u64| (1..=40u64).map(|i| (i, ((i * a) % m) as f64)).collect();
    Database::from_unsorted_lists(vec![list(7, 41), list(23, 37), list(31, 43)]).unwrap()
}

fn images() -> Vec<Vec<u8>> {
    database()
        .lists()
        .map(|list| encode_list(list, PageLayout::with_page_size(PAGE_SIZE)))
        .collect()
}

enum Double {
    Flaky,
    ShortRead,
}

fn faulty_sources(
    images: &[Vec<u8>],
    plan: &FaultPlan,
    double: Double,
    capacity: CacheCapacity,
) -> Result<Sources<'static>, StorageError> {
    let mut sources: Vec<Box<dyn ListSource>> = Vec::new();
    for image in images {
        let inner = MemIo::new(image.clone());
        let io: Box<dyn PageIo> = match double {
            Double::Flaky => Box::new(FlakyIo {
                inner,
                plan: plan.clone(),
            }),
            Double::ShortRead => Box::new(ShortReadIo {
                inner,
                plan: plan.clone(),
            }),
        };
        let store = PagedStore::from_io(io, capacity)?;
        sources.push(Box::new(PagedSource::new(store)));
    }
    Ok(Sources::new(sources))
}

/// Everything observable about a run except wall-clock time.
type Essence = (
    Vec<(ItemId, u64)>,
    AccessCounters,
    Vec<AccessCounters>,
    Option<usize>,
    u64,
    usize,
);

fn essence(result: &TopKResult) -> Essence {
    (
        result
            .items()
            .iter()
            .map(|r| (r.item, r.score.value().to_bits()))
            .collect(),
        result.stats().accesses,
        result.stats().per_list.clone(),
        result.stats().stop_position,
        result.stats().rounds,
        result.stats().items_scored,
    )
}

/// The sweep: for one double and cache capacity, for every algorithm,
/// fail each op of a full run in turn. Every armed op must yield a typed
/// error (from `open` or from `run_on`), and when the failure hit
/// mid-query, a `reset` retry on the *same* sources must succeed
/// bit-identically. At `Pages(1)` and `Pages(2)` nearly every read is a
/// miss that evicts, so the failures land on misses whose buffer was
/// recycled from an evicted page.
fn sweep(double: fn() -> Double, stride: u64, capacity: CacheCapacity) {
    let db = database();
    let images = images();
    let query = TopKQuery::top(5);

    for kind in AlgorithmKind::ALL {
        let algorithm = kind.create();

        // Reference: the in-memory backend, plus the op budget of one
        // fault-free disk run (open + query) to sweep over.
        let mut memory = Sources::in_memory(&db);
        let reference = essence(&algorithm.run_on(&mut memory, &query).unwrap());
        let plan = FaultPlan::new();
        let mut sources = faulty_sources(&images, &plan, double(), capacity).unwrap();
        let clean = essence(&algorithm.run_on(&mut sources, &query).unwrap());
        assert_eq!(clean, reference, "{kind:?}: disk must match memory");
        let total_ops = plan.reads();
        assert!(total_ops > 12, "{kind:?}: the sweep must have ops to fail");

        let mut mid_query_failures = 0u64;
        for op in (1..=total_ops).step_by(stride as usize) {
            let plan = FaultPlan::new();
            plan.arm(op);
            match faulty_sources(&images, &plan, double(), capacity) {
                // The armed op landed inside `open`: a typed storage
                // error, before any algorithm ran.
                Err(StorageError::Io { .. }) => continue,
                Err(other) => panic!("{kind:?} op {op}: unexpected open error {other}"),
                Ok(mut sources) => {
                    let err = algorithm
                        .run_on(&mut sources, &query)
                        .expect_err("the armed op must fail the run");
                    match err {
                        TopKError::Source(source) => {
                            assert!(
                                source.detail.contains(&format!("op {op}")),
                                "{kind:?}: error names the injected op: {source}"
                            );
                        }
                        other => panic!("{kind:?} op {op}: expected a Source error, got {other:?}"),
                    }
                    mid_query_failures += 1;

                    // Recovery: reset, retry on the same sources. The
                    // plan's counter is already past the armed op, so
                    // the retry sees healthy IO — and must reproduce the
                    // reference run exactly (cold cache, no poisoned
                    // pages, no stale tracker or counter state).
                    sources.reset();
                    let retried = algorithm
                        .run_on(&mut sources, &query)
                        .unwrap_or_else(|e| panic!("{kind:?} op {op}: retry failed with {e}"));
                    assert_eq!(essence(&retried), reference, "{kind:?} op {op}: retry");
                }
            }
        }
        assert!(
            mid_query_failures > 0,
            "{kind:?}: the sweep never reached the query phase"
        );
    }
}

#[test]
fn every_flaky_read_yields_a_typed_error_and_reset_recovers() {
    sweep(|| Double::Flaky, 1, CacheCapacity::Unbounded);
}

#[test]
fn short_reads_cannot_poison_the_cache() {
    // Stride 3 keeps the combined suites fast; FlakyIo already sweeps
    // every op, this pass proves torn buffers are never cached.
    sweep(|| Double::ShortRead, 3, CacheCapacity::Unbounded);
}

#[test]
fn every_flaky_read_on_an_evicting_cache_yields_a_typed_error() {
    for pages in [1, 2] {
        sweep(|| Double::Flaky, 1, CacheCapacity::Pages(pages));
    }
}

#[test]
fn short_reads_cannot_poison_an_evicting_cache() {
    // Every op: here the torn bytes land in recycled page buffers.
    for pages in [1, 2] {
        sweep(|| Double::ShortRead, 1, CacheCapacity::Pages(pages));
    }
}

#[test]
fn failures_are_latched_on_the_source_and_cleared_by_reset() {
    let images = images();
    let plan = FaultPlan::new();
    let store = PagedStore::from_io(
        Box::new(FlakyIo {
            inner: MemIo::new(images[0].clone()),
            plan: plan.clone(),
        }),
        CacheCapacity::Pages(1),
    )
    .unwrap();
    let mut source = PagedSource::new(store);
    assert!(source.store().last_error().is_none());

    // Arm the next read and catch the fail-stop unwind by hand (this is
    // what `run_on` does for a whole algorithm).
    plan.arm(plan.reads() + 1);
    let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        source.sorted_access(Position::FIRST, false)
    }))
    .expect_err("the injected failure must unwind");
    let raised = unwind
        .downcast::<topk_lists::source::SourceError>()
        .expect("the payload is the typed SourceError");
    assert_eq!(source.store().last_error(), Some(raised.as_ref()));
    assert!(raised.detail.contains("injected failure"));

    // Reset clears the latch and the source serves queries again.
    source.reset();
    assert!(source.store().last_error().is_none());
    let entry = source.sorted_access(Position::FIRST, false).unwrap();
    assert_eq!(entry.position, Position::FIRST);
}
