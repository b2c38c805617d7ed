//! A deterministic LRU page cache.
//!
//! Determinism is the point: eviction is by least-recent logical use
//! stamp (ties broken by page id), never by wall clock or hash order, so
//! two identical runs produce identical hit/miss counters — which the
//! `paged_scan` CI gate asserts, and which makes cache counters safe to
//! pin in tests.
//!
//! A miss costs one positioned read and, once the cache is full, no
//! allocation: resident pages live in a `Vec` of slots reached through
//! one page → slot map on the seedless [`ItemHasher`], and the cache
//! keeps one spare page buffer. A miss reads into the spare; only a read
//! that succeeds evicts the least recently used slot, whose buffer
//! becomes the next spare. A failed or torn read therefore evicts
//! nothing, and its bytes are overwritten by the next miss before anyone
//! can see them.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use topk_lists::source::CacheCounters;
use topk_lists::ItemHasher;

use crate::error::StorageError;
use crate::io::PageIo;

/// How many pages a [`PagedSource`](crate::PagedSource) may keep
/// resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCapacity {
    /// At most this many pages (at least 1); the least recently used
    /// page is evicted to make room.
    Pages(usize),
    /// No eviction: every page read stays resident. This is the
    /// "fits in RAM" configuration — misses equal distinct pages
    /// touched.
    Unbounded,
}

#[derive(Debug)]
struct Slot {
    page: u64,
    bytes: Vec<u8>,
    last_used: u64,
}

/// The cache proper: page id → bytes, with hit/miss accounting.
///
/// `slots` holds the resident pages in no particular order and `index`
/// maps each resident page id to its slot; `spare` is the buffer the
/// next miss reads into (empty until the first miss, and again after
/// every miss that did not evict).
#[derive(Debug)]
pub(crate) struct PageCache {
    capacity: CacheCapacity,
    slots: Vec<Slot>,
    index: HashMap<u64, usize, BuildHasherDefault<ItemHasher>>,
    spare: Vec<u8>,
    clock: u64,
    counters: CacheCounters,
}

impl PageCache {
    /// # Panics
    ///
    /// Panics on `CacheCapacity::Pages(0)` — a source must be able to
    /// hold the page it is reading.
    pub fn new(capacity: CacheCapacity) -> PageCache {
        if let CacheCapacity::Pages(pages) = capacity {
            assert!(pages >= 1, "cache capacity must be at least one page");
        }
        PageCache {
            capacity,
            slots: Vec::new(),
            index: HashMap::default(),
            spare: Vec::new(),
            clock: 0,
            counters: CacheCounters::default(),
        }
    }

    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Drops every resident page and zeroes the counters — the cold
    /// state a [`reset`](topk_lists::source::ListSource::reset) restores.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.clock = 0;
        self.counters = CacheCounters::default();
    }

    /// The bytes of `page`, from cache or by reading `io`. A failed read
    /// evicts and inserts nothing (no partially-filled page can be
    /// observed later).
    pub fn page(
        &mut self,
        page: u64,
        io: &mut dyn PageIo,
        page_size: usize,
    ) -> Result<&[u8], StorageError> {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(&at) = self.index.get(&page) {
            self.counters.hits += 1;
            if topk_trace::active() {
                topk_trace::record(topk_trace::TraceEvent::CacheHit { page });
            }
            let slot = &mut self.slots[at];
            slot.last_used = stamp;
            return Ok(&slot.bytes);
        }
        self.counters.misses += 1;
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::CacheMiss { page });
        }
        self.spare.resize(page_size, 0);
        io.read_exact_at(page * page_size as u64, &mut self.spare)
            .map_err(|e| StorageError::io(format!("read of page {page}"), e))?;
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::PageRead {
                page,
                bytes: page_size as u64,
            });
        }
        let bytes = std::mem::take(&mut self.spare);
        let victim = match self.capacity {
            CacheCapacity::Pages(pages) if self.slots.len() >= pages => self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, slot)| (slot.last_used, slot.page))
                .map(|(at, _)| at),
            _ => None,
        };
        let at = match victim {
            Some(at) => {
                let slot = &mut self.slots[at];
                self.index.remove(&slot.page);
                self.spare = std::mem::replace(&mut slot.bytes, bytes);
                slot.page = page;
                slot.last_used = stamp;
                at
            }
            None => {
                self.slots.push(Slot {
                    page,
                    bytes,
                    last_used: stamp,
                });
                self.slots.len() - 1
            }
        };
        self.index.insert(page, at);
        Ok(&self.slots[at].bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;
    use proptest::prelude::*;

    fn image(pages: usize, page_size: usize) -> MemIo {
        // Page p is filled with the byte p, so reads are checkable.
        let mut bytes = Vec::with_capacity(pages * page_size);
        for p in 0..pages {
            bytes.resize((p + 1) * page_size, p as u8);
        }
        MemIo::new(bytes)
    }

    #[test]
    fn lru_evicts_the_least_recently_used_page() {
        let mut io = image(4, 64);
        let mut cache = PageCache::new(CacheCapacity::Pages(2));
        for page in [0u64, 1, 0, 2, 0, 1] {
            let bytes = cache.page(page, &mut io, 64).unwrap();
            assert!(bytes.iter().all(|&b| b == page as u8));
        }
        // 0 miss, 1 miss, 0 hit, 2 miss (evicts 1), 0 hit, 1 miss (evicts 2).
        assert_eq!(cache.counters(), CacheCounters { hits: 2, misses: 4 });
    }

    #[test]
    fn unbounded_cache_misses_once_per_distinct_page() {
        let mut io = image(3, 64);
        let mut cache = PageCache::new(CacheCapacity::Unbounded);
        for page in [0u64, 1, 2, 0, 1, 2, 0] {
            cache.page(page, &mut io, 64).unwrap();
        }
        assert_eq!(cache.counters(), CacheCounters { hits: 4, misses: 3 });
    }

    #[test]
    fn failed_reads_poison_nothing() {
        let mut io = image(2, 64);
        let mut cache = PageCache::new(CacheCapacity::Pages(2));
        // Page 9 is out of range: the read fails and nothing is cached.
        assert!(cache.page(9, &mut io, 64).is_err());
        assert_eq!(cache.counters(), CacheCounters { hits: 0, misses: 1 });
        // The failure is repeatable, not served from a phantom slot.
        assert!(cache.page(9, &mut io, 64).is_err());
        assert_eq!(cache.counters(), CacheCounters { hits: 0, misses: 2 });
    }

    #[test]
    fn clear_restores_the_cold_state() {
        let mut io = image(2, 64);
        let mut cache = PageCache::new(CacheCapacity::Pages(1));
        cache.page(0, &mut io, 64).unwrap();
        cache.page(0, &mut io, 64).unwrap();
        cache.clear();
        assert_eq!(cache.counters(), CacheCounters::default());
        cache.page(0, &mut io, 64).unwrap();
        assert_eq!(cache.counters(), CacheCounters { hits: 0, misses: 1 });
    }

    /// The steady state allocates nothing: once the cache has evicted
    /// for the first time, every page it returns lives in one of the
    /// `capacity + 1` buffers its first misses allocated, failed reads
    /// in between included.
    #[test]
    fn misses_recycle_the_buffers_of_the_first_fill() {
        let capacity = 2;
        let mut io = image(103, 64);
        let mut cache = PageCache::new(CacheCapacity::Pages(capacity));
        let mut buffers = Vec::new();
        for page in 0..=capacity as u64 {
            buffers.push(cache.page(page, &mut io, 64).unwrap().as_ptr());
        }
        buffers.sort();
        buffers.dedup();
        assert_eq!(buffers.len(), capacity + 1);
        let mut torn = ScriptIo::new(image(103, 64));
        torn.fail = true;
        for page in capacity as u64 + 1..capacity as u64 + 101 {
            if page % 10 == 0 {
                assert!(cache.page(page + 1, &mut torn, 64).is_err());
            }
            let bytes = cache.page(page, &mut io, 64).unwrap();
            assert!(bytes.iter().all(|&b| b == page as u8));
            assert!(buffers.contains(&bytes.as_ptr()), "page {page} reallocated");
            // The evicted buffer is kept for the next miss, not freed.
            assert!(buffers.contains(&cache.spare.as_ptr()), "page {page}");
        }
        assert_eq!(cache.counters().hits, 0);
    }

    /// A `MemIo` whose next read can be made to fail as a torn read:
    /// half the buffer is overwritten with garbage before the error.
    #[derive(Debug)]
    struct ScriptIo {
        inner: MemIo,
        fail: bool,
    }

    impl ScriptIo {
        fn new(inner: MemIo) -> ScriptIo {
            ScriptIo { inner, fail: false }
        }
    }

    impl PageIo for ScriptIo {
        fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            if self.fail {
                let torn = buf.len() / 2;
                buf[..torn].fill(0xAA);
                return Err(std::io::Error::other("injected torn read"));
            }
            self.inner.read_exact_at(offset, buf)
        }

        fn total_len(&mut self) -> std::io::Result<u64> {
            self.inner.total_len()
        }
    }

    /// The reference LRU: a `HashMap` of owned pages, a fresh buffer per
    /// miss, and eviction of the minimum `(last_used, page)` after a
    /// successful read — the contract the cache must keep.
    #[derive(Debug)]
    struct ReferenceCache {
        capacity: CacheCapacity,
        slots: HashMap<u64, (Vec<u8>, u64)>,
        clock: u64,
        counters: CacheCounters,
    }

    impl ReferenceCache {
        fn new(capacity: CacheCapacity) -> ReferenceCache {
            ReferenceCache {
                capacity,
                slots: HashMap::new(),
                clock: 0,
                counters: CacheCounters::default(),
            }
        }

        fn clear(&mut self) {
            self.slots.clear();
            self.clock = 0;
            self.counters = CacheCounters::default();
        }

        fn page(
            &mut self,
            page: u64,
            io: &mut dyn PageIo,
            page_size: usize,
        ) -> std::io::Result<&[u8]> {
            self.clock += 1;
            let stamp = self.clock;
            if self.slots.contains_key(&page) {
                self.counters.hits += 1;
                let (bytes, last_used) = self.slots.get_mut(&page).expect("just checked");
                *last_used = stamp;
                return Ok(bytes);
            }
            self.counters.misses += 1;
            let mut bytes = vec![0u8; page_size];
            io.read_exact_at(page * page_size as u64, &mut bytes)?;
            if let CacheCapacity::Pages(pages) = self.capacity {
                while self.slots.len() >= pages {
                    let victim = self
                        .slots
                        .iter()
                        .map(|(&id, &(_, last_used))| (last_used, id))
                        .min()
                        .expect("cache is non-empty")
                        .1;
                    self.slots.remove(&victim);
                }
            }
            Ok(&self.slots.entry(page).or_insert((bytes, stamp)).0)
        }
    }

    /// Capacities the equivalence runs at: every small bound, the
    /// benchmark's 16 pages, and no bound.
    const CAPACITIES: [CacheCapacity; 5] = [
        CacheCapacity::Pages(1),
        CacheCapacity::Pages(2),
        CacheCapacity::Pages(3),
        CacheCapacity::Pages(16),
        CacheCapacity::Unbounded,
    ];

    /// File pages; scripts also ask for pages past the end, whose reads
    /// fail on their own.
    const FILE_PAGES: usize = 20;

    /// Runs `(page, action)` steps on a cache and the reference at every
    /// capacity. Action 0 injects a torn read, action 1 clears both
    /// caches first, anything else is a plain access. After every step
    /// the two agree on the outcome, the bytes, the counters and the
    /// resident set, and every resident page holds its file bytes.
    fn run_script(script: &[(u64, u32)]) {
        for capacity in CAPACITIES {
            let mut io = ScriptIo::new(image(FILE_PAGES, 64));
            let mut cache = PageCache::new(capacity);
            let mut reference = ReferenceCache::new(capacity);
            for (step, &(page, action)) in script.iter().enumerate() {
                let at = format!("{capacity:?} step {step} page {page} action {action}");
                if action == 1 {
                    cache.clear();
                    reference.clear();
                }
                io.fail = action == 0;
                let expected = reference.page(page, &mut io, 64).map(<[u8]>::to_vec);
                let got = cache.page(page, &mut io, 64).map(<[u8]>::to_vec);
                io.fail = false;
                match (&got, &expected) {
                    (Ok(got), Ok(expected)) => {
                        assert_eq!(got, expected, "{at}");
                        assert!(got.iter().all(|&b| b == page as u8), "{at}");
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!("{at}: outcomes differ: {got:?} vs {expected:?}"),
                }
                assert_eq!(cache.counters(), reference.counters, "{at}");
                let mut resident: Vec<u64> = cache.slots.iter().map(|slot| slot.page).collect();
                resident.sort_unstable();
                let mut want: Vec<u64> = reference.slots.keys().copied().collect();
                want.sort_unstable();
                assert_eq!(resident, want, "{at}");
                assert_eq!(cache.index.len(), cache.slots.len(), "{at}");
                for (at_slot, slot) in cache.slots.iter().enumerate() {
                    assert_eq!(cache.index.get(&slot.page), Some(&at_slot), "{at}");
                    assert!(slot.bytes.iter().all(|&b| b == slot.page as u8), "{at}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Seeded page scripts with a hot set (raw ids below 16 fold onto
        /// pages 0..4), cold pages, pages past the end of the file,
        /// injected torn reads and clears: the cache behaves exactly like
        /// the reference LRU at every capacity.
        #[test]
        fn the_cache_matches_the_reference_lru(
            script in proptest::collection::vec((0u64..40, 0u32..12), 0..=160),
        ) {
            let script: Vec<(u64, u32)> = script
                .into_iter()
                .map(|(raw, action)| (if raw < 16 { raw % 4 } else { raw - 16 }, action))
                .collect();
            run_script(&script);
        }
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_is_rejected() {
        let _ = PageCache::new(CacheCapacity::Pages(0));
    }
}
