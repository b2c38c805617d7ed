//! Reading paged list files: open-time validation and cached page reads.

use std::sync::Arc;

use topk_lists::{ItemId, Position, PositionedScore, Score};

use crate::cache::PageCache;
use crate::error::StorageError;
use crate::io::PageIo;
use crate::layout::{Geometry, Header, ENTRY_LEN, HEADER_LEN, RECORD_LEN, TAIL_LEN};

/// What [`PagedListFile::open`] validated about a file and keeps in
/// memory: its geometry, its tail score and the item index's fences.
/// Immutable while the file is, so later readers of the same file share
/// it instead of validating again.
#[derive(Debug, Clone)]
pub(crate) struct ListMeta {
    geometry: Geometry,
    tail_score: Score,
    /// The first item id of every item-index page, strictly increasing:
    /// the in-memory first level of the item index.
    fences: Arc<[u64]>,
}

/// One open paged list file: its validated [`ListMeta`], with all
/// post-open reads going through a caller-supplied [`PageCache`].
#[derive(Debug)]
pub(crate) struct PagedListFile {
    io: Box<dyn PageIo>,
    meta: ListMeta,
}

fn le_u64(bytes: &[u8]) -> u64 {
    // lint:allow(fail-stop) -- callers pass compile-time-constant 8-byte ranges; the conversion cannot fail
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

fn le_score(bytes: &[u8], what: &str) -> Result<Score, StorageError> {
    let value = f64::from_bits(le_u64(bytes));
    if value.is_nan() {
        return Err(StorageError::corrupt(format!("{what} is NaN")));
    }
    Ok(Score::from_f64(value))
}

/// Reads the item index's fences: one 8-byte positioned read of the
/// first item id on every item-index page. The fences must be strictly
/// increasing, or the index is not sorted by item id across pages.
fn read_fences(io: &mut dyn PageIo, geometry: &Geometry) -> Result<Arc<[u64]>, StorageError> {
    let mut fences = Vec::with_capacity(geometry.record_pages);
    let mut id = [0u8; 8];
    for p in 0..geometry.record_pages {
        let page = geometry.record_page(p).0;
        io.read_exact_at(page * geometry.page_size as u64, &mut id)
            .map_err(|e| StorageError::io("item-index fence read", e))?;
        let first = u64::from_le_bytes(id);
        if let Some(&previous) = fences.last() {
            if first <= previous {
                return Err(StorageError::corrupt(format!(
                    "item index out of id order: item-index page {p} starts at item {first} after {previous}"
                )));
            }
        }
        fences.push(first);
    }
    Ok(fences.into())
}

impl PagedListFile {
    /// Opens and validates a file image: header (magic, version,
    /// checksum), exact file length, section offsets, and the page
    /// index's tail scores (present, non-increasing, and consistent with
    /// the header's tail score). Corruption and IO failures at open are
    /// ordinary `Err`s — the fail-stop unwind only covers reads *during*
    /// a query. The item index's fences are read and checked too (see
    /// [`read_fences`]).
    pub fn open(mut io: Box<dyn PageIo>) -> Result<PagedListFile, StorageError> {
        let mut header_bytes = [0u8; HEADER_LEN];
        io.read_exact_at(0, &mut header_bytes)
            .map_err(|e| StorageError::io("header read", e))?;
        let header = Header::decode(&header_bytes)?;

        let entry_count = usize::try_from(header.entry_count)
            .map_err(|_| StorageError::corrupt("entry count exceeds the address space"))?;
        let geometry = Geometry::new(header.page_size, entry_count);
        if header.page_index_page != geometry.page_index_first_page()
            || header.item_index_page != geometry.item_index_first_page()
        {
            return Err(StorageError::corrupt(format!(
                "section offsets disagree with geometry: header says pages {} and {}, expected {} and {}",
                header.page_index_page,
                header.item_index_page,
                geometry.page_index_first_page(),
                geometry.item_index_first_page()
            )));
        }
        let actual_len = io
            .total_len()
            .map_err(|e| StorageError::io("length probe", e))?;
        if actual_len != geometry.total_bytes() {
            return Err(StorageError::corrupt(format!(
                "file is {actual_len} bytes, layout requires {}",
                geometry.total_bytes()
            )));
        }

        // Page index: every data page's tail score, which must be
        // non-increasing (the file stores a descending-sorted list) and
        // end at the header's tail score.
        let mut page = vec![0u8; geometry.page_size];
        let mut previous: Option<Score> = None;
        for data_page in 0..geometry.data_pages {
            let slot_page = geometry.tail_slot(data_page).0;
            if data_page % geometry.tails_per_page == 0 {
                io.read_exact_at(slot_page * geometry.page_size as u64, &mut page)
                    .map_err(|e| StorageError::io("page-index read", e))?;
            }
            let offset = geometry.tail_slot(data_page).1;
            let tail = le_score(&page[offset..offset + TAIL_LEN], "page tail score")?;
            if let Some(previous) = previous {
                if tail > previous {
                    return Err(StorageError::corrupt(format!(
                        "page tails increase at data page {data_page}: {} after {}",
                        tail.value(),
                        previous.value()
                    )));
                }
            }
            previous = Some(tail);
        }
        // lint:allow(fail-stop) -- Header::decode rejects entry_count == 0, so the geometry has at least one data page
        let last_tail = previous.expect("at least one data page");
        if last_tail.value().to_bits() != header.tail_score.to_bits() {
            return Err(StorageError::corrupt(format!(
                "tail score mismatch: header {} vs page index {}",
                header.tail_score,
                last_tail.value()
            )));
        }

        let fences = read_fences(io.as_mut(), &geometry)?;
        let meta = ListMeta {
            geometry,
            tail_score: last_tail,
            fences,
        };
        Ok(PagedListFile { io, meta })
    }

    /// Serves the file behind `io` with the state an earlier
    /// [`PagedListFile::open`] of the same file validated, reading
    /// nothing.
    pub fn with_meta(io: Box<dyn PageIo>, meta: ListMeta) -> PagedListFile {
        PagedListFile { io, meta }
    }

    /// The validated state, to share with later readers of this file.
    pub fn meta(&self) -> &ListMeta {
        &self.meta
    }

    pub fn len(&self) -> usize {
        self.meta.geometry.entry_count
    }

    pub fn tail_score(&self) -> Score {
        self.meta.tail_score
    }

    /// The data entry at 0-based index `idx` (`idx < len()`).
    pub fn entry(
        &mut self,
        idx: usize,
        cache: &mut PageCache,
    ) -> Result<(ItemId, Score), StorageError> {
        let geometry = &self.meta.geometry;
        let (page, offset) = geometry.data_slot(idx);
        let bytes = cache.page(page, self.io.as_mut(), geometry.page_size)?;
        let slot = &bytes[offset..offset + ENTRY_LEN];
        let item = ItemId(le_u64(&slot[..8]));
        let score = le_score(&slot[8..], "entry score")?;
        Ok((item, score))
    }

    /// Random access: the in-memory fences pick the one item-index page
    /// that can hold `item`, and the lookup reads that page once and
    /// binary-searches its records in place. An id below the first fence
    /// reads nothing. `Ok(None)` means the item is genuinely absent. The
    /// cost model prices the access at `cr = log₂ n`, the paper's
    /// indexed lookup, independently of this one physical page.
    pub fn lookup(
        &mut self,
        item: ItemId,
        cache: &mut PageCache,
    ) -> Result<Option<PositionedScore>, StorageError> {
        // Item-index pages whose first id is at most `item`; the last of
        // them is the only one that can hold it.
        let candidates = self.meta.fences.partition_point(|&first| first <= item.0);
        if candidates == 0 {
            return Ok(None);
        }
        let geometry = &self.meta.geometry;
        let (page, records) = geometry.record_page(candidates - 1);
        let bytes = cache.page(page, self.io.as_mut(), geometry.page_size)?;
        let (mut lo, mut hi) = (0usize, records);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let slot = &bytes[mid * RECORD_LEN..(mid + 1) * RECORD_LEN];
            match le_u64(&slot[..8]).cmp(&item.0) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return self.record_value(item, slot).map(Some),
            }
        }
        Ok(None)
    }

    /// The position and score of `item`'s item-index record `slot`.
    fn record_value(&self, item: ItemId, slot: &[u8]) -> Result<PositionedScore, StorageError> {
        let raw_position = le_u64(&slot[8..16]);
        let position = usize::try_from(raw_position)
            .ok()
            .and_then(Position::new)
            .filter(|p| p.get() <= self.meta.geometry.entry_count)
            .ok_or_else(|| {
                StorageError::corrupt(format!(
                    "item {} has invalid position {raw_position}",
                    item.0
                ))
            })?;
        let score = le_score(&slot[16..], "record score")?;
        Ok(PositionedScore { position, score })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheCapacity;
    use crate::io::MemIo;
    use crate::layout::PageLayout;
    use crate::writer::encode_list;
    use topk_lists::SortedList;

    fn list() -> SortedList {
        // 12 entries, distinct scores, item ids deliberately not in
        // score order.
        SortedList::from_unsorted(
            (1..=12u64)
                .map(|i| (ItemId(i), ((i * 7) % 13) as f64))
                .collect(),
        )
        .unwrap()
    }

    fn open(page_size: usize) -> PagedListFile {
        let image = encode_list(&list(), PageLayout::with_page_size(page_size));
        PagedListFile::open(Box::new(MemIo::new(image))).unwrap()
    }

    #[test]
    fn every_entry_and_lookup_roundtrips() {
        for page_size in [64, 4096] {
            let reference = list();
            let mut file = open(page_size);
            let mut cache = PageCache::new(CacheCapacity::Unbounded);
            assert_eq!(file.len(), reference.len());
            assert_eq!(file.tail_score(), reference.last_entry().score);
            for entry in reference.iter() {
                let (item, score) = file.entry(entry.position.index(), &mut cache).unwrap();
                assert_eq!((item, score), (entry.item, entry.score));
                let found = file.lookup(entry.item, &mut cache).unwrap().unwrap();
                assert_eq!(found, reference.lookup(entry.item).unwrap());
            }
            assert_eq!(file.lookup(ItemId(999), &mut cache).unwrap(), None);
        }
    }

    #[test]
    fn a_lookup_reads_the_one_page_its_fences_pick() {
        // Dense ids 1..=12 and sparse ids 10i + 3, in the same score order.
        let sparse = SortedList::from_unsorted(
            list()
                .iter()
                .map(|e| (ItemId(e.item.0 * 10 + 3), e.score.value()))
                .collect(),
        )
        .unwrap();
        for reference in [list(), sparse] {
            for page_size in [64, 4096] {
                let image = encode_list(&reference, PageLayout::with_page_size(page_size));
                let mut file = PagedListFile::open(Box::new(MemIo::new(image))).unwrap();
                let fences = Arc::clone(&file.meta().fences);
                let geometry = Geometry::new(page_size, reference.len());
                assert_eq!(fences.len(), geometry.record_pages);

                let mut cache = PageCache::new(CacheCapacity::Unbounded);
                let mut probe = |file: &mut PagedListFile, item: u64| {
                    let before = cache.counters();
                    let found = file.lookup(ItemId(item), &mut cache).unwrap();
                    let after = cache.counters();
                    let lookups = after.hits + after.misses - before.hits - before.misses;
                    (found, lookups)
                };
                for entry in reference.iter() {
                    let (found, lookups) = probe(&mut file, entry.item.0);
                    assert_eq!(found, reference.lookup(entry.item));
                    assert_eq!(lookups, 1, "item {} at {page_size} B", entry.item.0);
                }

                // Absent ids: below the first fence (no page read), in the
                // gap before each later fence, and above the last fence.
                assert_eq!(probe(&mut file, fences[0] - 1), (None, 0));
                let gaps = fences[1..].iter().map(|&first| first - 1);
                for absent in gaps.filter(|&id| reference.lookup(ItemId(id)).is_none()) {
                    assert_eq!(probe(&mut file, absent), (None, 1), "gap id {absent}");
                }
                assert_eq!(probe(&mut file, u64::MAX), (None, 1));
            }
        }
    }

    #[test]
    fn a_reader_of_validated_state_reads_only_on_access() {
        let image = encode_list(&list(), PageLayout::with_page_size(64));
        let meta = PagedListFile::open(Box::new(MemIo::new(image.clone())))
            .unwrap()
            .meta()
            .clone();
        // Over an empty image every read fails, yet the validated state
        // answers the catalog questions; only an access reads.
        let mut blind = PagedListFile::with_meta(Box::new(MemIo::new(Vec::new())), meta.clone());
        let mut cache = PageCache::new(CacheCapacity::Unbounded);
        assert_eq!(blind.len(), 12);
        assert_eq!(blind.tail_score(), list().last_entry().score);
        assert!(matches!(
            blind.entry(0, &mut cache),
            Err(StorageError::Io { .. })
        ));
        // Over the real image it serves exactly what a full open does.
        let mut shared = PagedListFile::with_meta(Box::new(MemIo::new(image)), meta);
        let mut full = open(64);
        let (mut a, mut b) = (
            PageCache::new(CacheCapacity::Unbounded),
            PageCache::new(CacheCapacity::Unbounded),
        );
        for entry in list().iter() {
            let i = entry.position.index();
            assert_eq!(
                shared.entry(i, &mut a).unwrap(),
                full.entry(i, &mut b).unwrap()
            );
            assert_eq!(
                shared.lookup(entry.item, &mut a).unwrap(),
                full.lookup(entry.item, &mut b).unwrap()
            );
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn truncated_files_are_rejected_at_open() {
        let mut image = encode_list(&list(), PageLayout::with_page_size(64));
        image.truncate(image.len() - 64);
        let err = PagedListFile::open(Box::new(MemIo::new(image))).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { detail } if detail.contains("bytes")));
    }

    #[test]
    fn non_monotone_page_tails_are_rejected_at_open() {
        let layout = PageLayout::with_page_size(64);
        let mut image = encode_list(&list(), layout);
        let geometry = Geometry::new(64, 12);
        // Overwrite the first tail slot with a score smaller than the
        // later ones: tails must now increase somewhere.
        let (page, offset) = geometry.tail_slot(0);
        let at = page as usize * 64 + offset;
        image[at..at + 8].copy_from_slice(&(-1e9f64).to_bits().to_le_bytes());
        let err = PagedListFile::open(Box::new(MemIo::new(image))).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { detail } if detail.contains("increase")));
    }

    #[test]
    fn item_index_out_of_id_order_across_pages_is_rejected_at_open() {
        let mut image = encode_list(&list(), PageLayout::with_page_size(64));
        let geometry = Geometry::new(64, 12);
        // Swap the first two item-index pages: each page stays sorted,
        // but the fences now run 3, 1, 5, …
        let first = geometry.record_page(0).0 as usize * 64;
        let (head, tail) = image.split_at_mut(first + 64);
        head[first..].swap_with_slice(&mut tail[..64]);
        let err = PagedListFile::open(Box::new(MemIo::new(image))).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { detail } if detail.contains("id order")));
    }

    #[test]
    fn header_data_mismatch_is_rejected_at_open() {
        // A valid header whose tail score disagrees with the page index.
        let layout = PageLayout::with_page_size(64);
        let mut image = encode_list(&list(), layout);
        let mut header = Header::decode(&image[..HEADER_LEN].try_into().unwrap()).unwrap();
        header.tail_score += 1.0;
        image[..HEADER_LEN].copy_from_slice(&header.encode());
        let err = PagedListFile::open(Box::new(MemIo::new(image))).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { detail } if detail.contains("tail score")));
    }
}
