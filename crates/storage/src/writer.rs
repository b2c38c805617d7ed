//! Building paged list files from in-memory [`SortedList`]s.

use std::fs;
use std::path::Path;

use topk_lists::{Position, SortedList};

use crate::error::StorageError;
use crate::layout::{Geometry, Header, PageLayout, ENTRY_LEN, HEADER_LEN, RECORD_LEN, TAIL_LEN};

/// Encodes a list into a complete file image (every page zero-padded to
/// the layout's page size). The writer is sequential and infallible;
/// only the final `fs::write` can fail.
pub(crate) fn encode_list(list: &SortedList, layout: PageLayout) -> Vec<u8> {
    let geometry = Geometry::new(layout.page_size(), list.len());
    let mut bytes = vec![0u8; geometry.total_bytes() as usize];

    let header = Header {
        page_size: geometry.page_size,
        entry_count: list.len() as u64,
        tail_score: list.last_entry().score.value(),
        page_index_page: geometry.page_index_first_page(),
        item_index_page: geometry.item_index_first_page(),
    };
    bytes[..HEADER_LEN].copy_from_slice(&header.encode());

    // Data section: entries in position order.
    for entry in list.iter() {
        let (page, offset) = geometry.data_slot(entry.position.index());
        let at = page as usize * geometry.page_size + offset;
        bytes[at..at + 8].copy_from_slice(&entry.item.0.to_le_bytes());
        bytes[at + 8..at + ENTRY_LEN].copy_from_slice(&entry.score.value().to_bits().to_le_bytes());
    }

    // Page index: the last (smallest) score of every data page.
    for data_page in 0..geometry.data_pages {
        let last_idx = ((data_page + 1) * geometry.entries_per_page).min(list.len()) - 1;
        let tail = list
            .score_at(Position::from_index(last_idx))
            // lint:allow(fail-stop) -- last_idx is clamped to list.len() - 1 on the line above
            .expect("index within list bounds");
        let (page, offset) = geometry.tail_slot(data_page);
        let at = page as usize * geometry.page_size + offset;
        bytes[at..at + TAIL_LEN].copy_from_slice(&tail.value().to_bits().to_le_bytes());
    }

    // Item index: (item, position, score) records sorted by item id. A
    // reader keeps each page's first id in memory (its fences) and reads
    // one page per random access.
    let mut records: Vec<(u64, u64, u64)> = list
        .iter()
        .map(|e| (e.item.0, e.position.get() as u64, e.score.value().to_bits()))
        .collect();
    records.sort_unstable_by_key(|&(item, _, _)| item);
    for (i, &(item, position, score_bits)) in records.iter().enumerate() {
        let (page, offset) = geometry.record_slot(i);
        let at = page as usize * geometry.page_size + offset;
        bytes[at..at + 8].copy_from_slice(&item.to_le_bytes());
        bytes[at + 8..at + 16].copy_from_slice(&position.to_le_bytes());
        bytes[at + 16..at + RECORD_LEN].copy_from_slice(&score_bits.to_le_bytes());
    }

    bytes
}

/// Writes one list as a paged file at `path` (truncating any existing
/// file).
pub fn write_list(path: &Path, list: &SortedList, layout: PageLayout) -> Result<(), StorageError> {
    fs::write(path, encode_list(list, layout))
        .map_err(|e| StorageError::io(format!("write {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MAGIC;

    fn list() -> SortedList {
        SortedList::from_unsorted(
            (1..=10u64)
                .map(|i| (topk_lists::ItemId(i), i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn image_has_exactly_the_geometric_size_and_leads_with_magic() {
        let layout = PageLayout::with_page_size(64);
        let image = encode_list(&list(), layout);
        assert_eq!(image.len() as u64, Geometry::new(64, 10).total_bytes());
        assert_eq!(&image[..8], &MAGIC);
    }

    #[test]
    fn encoding_is_deterministic() {
        let layout = PageLayout::default();
        assert_eq!(encode_list(&list(), layout), encode_list(&list(), layout));
    }
}
