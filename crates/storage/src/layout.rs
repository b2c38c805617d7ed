//! The on-disk paged list format.
//!
//! A list file is a sequence of fixed-size pages, all little-endian and
//! fixed-width so every field has one unambiguous byte position:
//!
//! | Pages | Section | Contents |
//! |---|---|---|
//! | 0 | header | magic, version, page size, entry count, tail score, section offsets, checksum |
//! | 1 ‥ D | data | `(item: u64, score: f64 bits)` entries in descending score order, 16 B each |
//! | D+1 ‥ D+T | page index | the last (smallest) score of every data page, 8 B each |
//! | D+T+1 ‥ end | item index | `(item, position, score)` records sorted by item id, 24 B each |
//!
//! Within every section, values never straddle a page boundary: a page
//! holds `⌊page_size / width⌋` values and the remainder is zero padding.
//! Sorted access to position `p` is therefore one page read at a
//! computable offset, and the page index gives every data page's tail
//! score without touching the data section. The item index is the leaf
//! level of a two-level index: an open file keeps the first item id of
//! every item-index page (its *fences*) in memory, the fences pick the
//! one page that can hold an item, and random access reads that page
//! alone. The cost model's `cr = log₂ n` (the paper's indexed lookup)
//! is a logical price and does not change with the physical layout.

use crate::error::StorageError;

/// File magic: identifies a paged top-k list, version 1 layout.
pub(crate) const MAGIC: [u8; 8] = *b"TKPAGED1";
/// Format version stored in (and checked against) the header.
pub(crate) const VERSION: u32 = 1;
/// Size of the decoded header in bytes (the header page is padded to a
/// full page like every other page).
pub(crate) const HEADER_LEN: usize = 64;
/// Width of one data entry: item id (8 B) + score bits (8 B).
pub(crate) const ENTRY_LEN: usize = 16;
/// Width of one page-index slot: the page's tail score bits.
pub(crate) const TAIL_LEN: usize = 8;
/// Width of one item-index record: item (8 B) + position (8 B) + score
/// bits (8 B).
pub(crate) const RECORD_LEN: usize = 24;

/// The smallest legal page size: one header, and at least one value per
/// page in every section (`RECORD_LEN < 64`).
pub const MIN_PAGE_SIZE: usize = 64;
/// The default page size, matching the common filesystem block size.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Physical layout parameters for writing a paged list file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    page_size: usize,
}

impl PageLayout {
    /// A layout with an explicit page size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < MIN_PAGE_SIZE` (64): every page must hold
    /// the header and at least one value of every section.
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(
            page_size >= MIN_PAGE_SIZE,
            "page size must be at least {MIN_PAGE_SIZE} bytes, got {page_size}"
        );
        PageLayout { page_size }
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }
}

impl Default for PageLayout {
    fn default() -> Self {
        PageLayout {
            page_size: DEFAULT_PAGE_SIZE,
        }
    }
}

/// Derived section geometry of a file: where every entry, tail slot and
/// index record lives, as a pure function of `(page_size, entry_count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Geometry {
    pub page_size: usize,
    pub entry_count: usize,
    pub entries_per_page: usize,
    pub tails_per_page: usize,
    pub records_per_page: usize,
    pub data_pages: usize,
    pub tail_pages: usize,
    pub record_pages: usize,
}

impl Geometry {
    pub fn new(page_size: usize, entry_count: usize) -> Geometry {
        debug_assert!(page_size >= MIN_PAGE_SIZE);
        debug_assert!(entry_count >= 1);
        let entries_per_page = page_size / ENTRY_LEN;
        let tails_per_page = page_size / TAIL_LEN;
        let records_per_page = page_size / RECORD_LEN;
        let data_pages = entry_count.div_ceil(entries_per_page);
        Geometry {
            page_size,
            entry_count,
            entries_per_page,
            tails_per_page,
            records_per_page,
            data_pages,
            tail_pages: data_pages.div_ceil(tails_per_page),
            record_pages: entry_count.div_ceil(records_per_page),
        }
    }

    /// First page of the page-index (tail score) section.
    pub fn page_index_first_page(&self) -> u64 {
        1 + self.data_pages as u64
    }

    /// First page of the item-index section.
    pub fn item_index_first_page(&self) -> u64 {
        self.page_index_first_page() + self.tail_pages as u64
    }

    /// Total pages in the file (header + data + both indexes).
    pub fn total_pages(&self) -> u64 {
        self.item_index_first_page() + self.record_pages as u64
    }

    /// Exact file length in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// `(page, byte offset within page)` of the data entry at 0-based
    /// index `idx`.
    pub fn data_slot(&self, idx: usize) -> (u64, usize) {
        debug_assert!(idx < self.entry_count);
        (
            1 + (idx / self.entries_per_page) as u64,
            (idx % self.entries_per_page) * ENTRY_LEN,
        )
    }

    /// `(page, byte offset within page)` of the tail-score slot of data
    /// page `i` (0-based within the data section).
    pub fn tail_slot(&self, i: usize) -> (u64, usize) {
        debug_assert!(i < self.data_pages);
        (
            self.page_index_first_page() + (i / self.tails_per_page) as u64,
            (i % self.tails_per_page) * TAIL_LEN,
        )
    }

    /// `(page, byte offset within page)` of item-index record `i`.
    pub fn record_slot(&self, i: usize) -> (u64, usize) {
        debug_assert!(i < self.entry_count);
        (
            self.item_index_first_page() + (i / self.records_per_page) as u64,
            (i % self.records_per_page) * RECORD_LEN,
        )
    }

    /// `(page, record count)` of item-index page `p` (0-based within the
    /// item-index section); only the last page can hold fewer than
    /// `records_per_page` records.
    pub fn record_page(&self, p: usize) -> (u64, usize) {
        debug_assert!(p < self.record_pages);
        let first = p * self.records_per_page;
        (
            self.item_index_first_page() + p as u64,
            self.records_per_page.min(self.entry_count - first),
        )
    }
}

/// The decoded file header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Header {
    pub page_size: usize,
    pub entry_count: u64,
    pub tail_score: f64,
    pub page_index_page: u64,
    pub item_index_page: u64,
}

/// FNV-1a over `bytes`, the header's (and benches') cheap fingerprint.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Little-endian `u32` from a const-width 4-byte subslice.
fn le_u32(bytes: &[u8]) -> u32 {
    // lint:allow(fail-stop) -- callers pass compile-time-constant 4-byte ranges; the conversion cannot fail
    u32::from_le_bytes(bytes.try_into().expect("4-byte slice"))
}

/// Little-endian `u64` from a const-width 8-byte subslice.
fn le_u64(bytes: &[u8]) -> u64 {
    // lint:allow(fail-stop) -- callers pass compile-time-constant 8-byte ranges; the conversion cannot fail
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

impl Header {
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut bytes = [0u8; HEADER_LEN];
        bytes[0..8].copy_from_slice(&MAGIC);
        bytes[8..12].copy_from_slice(&VERSION.to_le_bytes());
        bytes[12..16].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        bytes[16..24].copy_from_slice(&self.entry_count.to_le_bytes());
        bytes[24..32].copy_from_slice(&self.tail_score.to_bits().to_le_bytes());
        bytes[32..40].copy_from_slice(&self.page_index_page.to_le_bytes());
        bytes[40..48].copy_from_slice(&self.item_index_page.to_le_bytes());
        // bytes 48..56 reserved (zero).
        let checksum = fnv1a(&bytes[..56]);
        bytes[56..64].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Header, StorageError> {
        if bytes[0..8] != MAGIC {
            return Err(StorageError::corrupt("bad magic: not a paged list file"));
        }
        let version = le_u32(&bytes[8..12]);
        if version != VERSION {
            return Err(StorageError::corrupt(format!(
                "unsupported format version {version} (expected {VERSION})"
            )));
        }
        let stored = le_u64(&bytes[56..64]);
        let computed = fnv1a(&bytes[..56]);
        if stored != computed {
            return Err(StorageError::corrupt(format!(
                "header checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            )));
        }
        let page_size = le_u32(&bytes[12..16]) as usize;
        if page_size < MIN_PAGE_SIZE {
            return Err(StorageError::corrupt(format!(
                "page size {page_size} below the {MIN_PAGE_SIZE}-byte minimum"
            )));
        }
        let entry_count = le_u64(&bytes[16..24]);
        if entry_count == 0 {
            return Err(StorageError::corrupt("empty list"));
        }
        let tail_score = f64::from_bits(le_u64(&bytes[24..32]));
        if tail_score.is_nan() {
            return Err(StorageError::corrupt("tail score is NaN"));
        }
        Ok(Header {
            page_size,
            entry_count,
            tail_score,
            page_index_page: le_u64(&bytes[32..40]),
            item_index_page: le_u64(&bytes[40..48]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let header = Header {
            page_size: 4096,
            entry_count: 1000,
            tail_score: -1.25,
            page_index_page: 5,
            item_index_page: 6,
        };
        let decoded = Header::decode(&header.encode()).unwrap();
        assert_eq!(decoded, header);
    }

    #[test]
    fn header_rejects_corruption() {
        let header = Header {
            page_size: 4096,
            entry_count: 10,
            tail_score: 0.5,
            page_index_page: 2,
            item_index_page: 3,
        };
        let good = header.encode();

        let mut bad_magic = good;
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            Header::decode(&bad_magic),
            Err(StorageError::Corrupt { detail }) if detail.contains("magic")
        ));

        // Any payload flip invalidates the checksum.
        let mut flipped = good;
        flipped[20] ^= 0x01;
        assert!(matches!(
            Header::decode(&flipped),
            Err(StorageError::Corrupt { detail }) if detail.contains("checksum")
        ));

        let mut wrong_version = Header::encode(&header);
        wrong_version[8..12].copy_from_slice(&7u32.to_le_bytes());
        let checksum = fnv1a(&wrong_version[..56]);
        wrong_version[56..64].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            Header::decode(&wrong_version),
            Err(StorageError::Corrupt { detail }) if detail.contains("version 7")
        ));
    }

    #[test]
    fn geometry_places_every_section_on_page_boundaries() {
        // 64-byte pages: 4 entries, 8 tails, 2 records per page.
        let g = Geometry::new(64, 10);
        assert_eq!(g.entries_per_page, 4);
        assert_eq!(g.records_per_page, 2);
        assert_eq!(g.data_pages, 3, "10 entries over 4-entry pages");
        assert_eq!(g.tail_pages, 1);
        assert_eq!(g.record_pages, 5);
        assert_eq!(g.page_index_first_page(), 4);
        assert_eq!(g.item_index_first_page(), 5);
        assert_eq!(g.total_pages(), 10);
        assert_eq!(g.total_bytes(), 640);

        assert_eq!(g.data_slot(0), (1, 0));
        assert_eq!(g.data_slot(5), (2, 16), "second page, second entry");
        assert_eq!(g.tail_slot(2), (4, 16));
        assert_eq!(g.record_slot(3), (6, 24), "two records per page");
        assert_eq!(g.record_page(1), (6, 2));
        assert_eq!(g.record_page(4), (9, 2));
        let g = Geometry::new(64, 9);
        assert_eq!(g.record_page(4), (9, 1), "the last page is partial");
    }

    #[test]
    #[should_panic(expected = "page size must be at least")]
    fn tiny_page_sizes_are_rejected() {
        let _ = PageLayout::with_page_size(32);
    }

    #[test]
    fn default_layout_uses_4k_pages() {
        assert_eq!(PageLayout::default().page_size(), DEFAULT_PAGE_SIZE);
    }
}
