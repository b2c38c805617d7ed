//! A directory of paged list files: the disk-backed [`Database`]
//! counterpart.

use std::fs;
use std::path::{Path, PathBuf};

use topk_lists::source::{ListSource, Sources};
use topk_lists::tracked::ListStore;
use topk_lists::Database;

use crate::cache::CacheCapacity;
use crate::error::StorageError;
use crate::layout::PageLayout;
use crate::source::{PagedSource, PagedStore};
use crate::writer::write_list;

/// File extension of paged list files.
const LIST_EXTENSION: &str = "topk";

/// A database whose `m` lists live as paged files in one directory.
///
/// [`PagedDatabase::sources`] hands out a fresh
/// [`Sources`] per call — independent file
/// handles, cold caches — so `plan_and_run_on`, `QueryBatch` factories
/// and the `.batched(block_len)` decorator compose unchanged over disk.
#[derive(Debug, Clone)]
pub struct PagedDatabase {
    files: Vec<PathBuf>,
    num_items: usize,
}

impl PagedDatabase {
    /// Writes every list of `database` as a paged file under `dir`
    /// (`list_000.topk`, `list_001.topk`, …), creating the directory if
    /// needed, then opens the result.
    pub fn create(
        dir: &Path,
        database: &Database,
        layout: PageLayout,
    ) -> Result<PagedDatabase, StorageError> {
        fs::create_dir_all(dir)
            .map_err(|e| StorageError::io(format!("create directory {}", dir.display()), e))?;
        for (i, list) in database.lists().enumerate() {
            let path = dir.join(format!("list_{i:03}.{LIST_EXTENSION}"));
            write_list(&path, list, layout)?;
        }
        Self::open(dir)
    }

    /// Opens a directory of `.topk` files (in file-name order),
    /// validating every header and that all lists agree on the item
    /// count `n`.
    pub fn open(dir: &Path) -> Result<PagedDatabase, StorageError> {
        let entries = fs::read_dir(dir)
            .map_err(|e| StorageError::io(format!("read directory {}", dir.display()), e))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| StorageError::io(format!("scan {}", dir.display()), e))?;
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == LIST_EXTENSION) {
                files.push(path);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(StorageError::corrupt(format!(
                "no .{LIST_EXTENSION} files in {}",
                dir.display()
            )));
        }
        let mut num_items = None;
        for path in &files {
            // A full open validates header, length and page index.
            let store = PagedStore::open(path, CacheCapacity::Unbounded)?;
            match num_items {
                None => num_items = Some(store.len()),
                Some(n) if n != store.len() => {
                    return Err(StorageError::corrupt(format!(
                        "lists disagree on n: {} has {}, expected {n}",
                        path.display(),
                        store.len()
                    )));
                }
                Some(_) => {}
            }
        }
        Ok(PagedDatabase {
            files,
            // lint:allow(fail-stop) -- files.is_empty() returned Err above, so the loop ran at least once
            num_items: num_items.expect("at least one list"),
        })
    }

    /// Number of lists (`m`).
    pub fn num_lists(&self) -> usize {
        self.files.len()
    }

    /// Number of items per list (`n`).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The list files, in list order.
    pub fn list_paths(&self) -> &[PathBuf] {
        &self.files
    }

    /// Opens one [`PagedSource`] per list with the default bit-array
    /// trackers, each with its own page cache of `capacity`.
    pub fn sources(&self, capacity: CacheCapacity) -> Result<Sources<'static>, StorageError> {
        let mut sources: Vec<Box<dyn ListSource>> = Vec::with_capacity(self.files.len());
        for path in &self.files {
            let store = PagedStore::open(path, capacity)?;
            sources.push(Box::new(PagedSource::new(store)));
        }
        Ok(Sources::new(sources))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use topk_lists::source::SourceSet;

    fn database() -> Database {
        Database::from_unsorted_lists(vec![
            (1..=9u64).map(|i| (i, (10 - i) as f64)).collect(),
            (1..=9u64).map(|i| (i, ((i * 4) % 11) as f64)).collect(),
            (1..=9u64).map(|i| (i, ((i * 8) % 13) as f64)).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn create_open_sources_roundtrip_on_real_files() {
        let scratch = ScratchDir::new("paged-db-roundtrip");
        let paged =
            PagedDatabase::create(scratch.path(), &database(), PageLayout::with_page_size(64))
                .unwrap();
        assert_eq!(paged.num_lists(), 3);
        assert_eq!(paged.num_items(), 9);
        assert_eq!(paged.list_paths().len(), 3);

        // Re-open from disk alone and hand out working sources.
        let reopened = PagedDatabase::open(scratch.path()).unwrap();
        let mut sources = reopened.sources(CacheCapacity::Pages(2)).unwrap();
        assert_eq!(sources.num_lists(), 3);
        assert_eq!(sources.num_items(), 9);
        let entry = sources
            .source(0)
            .sorted_access(topk_lists::Position::FIRST, false)
            .unwrap();
        assert_eq!(entry.score.value(), 9.0, "list 0 tops out at item 1");
        assert!(sources.total_cache_counters().misses > 0);
    }

    #[test]
    fn empty_directories_are_rejected() {
        let scratch = ScratchDir::new("paged-db-empty");
        let err = PagedDatabase::open(scratch.path()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { detail } if detail.contains("no .topk")));
    }

    #[test]
    fn mismatched_list_lengths_are_rejected() {
        let scratch = ScratchDir::new("paged-db-mismatch");
        let layout = PageLayout::with_page_size(64);
        PagedDatabase::create(scratch.path(), &database(), layout).unwrap();
        // Overwrite one list with a shorter one.
        let short =
            Database::from_unsorted_lists(vec![(1..=4u64).map(|i| (i, i as f64)).collect()])
                .unwrap();
        write_list(
            &scratch.path().join("list_001.topk"),
            short.list(0).unwrap(),
            layout,
        )
        .unwrap();
        let err = PagedDatabase::open(scratch.path()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { detail } if detail.contains("disagree")));
    }

    #[test]
    fn missing_directories_surface_io_errors() {
        let scratch = ScratchDir::new("paged-db-missing");
        let missing = scratch.path().join("nope");
        let err = PagedDatabase::open(&missing).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }));
    }
}
