//! A directory of paged list files: the disk-backed [`Database`]
//! counterpart.

use std::fs;
use std::path::{Path, PathBuf};

use topk_lists::source::{ListSource, Sources};
use topk_lists::Database;

use crate::cache::CacheCapacity;
use crate::error::StorageError;
use crate::file::{ListMeta, PagedListFile};
use crate::io::FileIo;
use crate::layout::PageLayout;
use crate::source::{PagedSource, PagedStore};
use crate::writer::write_list;

/// File extension of paged list files.
const LIST_EXTENSION: &str = "topk";

/// A database whose `m` lists live as paged files in one directory.
///
/// [`PagedDatabase::sources`] hands out a fresh
/// [`Sources`] per call — independent file handles, cold caches — so
/// `plan_and_run_on`, `QueryBatch` factories and the
/// `.batched(block_len)` decorator compose unchanged over disk.
///
/// Each list file is validated once, when the database is opened. The
/// database keeps what the validation established: the geometry, the
/// tail score and the item-index fences (the first item id of every
/// item-index page, which pick the one page a random access reads).
/// Every `sources()` call shares that state, so opening sources opens
/// each file and reads nothing. The list files must therefore not be
/// rewritten while the database is open.
#[derive(Debug, Clone)]
pub struct PagedDatabase {
    files: Vec<PathBuf>,
    /// Each list's validated state, in list order.
    metas: Vec<ListMeta>,
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
        let mut metas = Vec::with_capacity(files.len());
        for path in &files {
            // A full open validates header, length, page index and the
            // item index's fences.
            let file = PagedListFile::open(Box::new(FileIo::open(path)?))?;
            match num_items {
                None => num_items = Some(file.len()),
                Some(n) if n != file.len() => {
                    return Err(StorageError::corrupt(format!(
                        "lists disagree on n: {} has {}, expected {n}",
                        path.display(),
                        file.len()
                    )));
                }
                Some(_) => {}
            }
            metas.push(file.meta().clone());
        }
        Ok(PagedDatabase {
            files,
            metas,
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
    /// trackers, each with its own file handle and page cache of
    /// `capacity`, over the state validated by [`PagedDatabase::open`]:
    /// one `open` per list and no read.
    ///
    /// Each call opens its own handles, although one shared handle per
    /// list would save those opens: queries run concurrently on a pool,
    /// and concurrent positioned reads of one shared open file contend
    /// on it in the kernel, which measured slower than the opens (see
    /// EXPERIMENTS.md, "Standing path: tie placement and lazy trackers").
    pub fn sources(&self, capacity: CacheCapacity) -> Result<Sources<'static>, StorageError> {
        let mut sources: Vec<Box<dyn ListSource>> = Vec::with_capacity(self.files.len());
        for (path, meta) in self.files.iter().zip(&self.metas) {
            let io = Box::new(FileIo::open(path)?);
            let store = PagedStore::with_meta(io, meta.clone(), capacity);
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
    fn sources_reuse_the_state_validated_at_open() {
        let scratch = ScratchDir::new("paged-db-kept");
        let db = database();
        let paged =
            PagedDatabase::create(scratch.path(), &db, PageLayout::with_page_size(64)).unwrap();
        // Zero every header in place: sources() reads no header, page
        // index or fences, so the lists still serve from the state
        // PagedDatabase::open validated.
        for path in paged.list_paths() {
            let mut bytes = fs::read(path).unwrap();
            bytes[..crate::layout::HEADER_LEN].fill(0);
            fs::write(path, bytes).unwrap();
        }
        assert!(PagedDatabase::open(scratch.path()).is_err());
        for _ in 0..2 {
            let mut sources = paged.sources(CacheCapacity::Pages(1)).unwrap();
            for (i, list) in db.lists().enumerate() {
                let source = sources.source(i);
                assert_eq!(source.tail_score(), list.last_entry().score);
                for entry in list.iter() {
                    let read = source.sorted_access(entry.position, true).unwrap();
                    assert_eq!((read.item, read.score), (entry.item, entry.score));
                    let found = source.random_access(entry.item, true, false).unwrap();
                    assert_eq!(found.position, Some(entry.position));
                }
                assert_eq!(
                    source.best_position(),
                    topk_lists::Position::new(list.len())
                );
            }
        }
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
