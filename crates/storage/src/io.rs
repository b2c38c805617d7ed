//! The physical-read seam: every byte a paged list reads after creation
//! flows through [`PageIo`].
//!
//! The trait is crate-private on purpose — it is not a backend API but a
//! *fault-injection seam*: the fault tests substitute doubles that fail
//! deterministically by operation count, proving that every possible IO
//! failure surfaces as a typed error through `run_on` (see `fault.rs`).

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::error::StorageError;

/// Positioned reads against one list file.
pub(crate) trait PageIo: std::fmt::Debug + Send {
    /// Fills `buf` from `offset`, exactly — a short read is an error.
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;

    /// The file's total length in bytes (used once at open to reject
    /// truncated files).
    fn total_len(&mut self) -> std::io::Result<u64>;
}

/// The real implementation: a [`File`] read with one positioned read
/// (`pread`) per page, so a page miss costs a single system call and
/// leaves the file cursor alone.
#[derive(Debug)]
pub(crate) struct FileIo {
    file: File,
}

impl FileIo {
    pub fn open(path: &Path) -> Result<FileIo, StorageError> {
        let file = File::open(path)
            .map_err(|e| StorageError::io(format!("open {}", path.display()), e))?;
        Ok(FileIo { file })
    }
}

impl PageIo for FileIo {
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        FileExt::read_exact_at(&self.file, buf, offset)
    }

    fn total_len(&mut self) -> std::io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// An in-memory `PageIo` over an encoded file image. Used by unit and
/// fault tests (wrapped in the failure-injecting doubles), so the fault
/// suite needs no filesystem at all.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct MemIo {
    bytes: Vec<u8>,
}

#[cfg(test)]
impl MemIo {
    pub fn new(bytes: Vec<u8>) -> MemIo {
        MemIo { bytes }
    }
}

#[cfg(test)]
impl PageIo for MemIo {
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let start = usize::try_from(offset).expect("offset fits usize");
        let end = start.checked_add(buf.len()).expect("no overflow");
        if end > self.bytes.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("read past end: {end} > {}", self.bytes.len()),
            ));
        }
        buf.copy_from_slice(&self.bytes[start..end]);
        Ok(())
    }

    fn total_len(&mut self) -> std::io::Result<u64> {
        Ok(self.bytes.len() as u64)
    }
}
