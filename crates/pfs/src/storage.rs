//! Storage backends: one PFS file's bytes.
//!
//! * **Memory** (the default, used with virtual-time measurement): the
//!   image is a table of fixed [`PAGE`]-byte pages, each behind its own
//!   lock. Only growth and truncation take the table's write lock, and
//!   no byte copy ever runs under it: `write_at`/`read_at` clone the
//!   handles of the pages they touch and copy under the page locks, so
//!   the disjoint blocks of a collective copy in parallel. Pages freed
//!   by removal or truncation go back to the owning PFS's [`PagePool`]
//!   and are reused warm.
//! * **Disk** (real files under a directory): positioned I/O on a shared
//!   handle, with no lock at all.
//!
//! Every method takes `&self`; ranks share one `Storage` per file.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::PfsError;

/// Bytes per page of an in-memory image.
pub const PAGE: usize = 1 << 20;

/// Backend selection for a [`crate::Pfs`] instance.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Files live in host memory; timing comes from the cost model only.
    Memory,
    /// Files live on the host file system under the given directory;
    /// wall-clock timing is physically meaningful.
    Disk(PathBuf),
}

/// Full-size pages that no file owns any more, kept warm for reuse. One
/// pool serves every in-memory file of a PFS instance.
#[derive(Debug, Default)]
pub struct PagePool(Mutex<Vec<Vec<u8>>>);

impl PagePool {
    /// An empty full-capacity page: a pooled one if any, else fresh.
    fn take(&self) -> Vec<u8> {
        match self.0.lock().pop() {
            Some(mut page) => {
                page.clear();
                page
            }
            None => Vec::with_capacity(PAGE),
        }
    }

    /// Keep `page` for reuse if it is full-size; smaller tail buffers
    /// of small files are simply freed.
    fn give(&self, page: Vec<u8>) {
        if page.capacity() >= PAGE {
            self.0.lock().push(page);
        }
    }
}

/// One page of an in-memory image. Its `Vec` holds the page's bytes up
/// to the highest one ever written; anything past that, up to the file
/// size, is a hole that reads as zeros.
type Page = Arc<Mutex<Vec<u8>>>;

/// The page table of an in-memory image.
#[derive(Debug, Default)]
struct Table {
    /// Logical size in bytes.
    len: u64,
    /// `ceil(len / PAGE)` pages, in file order.
    pages: Vec<Page>,
}

impl Table {
    /// Handles of the pages covering `[offset, end)`.
    fn span(&self, offset: u64, end: u64) -> Vec<Page> {
        if end <= offset {
            return Vec::new();
        }
        let first = (offset / PAGE as u64) as usize;
        let last = ((end - 1) / PAGE as u64) as usize;
        self.pages[first..=last].to_vec()
    }
}

/// A paged in-memory file image (the [`Storage::Mem`] backend).
#[derive(Debug)]
pub struct Paged {
    table: RwLock<Table>,
    pool: Arc<PagePool>,
}

impl Paged {
    fn new(pool: Arc<PagePool>) -> Paged {
        Paged {
            table: RwLock::default(),
            pool,
        }
    }

    fn len(&self) -> u64 {
        self.table.read().len
    }

    /// The pages covering `[offset, end)`, growing the file to `end`
    /// first when it is shorter.
    fn span_for_write(&self, offset: u64, end: u64) -> Vec<Page> {
        {
            let table = self.table.read();
            if end <= table.len {
                return table.span(offset, end);
            }
        }
        let mut table = self.table.write();
        if end > table.len {
            let pages = end.div_ceil(PAGE as u64) as usize;
            if pages > table.pages.len() {
                table.pages.resize_with(pages, Page::default);
            }
            table.len = end;
        }
        table.span(offset, end)
    }

    fn write_at(&self, offset: u64, data: &[u8]) {
        let end = offset + data.len() as u64;
        let mut at = (offset % PAGE as u64) as usize;
        let mut rest = data;
        for page in self.span_for_write(offset, end) {
            let n = rest.len().min(PAGE - at);
            put(&mut page.lock(), at, &rest[..n], &self.pool);
            rest = &rest[n..];
            at = 0;
        }
    }

    /// Visit `[offset, offset + len)` in order as runs of stored bytes,
    /// each followed by the length of the hole (zeros) after it within
    /// its page. `None` if the range runs past the end of the file.
    fn visit(&self, offset: u64, len: usize, mut f: impl FnMut(&[u8], usize)) -> Option<()> {
        let end = offset.checked_add(len as u64)?;
        let pages = {
            let table = self.table.read();
            if end > table.len {
                return None;
            }
            table.span(offset, end)
        };
        let mut at = (offset % PAGE as u64) as usize;
        let mut left = len;
        for page in pages {
            let n = left.min(PAGE - at);
            let page = page.lock();
            let stored: &[u8] = page.get(at..).unwrap_or_default();
            let stored = &stored[..stored.len().min(n)];
            f(stored, n - stored.len());
            left -= n;
            at = 0;
        }
        Some(())
    }

    fn truncate_to(&self, len: u64) {
        let freed = {
            let mut table = self.table.write();
            if len >= table.len {
                return;
            }
            table.len = len;
            let keep = len.div_ceil(PAGE as u64) as usize;
            let freed = table.pages.split_off(keep);
            if let Some(last) = table.pages.last() {
                let tail = len - (keep as u64 - 1) * PAGE as u64;
                last.lock().truncate(tail as usize);
            }
            freed
        };
        self.recycle(freed);
    }

    /// Return pages no operation still holds to the pool.
    fn recycle(&self, pages: Vec<Page>) {
        for page in pages {
            if let Ok(page) = Arc::try_unwrap(page) {
                self.pool.give(page.into_inner());
            }
        }
    }
}

impl Drop for Paged {
    fn drop(&mut self) {
        let pages = std::mem::take(&mut self.table.write().pages);
        self.recycle(pages);
    }
}

/// Copy `bytes` into `page` at `at`, zero-filling only a real gap before
/// it. A page that grows to full size moves into a pooled buffer; a
/// small file's only page grows geometrically and never pins a full one.
fn put(page: &mut Vec<u8>, at: usize, bytes: &[u8], pool: &PagePool) {
    let end = at + bytes.len();
    if end > page.capacity() {
        let cap = end.max(2 * page.capacity()).min(PAGE);
        if cap == PAGE {
            let mut full = pool.take();
            full.extend_from_slice(page);
            *page = full;
        } else {
            page.reserve_exact(cap - page.len());
        }
    }
    if page.len() < at {
        page.resize(at, 0);
    }
    let overlap = page.len().min(end) - at;
    page[at..at + overlap].copy_from_slice(&bytes[..overlap]);
    page.extend_from_slice(&bytes[overlap..]);
}

/// A single file's bytes.
#[derive(Debug)]
pub enum Storage {
    /// Paged in-memory image.
    Mem(Paged),
    /// Real file, accessed with positioned I/O.
    Disk {
        /// Open handle (read+write).
        file: File,
        /// Path, for error messages and cleanup.
        path: PathBuf,
        /// Cached logical size (kept in sync with writes). Each update
        /// releases it after the bytes are written, and `len` acquires
        /// it, so a size a reader sees covers bytes already written.
        size: AtomicU64,
    },
}

impl Storage {
    /// Create an empty in-memory file with a page pool of its own.
    pub fn new_mem() -> Storage {
        Storage::new_mem_in(&Arc::default())
    }

    /// Create an empty in-memory file drawing pages from `pool`.
    pub fn new_mem_in(pool: &Arc<PagePool>) -> Storage {
        Storage::Mem(Paged::new(Arc::clone(pool)))
    }

    /// Create (truncating) a real file under `dir` with the given
    /// sanitized name.
    pub fn new_disk(dir: &Path, name: &str) -> Result<Storage, PfsError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::flatten(name));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Storage::Disk {
            file,
            path,
            size: AtomicU64::new(0),
        })
    }

    /// Attach to an existing real file without truncating it (reopening a
    /// PFS directory from an earlier process).
    pub fn attach_disk(dir: &Path, name: &str) -> Result<Storage, PfsError> {
        let path = dir.join(Self::flatten(name));
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let size = AtomicU64::new(file.metadata()?.len());
        Ok(Storage::Disk { file, path, size })
    }

    /// PFS names may contain arbitrary text; flatten anything path-like so
    /// files cannot escape the backing directory.
    fn flatten(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '.' || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Storage::Mem(m) => m.len(),
            Storage::Disk { size, .. } => size.load(Ordering::Acquire),
        }
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn out_of_bounds(&self, name: &str, offset: u64, len: usize) -> PfsError {
        PfsError::OutOfBounds {
            file: name.to_string(),
            offset,
            len,
            size: self.len(),
        }
    }

    /// Write `data` at `offset`, growing the file as needed (zero-filling
    /// any gap). Offsets whose end position overflows `u64` (or `usize`
    /// for the in-memory backend) are rejected as out of bounds rather
    /// than wrapping.
    pub fn write_at(&self, offset: u64, data: &[u8], name: &str) -> Result<(), PfsError> {
        // A hostile offset can make `offset + len` wrap; compute the end
        // position checked in u64 first, then ensure it is addressable.
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or_else(|| self.out_of_bounds(name, offset, data.len()))?;
        match self {
            Storage::Mem(m) => {
                usize::try_from(end).map_err(|_| self.out_of_bounds(name, offset, data.len()))?;
                m.write_at(offset, data);
                Ok(())
            }
            Storage::Disk { file, size, .. } => {
                file.write_all_at(data, offset)?;
                size.fetch_max(end, Ordering::AcqRel);
                Ok(())
            }
        }
    }

    /// Read exactly `buf.len()` bytes starting at `offset`. Overflowing
    /// end positions are rejected as out of bounds, never wrapped.
    pub fn read_at(&self, offset: u64, buf: &mut [u8], name: &str) -> Result<(), PfsError> {
        match self {
            Storage::Mem(m) => {
                let mut pos = 0;
                m.visit(offset, buf.len(), |stored, hole| {
                    buf[pos..pos + stored.len()].copy_from_slice(stored);
                    pos += stored.len();
                    buf[pos..pos + hole].fill(0);
                    pos += hole;
                })
                .ok_or_else(|| self.out_of_bounds(name, offset, buf.len()))
            }
            Storage::Disk { file, .. } => {
                self.check_range(name, offset, buf.len())?;
                file.read_exact_at(buf, offset)?;
                Ok(())
            }
        }
    }

    /// Read `len` bytes starting at `offset` into a new buffer, which the
    /// in-memory backend fills by appending: no zero-fill pass first.
    /// Bounds as in [`Storage::read_at`], checked before the buffer is
    /// allocated, so a hostile `len` is an error, never an allocation.
    pub fn read_vec(&self, offset: u64, len: usize, name: &str) -> Result<Vec<u8>, PfsError> {
        self.check_range(name, offset, len)?;
        match self {
            Storage::Mem(m) => {
                let mut out = Vec::with_capacity(len);
                m.visit(offset, len, |stored, hole| {
                    out.extend_from_slice(stored);
                    out.resize(out.len() + hole, 0);
                })
                .ok_or_else(|| self.out_of_bounds(name, offset, len))?;
                Ok(out)
            }
            Storage::Disk { .. } => {
                let mut out = vec![0u8; len];
                self.read_at(offset, &mut out, name)?;
                Ok(out)
            }
        }
    }

    fn check_range(&self, name: &str, offset: u64, len: usize) -> Result<(), PfsError> {
        match offset.checked_add(len as u64) {
            Some(end) if end <= self.len() => Ok(()),
            _ => Err(self.out_of_bounds(name, offset, len)),
        }
    }

    /// Truncate to zero length.
    pub fn truncate(&self) -> Result<(), PfsError> {
        self.truncate_to(0)
    }

    /// Truncate to `len` bytes, dropping everything past that point (the
    /// sealed-prefix recovery primitive). Lengths at or beyond the
    /// current size are a no-op — truncation never grows a file.
    pub fn truncate_to(&self, len: u64) -> Result<(), PfsError> {
        match self {
            Storage::Mem(m) => {
                m.truncate_to(len);
                Ok(())
            }
            Storage::Disk { file, size, .. } => {
                if len < size.load(Ordering::Acquire) {
                    file.set_len(len)?;
                    size.store(len, Ordering::Release);
                }
                Ok(())
            }
        }
    }

    /// Drop the file's name from the backing store: the real file is
    /// unlinked, while this handle keeps its bytes until it drops (POSIX
    /// unlink semantics). A no-op in memory, where the bytes live exactly
    /// as long as the `Storage`.
    pub fn unlink(&self) -> Result<(), PfsError> {
        if let Storage::Disk { path, .. } = self {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Remove backing resources (deletes the real file for Disk storage;
    /// in-memory pages return to their pool).
    pub fn destroy(self) -> Result<(), PfsError> {
        self.unlink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: Storage) {
        s.write_at(0, b"hello", "t").unwrap();
        s.write_at(10, b"world", "t").unwrap();
        assert_eq!(s.len(), 15);
        let mut buf = vec![0u8; 5];
        s.read_at(0, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"hello");
        s.read_at(10, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"world");
        // The gap is zero-filled.
        let mut gap = vec![9u8; 5];
        s.read_at(5, &mut gap, "t").unwrap();
        assert_eq!(gap, vec![0u8; 5]);
        // Out-of-bounds read fails.
        let mut big = vec![0u8; 16];
        assert!(matches!(
            s.read_at(0, &mut big, "t"),
            Err(PfsError::OutOfBounds { .. })
        ));
        s.truncate().unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn mem_storage_roundtrips() {
        roundtrip(Storage::new_mem());
    }

    #[test]
    fn mem_write_straddling_the_end_overwrites_then_appends() {
        let s = Storage::new_mem();
        s.write_at(0, b"abcdef", "t").unwrap();
        s.write_at(4, b"XYZW", "t").unwrap();
        assert_eq!(s.len(), 8);
        let mut buf = vec![0u8; 8];
        s.read_at(0, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"abcdXYZW");
        // Wholly inside the image: no growth.
        s.write_at(1, b"q", "t").unwrap();
        assert_eq!(s.len(), 8);
        s.read_at(0, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"aqcdXYZW");
    }

    #[test]
    fn mem_write_past_a_gap_zero_fills_only_the_gap() {
        let s = Storage::new_mem();
        s.write_at(0, b"ab", "t").unwrap();
        s.write_at(5, b"cd", "t").unwrap();
        assert_eq!(s.len(), 7);
        let mut buf = vec![9u8; 7];
        s.read_at(0, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"ab\0\0\0cd");
        // An empty write past the end still extends to its offset.
        s.write_at(9, b"", "t").unwrap();
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn truncate_to_keeps_the_prefix_and_never_grows() {
        let s = Storage::new_mem();
        s.write_at(0, b"sealed-data-torn-tail", "t").unwrap();
        s.truncate_to(11).unwrap();
        assert_eq!(s.len(), 11);
        let mut buf = vec![0u8; 11];
        s.read_at(0, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"sealed-data");
        // At-or-past-size is a no-op, not growth.
        s.truncate_to(999).unwrap();
        assert_eq!(s.len(), 11);
    }

    #[test]
    fn hostile_offsets_are_rejected_not_wrapped() {
        let s = Storage::new_mem();
        s.write_at(0, b"data", "t").unwrap();
        // End position wraps u64 — must be OutOfBounds, not a wrap to a
        // tiny offset that corrupts the front of the file.
        assert!(matches!(
            s.write_at(u64::MAX - 1, b"xx", "t"),
            Err(PfsError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 2];
        assert!(matches!(
            s.read_at(u64::MAX - 1, &mut buf, "t"),
            Err(PfsError::OutOfBounds { .. })
        ));
        // The original contents are untouched.
        let mut got = [0u8; 4];
        s.read_at(0, &mut got, "t").unwrap();
        assert_eq!(&got, b"data");
    }

    #[test]
    fn disk_storage_roundtrips() {
        let dir = std::env::temp_dir().join(format!("dstreams-pfs-test-{}", std::process::id()));
        let s = Storage::new_disk(&dir, "file.bin").unwrap();
        roundtrip(s);
        let s2 = Storage::new_disk(&dir, "file.bin").unwrap();
        s2.destroy().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_names_are_sanitized() {
        let dir = std::env::temp_dir().join(format!("dstreams-pfs-sani-{}", std::process::id()));
        let s = Storage::new_disk(&dir, "../../etc/passwd").unwrap();
        if let Storage::Disk { ref path, .. } = s {
            assert!(path.starts_with(&dir), "path {path:?} escaped {dir:?}");
        } else {
            panic!("expected disk storage");
        }
        s.destroy().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn pooled(pool: &PagePool) -> usize {
        pool.0.lock().len()
    }

    #[test]
    fn freed_full_pages_are_pooled_and_reused() {
        let pool = Arc::default();
        let s = Storage::new_mem_in(&pool);
        s.write_at(0, &vec![7; 2 * PAGE + PAGE / 2], "t").unwrap();
        assert_eq!(pooled(&pool), 0);
        // Truncating into the first page frees the second (full, pooled)
        // and the third (a half-page tail, freed outright).
        s.truncate_to(10).unwrap();
        assert_eq!(pooled(&pool), 1);
        // Dropping the file returns its first page too.
        drop(s);
        assert_eq!(pooled(&pool), 2);
        // A new file filling a page takes a pooled one, and a stale
        // byte never shows through a hole.
        let s = Storage::new_mem_in(&pool);
        s.write_at(PAGE as u64 - 1, b"x", "t").unwrap();
        assert_eq!(pooled(&pool), 1);
        let mut page = vec![1u8; PAGE];
        s.read_at(0, &mut page, "t").unwrap();
        assert!(page[..PAGE - 1].iter().all(|&b| b == 0));
        assert_eq!(page[PAGE - 1], b'x');
    }

    #[test]
    fn a_small_file_does_not_pin_a_page() {
        let pool: Arc<PagePool> = Arc::default();
        pool.give(Vec::with_capacity(PAGE));
        let s = Storage::new_mem_in(&pool);
        for i in 0..100u64 {
            s.write_at(i * 10, &[i as u8; 10], "t").unwrap();
        }
        assert_eq!(pooled(&pool), 1, "a small file must not take a pooled page");
        let Storage::Mem(m) = &s else {
            panic!("expected memory storage")
        };
        let capacity = m.table.read().pages[0].lock().capacity();
        assert!(capacity < 4096, "1000 bytes hold {capacity} bytes of page");
    }
}
