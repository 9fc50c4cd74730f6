//! A block device backed by a real file.
//!
//! [`FileDevice`] stores pages densely in a single file using positioned
//! (`pread`/`pwrite`-style) IO, so no seek state leaks between the read and
//! write streams and the device can be dropped and reopened: everything an
//! index wrote — including the metadata footer written by
//! [`crate::meta::write_footer`] — survives on disk. Buffering is the
//! [`Pager`](crate::Pager)'s job (its LRU pool fronts every backend), so the
//! device itself issues one full-page IO per access; that keeps the counted
//! IO identical to [`SimDevice`](crate::SimDevice) while the OS page cache
//! provides the usual second-level buffering for free.
//!
//! Writes always cover a full page (short data is zero-padded), so the file
//! length is a page multiple and pages never alias each other's tails.
//! Pages that were allocated but never written read back as zeros, exactly
//! like the simulator.

use crate::device::{check_page, check_page_size, BlockDevice, PageId};
use crate::iostats::{IoStats, IoTracker};
use reach_core::IndexError;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

/// File-backed block device with the paper's IO accounting.
#[derive(Debug)]
pub struct FileDevice {
    file: File,
    path: PathBuf,
    page_size: usize,
    len_pages: u64,
    /// Reusable page-sized staging buffer for zero-padded writes.
    scratch: Vec<u8>,
    tracker: IoTracker,
}

impl FileDevice {
    /// Creates (or truncates) the file at `path` as an empty device.
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<Self, IndexError> {
        check_page_size(page_size);
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| IndexError::io(&format!("create {}", path.display()), &e))?;
        Ok(Self {
            file,
            path,
            page_size,
            len_pages: 0,
            scratch: vec![0u8; page_size],
            tracker: IoTracker::new(),
        })
    }

    /// Opens an existing device file. The caller supplies the page size the
    /// file was written with (indexes validate it again against their
    /// on-device metadata footer).
    pub fn open(path: impl AsRef<Path>, page_size: usize) -> Result<Self, IndexError> {
        check_page_size(page_size);
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| IndexError::io(&format!("open {}", path.display()), &e))?;
        let len = file
            .metadata()
            .map_err(|e| IndexError::io(&format!("stat {}", path.display()), &e))?
            .len();
        if len % page_size as u64 != 0 {
            return Err(IndexError::Corrupt(format!(
                "{}: file length {len} is not a multiple of page size {page_size}",
                path.display()
            )));
        }
        Ok(Self {
            file,
            path,
            page_size,
            len_pages: len / page_size as u64,
            scratch: vec![0u8; page_size],
            tracker: IoTracker::new(),
        })
    }
}

impl BlockDevice for FileDevice {
    fn backend(&self) -> &'static str {
        "file"
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn len_pages(&self) -> u64 {
        self.len_pages
    }

    fn allocate(&mut self, n: usize) -> Result<PageId, IndexError> {
        // Extend the file immediately (a cheap metadata-only ftruncate on
        // sparse filesystems) so allocated-but-never-written trailing pages
        // survive a drop-and-reopen cycle exactly like the simulator's.
        let first = self.len_pages;
        let new_len = self.len_pages + n as u64;
        self.file
            .set_len(new_len * self.page_size as u64)
            .map_err(|e| IndexError::io(&format!("extend {}", self.path.display()), &e))?;
        self.len_pages = new_len;
        Ok(first)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), IndexError> {
        assert!(
            data.len() <= self.page_size,
            "write of {} bytes exceeds page size {}",
            data.len(),
            self.page_size
        );
        check_page(id, self.len_pages)?;
        self.scratch[..data.len()].copy_from_slice(data);
        self.scratch[data.len()..].fill(0);
        let off = id * self.page_size as u64;
        pwrite_at(&mut self.file, off, &self.scratch).map_err(|e| {
            IndexError::io(&format!("write page {id} of {}", self.path.display()), &e)
        })?;
        self.tracker.note_write(id);
        Ok(())
    }

    fn read_page_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), IndexError> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page long");
        check_page(id, self.len_pages)?;
        let off = id * self.page_size as u64;
        pread_at(&mut self.file, off, buf).map_err(|e| {
            IndexError::io(&format!("read page {id} of {}", self.path.display()), &e)
        })?;
        self.tracker.note_read(id);
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.tracker.stats()
    }

    fn reset_stats(&mut self) {
        self.tracker.reset();
    }

    fn break_sequence(&mut self) {
        self.tracker.break_sequence();
    }

    fn note_cache_hit(&mut self) {
        self.tracker.note_cache_hit();
    }

    fn note_prefetched(&mut self) {
        self.tracker.note_prefetched();
    }

    fn note_prefetch_hit(&mut self) {
        self.tracker.note_prefetch_hit();
    }

    fn sync(&mut self) -> Result<(), IndexError> {
        self.file
            .sync_all()
            .map_err(|e| IndexError::io(&format!("sync {}", self.path.display()), &e))
    }
}

/// Positioned full-buffer write (`pwrite`-style on Unix, seek+write
/// elsewhere).
fn pwrite_at(file: &mut File, off: u64, buf: &[u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, off)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        file.seek(SeekFrom::Start(off))?;
        file.write_all(buf)
    }
}

/// Positioned read; short reads past EOF zero-fill the tail (sparse tails
/// of partially written files), matching the simulator.
fn pread_at(file: &mut File, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
    let n = {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            let mut filled = 0usize;
            loop {
                match file.read_at(&mut buf[filled..], off + filled as u64) {
                    Ok(0) => break filled,
                    Ok(k) => {
                        filled += k;
                        if filled == buf.len() {
                            break filled;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            file.seek(SeekFrom::Start(off))?;
            let mut filled = 0usize;
            loop {
                match file.read(&mut buf[filled..]) {
                    Ok(0) => break filled,
                    Ok(k) => {
                        filled += k;
                        if filled == buf.len() {
                            break filled;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    };
    buf[n..].fill(0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "streach-filedev-{}-{tag}.pages",
            std::process::id()
        ));
        p
    }

    #[test]
    fn roundtrips_and_matches_sim_accounting() {
        let path = temp_path("roundtrip");
        let mut d = FileDevice::create(&path, 128).unwrap();
        let p = d.allocate(3).unwrap();
        d.write_page(p, b"hello").unwrap();
        d.write_page(p + 1, b"world").unwrap();
        let mut buf = vec![0u8; 128];
        d.read_page_into(p, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"hello");
        assert!(buf[5..].iter().all(|&b| b == 0));
        d.read_page_into(p + 1, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"world");
        // Never-written page reads back zeroed.
        d.read_page_into(p + 2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        let s = d.stats();
        assert_eq!(s.random_writes, 1);
        assert_eq!(s.seq_writes, 1);
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.seq_reads, 2);
        drop(d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_preserves_pages() {
        let path = temp_path("reopen");
        {
            let mut d = FileDevice::create(&path, 64).unwrap();
            let p = d.allocate(2).unwrap();
            d.write_page(p, b"persist").unwrap();
            d.write_page(p + 1, b"me").unwrap();
            d.sync().unwrap();
        }
        let mut d = FileDevice::open(&path, 64).unwrap();
        assert_eq!(d.len_pages(), 2);
        let mut buf = vec![0u8; 64];
        d.read_page_into(0, &mut buf).unwrap();
        assert_eq!(&buf[..7], b"persist");
        d.read_page_into(1, &mut buf).unwrap();
        assert_eq!(&buf[..2], b"me");
        drop(d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn allocated_but_unwritten_pages_survive_reopen() {
        // Regression: `allocate` must extend the file so a reopened device
        // sees the same page count as the simulator would.
        let path = temp_path("alloc-tail");
        {
            let mut d = FileDevice::create(&path, 64).unwrap();
            d.allocate(3).unwrap();
            d.write_page(0, b"head").unwrap();
            d.sync().unwrap();
        }
        let mut d = FileDevice::open(&path, 64).unwrap();
        assert_eq!(d.len_pages(), 3);
        let mut buf = vec![0u8; 64];
        d.read_page_into(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "trailing page reads as zeros");
        drop(d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_misaligned_files() {
        let path = temp_path("misaligned");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(matches!(
            FileDevice::open(&path, 64),
            Err(IndexError::Corrupt(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_bounds_errors() {
        let path = temp_path("oob");
        let mut d = FileDevice::create(&path, 64).unwrap();
        d.allocate(1).unwrap();
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            d.read_page_into(1, &mut buf),
            Err(IndexError::PageOutOfBounds { page: 1, pages: 1 })
        ));
        assert!(d.write_page(9, b"x").is_err());
        drop(d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            FileDevice::open(temp_path("missing"), 64),
            Err(IndexError::Io(_))
        ));
    }
}
