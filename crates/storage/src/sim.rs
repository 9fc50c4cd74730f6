//! The simulated block device.
//!
//! The paper evaluates on a disk array with 4 KB pages (Table 3) and reports
//! IO counts rather than latency. [`SimDevice`] reproduces that measurement
//! model with a memory-backed page store: every access is classified as
//! *sequential* (immediately follows the previous access of its stream) or
//! *random* (everything else), matching the 20:1 normalization of §6. It is
//! the reference implementation of [`BlockDevice`] — the file backend must
//! produce byte-identical pages and identical counters.

use crate::device::{check_page, check_page_size, BlockDevice, PageId};
use crate::iostats::{IoStats, IoTracker};
use reach_core::IndexError;

/// Pages per heap chunk of a [`SimDevice`].
///
/// Pages live in fixed chunks of this many, so a device makes one heap
/// allocation per 64 pages it grows by, not one per page. Chunks never
/// move once allocated: one growing buffer would copy its pages on every
/// doubling and leave the old copies in the heap, which added 6–9 MB to
/// the peak resident memory of the live benchmark.
const CHUNK_PAGES: usize = 64;

/// Memory-backed block device with IO accounting (the paper's measurement
/// model, previously named `DiskSim`).
#[derive(Debug)]
pub struct SimDevice {
    page_size: usize,
    /// Page `i` is at offset `(i % CHUNK_PAGES) * page_size` of chunk
    /// `i / CHUNK_PAGES`; the last chunk may hold unallocated pages.
    chunks: Vec<Box<[u8]>>,
    len_pages: u64,
    tracker: IoTracker,
}

impl SimDevice {
    /// Creates an empty device with the given page size (bytes).
    pub fn new(page_size: usize) -> Self {
        check_page_size(page_size);
        Self {
            page_size,
            chunks: Vec::new(),
            len_pages: 0,
            tracker: IoTracker::new(),
        }
    }

    /// Reads a page in place (zero-copy variant of
    /// [`BlockDevice::read_page_into`]), classifying the access.
    fn read_page(&mut self, id: PageId) -> Result<&[u8], IndexError> {
        check_page(id, self.len_pages)?;
        self.tracker.note_read(id);
        let (chunk, at) = self.locate(id);
        Ok(&self.chunks[chunk][at..at + self.page_size])
    }

    /// Chunk index and byte offset of page `id`.
    fn locate(&self, id: PageId) -> (usize, usize) {
        let id = id as usize;
        (id / CHUNK_PAGES, (id % CHUNK_PAGES) * self.page_size)
    }
}

impl BlockDevice for SimDevice {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn len_pages(&self) -> u64 {
        self.len_pages
    }

    fn allocate(&mut self, n: usize) -> Result<PageId, IndexError> {
        let first = self.len_pages;
        self.len_pages += n as u64;
        let chunks = (self.len_pages as usize).div_ceil(CHUNK_PAGES);
        let chunk_bytes = CHUNK_PAGES * self.page_size;
        self.chunks
            .resize_with(chunks, || vec![0u8; chunk_bytes].into_boxed_slice());
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
        let (chunk, at) = self.locate(id);
        let page = &mut self.chunks[chunk][at..at + self.page_size];
        page[..data.len()].copy_from_slice(data);
        page[data.len()..].fill(0);
        self.tracker.note_write(id);
        Ok(())
    }

    fn read_page_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), IndexError> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page long");
        let page = self.read_page(id)?;
        buf.copy_from_slice(page);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_returns_consecutive_ranges() {
        let mut d = SimDevice::new(128);
        assert_eq!(d.allocate(3).unwrap(), 0);
        assert_eq!(d.allocate(2).unwrap(), 3);
        assert_eq!(d.len_pages(), 5);
        assert_eq!(d.size_bytes(), 5 * 128);
    }

    #[test]
    fn write_then_read_roundtrips_and_zero_fills() {
        let mut d = SimDevice::new(128);
        let p = d.allocate(1).unwrap();
        d.write_page(p, b"hello").expect("in bounds");
        let bytes = d.read_page(p).expect("in bounds");
        assert_eq!(&bytes[..5], b"hello");
        assert!(bytes[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn sequential_classification() {
        let mut d = SimDevice::new(128);
        d.allocate(10).unwrap();
        d.read_page(3).unwrap(); // random (first)
        d.read_page(4).unwrap(); // seq
        d.read_page(5).unwrap(); // seq
        d.read_page(9).unwrap(); // random (jump)
        d.read_page(8).unwrap(); // random (backwards)
        d.read_page(9).unwrap(); // seq
        let s = d.stats();
        assert_eq!(s.random_reads, 3);
        assert_eq!(s.seq_reads, 3);
    }

    #[test]
    fn break_sequence_forces_random() {
        let mut d = SimDevice::new(128);
        d.allocate(3).unwrap();
        d.read_page(0).unwrap();
        d.break_sequence();
        d.read_page(1).unwrap(); // would have been sequential
        assert_eq!(d.stats().random_reads, 2);
        assert_eq!(d.stats().seq_reads, 0);
    }

    #[test]
    fn rereading_same_page_is_random() {
        let mut d = SimDevice::new(128);
        d.allocate(1).unwrap();
        d.read_page(0).unwrap();
        d.read_page(0).unwrap();
        assert_eq!(d.stats().random_reads, 2);
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut d = SimDevice::new(128);
        d.allocate(2).unwrap();
        assert!(matches!(
            d.read_page(2),
            Err(IndexError::PageOutOfBounds { page: 2, pages: 2 })
        ));
        assert!(d.write_page(5, b"x").is_err());
    }

    #[test]
    fn reset_stats_clears_and_breaks_sequence() {
        let mut d = SimDevice::new(128);
        d.allocate(3).unwrap();
        d.read_page(0).unwrap();
        d.read_page(1).unwrap();
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
        d.read_page(2).unwrap(); // would have been sequential before reset
        assert_eq!(d.stats().random_reads, 1);
    }

    #[test]
    fn writes_are_classified_like_reads() {
        let mut d = SimDevice::new(128);
        let p = d.allocate(3).unwrap();
        d.write_page(p, b"a").unwrap(); // random (first)
        d.write_page(p + 1, b"b").unwrap(); // seq
        d.write_page(p, b"c").unwrap(); // random (backwards)
        let s = d.stats();
        assert_eq!(s.total_writes(), 3);
        assert_eq!(s.random_writes, 2);
        assert_eq!(s.seq_writes, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_write_panics() {
        let mut d = SimDevice::new(64);
        let p = d.allocate(1).unwrap();
        let _ = d.write_page(p, &[0u8; 65]);
    }
}
