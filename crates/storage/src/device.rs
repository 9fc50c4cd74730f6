//! The block-device abstraction every index runs on.
//!
//! The paper's measurement model (§6) is defined over page IOs: reads are
//! classified as *sequential* (immediately following the previous access) or
//! *random* (everything else) and normalized 20:1. [`BlockDevice`] captures
//! exactly that contract — fixed-size pages, append-only allocation, and IO
//! accounting through [`IoStats`] — so the same index code runs unchanged on
//! the in-memory simulator ([`SimDevice`](crate::SimDevice)) or a real file
//! ([`FileDevice`](crate::FileDevice)), and both report the same
//! paper-comparable counters.
//!
//! All accounting flows through [`IoTracker`](crate::iostats::IoTracker), so
//! the sequential/random classification is byte-for-byte identical across
//! backends: a query costs the same *counted* IO on a `FileDevice` as on the
//! simulator, which is what makes the backend-equivalence suite able to
//! assert identical stats.

use crate::cache::PageCache;
use crate::iostats::IoStats;
use reach_core::IndexError;
use std::sync::Arc;

/// Default page size, matching the paper's experimental system (Table 3).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A page address on a [`BlockDevice`].
pub type PageId = u64;

/// A fixed-page-size block device with IO accounting.
///
/// Pages are allocated append-only (index construction in this workspace
/// always lays data out explicitly, so a free list is unnecessary). The
/// trait is object-safe on purpose: backends are selected at runtime (see
/// [`StorageConfig`](crate::StorageConfig)) and erased behind
/// `Box<dyn BlockDevice>` inside the [`Pager`](crate::Pager).
///
/// `Send + Sync` are supertraits so indexes built over any device can be
/// handed to worker threads and *snapshots* of sealed indexes can be
/// shared behind an `Arc` (all page traffic still takes `&mut self`, so
/// `Sync` costs implementations nothing). Devices whose pages must be
/// shared between threads go through
/// [`SharedDevice`](crate::SharedDevice), which serializes the page
/// traffic while keeping per-handle IO classification exact.
pub trait BlockDevice: std::fmt::Debug + Send + Sync {
    /// Short backend name for reports ("sim" / "file").
    fn backend(&self) -> &'static str;

    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of allocated pages.
    fn len_pages(&self) -> u64;

    /// Allocates `n` zeroed pages and returns the id of the first.
    /// Fallible because persistent backends extend their backing file here.
    fn allocate(&mut self, n: usize) -> Result<PageId, IndexError>;

    /// Overwrites a page, counting one (classified) write IO. `data` must be
    /// at most one page long; shorter data leaves the page tail zeroed.
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), IndexError>;

    /// Reads a page into `buf` (which must be exactly one page long),
    /// counting one classified read IO.
    fn read_page_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), IndexError>;

    /// Cumulative counters.
    fn stats(&self) -> IoStats;

    /// Resets counters (e.g. between construction and query phases) and
    /// forgets the head position so the next access is random.
    fn reset_stats(&mut self);

    /// Forgets the head position (forces the next access to count as
    /// random) without clearing counters. Used to model an interleaving
    /// access stream boundary.
    fn break_sequence(&mut self);

    /// Adds to the cache-hit counter. Called by the [`Pager`](crate::Pager)
    /// when a read is served from its page cache without touching the
    /// device.
    fn note_cache_hit(&mut self);

    /// Adds to the prefetched-page counter. Called by the pager when
    /// readahead fills a page (the classified device read is counted
    /// separately). Default: not tracked.
    fn note_prefetched(&mut self) {}

    /// Adds to the prefetch-hit counter (a cache hit landing on a
    /// readahead-filled page; called in addition to
    /// [`BlockDevice::note_cache_hit`]). Default: not tracked.
    fn note_prefetch_hit(&mut self) {}

    /// The shared [`PageCache`] this device advertises, if any. The
    /// [`Pager`](crate::Pager) attaches to it automatically on
    /// construction instead of keeping a private cache of its own.
    /// Default: none — private devices keep the paper's cold-cache
    /// measurement model.
    fn shared_cache(&self) -> Option<Arc<PageCache>> {
        None
    }

    /// This device as a [`SharedDevice`](crate::SharedDevice) handle, if it
    /// is one, so [`SharedDevice::share`](crate::SharedDevice::share) can
    /// join its hub instead of wrapping it in a second one. Default: none.
    fn as_shared(&self) -> Option<&crate::SharedDevice> {
        None
    }

    /// Flushes buffered writes to durable storage (no-op for memory-backed
    /// devices).
    fn sync(&mut self) -> Result<(), IndexError> {
        Ok(())
    }

    /// Device size in bytes.
    fn size_bytes(&self) -> u64 {
        self.len_pages() * self.page_size() as u64
    }
}

/// Bounds check shared by the backends.
pub(crate) fn check_page(id: PageId, pages: u64) -> Result<(), IndexError> {
    if id < pages {
        Ok(())
    } else {
        Err(IndexError::PageOutOfBounds { page: id, pages })
    }
}

/// Page-size sanity check shared by the backends.
pub(crate) fn check_page_size(page_size: usize) {
    assert!(page_size >= 64, "page size {page_size} unreasonably small");
}
