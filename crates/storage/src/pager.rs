//! The pager: buffer-pool-mediated access to any [`BlockDevice`].
//!
//! Query processing in every index goes through a [`Pager`], so cache hits
//! cost nothing and misses are charged to the device with sequential/random
//! classification. Construction writes go straight to the device.
//!
//! ## Owned vs. hub cache
//!
//! A pager keeps at most one [`PageCache`]. When the device advertises one
//! (a [`SharedDevice`](crate::shared::SharedDevice) hub built
//! `with_cache`), the pager attaches to it: residency is then pooled
//! across every pager on the same hub — repeated queries and concurrent
//! serving threads reuse each other's fetches — and survives query
//! boundaries. Otherwise a nonzero `cache_pages` gives the pager its own
//! one-shard cache of that many pages — the paper's per-query buffer, in
//! global LRU order; every measured query opens a fresh pager
//! ([`SharedDevice::cold_pager`](crate::SharedDevice::cold_pager)), so it
//! starts cold — and zero gives it none. Hits, misses, prefetch marks and
//! write-through take the same path either way, and accounting stays
//! exact: a hit is charged to *this* pager's device handle as a cache hit
//! ([`IoStats::cache_hits`]), never as a read, and the sequential/random
//! classification of the misses that do reach the device is untouched.
//!
//! ## The one-page read buffer
//!
//! A pager without a cache still owns the buffer it reads each page into,
//! and remembers which page that buffer holds. A repeat read of that same
//! page is served from the buffer and charged as a cache hit, not as a
//! second device read: a binary search whose probes land on one page
//! ([`TimelineRegion::node_of`](crate::TimelineRegion::node_of)), or a
//! record that starts on the page where the previous record ended, pays
//! for the page once. Reading any other page replaces the buffer, and a
//! [`Pager::write`] of the held page or a mutable borrow of the device
//! forgets it. Pagers with a cache never use the buffer this way.
//!
//! ## Readahead
//!
//! [`Pager::prefetch`] declares that a run of consecutive pages is about to
//! be scanned. The readahead window is the cache's
//! ([`PageCache::with_readahead`]; an owned cache has none): the pager
//! fetches up to one window of not-yet-resident pages ahead of the scan,
//! charging each fetch as a normal classified device read plus a
//! `prefetched` mark; when the scan later lands on a prefetched page the
//! hit is counted as a `prefetch_hit` (a subset of `cache_hits`). With a
//! window of 0 (the default) the call is a no-op, so cold-tier counters are
//! byte-identical with the feature compiled in.
//!
//! ## Why type erasure, not genericity
//!
//! The pager owns its device as `Box<dyn BlockDevice>` rather than a type
//! parameter. The trade was deliberate: backend choice is a *runtime*
//! decision (benchmarks and the [`StorageConfig`](crate::StorageConfig)
//! factory pick sim or file from configuration), which dynamic dispatch
//! serves directly, whereas `Pager<D>` would ripple a type parameter through
//! `ReachGrid`, `ReachGraph`, `GrailDisk`, `Spj`, and every function that
//! touches them — for no measurable gain, since one virtual call per *page
//! IO* is noise next to the page copy (sim) or syscall (file) it
//! fronts, and the hot cache-hit path never reaches the device at all.

use crate::cache::PageCache;
use crate::device::{BlockDevice, PageId};
use crate::iostats::IoStats;
use reach_core::IndexError;
use std::sync::Arc;

/// Page-cache-fronted page store over an erased [`BlockDevice`].
#[derive(Debug)]
pub struct Pager {
    device: Box<dyn BlockDevice>,
    /// The device hub's cache, this pager's own, or none (reads go
    /// straight to the device).
    cache: Option<Arc<PageCache>>,
    /// The buffer every cache miss and prefetch reads into: sized at the
    /// first device read, then reused, so a read allocates no page.
    page: Vec<u8>,
    /// The page `page` holds, when the pager has no cache (see the
    /// module docs on the one-page read buffer). Always `None` with a
    /// cache, so the cached miss path and [`Pager::prefetch`], which only
    /// reads with a cache, may overwrite `page` without clearing it.
    held: Option<PageId>,
}

impl Pager {
    /// Wraps a device with a page cache. If the device advertises a shared
    /// [`PageCache`], the pager attaches to it (and inherits its readahead
    /// window); otherwise it owns a one-shard cache of `cache_pages` pages,
    /// or none when `cache_pages` is 0.
    pub fn new(device: Box<dyn BlockDevice>, cache_pages: usize) -> Self {
        let cache = device
            .shared_cache()
            .or_else(|| (cache_pages > 0).then(|| Arc::new(PageCache::private(cache_pages))));
        Self {
            device,
            cache,
            page: Vec::new(),
            held: None,
        }
    }

    /// Page size of the underlying device.
    pub fn page_size(&self) -> usize {
        self.device.page_size()
    }

    /// The underlying device (for construction-time allocation and writes).
    /// The borrow may rewrite any page, so the pager forgets the page its
    /// read buffer holds.
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        self.held = None;
        self.device.as_mut()
    }

    /// The underlying device, read-only.
    pub fn device(&self) -> &dyn BlockDevice {
        self.device.as_ref()
    }

    /// The cache's readahead window in pages (0 = prefetch disabled).
    pub fn readahead(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.readahead())
    }

    /// Reads a page through the cache. Hits cost nothing; misses hit the
    /// device and populate the cache.
    ///
    /// Returns an owned copy of the page: records routinely span page
    /// boundaries and callers hold several pages at once, which a borrowing
    /// API would forbid. Single-page consumers on hot paths should prefer
    /// [`Pager::with_page`], which skips this copy.
    pub fn read(&mut self, page: PageId) -> Result<Box<[u8]>, IndexError> {
        self.with_page(page, |bytes| bytes.into())
    }

    /// Zero-copy read path: runs `f` over the cached page buffer without
    /// materializing an owned copy. On a cache hit the closure borrows the
    /// resident buffer directly; on a miss the page is read into the
    /// pager's own page buffer, inserted into the cache (if any), and
    /// borrowed from there. Without a cache, a repeat read of the page that
    /// buffer already holds is a hit on the buffer. IO accounting is
    /// identical to [`Pager::read`].
    pub fn with_page<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, IndexError> {
        let Some(cache) = &self.cache else {
            if self.held == Some(page) {
                self.device.note_cache_hit();
            } else {
                self.held = None;
                self.page.resize(self.device.page_size(), 0);
                self.device.read_page_into(page, &mut self.page)?;
                self.held = Some(page);
            }
            return Ok(f(&self.page));
        };
        if let Some((bytes, was_prefetched)) = cache.lookup(page) {
            self.device.note_cache_hit();
            if was_prefetched {
                self.device.note_prefetch_hit();
            }
            return Ok(f(&bytes));
        }
        self.page.resize(self.device.page_size(), 0);
        self.device.read_page_into(page, &mut self.page)?;
        cache.insert(page, &self.page);
        Ok(f(&self.page))
    }

    /// Declares that the `count` consecutive pages starting at `start` are
    /// about to be scanned, and fetches up to one readahead window of the
    /// not-yet-resident ones into the cache ahead of the scan.
    ///
    /// Each fetched page is charged as a normal classified device read plus
    /// a `prefetched` mark; pages already resident, beyond `count`, or past
    /// the end of the device are skipped. A no-op when the readahead window
    /// is 0 (the default), which keeps cold-tier counters byte-identical.
    pub fn prefetch(&mut self, start: PageId, count: usize) -> Result<(), IndexError> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let window = count.min(cache.readahead());
        if window == 0 {
            return Ok(());
        }
        let end = (start + window as u64).min(self.device.len_pages());
        self.page.resize(self.device.page_size(), 0);
        for page in start..end {
            if cache.contains(page) {
                continue;
            }
            self.device.read_page_into(page, &mut self.page)?;
            self.device.note_prefetched();
            cache.insert_prefetched(page, &self.page);
        }
        Ok(())
    }

    /// Whether a page is currently cached (no recency side effect).
    pub fn is_cached(&self, page: PageId) -> bool {
        self.cache.as_ref().is_some_and(|c| c.contains(page))
    }

    /// Write-through page update: a resident cached copy is rewritten in
    /// place, so subsequent reads see the new bytes without a device
    /// round-trip. A write never populates the cache.
    pub fn write(&mut self, page: PageId, data: &[u8]) -> Result<(), IndexError> {
        if self.held == Some(page) {
            self.held = None;
        }
        self.device.write_page(page, data)?;
        if let Some(cache) = &self.cache {
            // A SharedDevice hub already updated its cache inside
            // write_page; updating again is idempotent and covers devices
            // that advertise a cache without hub write-through.
            cache.update(page, data, self.device.page_size());
        }
        Ok(())
    }

    /// Device counters.
    pub fn stats(&self) -> IoStats {
        self.device.stats()
    }

    /// Marks an access-stream boundary: the next device read counts random.
    pub fn break_sequence(&mut self) {
        self.device.break_sequence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedDevice;
    use crate::sim::SimDevice;

    fn device_with_pages(n: usize) -> SimDevice {
        let mut d = SimDevice::new(128);
        let first = d.allocate(n).unwrap();
        for i in 0..n {
            d.write_page(first + i as u64, &[i as u8; 4]).unwrap();
        }
        d.reset_stats();
        d
    }

    fn pager_with_pages(n: usize, cache: usize) -> Pager {
        Pager::new(Box::new(device_with_pages(n)), cache)
    }

    fn shared_pager(n: usize, cache_pages: usize, readahead: usize) -> (Pager, Arc<PageCache>) {
        let cache = Arc::new(PageCache::new(cache_pages).with_readahead(readahead));
        let hub = SharedDevice::with_cache(Box::new(device_with_pages(n)), cache.clone());
        (Pager::new(Box::new(hub), 8), cache)
    }

    #[test]
    fn cache_hit_avoids_device_read() {
        let mut p = pager_with_pages(4, 2);
        p.read(0).unwrap();
        p.read(0).unwrap();
        let s = p.stats();
        assert_eq!(s.total_reads(), 1);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn eviction_causes_reread() {
        let mut p = pager_with_pages(4, 1);
        p.read(0).unwrap();
        p.read(1).unwrap(); // evicts 0
        p.read(0).unwrap(); // miss again
        assert_eq!(p.stats().total_reads(), 3);
        assert_eq!(p.stats().cache_hits, 0);
    }

    #[test]
    fn sequential_scan_through_pager_is_sequential_on_device() {
        let mut p = pager_with_pages(5, 8);
        for i in 0..5 {
            p.read(i).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.seq_reads, 4);
        // Second scan is all cache hits.
        for i in 0..5 {
            p.read(i).unwrap();
        }
        assert_eq!(p.stats().total_reads(), 5);
        assert_eq!(p.stats().cache_hits, 5);
    }

    #[test]
    fn with_page_matches_read_and_charges_identically() {
        let mut a = pager_with_pages(3, 2);
        let mut b = pager_with_pages(3, 2);
        for i in [0u64, 1, 0, 2, 2] {
            let owned = a.read(i).unwrap();
            let borrowed = b.with_page(i, |bytes| bytes.to_vec()).unwrap();
            assert_eq!(&owned[..], &borrowed[..]);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_capacity_pager_rereads_all_but_the_page_it_holds() {
        let mut p = pager_with_pages(2, 0);
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 0);
        let again = p.with_page(0, |b| b[0]).unwrap();
        assert_eq!(again, 0, "served from the read buffer");
        assert_eq!(p.with_page(1, |b| b[0]).unwrap(), 1);
        let back = p.with_page(0, |b| b[0]).unwrap();
        assert_eq!(back, 0, "re-read from the device");
        assert!(!p.is_cached(0), "zero capacity caches nothing");
        let s = p.stats();
        assert_eq!((s.random_reads, s.seq_reads, s.cache_hits), (2, 1, 1));
    }

    #[test]
    fn a_write_to_the_held_page_forces_a_device_read() {
        let mut p = pager_with_pages(2, 0);
        p.read(0).unwrap();
        p.write(1, &[8]).unwrap();
        p.read(0).unwrap();
        assert_eq!((p.stats().total_reads(), p.stats().cache_hits), (1, 1));
        p.write(0, &[9, 9]).unwrap();
        assert_eq!(p.read(0).unwrap()[0], 9, "the write is read back");
        assert_eq!((p.stats().total_reads(), p.stats().cache_hits), (2, 1));
    }

    #[test]
    fn a_cached_pager_rereads_an_invalidated_page() {
        // The pager's read buffer still holds page 0, but only a pager
        // without a cache serves from it.
        let (mut p, cache) = shared_pager(2, 4, 0);
        p.read(0).unwrap();
        cache.invalidate_all();
        p.read(0).unwrap();
        assert_eq!((p.stats().total_reads(), p.stats().cache_hits), (2, 0));
    }

    #[test]
    fn write_through_updates_cached_copy_in_place() {
        let mut p = pager_with_pages(2, 2);
        assert_eq!(p.read(0).unwrap()[0], 0);
        p.write(0, &[9, 9]).unwrap();
        let s_before = p.stats();
        assert_eq!(p.read(0).unwrap()[0], 9);
        // The re-read was served from the refreshed cached copy, not the
        // device (the old code dropped the page and re-read it).
        assert_eq!(p.stats().total_reads(), s_before.total_reads());
        assert_eq!(p.stats().cache_hits, s_before.cache_hits + 1);
    }

    #[test]
    fn write_to_uncached_page_does_not_populate_the_pool() {
        let mut p = pager_with_pages(2, 2);
        p.write(1, &[7]).unwrap();
        assert!(!p.is_cached(1), "write alone must not warm the pool");
        assert_eq!(p.read(1).unwrap()[0], 7);
    }

    #[test]
    fn cold_pagers_start_with_an_empty_private_cache() {
        let hub = SharedDevice::new(Box::new(device_with_pages(2)));
        let mut p = hub.cold_pager(2);
        p.read(0).unwrap();
        p.read(0).unwrap();
        let mut q = hub.cold_pager(2);
        q.read(0).unwrap();
        assert_eq!((p.stats().total_reads(), p.stats().cache_hits), (1, 1));
        assert_eq!((q.stats().total_reads(), q.stats().random_reads), (1, 1));
    }

    #[test]
    fn out_of_bounds_propagates() {
        let mut p = pager_with_pages(1, 1);
        assert!(p.read(7).is_err());
    }

    #[test]
    fn prefetch_is_a_no_op_without_a_window() {
        let mut p = pager_with_pages(4, 4);
        assert_eq!(p.readahead(), 0, "owned cache");
        p.prefetch(0, 4).unwrap();
        assert_eq!(p.stats(), IoStats::default());
        assert!(!p.is_cached(0));
    }

    #[test]
    fn prefetch_skips_resident_pages_and_clamps_to_device_end() {
        let (mut p, _cache) = shared_pager(3, 4, 8);
        p.read(1).unwrap();
        p.prefetch(0, 8).unwrap();
        let s = p.stats();
        // Page 1 was resident; pages 0 and 2 fetched; nothing past page 2.
        assert_eq!(s.total_reads(), 3);
        assert_eq!(s.prefetched, 2);
        assert!(p.is_cached(0) && p.is_cached(2));
    }

    #[test]
    fn shared_pager_attaches_and_inherits_readahead() {
        let (p, _cache) = shared_pager(4, 4, 2);
        assert_eq!(p.readahead(), 2, "only a hub cache has readahead");
    }

    #[test]
    fn shared_cache_hits_span_pagers() {
        let cache = Arc::new(PageCache::new(8));
        let hub = SharedDevice::with_cache(Box::new(device_with_pages(4)), cache.clone());
        let handle = hub.clone();
        let mut a = Pager::new(Box::new(hub), 8);
        let mut b = Pager::new(Box::new(handle), 8);
        assert_eq!(a.read(2).unwrap()[0], 2);
        assert_eq!(b.read(2).unwrap()[0], 2, "b reuses a's fetch");
        assert_eq!(a.stats().total_reads(), 1);
        assert_eq!(b.stats().total_reads(), 0);
        assert_eq!(b.stats().cache_hits, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn prefetch_fills_cache_and_counts_prefetch_hits_once_per_page() {
        let (mut p, cache) = shared_pager(8, 8, 4);
        p.prefetch(0, 8).unwrap();
        let s = p.stats();
        assert_eq!(s.total_reads(), 4, "window caps the prefetch");
        assert_eq!(s.prefetched, 4);
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.seq_reads, 3, "prefetch run is sequential");
        for i in 0..4 {
            assert_eq!(p.read(i).unwrap()[0], i as u8);
        }
        let s = p.stats();
        assert_eq!(s.total_reads(), 4, "scan served from the cache");
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.prefetch_hits, 4);
        assert_eq!(cache.stats().prefetch_hits, 4);
        // A second touch of a prefetched page is a plain hit.
        p.read(0).unwrap();
        assert_eq!(p.stats().prefetch_hits, 4, "flag cleared on first hit");
        assert_eq!(p.stats().cache_hits, 5);
    }

    #[test]
    fn cold_pagers_keep_shared_residency() {
        let cache = Arc::new(PageCache::new(4));
        let hub = SharedDevice::with_cache(Box::new(device_with_pages(4)), cache.clone());
        hub.cold_pager(4).read(0).unwrap();
        let mut p = hub.cold_pager(4);
        assert!(p.is_cached(0), "shared residency survives query boundary");
        p.read(0).unwrap();
        assert_eq!(p.stats().total_reads(), 0);
        assert_eq!(p.stats().cache_hits, 1);
        cache.invalidate_all();
        assert!(!p.is_cached(0));
    }

    #[test]
    fn shared_write_through_is_coherent() {
        let (mut p, _cache) = shared_pager(2, 4, 0);
        assert_eq!(p.read(0).unwrap()[0], 0);
        p.write(0, &[9, 9]).unwrap();
        assert_eq!(p.read(0).unwrap()[0], 9);
        assert_eq!(p.stats().total_reads(), 1, "served from updated cache");
    }
}
