//! Multi-handle access to one block device, with exact per-handle IO
//! accounting.
//!
//! Concurrent query serving needs many reader threads over *one* sealed
//! index image. Sharing the raw device would wreck the paper's cost model:
//! the sequential/random classification keys on the previous access of the
//! *stream*, so interleaved readers would turn each other's sequential
//! scans into random seeks and per-query counters would depend on thread
//! scheduling. [`SharedDevice`] splits the two concerns:
//!
//! * the **hub** — the real device behind an `Arc<Mutex<…>>` — carries the
//!   bytes; every handle reads and writes the same pages;
//! * each **handle** carries its own [`IoTracker`], so classification and
//!   counters reflect only that handle's access stream, exactly as if it
//!   had the device to itself.
//!
//! A query evaluated on a fresh handle therefore counts *identical* IO to
//! the same query on a private device, no matter how many other threads are
//! reading concurrently — which is what lets the concurrent serving path
//! report the same per-query counted IO as the single-threaded harness.
//!
//! ## One cache per hub
//!
//! A hub may additionally carry a shared [`PageCache`]
//! ([`SharedDevice::with_cache`]). Every handle advertises it through
//! [`BlockDevice::shared_cache`], so every [`Pager`] built over a handle —
//! each query's cold context on an index image ([`SharedDevice::cold_pager`])
//! — attaches to the *same* residency automatically. The cache
//! carries bytes only; accounting stays per handle: a cache hit is noted on
//! the handle's private tracker ([`IoStats::cache_hits`], plus the new
//! prefetch fields) and never disturbs the sequential/random classification
//! of the reads the handle does issue. Writes through any handle update the
//! cached copy in place, so no handle can observe a stale page. Hubs built
//! by [`SharedDevice::new`] carry no cache — that is the default, and it is
//! what keeps the paper's cold-cache counters the regression-gated tier.

use crate::cache::PageCache;
use crate::device::{BlockDevice, PageId};
use crate::iostats::{IoStats, IoTracker};
use crate::pager::Pager;
use reach_core::IndexError;
use std::sync::{Arc, Mutex};

/// A cloneable handle on a shared block device.
///
/// All handles see the same pages; each handle keeps private IO counters
/// (see the module docs). [`SharedDevice::clone`] yields a fresh handle
/// with zeroed counters and no head position — the state a private device
/// has right after [`BlockDevice::reset_stats`].
#[derive(Debug)]
pub struct SharedDevice {
    hub: Arc<Mutex<Box<dyn BlockDevice>>>,
    cache: Option<Arc<PageCache>>,
    tracker: IoTracker,
    backend: &'static str,
    page_size: usize,
}

impl SharedDevice {
    /// Wraps a device for shared access and returns the first handle.
    /// No cache: pagers over the handles keep their own private caches.
    pub fn new(inner: Box<dyn BlockDevice>) -> Self {
        Self::assemble(inner, None)
    }

    /// Wraps a device for shared access with a hub-wide [`PageCache`]:
    /// every pager built over any handle of this hub shares residency (see
    /// the module docs).
    pub fn with_cache(inner: Box<dyn BlockDevice>, cache: Arc<PageCache>) -> Self {
        Self::assemble(inner, Some(cache))
    }

    fn assemble(inner: Box<dyn BlockDevice>, cache: Option<Arc<PageCache>>) -> Self {
        let backend = inner.backend();
        let page_size = inner.page_size();
        Self {
            hub: Arc::new(Mutex::new(inner)),
            cache,
            tracker: IoTracker::new(),
            backend,
            page_size,
        }
    }

    /// The hub an index image keeps: a fresh handle on `device`'s hub when
    /// `device` is already a handle (so a hub cache stays attached), or a
    /// new cache-less hub around it.
    pub fn share(device: Box<dyn BlockDevice>) -> Self {
        match device.as_shared() {
            Some(handle) => handle.clone(),
            None => Self::new(device),
        }
    }

    /// A pager on a fresh handle: zeroed counters, no head position, and
    /// an empty private cache of `cache_pages` pages unless the hub
    /// carries a shared one. This is the cold start every query of an
    /// index image opens (see [`Pager::new`]).
    pub fn cold_pager(&self, cache_pages: usize) -> Pager {
        Pager::new(Box::new(self.clone()), cache_pages)
    }

    /// The hub-wide page cache, if this hub carries one.
    pub fn cache(&self) -> Option<&Arc<PageCache>> {
        self.cache.as_ref()
    }

    /// Number of handles alive on this hub (including this one).
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.hub)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn BlockDevice>> {
        self.hub.lock().expect("shared device lock poisoned")
    }
}

impl Clone for SharedDevice {
    /// A fresh handle on the same pages, with zeroed private counters.
    fn clone(&self) -> Self {
        Self {
            hub: Arc::clone(&self.hub),
            cache: self.cache.clone(),
            tracker: IoTracker::new(),
            backend: self.backend,
            page_size: self.page_size,
        }
    }
}

impl BlockDevice for SharedDevice {
    fn backend(&self) -> &'static str {
        self.backend
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn len_pages(&self) -> u64 {
        self.lock().len_pages()
    }

    fn allocate(&mut self, n: usize) -> Result<PageId, IndexError> {
        self.lock().allocate(n)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), IndexError> {
        self.lock().write_page(id, data)?;
        // Keep the shared residency coherent: a resident copy of the page is
        // rewritten in place, so no handle's pager can serve stale bytes.
        if let Some(cache) = &self.cache {
            cache.update(id, data, self.page_size);
        }
        self.tracker.note_write(id);
        Ok(())
    }

    fn read_page_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), IndexError> {
        self.lock().read_page_into(id, buf)?;
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

    fn shared_cache(&self) -> Option<Arc<PageCache>> {
        self.cache.clone()
    }

    fn as_shared(&self) -> Option<&SharedDevice> {
        Some(self)
    }

    fn sync(&mut self) -> Result<(), IndexError> {
        self.lock().sync()
    }

    fn size_bytes(&self) -> u64 {
        self.lock().size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDevice;

    fn shared(pages: usize) -> SharedDevice {
        let mut inner = SimDevice::new(128);
        inner.allocate(pages).unwrap();
        inner.reset_stats();
        SharedDevice::new(Box::new(inner))
    }

    #[test]
    fn handles_see_the_same_pages() {
        let mut a = shared(4);
        let mut b = a.clone();
        a.write_page(2, b"hello").unwrap();
        let mut buf = vec![0u8; 128];
        b.read_page_into(2, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(a.handles(), 2);
    }

    #[test]
    fn per_handle_classification_ignores_other_handles() {
        let mut a = shared(8);
        let mut b = a.clone();
        let mut buf = vec![0u8; 128];
        // Interleave two forward scans page by page: on a raw device each
        // access would break the other stream's sequence; per-handle
        // trackers must still see one random head seek + sequential tail.
        for p in 0..4u64 {
            a.read_page_into(p, &mut buf).unwrap();
            b.read_page_into(p, &mut buf).unwrap();
        }
        for handle in [&a, &b] {
            let s = handle.stats();
            assert_eq!(s.random_reads, 1);
            assert_eq!(s.seq_reads, 3);
        }
    }

    #[test]
    fn clone_starts_with_reset_counters() {
        let mut a = shared(2);
        let mut buf = vec![0u8; 128];
        a.read_page_into(0, &mut buf).unwrap();
        let b = a.clone();
        assert_eq!(b.stats(), IoStats::default());
        assert_eq!(a.stats().total_reads(), 1);
    }

    #[test]
    fn reset_is_local_to_the_handle() {
        let mut a = shared(2);
        let mut b = a.clone();
        let mut buf = vec![0u8; 128];
        a.read_page_into(0, &mut buf).unwrap();
        b.read_page_into(1, &mut buf).unwrap();
        a.reset_stats();
        assert_eq!(a.stats(), IoStats::default());
        assert_eq!(b.stats().total_reads(), 1);
    }

    #[test]
    fn handles_counts_only_live_clones() {
        let a = shared(1);
        let b = a.clone();
        assert_eq!((a.handles(), b.handles()), (2, 2));
        drop(b);
        assert_eq!(a.handles(), 1);
    }

    #[test]
    fn handles_share_the_hub_cache_and_writes_update_it() {
        let mut inner = SimDevice::new(128);
        inner.allocate(4).unwrap();
        inner.reset_stats();
        let cache = Arc::new(PageCache::new(4));
        let mut a = SharedDevice::with_cache(Box::new(inner), cache.clone());
        let b = a.clone();
        assert!(b.shared_cache().is_some(), "clones advertise the cache");
        cache.insert(2, b"stale");
        a.write_page(2, b"fresh").unwrap();
        let (bytes, _) = cache.lookup(2).expect("still resident");
        assert_eq!(&bytes[..5], b"fresh");
        assert!(bytes[5..].iter().all(|&x| x == 0), "tail zero-padded");
    }

    #[test]
    fn share_joins_an_existing_hub_and_keeps_its_cache() {
        let mut inner = SimDevice::new(128);
        inner.allocate(2).unwrap();
        let cache = Arc::new(PageCache::new(4));
        let hub = SharedDevice::with_cache(Box::new(inner), cache.clone());
        let joined = SharedDevice::share(Box::new(hub.clone()));
        assert_eq!(hub.handles(), 2, "no second hub wraps the handle");
        assert!(Arc::ptr_eq(joined.cache().expect("cache kept"), &cache));
        let fresh = SharedDevice::share(Box::new(SimDevice::new(128)));
        assert!(fresh.cache().is_none());
        assert_eq!(fresh.handles(), 1);
    }

    #[test]
    fn plain_hubs_advertise_no_cache() {
        let a = shared(1);
        assert!(a.shared_cache().is_none());
        assert!(a.cache().is_none());
    }

    #[test]
    fn shared_device_is_send_and_sync_capable() {
        fn assert_send<T: Send>() {}
        assert_send::<SharedDevice>();
        let mut a = shared(4);
        let mut b = a.clone();
        let t = std::thread::spawn(move || {
            let mut buf = vec![0u8; 128];
            for p in 0..4u64 {
                b.read_page_into(p, &mut buf).unwrap();
            }
            b.stats()
        });
        let mut buf = vec![0u8; 128];
        for p in 0..4u64 {
            a.read_page_into(p, &mut buf).unwrap();
        }
        let remote = t.join().unwrap();
        assert_eq!(remote.total_reads(), 4);
        assert_eq!(a.stats().total_reads(), 4);
        assert_eq!(a.stats().random_reads, 1, "classification stayed local");
    }
}
