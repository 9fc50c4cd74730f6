//! The page cache: the LRU page residency behind every caching [`Pager`](crate::Pager).
//!
//! It serves two uses. A pager built with a nonzero `cache_pages` on a
//! device without a hub cache owns a private *one-shard* cache — the
//! paper's per-query buffer (ReachGrid's chunk cells, §4.2; ReachGraph's
//! partitions, §5.2), emptied at query boundaries so each query pays its
//! own device IO. A production service instead amortizes repeated page
//! access *across* queries and serving threads: a
//! [`SharedDevice`](crate::SharedDevice) hub carries one sharded,
//! `Arc`-shareable [`PageCache`] that many pagers attach to at once and
//! that survives query boundaries.
//!
//! ## Design
//!
//! * **LRU** — each shard is a hash map plus an intrusive doubly-linked
//!   recency list with O(1) touch, insert and evict; a one-shard cache is
//!   therefore exact global LRU.
//! * **Sharding** — pages hash to one of a fixed set of shards
//!   (`page % shards`), each behind its own mutex, so concurrent readers
//!   rarely contend on one lock. Shard assignment is deterministic, which
//!   keeps eviction order — and therefore every warm-tier counter —
//!   reproducible for a deterministic access schedule.
//! * **Pinning by `Arc`** — [`PageCache::lookup`] hands back an
//!   `Arc<[u8]>` clone of the resident buffer. That clone *is* the pin: a
//!   reader can keep using the bytes while another thread evicts or
//!   invalidates the entry, because eviction only drops the cache's own
//!   reference.
//! * **Explicit invalidation** — [`PageCache::invalidate`] removes one
//!   page (write-through coherence), [`PageCache::invalidate_all`] empties
//!   the cache (epoch retirement: when a compaction commits a new sealed
//!   base, the superseded epoch's pages are dropped so the warm set never
//!   serves a stale base).
//! * **Prefetch bookkeeping** — entries remember whether readahead filled
//!   them; the first demand hit on such an entry counts as a
//!   *prefetch hit* (and clears the flag), so the warm-tier counters can
//!   separate "cache kept the page from an earlier query" from "readahead
//!   batched the fetch".
//!
//! Counters live in [`CacheStats`] as atomics; they are gauges of the
//! *cache*, complementary to the per-handle [`IoStats`](crate::IoStats)
//! classification which the cache never touches.

use crate::device::PageId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const NIL: usize = usize::MAX;

/// Cumulative counters of one [`PageCache`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Demand lookups served from residency (excluding prefetch hits).
    pub hits: u64,
    /// Demand lookups that missed the cache.
    pub misses: u64,
    /// Pages filled by readahead prefetch.
    pub prefetched: u64,
    /// First demand hits on prefetched pages (the readahead payoff).
    pub prefetch_hits: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// All lookups served from residency.
    pub fn total_hits(&self) -> u64 {
        self.hits + self.prefetch_hits
    }

    /// Fraction of lookups served from residency (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct AtomicCacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    prefetched: AtomicU64,
    prefetch_hits: AtomicU64,
    evictions: AtomicU64,
}

/// One cached page: the shared buffer plus LRU links and the prefetch flag.
#[derive(Debug)]
struct Slot {
    page: PageId,
    data: Arc<[u8]>,
    prefetched: bool,
    prev: usize,
    next: usize,
}

/// One shard: an intrusive-list LRU over `Arc<[u8]>` pages.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    free: Vec<usize>,
    map: HashMap<PageId, usize>,
    head: usize,
    tail: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            ..Self::default()
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Inserts or refreshes; returns whether an entry was evicted.
    fn insert(&mut self, page: PageId, data: Arc<[u8]>, prefetched: bool, cap: usize) -> bool {
        if let Some(&i) = self.map.get(&page) {
            self.slots[i].data = data;
            self.slots[i].prefetched = prefetched;
            self.touch(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= cap {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old = self.slots[victim].page;
            self.map.remove(&old);
            self.free.push(victim);
            evicted = true;
        }
        let slot = Slot {
            page,
            data,
            prefetched,
            prev: NIL,
            next: NIL,
        };
        let i = if let Some(i) = self.free.pop() {
            self.slots[i] = slot;
            i
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.map.insert(page, i);
        self.push_front(i);
        evicted
    }

    fn remove(&mut self, page: PageId) {
        if let Some(i) = self.map.remove(&page) {
            self.unlink(i);
            self.free.push(i);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A sharded, `Arc`-shareable page cache (see the module docs).
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard capacity in pages.
    shard_cap: usize,
    /// Readahead window advertised to attaching pagers (pages per batch;
    /// 0 disables prefetch).
    readahead: usize,
    stats: AtomicCacheStats,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("readahead", &self.readahead)
            .field("len", &self.len())
            .finish()
    }
}

impl PageCache {
    /// A cache holding at most (approximately) `capacity_pages` pages,
    /// spread over up to 8 shards. Capacity below the shard count is
    /// rounded up to one page per shard.
    pub fn new(capacity_pages: usize) -> Self {
        let capacity_pages = capacity_pages.max(1);
        let shards = capacity_pages.min(8);
        let shard_cap = capacity_pages.div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_cap,
            readahead: 0,
            stats: AtomicCacheStats::default(),
        }
    }

    /// A one-shard cache of exactly `capacity_pages` (nonzero) pages with
    /// no readahead: a pager's private per-query buffer, in global LRU
    /// order. Every query opens one, so its tables are sized up front
    /// instead of growing page by page.
    pub(crate) fn private(capacity_pages: usize) -> Self {
        debug_assert!(capacity_pages > 0, "a private cache needs capacity");
        let shard = Shard {
            slots: Vec::with_capacity(capacity_pages),
            map: HashMap::with_capacity(capacity_pages),
            ..Shard::new()
        };
        Self {
            shards: vec![Mutex::new(shard)],
            shard_cap: capacity_pages,
            readahead: 0,
            stats: AtomicCacheStats::default(),
        }
    }

    /// Returns the cache with a readahead window: pagers attached to it
    /// prefetch up to this many pages per sequential-scan batch.
    pub fn with_readahead(mut self, window: usize) -> Self {
        self.readahead = window;
        self
    }

    /// The advertised readahead window (pages per batch; 0 = off).
    pub fn readahead(&self) -> usize {
        self.readahead
    }

    /// Maximum resident pages (shard capacity × shard count).
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("page cache shard poisoned").map.len())
            .sum()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, page: PageId) -> &Mutex<Shard> {
        &self.shards[(page % self.shards.len() as u64) as usize]
    }

    /// Demand lookup: on a hit returns the pinned page (an `Arc` clone —
    /// usable even after eviction) and whether this was the first hit on a
    /// readahead-filled entry. Counts a hit/prefetch-hit/miss.
    pub fn lookup(&self, page: PageId) -> Option<(Arc<[u8]>, bool)> {
        let mut shard = self.shard(page).lock().expect("page cache shard poisoned");
        match shard.map.get(&page).copied() {
            Some(i) => {
                let was_prefetched = std::mem::take(&mut shard.slots[i].prefetched);
                shard.touch(i);
                let data = Arc::clone(&shard.slots[i].data);
                drop(shard);
                if was_prefetched {
                    self.stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                }
                Some((data, was_prefetched))
            }
            None => {
                drop(shard);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether the page is resident (no recency side effect, no counter).
    pub fn contains(&self, page: PageId) -> bool {
        self.shard(page)
            .lock()
            .expect("page cache shard poisoned")
            .map
            .contains_key(&page)
    }

    /// Inserts a demand-fetched page.
    pub fn insert(&self, page: PageId, data: &[u8]) {
        self.insert_inner(page, data, false);
    }

    /// Inserts a readahead-fetched page (its first demand hit counts as a
    /// prefetch hit).
    pub fn insert_prefetched(&self, page: PageId, data: &[u8]) {
        self.insert_inner(page, data, true);
        self.stats.prefetched.fetch_add(1, Ordering::Relaxed);
    }

    fn insert_inner(&self, page: PageId, data: &[u8], prefetched: bool) {
        let evicted = self
            .shard(page)
            .lock()
            .expect("page cache shard poisoned")
            .insert(page, data.into(), prefetched, self.shard_cap);
        if evicted {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Write-through update: if the page is resident, replace its bytes in
    /// place (zero-padding `data` to `page_size`, matching
    /// [`BlockDevice::write_page`](crate::BlockDevice::write_page)
    /// semantics). Non-resident pages are left alone — a write does not
    /// *populate* the cache.
    pub fn update(&self, page: PageId, data: &[u8], page_size: usize) {
        let mut shard = self.shard(page).lock().expect("page cache shard poisoned");
        if let Some(&i) = shard.map.get(&page) {
            let mut full = vec![0u8; page_size];
            full[..data.len()].copy_from_slice(data);
            shard.slots[i].data = full.into();
            shard.slots[i].prefetched = false;
        }
    }

    /// Drops one page (explicit invalidation).
    pub fn invalidate(&self, page: PageId) {
        self.shard(page)
            .lock()
            .expect("page cache shard poisoned")
            .remove(page);
    }

    /// Drops every resident page (epoch retirement — pinned readers keep
    /// their `Arc`s; only the cache's references go).
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            shard.lock().expect("page cache shard poisoned").clear();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            prefetched: self.stats.prefetched.load(Ordering::Relaxed),
            prefetch_hits: self.stats.prefetch_hits.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_after_insert() {
        let c = PageCache::new(4);
        assert!(c.lookup(1).is_none());
        c.insert(1, b"one");
        let (data, was_prefetched) = c.lookup(1).expect("resident");
        assert_eq!(&data[..], b"one");
        assert!(!was_prefetched);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefetched_entries_count_one_prefetch_hit_then_plain_hits() {
        let c = PageCache::new(4);
        c.insert_prefetched(7, b"p");
        assert_eq!(c.stats().prefetched, 1);
        let (_, first) = c.lookup(7).expect("resident");
        assert!(first, "first hit is the prefetch payoff");
        let (_, second) = c.lookup(7).expect("still resident");
        assert!(!second, "flag clears after the first hit");
        let s = c.stats();
        assert_eq!((s.hits, s.prefetch_hits), (1, 1));
        assert_eq!(s.total_hits(), 2);
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        // Capacity 1 → one shard of one page.
        let c = PageCache::new(1);
        c.insert(0, b"a");
        c.insert(8, b"b"); // same shard (anything % 1 == 0), evicts 0
        assert!(c.lookup(0).is_none());
        assert_eq!(&c.lookup(8).expect("resident").0[..], b"b");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn one_shard_evicts_least_recently_used() {
        let c = PageCache::private(2);
        c.insert(1, b"1");
        c.insert(2, b"2");
        assert!(c.lookup(1).is_some()); // 1 is now MRU
        c.insert(3, b"3");
        assert!(!c.contains(2), "2 was LRU");
        assert!(c.contains(1) && c.contains(3));
        assert_eq!((c.len(), c.stats().evictions), (2, 1));
    }

    #[test]
    fn one_shard_reinsert_refreshes_contents_and_recency() {
        let c = PageCache::private(2);
        c.insert(1, b"old");
        c.insert(2, b"2");
        c.insert(1, b"new"); // refresh, no eviction
        assert_eq!((c.len(), c.stats().evictions), (2, 0));
        c.insert(3, b"3");
        assert!(!c.contains(2), "1 was refreshed, 2 is LRU");
        assert_eq!(&c.lookup(1).expect("resident").0[..], b"new");
    }

    #[test]
    fn one_shard_remove_then_reuse_slot() {
        let c = PageCache::private(3);
        c.insert(1, b"1");
        c.insert(2, b"2");
        c.invalidate(1);
        assert!(c.lookup(1).is_none());
        c.insert(3, b"3");
        c.insert(4, b"4");
        assert_eq!((c.len(), c.stats().evictions), (3, 0));
        assert!(c.contains(2) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn one_shard_clear_then_reuse() {
        let c = PageCache::private(2);
        c.insert(1, b"1");
        c.invalidate_all();
        assert!(c.is_empty());
        assert!(c.lookup(1).is_none());
        c.insert(1, b"again");
        assert_eq!(&c.lookup(1).expect("resident").0[..], b"again");
    }

    #[test]
    fn one_shard_of_capacity_one() {
        let c = PageCache::private(1);
        assert_eq!((c.capacity(), c.readahead()), (1, 0));
        c.insert(1, b"1");
        c.insert(2, b"2");
        assert!(!c.contains(1));
        c.insert(3, b"3");
        assert!(!c.contains(2));
        assert!(c.lookup(3).is_some());
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn one_shard_long_run_never_exceeds_capacity() {
        let c = PageCache::private(7);
        for i in 0..1000u64 {
            c.insert(i % 23, &i.to_le_bytes());
            assert!(c.len() <= 7);
            // Sanity: MRU is always retrievable.
            assert!(c.lookup(i % 23).is_some());
        }
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        let c = PageCache::new(1);
        c.insert(0, b"pinned");
        let (pin, _) = c.lookup(0).expect("resident");
        c.insert(8, b"evictor");
        assert!(c.lookup(0).is_none(), "evicted from the cache");
        assert_eq!(&pin[..], b"pinned", "the pin keeps the bytes alive");
    }

    #[test]
    fn update_rewrites_resident_pages_only() {
        let c = PageCache::new(4);
        c.insert(2, &[1u8; 8]);
        c.update(2, &[9u8, 9], 8);
        let (data, _) = c.lookup(2).expect("resident");
        assert_eq!(&data[..], &[9, 9, 0, 0, 0, 0, 0, 0], "zero-padded");
        c.update(3, b"xx", 8);
        assert!(!c.contains(3), "updates never populate");
    }

    #[test]
    fn invalidate_drops_one_page_and_invalidate_all_empties() {
        let c = PageCache::new(16);
        for p in 0..10u64 {
            c.insert(p, &[p as u8]);
        }
        assert_eq!(c.len(), 10);
        c.invalidate(3);
        assert!(!c.contains(3));
        assert_eq!(c.len(), 9);
        c.invalidate_all();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_spread_over_shards() {
        let c = PageCache::new(16);
        assert!(c.capacity() >= 16);
        for p in 0..64u64 {
            c.insert(p, &[0u8; 4]);
        }
        assert!(c.len() <= c.capacity());
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(PageCache::new(64).with_readahead(4));
        assert_eq!(c.readahead(), 4);
        let writer = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            for p in 0..32u64 {
                writer.insert(p, &p.to_le_bytes());
            }
        });
        t.join().unwrap();
        for p in 0..32u64 {
            let (data, _) = c.lookup(p).expect("resident");
            assert_eq!(&data[..], &p.to_le_bytes());
        }
        assert_eq!(c.stats().hits, 32);
    }
}
