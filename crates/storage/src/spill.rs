//! The spillable decoded-segment buffer behind memory-bounded index
//! construction.
//!
//! Building an index used to require the whole decoded DN in memory; the
//! external-memory design this crate follows (Brito et al., *A Dynamic Data
//! Structure for Representing Timed Transitive Closures on Disk*, 2023)
//! instead keeps a **bounded** working set of decoded segments and writes
//! cold ones back to scratch storage under pressure. [`SpillPool`] is that
//! working set:
//!
//! * values are *decoded* segments (a [`Spillable`] type), so hot-path
//!   access pays no codec cost;
//! * a [`BuildBudget`] caps the total resident bytes; exceeding it evicts
//!   the least-recently-used segments, encoding dirty ones onto a scratch
//!   [`BlockDevice`];
//! * scratch traffic is accounted on the scratch device's own [`IoStats`],
//!   kept strictly separate from the index device's counters — spill IO is
//!   a *construction* cost and must never pollute the paper's query-cost
//!   metrics (see [`SpillStats`]).
//!
//! Bookkeeping is `O(1)` per access. [`SpillPool::insert`] hands out dense
//! segment ids, so the slot table is a `Vec` indexed by id; resident
//! segments sit on an intrusive doubly-linked LRU list threaded through
//! that table (touch = unlink + append, victim = list head); and the
//! resident byte total is adjusted by each segment's change in
//! [`Spillable::resident_bytes`], which implementors keep `O(1)`.
//!
//! Spilled segments are written page-aligned with the standard
//! `[len][payload]` record framing, so a reload reads exactly the pages
//! [`read_record`](crate::read_record) would. A re-dirtied segment is
//! rewritten in place when its new encoding fits the pages it already
//! holds, and onto fresh pages otherwise; scratch pages are never freed
//! (the scratch device is a temporary, discarded after the build).

use crate::codec::{ByteReader, ByteWriter};
use crate::device::{BlockDevice, PageId};
use crate::iostats::IoStats;
use reach_core::IndexError;

/// Memory budget of one construction run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildBudget {
    /// Maximum bytes of decoded segments resident at once. The pool always
    /// keeps the segment being accessed resident, so a budget smaller than
    /// one segment degrades to "one segment at a time" rather than failing.
    pub max_resident_bytes: usize,
}

impl BuildBudget {
    /// A budget of `max_resident_bytes` bytes.
    pub fn bytes(max_resident_bytes: usize) -> Self {
        Self { max_resident_bytes }
    }

    /// No effective bound (nothing ever spills).
    pub fn unbounded() -> Self {
        Self {
            max_resident_bytes: usize::MAX,
        }
    }
}

/// A value the pool can encode to scratch pages and decode back.
///
/// `decode(encode(v))` must reproduce `v` exactly, and `resident_bytes`
/// must be a *deterministic* function of the value (it feeds the
/// budget accounting and the `peak_resident_bytes` counter reported to the
/// perf-regression gate, so it must not depend on allocator state). The
/// pool calls it after every [`SpillPool::update`], so it should be `O(1)`:
/// derive it from lengths, never by walking the contents.
pub trait Spillable: Sized {
    /// Approximate decoded in-memory size, in bytes.
    fn resident_bytes(&self) -> usize;
    /// Serializes the value.
    fn encode(&self, w: &mut ByteWriter);
    /// Deserializes a value previously written by [`Spillable::encode`].
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, IndexError>;
}

/// Counters of one pool's spill activity (see [`SpillPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segments encoded and written to scratch under memory pressure.
    pub spilled: u64,
    /// Segments read back and decoded from scratch.
    pub reloaded: u64,
    /// High-water mark of resident decoded bytes.
    pub peak_resident_bytes: u64,
    /// High-water mark of one segment's resident bytes. The pool makes
    /// room before a segment arrives, so `peak_resident_bytes` never
    /// exceeds the budget plus this.
    pub largest_segment_bytes: u64,
    /// Scratch-device page IO (classified seq/random like any device;
    /// strictly separate from the index device's counters).
    pub io: IoStats,
}

impl SpillStats {
    /// Total spill page IO (reads + writes) on the scratch device.
    pub fn total_pages(&self) -> u64 {
        self.io.total_reads() + self.io.total_writes()
    }
}

/// End of the LRU list.
const NIL: u32 = u32::MAX;

/// One segment's slot: its decoded value while resident, and where its
/// last encoding lives on scratch.
#[derive(Debug)]
struct Slot<V> {
    value: Option<V>,
    /// Resident bytes as last measured (0 while spilled).
    bytes: usize,
    /// The scratch copy, if any, still equals the value.
    clean: bool,
    /// First page and page count of the last encoding written.
    scratch: Option<(PageId, u32)>,
    /// LRU neighbours (towards the least / most recently used end).
    prev: u32,
    next: u32,
}

/// An LRU buffer of decoded segments with a byte budget and scratch
/// spill-through (see the module docs).
#[derive(Debug)]
pub struct SpillPool<V: Spillable> {
    device: Box<dyn BlockDevice>,
    budget: usize,
    slots: Vec<Slot<V>>,
    /// Least recently used resident segment (the next victim).
    head: u32,
    /// Most recently used resident segment.
    tail: u32,
    resident_bytes: usize,
    spilled: u64,
    reloaded: u64,
    peak_resident_bytes: u64,
    largest_segment_bytes: u64,
    /// Encoding buffer, reused by every spill.
    enc: ByteWriter,
    /// Page buffer, reused by every scratch read and write.
    page: Vec<u8>,
    /// Framed record bytes of the segment being reloaded.
    record: Vec<u8>,
}

impl<V: Spillable> SpillPool<V> {
    /// Creates a pool spilling to `scratch` when `budget` is exceeded. The
    /// scratch device should be empty; the pool allocates from its end.
    pub fn new(scratch: Box<dyn BlockDevice>, budget: BuildBudget) -> Self {
        let page_size = scratch.page_size();
        Self {
            device: scratch,
            budget: budget.max_resident_bytes,
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_bytes: 0,
            spilled: 0,
            reloaded: 0,
            peak_resident_bytes: 0,
            largest_segment_bytes: 0,
            enc: ByteWriter::new(),
            page: vec![0; page_size],
            record: Vec::new(),
        }
    }

    /// Number of segments tracked (resident + spilled).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool tracks no segments.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Spill counters so far.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            spilled: self.spilled,
            reloaded: self.reloaded,
            peak_resident_bytes: self.peak_resident_bytes,
            largest_segment_bytes: self.largest_segment_bytes,
            io: self.device.stats(),
        }
    }

    /// Adds `value` as a new resident, dirty segment and returns its id
    /// (ids are dense: the `n`-th insert returns `n`).
    pub fn insert(&mut self, value: V) -> Result<u32, IndexError> {
        let id = u32::try_from(self.slots.len()).expect("segment ids fit u32");
        assert!(id != NIL, "segment ids fit u32");
        let bytes = value.resident_bytes();
        self.make_room(bytes)?;
        self.slots.push(Slot {
            value: Some(value),
            bytes,
            clean: false,
            scratch: None,
            prev: NIL,
            next: NIL,
        });
        self.push_back(id);
        self.add_resident(bytes);
        Ok(id)
    }

    /// Read-only access to segment `id`. Errors if no such segment was
    /// inserted or scratch IO fails.
    pub fn read<R>(&mut self, id: u32, f: impl FnOnce(&V) -> R) -> Result<R, IndexError> {
        self.make_resident(id)?;
        let value = self.slots[id as usize].value.as_ref();
        Ok(f(value.expect("made resident")))
    }

    /// Mutable access to segment `id`, which is re-measured after `f` and
    /// marked dirty.
    pub fn update<R>(&mut self, id: u32, f: impl FnOnce(&mut V) -> R) -> Result<R, IndexError> {
        self.make_resident(id)?;
        let slot = &mut self.slots[id as usize];
        let value = slot.value.as_mut().expect("made resident");
        let out = f(value);
        let bytes = value.resident_bytes();
        self.resident_bytes = self.resident_bytes - slot.bytes + bytes;
        slot.bytes = bytes;
        slot.clean = false;
        self.largest_segment_bytes = self.largest_segment_bytes.max(bytes as u64);
        self.settle(id)?;
        Ok(out)
    }

    /// Makes `id` resident (reloading it from scratch if spilled) and most
    /// recently used.
    fn make_resident(&mut self, id: u32) -> Result<(), IndexError> {
        let Some(slot) = self.slots.get(id as usize) else {
            return Err(IndexError::Corrupt(format!(
                "spill pool has no segment {id}"
            )));
        };
        if slot.value.is_some() {
            if self.tail != id {
                self.unlink(id);
                self.push_back(id);
            }
            return Ok(());
        }
        let (first, _) = slot.scratch.expect("a spilled segment has a scratch copy");
        let value = self.read_segment(first)?;
        self.reloaded += 1;
        let bytes = value.resident_bytes();
        self.make_room(bytes)?;
        let slot = &mut self.slots[id as usize];
        slot.value = Some(value);
        slot.bytes = bytes;
        slot.clean = true;
        self.push_back(id);
        self.add_resident(bytes);
        Ok(())
    }

    /// Evicts least-recently-used segments until `incoming` more bytes fit
    /// the budget or nothing is left to evict. Making room *before* a
    /// segment arrives keeps the peak at most the budget plus the largest
    /// segment, however small the budget.
    fn make_room(&mut self, incoming: usize) -> Result<(), IndexError> {
        while self.head != NIL && self.resident_bytes.saturating_add(incoming) > self.budget {
            self.evict(self.head)?;
        }
        Ok(())
    }

    fn add_resident(&mut self, bytes: usize) {
        self.largest_segment_bytes = self.largest_segment_bytes.max(bytes as u64);
        self.resident_bytes += bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes as u64);
    }

    /// Records the peak after segment `pin` changed size, then evicts
    /// least-recently-used segments other than `pin` until the budget holds
    /// or only `pin` is resident.
    fn settle(&mut self, pin: u32) -> Result<(), IndexError> {
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes as u64);
        while self.resident_bytes > self.budget {
            let victim = if self.head == pin {
                self.slots[pin as usize].next
            } else {
                self.head
            };
            if victim == NIL {
                return Ok(()); // only the pinned segment is resident
            }
            self.evict(victim)?;
        }
        Ok(())
    }

    /// Spills resident segment `id`, writing it to scratch unless its
    /// scratch copy is current.
    fn evict(&mut self, id: u32) -> Result<(), IndexError> {
        self.unlink(id);
        let slot = &mut self.slots[id as usize];
        let value = slot.value.take().expect("victims are resident");
        self.resident_bytes -= slot.bytes;
        slot.bytes = 0;
        if slot.clean {
            return Ok(());
        }
        self.enc.clear();
        value.encode(&mut self.enc);
        self.spilled += 1;
        let at = self.write_segment(self.slots[id as usize].scratch)?;
        let slot = &mut self.slots[id as usize];
        slot.scratch = Some(at);
        slot.clean = true;
        Ok(())
    }

    /// Writes the encoded segment in `enc` page-aligned with `[len]`
    /// framing: over `previous` when it fits there, else onto fresh pages.
    fn write_segment(
        &mut self,
        previous: Option<(PageId, u32)>,
    ) -> Result<(PageId, u32), IndexError> {
        let page_size = self.page.len();
        let bytes = self.enc.as_bytes();
        let len = u32::try_from(bytes.len()).expect("segment fits u32");
        let pages = (4 + bytes.len()).div_ceil(page_size) as u32;
        let first = match previous {
            Some((first, held)) if pages <= held => first,
            _ => self.device.allocate(pages as usize)?,
        };
        let mut rest = bytes;
        for p in 0..u64::from(pages) {
            let mut n = 0;
            if p == 0 {
                self.page[..4].copy_from_slice(&len.to_le_bytes());
                n = 4;
            }
            let take = (page_size - n).min(rest.len());
            self.page[n..n + take].copy_from_slice(&rest[..take]);
            rest = &rest[take..];
            self.device.write_page(first + p, &self.page[..n + take])?;
        }
        Ok((first, pages))
    }

    /// Reads and decodes the segment framed at `first`.
    fn read_segment(&mut self, first: PageId) -> Result<V, IndexError> {
        self.device.break_sequence();
        self.record.clear();
        let mut page = first;
        loop {
            self.device.read_page_into(page, &mut self.page)?;
            self.record.extend_from_slice(&self.page);
            let len = u32::from_le_bytes(self.record[..4].try_into().expect("4 bytes")) as usize;
            if self.record.len() >= 4 + len {
                return V::decode(&mut ByteReader::new(&self.record[4..4 + len]));
            }
            page += 1;
        }
    }

    fn unlink(&mut self, id: u32) {
        let Slot { prev, next, .. } = self.slots[id as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_back(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = id,
            t => self.slots[t as usize].next = id,
        }
        self.tail = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDevice;

    /// Test segment: a vector of u32s.
    #[derive(Clone, Debug, PartialEq)]
    struct Seg(Vec<u32>);

    impl Spillable for Seg {
        fn resident_bytes(&self) -> usize {
            4 * self.0.len() + 24
        }
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u32_slice(&self.0);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, IndexError> {
            Ok(Seg(r.get_u32_vec()?))
        }
    }

    fn pool(budget: usize) -> SpillPool<Seg> {
        SpillPool::new(Box::new(SimDevice::new(128)), BuildBudget::bytes(budget))
    }

    fn filled(p: &mut SpillPool<Seg>, k: u32, n: u32) -> u32 {
        p.insert(Seg((0..n).map(|i| i + k).collect())).unwrap()
    }

    #[test]
    fn ids_are_dense() {
        let mut p = pool(usize::MAX);
        for k in 0..5 {
            assert_eq!(filled(&mut p, k, 3), k);
        }
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn unbounded_pool_never_spills() {
        let mut p = pool(usize::MAX);
        for k in 0..20 {
            filled(&mut p, k, 50);
        }
        for k in 0..20 {
            let len = p.read(k, |s| s.0.len()).unwrap();
            assert_eq!(len, 50);
        }
        let s = p.stats();
        assert_eq!((s.spilled, s.reloaded), (0, 0));
        assert_eq!(s.io, IoStats::default());
        assert_eq!(s.peak_resident_bytes, 20 * 224);
    }

    #[test]
    fn tight_budget_spills_and_reloads_exactly() {
        // Each segment is 224 bytes; a budget of 500 holds two.
        let mut p = pool(500);
        for k in 0..6 {
            filled(&mut p, k, 50);
        }
        let s = p.stats();
        assert_eq!(s.spilled, 4, "the four oldest segments spill");
        // 4 + 200 framed bytes over 128-byte pages: two pages each.
        assert_eq!(s.io.total_writes(), 8);
        // Everything reloads intact, two pages per reload.
        for k in 0..6 {
            let first = p.read(k, |s| s.0[0]).unwrap();
            assert_eq!(first, k);
        }
        let s = p.stats();
        assert_eq!(s.reloaded, 6);
        assert_eq!(s.io.total_reads(), 12);
        assert!(s.peak_resident_bytes <= 500);
        assert_eq!(s.largest_segment_bytes, 224);
    }

    #[test]
    fn dirty_resegments_rewrite_but_clean_reloads_do_not() {
        let mut p = pool(300);
        filled(&mut p, 0, 60);
        filled(&mut p, 1, 60); // spills 0
        assert_eq!(p.stats().spilled, 1);
        p.read(0, |_| ()).unwrap(); // reload 0, spilling 1
        p.read(1, |_| ()).unwrap(); // reload 1, spilling 0 again — clean, no rewrite
        let s = p.stats();
        assert_eq!(
            s.spilled, 2,
            "clean evictions must reuse the scratch copy (got {} spills)",
            s.spilled
        );
    }

    #[test]
    fn rewrites_reuse_their_pages_when_they_fit() {
        let mut p = pool(300);
        filled(&mut p, 0, 60);
        filled(&mut p, 1, 60); // spills 0 onto two pages
        let pages = p.device.len_pages();
        p.update(0, |s| s.0[0] = 99).unwrap(); // spills 1 onto two more
        p.read(1, |_| ()).unwrap(); // spills dirty 0 in place
        assert_eq!(p.device.len_pages(), pages + 2);
        p.update(0, |s| s.0.extend(0..40)).unwrap(); // outgrows its pages
        p.read(1, |_| ()).unwrap();
        assert_eq!(p.device.len_pages(), pages + 2 + 4);
        assert_eq!(p.read(0, |s| (s.0[0], s.0.len())).unwrap(), (99, 100));
    }

    #[test]
    fn lru_evicts_the_least_recently_touched() {
        let mut p = pool(3 * 64);
        for k in 0..3 {
            filled(&mut p, k, 10); // 64 bytes each: all three fit
        }
        p.read(0, |_| ()).unwrap(); // order now 1, 2, 0
        filled(&mut p, 3, 10); // evicts 1
        let s = p.stats();
        assert_eq!((s.spilled, s.reloaded), (1, 0));
        p.read(0, |_| ()).unwrap();
        p.read(2, |_| ()).unwrap();
        assert_eq!(p.stats().reloaded, 0, "0 and 2 stayed resident");
        p.read(1, |_| ()).unwrap();
        assert_eq!(p.stats().reloaded, 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut p = pool(10_000);
        filled(&mut p, 0, 100);
        let peak1 = p.stats().peak_resident_bytes;
        filled(&mut p, 1, 100);
        let peak2 = p.stats().peak_resident_bytes;
        assert!(peak2 > peak1);
    }

    #[test]
    fn missing_segment_is_an_error() {
        let mut p = pool(100);
        assert!(p.read(42, |_| ()).is_err());
        assert!(p.update(0, |_| ()).is_err());
    }

    #[test]
    fn budget_smaller_than_one_segment_still_works() {
        let mut p = pool(1);
        for k in 0..4 {
            filled(&mut p, k, 30);
        }
        for k in 0..4 {
            assert_eq!(p.read(k, |s| s.0.len()).unwrap(), 30);
        }
        let s = p.stats();
        assert!(s.spilled >= 3);
        assert_eq!(s.peak_resident_bytes, 144, "one segment at a time");
        assert_eq!(s.largest_segment_bytes, 144);
    }

    #[test]
    fn update_grows_accounting() {
        let mut p = pool(usize::MAX);
        let id = filled(&mut p, 0, 1);
        let before = p.stats().peak_resident_bytes;
        p.update(id, |s| s.0.extend(0..1000)).unwrap();
        assert_eq!(p.stats().peak_resident_bytes, before + 4000);
        assert_eq!(p.read(id, |s| s.0.len()).unwrap(), 1001);
    }
}
