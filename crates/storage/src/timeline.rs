//! The on-device timeline region shared by the disk-resident indexes.
//!
//! Both ReachGraph and disk-adopted GRAIL answer "which vertex holds object
//! `o` at tick `t`" (the paper's `Ht` lookup) through the same physical
//! structure: every object's `(start_tick, node)` runs packed densely as
//! fixed 8-byte entries in object-id order, probed by binary search through
//! the pager. The layout and its IO accounting live here, in one place, so
//! the two consumers cannot drift apart — the backend-equivalence guarantees
//! depend on them staying byte-identical.

use crate::device::{BlockDevice, PageId};
use crate::pager::Pager;
use reach_core::{IndexError, ObjectId, Time};

/// A dense fixed-width `(start_tick, node)` region plus its in-memory
/// directory (`(first entry index, count)` per object).
#[derive(Clone, Debug)]
pub struct TimelineRegion {
    first_page: PageId,
    index: Vec<(u64, u32)>,
    entries_per_page: usize,
}

impl TimelineRegion {
    /// Encoded size of one `(start_tick, node)` entry.
    pub const ENTRY_BYTES: usize = 8;

    /// Writes one region holding every object's timeline, in object-id
    /// order, onto freshly allocated pages of `disk`.
    pub fn build(
        disk: &mut dyn BlockDevice,
        timelines: &[&[(Time, u32)]],
    ) -> Result<Self, IndexError> {
        let total: u64 = timelines.iter().map(|tl| tl.len() as u64).sum();
        Self::build_streamed(disk, timelines.len(), total, |o, out| {
            out.clear();
            out.extend_from_slice(timelines[o as usize]);
        })
    }

    /// [`TimelineRegion::build`] without a materialized timeline table:
    /// `fetch(o, out)` fills one object's `(start_tick, node)` runs at a
    /// time, and `total_entries` (the exact sum of all run counts) sizes the
    /// region up front. Writes byte-identical pages to
    /// [`TimelineRegion::build`] — this is the streaming construction path,
    /// where timelines come from a spill pool instead of resident vectors.
    pub fn build_streamed(
        disk: &mut dyn BlockDevice,
        num_objects: usize,
        total_entries: u64,
        mut fetch: impl FnMut(u32, &mut Vec<(Time, u32)>),
    ) -> Result<Self, IndexError> {
        let page_size = disk.page_size();
        let entries_per_page = page_size / Self::ENTRY_BYTES;
        let pages = total_entries.div_ceil(entries_per_page as u64).max(1);
        let first_page = disk.allocate(pages as usize)?;
        let mut index = Vec::with_capacity(num_objects);
        let mut buf = vec![0u8; page_size];
        let mut cur_page = 0u64;
        let mut entry_idx = 0u64;
        let mut tl: Vec<(Time, u32)> = Vec::new();
        for o in 0..num_objects as u32 {
            fetch(o, &mut tl);
            index.push((entry_idx, tl.len() as u32));
            for &(t, node) in &tl {
                let page = entry_idx / entries_per_page as u64;
                if page != cur_page {
                    disk.write_page(first_page + cur_page, &buf)?;
                    buf.fill(0);
                    cur_page = page;
                }
                let off = (entry_idx % entries_per_page as u64) as usize * Self::ENTRY_BYTES;
                buf[off..off + 4].copy_from_slice(&t.to_le_bytes());
                buf[off + 4..off + 8].copy_from_slice(&node.to_le_bytes());
                entry_idx += 1;
            }
        }
        debug_assert_eq!(
            entry_idx, total_entries,
            "declared total_entries must match the fetched entries"
        );
        disk.write_page(first_page + cur_page, &buf)?;
        Ok(Self {
            first_page,
            index,
            entries_per_page,
        })
    }

    /// Reassembles a region from persisted geometry (the reopen path; the
    /// caller recovers `first_page` and `index` from its metadata footer).
    pub fn from_parts(first_page: PageId, index: Vec<(u64, u32)>, page_size: usize) -> Self {
        Self {
            first_page,
            index,
            entries_per_page: page_size / Self::ENTRY_BYTES,
        }
    }

    /// First page of the region.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Per-object `(first entry index, count)` directory.
    pub fn index(&self) -> &[(u64, u32)] {
        &self.index
    }

    fn read_entry(&self, pager: &mut Pager, idx: u64) -> Result<(Time, u32), IndexError> {
        let page = self.first_page + idx / self.entries_per_page as u64;
        let off = (idx % self.entries_per_page as u64) as usize * Self::ENTRY_BYTES;
        pager.with_page(page, |bytes| {
            (
                u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]),
                u32::from_le_bytes([
                    bytes[off + 4],
                    bytes[off + 5],
                    bytes[off + 6],
                    bytes[off + 7],
                ]),
            )
        })
    }

    /// Replaces `out` with object `o`'s complete `(start_tick, node)` run
    /// list, in ascending tick order — the read that lets a sealed index
    /// *re-stream* its DN (live compaction, frontier reconstruction).
    /// Entries are packed densely, so the scan is sequential on the device
    /// apart from the first page of the object's range.
    pub fn timeline_into(
        &self,
        pager: &mut Pager,
        o: ObjectId,
        out: &mut Vec<(Time, u32)>,
    ) -> Result<(), IndexError> {
        let &(first, count) = self
            .index
            .get(o.index())
            .ok_or(IndexError::UnknownObject(o))?;
        out.clear();
        out.reserve(count as usize);
        if count > 0 {
            // The object's entries span a known page range; with readahead
            // enabled, pull a window in ahead of the dense scan below.
            let first_page = self.first_page + first / self.entries_per_page as u64;
            let last_page =
                self.first_page + (first + u64::from(count) - 1) / self.entries_per_page as u64;
            pager.prefetch(first_page, (last_page - first_page + 1) as usize)?;
        }
        for i in 0..u64::from(count) {
            out.push(self.read_entry(pager, first + i)?);
        }
        Ok(())
    }

    /// Total `(start_tick, node)` entries over all objects.
    pub fn total_entries(&self) -> u64 {
        self.index.iter().map(|&(_, count)| u64::from(count)).sum()
    }

    /// The node containing `o` at tick `t`: binary search over the object's
    /// on-device run entries. Each probe touches exactly one page and rides
    /// the zero-copy [`Pager::with_page`] path; a probe of the page the
    /// previous one read is a hit (on the cache, or on a cacheless pager's
    /// one-page read buffer), so a lookup pays one device read for each
    /// distinct page it probes, not one for each probe.
    pub fn node_of(&self, pager: &mut Pager, o: ObjectId, t: Time) -> Result<u32, IndexError> {
        let &(first, count) = self
            .index
            .get(o.index())
            .ok_or(IndexError::UnknownObject(o))?;
        // Invariant: entry[lo].start ≤ t < entry[hi].start.
        let (mut lo, mut hi) = (0u64, u64::from(count));
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            let (start, _) = self.read_entry(pager, first + mid)?;
            if start <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(self.read_entry(pager, first + lo)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDevice;

    fn region_with(
        timelines: &[&[(Time, u32)]],
        page_size: usize,
        cache: usize,
    ) -> (TimelineRegion, Pager) {
        let mut disk = SimDevice::new(page_size);
        let region = TimelineRegion::build(&mut disk, timelines).unwrap();
        disk.reset_stats();
        (region, Pager::new(Box::new(disk), cache))
    }

    #[test]
    fn lookups_resolve_the_covering_run() {
        let o0: &[(Time, u32)] = &[(0, 10), (5, 11), (9, 12)];
        let o1: &[(Time, u32)] = &[(0, 20), (3, 21)];
        let (region, mut pager) = region_with(&[o0, o1], 64, 4);
        assert_eq!(region.node_of(&mut pager, ObjectId(0), 0).unwrap(), 10);
        assert_eq!(region.node_of(&mut pager, ObjectId(0), 4).unwrap(), 10);
        assert_eq!(region.node_of(&mut pager, ObjectId(0), 5).unwrap(), 11);
        assert_eq!(region.node_of(&mut pager, ObjectId(0), 100).unwrap(), 12);
        assert_eq!(region.node_of(&mut pager, ObjectId(1), 2).unwrap(), 20);
        assert_eq!(region.node_of(&mut pager, ObjectId(1), 3).unwrap(), 21);
    }

    #[test]
    fn a_lookup_within_one_page_charges_one_device_read() {
        // 64 B pages hold 8 entries: o0 fills page 0, o1 spans pages 1-2.
        let o0: Vec<(Time, u32)> = (0..8).map(|i| (i * 4, i)).collect();
        let o1: Vec<(Time, u32)> = (0..12).map(|i| (i * 4, 100 + i)).collect();
        let (region, mut pager) = region_with(&[&o0, &o1], 64, 0);
        assert_eq!(region.node_of(&mut pager, ObjectId(0), 21).unwrap(), 5);
        let s = pager.stats();
        // Three probes and the final read, all on page 0.
        assert_eq!((s.total_reads(), s.cache_hits), (1, 3));
        pager.device_mut().reset_stats();
        assert_eq!(region.node_of(&mut pager, ObjectId(1), 45).unwrap(), 111);
        let s = pager.stats();
        // Probes of o1's entries 6, 9, 10 and 11, then the final read of
        // entry 11: page 1 once, page 2 four times.
        assert_eq!((s.total_reads(), s.cache_hits), (2, 3));
    }

    #[test]
    fn unknown_objects_error() {
        let o0: &[(Time, u32)] = &[(0, 1)];
        let (region, mut pager) = region_with(&[o0], 64, 4);
        assert!(matches!(
            region.node_of(&mut pager, ObjectId(9), 0),
            Err(IndexError::UnknownObject(ObjectId(9)))
        ));
    }

    #[test]
    fn timeline_into_reads_back_whole_runs() {
        let o0: &[(Time, u32)] = &[(0, 10), (5, 11), (9, 12)];
        let o1: &[(Time, u32)] = &[(0, 20)];
        let o2: &[(Time, u32)] = &[];
        let (region, mut pager) = region_with(&[o0, o1, o2], 64, 4);
        assert_eq!(region.total_entries(), 4);
        let mut out = vec![(9, 9)];
        region
            .timeline_into(&mut pager, ObjectId(0), &mut out)
            .unwrap();
        assert_eq!(out.as_slice(), o0);
        region
            .timeline_into(&mut pager, ObjectId(2), &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert!(matches!(
            region.timeline_into(&mut pager, ObjectId(9), &mut out),
            Err(IndexError::UnknownObject(_))
        ));
    }

    #[test]
    fn region_spans_pages_and_reopens_from_parts() {
        // 64 B pages hold 8 entries; 20 entries span 3 pages.
        let tl: Vec<(Time, u32)> = (0..20).map(|i| (i * 3, 100 + i)).collect();
        let (region, mut pager) = region_with(&[&tl], 64, 4);
        for (i, &(start, node)) in tl.iter().enumerate() {
            assert_eq!(
                region.node_of(&mut pager, ObjectId(0), start).unwrap(),
                node,
                "entry {i}"
            );
        }
        let rebuilt = TimelineRegion::from_parts(region.first_page(), region.index().to_vec(), 64);
        assert_eq!(rebuilt.node_of(&mut pager, ObjectId(0), 59).unwrap(), 119);
    }
}
