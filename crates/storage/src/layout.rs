//! Record layout on pages.
//!
//! Index builders append variable-length records into a consecutive page
//! range; records may span page boundaries (a populated ReachGrid cell or a
//! large HN partition easily exceeds 4 KB). Readers fetch a record through
//! the pager: the first page access is random, continuation pages are
//! sequential — exactly the placement effect the paper's §4.1/§5.1.3
//! optimize for. The writer and reader are backend-agnostic: they speak to
//! any [`BlockDevice`] and to the [`Pager`], so the same layout lands
//! byte-identically on the simulator, a file, or the mapped device.

use crate::codec::{ByteReader, ByteWriter};
use crate::device::{BlockDevice, PageId};
use crate::pager::Pager;
use reach_core::IndexError;

/// Address of a record on disk: page plus byte offset of its length prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct RecordPtr {
    /// Page holding the first byte of the record header.
    pub page: PageId,
    /// Byte offset inside that page.
    pub offset: u32,
}

impl RecordPtr {
    /// Serialized size of a pointer.
    pub const ENCODED_LEN: usize = 12;

    /// Encodes the pointer.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.page);
        w.put_u32(self.offset);
    }

    /// Decodes a pointer.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, IndexError> {
        Ok(Self {
            page: r.get_u64()?,
            offset: r.get_u32()?,
        })
    }
}

/// Append-only record writer over any [`BlockDevice`].
///
/// Records are `[len: u32][payload…]`, written contiguously; a record whose
/// tail does not fit the current page continues on the next allocated page.
/// Every record starts right where the previous one ended, so no page is
/// padded; a reader that fetches records in write order finds the page
/// they share already in its pager (see [`read_record_into`]).
#[derive(Debug)]
pub struct RecordWriter {
    first_page: PageId,
    cur_page: PageId,
    cur: Vec<u8>,
    page_size: usize,
    written_pages: u64,
}

impl RecordWriter {
    /// Starts writing at a freshly allocated page of `disk`.
    pub fn new(disk: &mut dyn BlockDevice) -> Result<Self, IndexError> {
        let page_size = disk.page_size();
        let first_page = disk.allocate(1)?;
        Ok(Self {
            first_page,
            cur_page: first_page,
            cur: Vec::with_capacity(page_size),
            page_size,
            written_pages: 0,
        })
    }

    /// The page where this writer began.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Position where the *next* record will start.
    pub fn tell(&self) -> RecordPtr {
        RecordPtr {
            page: self.cur_page,
            offset: self.cur.len() as u32,
        }
    }

    /// Appends one record, returning its address.
    pub fn append(
        &mut self,
        disk: &mut dyn BlockDevice,
        payload: &[u8],
    ) -> Result<RecordPtr, IndexError> {
        let ptr = self.tell();
        let len = u32::try_from(payload.len()).expect("record length fits u32");
        self.push_bytes(disk, &len.to_le_bytes())?;
        self.push_bytes(disk, payload)?;
        Ok(ptr)
    }

    fn push_bytes(
        &mut self,
        disk: &mut dyn BlockDevice,
        mut bytes: &[u8],
    ) -> Result<(), IndexError> {
        while !bytes.is_empty() {
            let room = self.page_size - self.cur.len();
            if room == 0 {
                self.flush_page(disk, true)?;
                continue;
            }
            let n = room.min(bytes.len());
            self.cur.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
        Ok(())
    }

    fn flush_page(
        &mut self,
        disk: &mut dyn BlockDevice,
        allocate_next: bool,
    ) -> Result<(), IndexError> {
        disk.write_page(self.cur_page, &self.cur)?;
        self.written_pages += 1;
        self.cur.clear();
        if allocate_next {
            self.cur_page = disk.allocate(1)?;
        }
        Ok(())
    }

    /// Flushes the trailing partial page and returns the total number of
    /// pages written.
    pub fn finish(mut self, disk: &mut dyn BlockDevice) -> Result<u64, IndexError> {
        if !self.cur.is_empty() {
            self.flush_page(disk, false)?;
        }
        Ok(self.written_pages)
    }
}

/// Reads one record (written by [`RecordWriter::append`]) through the pager
/// into a new buffer; see [`read_record_into`].
pub fn read_record(pager: &mut Pager, ptr: RecordPtr) -> Result<Vec<u8>, IndexError> {
    let mut out = Vec::new();
    read_record_into(pager, ptr, &mut out)?;
    Ok(out)
}

/// Reads one record (written by [`RecordWriter::append`]) through the pager
/// into `out`, replacing its contents and reusing its capacity.
///
/// Each page is fetched through [`Pager::with_page`] **exactly once**, and
/// its bytes — length-prefix bytes and payload bytes alike — are consumed in
/// that single visit. That preserves the device's accounting contract (one
/// counted read per page touched) even without a page cache, while copying
/// each byte only once, straight from the page into `out`. A record that
/// starts on the page where the previously read one ended finds that page in
/// the pager (its cache or, without one, its one-page read buffer) and is
/// charged a cache hit for it, not a second device read. A length larger
/// than the whole device is [`IndexError::Corrupt`], reported before `out`
/// grows or takes a byte of the payload.
pub fn read_record_into(
    pager: &mut Pager,
    ptr: RecordPtr,
    out: &mut Vec<u8>,
) -> Result<(), IndexError> {
    let page_size = pager.page_size();
    let device_bytes = pager.device().size_bytes();
    let mut page_id = ptr.page;
    let mut off = ptr.offset as usize;
    let mut len_bytes = [0u8; 4];
    let mut len_filled = 0usize;
    let mut prefetched = false;
    out.clear();
    if off > page_size {
        return Err(IndexError::Corrupt(format!(
            "record pointer offset {off} lies past its {page_size}-byte page {page_id}"
        )));
    }
    loop {
        if off == page_size {
            page_id += 1;
            off = 0;
        }
        // `None`: the length prefix is complete and claims too much.
        let next = pager.with_page(page_id, |page| {
            let mut pos = off;
            // Finish the 4-byte length prefix first…
            while len_filled < 4 && pos < page_size {
                len_bytes[len_filled] = page[pos];
                len_filled += 1;
                pos += 1;
            }
            if len_filled < 4 {
                return Some(pos);
            }
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len as u64 > device_bytes {
                return None;
            }
            // …then take as much payload as this page still holds.
            out.reserve_exact(len - out.len());
            let chunk = (len - out.len()).min(page_size - pos);
            out.extend_from_slice(&page[pos..pos + chunk]);
            Some(pos + chunk)
        })?;
        let Some(next) = next else {
            return Err(IndexError::Corrupt(format!(
                "record at page {} offset {} claims {} bytes",
                ptr.page,
                ptr.offset,
                u32::from_le_bytes(len_bytes)
            )));
        };
        off = next;
        if len_filled < 4 {
            continue;
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if out.len() == len {
            return Ok(());
        }
        // The record continues on the pages that follow; with readahead
        // enabled, pull a window of them in ahead of the scan. (The record
        // always resumes at the next page: the closure drains the current
        // page before leaving the payload short.)
        if !prefetched {
            prefetched = true;
            let span = (len - out.len()).div_ceil(page_size);
            pager.prefetch(page_id + 1, span)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDevice;

    #[test]
    fn small_records_roundtrip() {
        let mut disk = SimDevice::new(64);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        let p1 = w.append(&mut disk, b"alpha").unwrap();
        let p2 = w.append(&mut disk, b"beta").unwrap();
        w.finish(&mut disk).unwrap();
        disk.reset_stats();

        let mut pager = Pager::new(Box::new(disk), 4);
        assert_eq!(read_record(&mut pager, p1).unwrap(), b"alpha");
        assert_eq!(read_record(&mut pager, p2).unwrap(), b"beta");
    }

    #[test]
    fn record_spanning_pages_roundtrips() {
        let mut disk = SimDevice::new(64);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        let big: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let ptr = w.append(&mut disk, &big).unwrap();
        w.finish(&mut disk).unwrap();
        disk.reset_stats();

        let mut pager = Pager::new(Box::new(disk), 16);
        assert_eq!(read_record(&mut pager, ptr).unwrap(), big);
        // Spanning read: first page random, continuations sequential.
        let s = pager.stats();
        assert_eq!(s.random_reads, 1);
        assert!(s.seq_reads >= 4, "300B over 64B pages spans ≥5 pages");
    }

    #[test]
    fn append_packs_each_record_where_the_previous_one_ended() {
        const PAGE: usize = 64;
        let mut disk = SimDevice::new(PAGE);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        let first = w.first_page();
        let at = |page: u64, offset: u32| RecordPtr {
            page: first + page,
            offset,
        };
        // (payload length, where the record lands)
        let schedule = [
            (1, at(0, 0)),    // 5 B on an empty page
            (40, at(0, 5)),   // 44 B still fit page 0
            (30, at(0, 49)),  // 34 B cross into page 1
            (100, at(1, 19)), // 104 B run on to page 2
            (1, at(2, 59)),   // 5 B fill page 2 exactly, so the next
            (0, at(2, 64)),   // pointer sits at its end: read from page 3
        ];
        let mut written = Vec::new();
        for (i, &(len, expect)) in schedule.iter().enumerate() {
            let payload = vec![i as u8 + 1; len];
            let ptr = w.append(&mut disk, &payload).unwrap();
            assert_eq!(ptr, expect, "record {i} ({len} B)");
            written.push((ptr, payload));
        }
        w.finish(&mut disk).unwrap();
        let mut pager = Pager::new(Box::new(disk), 0);
        for (ptr, payload) in &written {
            assert_eq!(&read_record(&mut pager, *ptr).unwrap(), payload);
        }
    }

    #[test]
    fn empty_record_roundtrips() {
        let mut disk = SimDevice::new(64);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        let ptr = w.append(&mut disk, b"").unwrap();
        w.finish(&mut disk).unwrap();
        let mut pager = Pager::new(Box::new(disk), 4);
        assert_eq!(read_record(&mut pager, ptr).unwrap(), b"");
    }

    #[test]
    fn many_records_all_recoverable() {
        let mut disk = SimDevice::new(128);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..200u32 {
            let payload: Vec<u8> = (0..(i % 37)).map(|j| (i + j) as u8).collect();
            ptrs.push((w.append(&mut disk, &payload).unwrap(), payload));
        }
        w.finish(&mut disk).unwrap();
        let mut pager = Pager::new(Box::new(disk), 8);
        for (ptr, expect) in &ptrs {
            assert_eq!(&read_record(&mut pager, *ptr).unwrap(), expect);
        }
    }

    #[test]
    fn each_page_is_charged_exactly_once_even_without_a_pool() {
        // Regression: the reader must not re-fetch a record's first page for
        // the payload after reading the length prefix — on a zero-capacity
        // pool (ReachGraph's configuration) that would double-charge a
        // random IO per record and skew the paper's normalized-IO metric.
        let mut disk = SimDevice::new(64);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        let one_page = w.append(&mut disk, b"fits in one page").unwrap();
        let spanning = w.append(&mut disk, &[7u8; 150]).unwrap();
        w.finish(&mut disk).unwrap();
        disk.reset_stats();

        let mut pager = Pager::new(Box::new(disk), 0);
        assert_eq!(
            read_record(&mut pager, one_page).unwrap(),
            b"fits in one page"
        );
        let s = pager.stats();
        assert_eq!(
            (s.random_reads, s.seq_reads, s.cache_hits),
            (1, 0, 0),
            "single-page record must cost exactly one read"
        );
        pager.device_mut().reset_stats();
        assert_eq!(read_record(&mut pager, spanning).unwrap(), [7u8; 150]);
        let s = pager.stats();
        // 150 B + 4 B prefix over 64 B pages = 3 pages, the first shared
        // with the record before: 1 random + 2 seq (borrowing the device
        // to reset its counters dropped the held page).
        assert_eq!((s.random_reads, s.seq_reads, s.cache_hits), (1, 2, 0));
    }

    #[test]
    fn a_record_on_the_page_just_read_is_a_buffer_hit_without_a_pool() {
        let mut disk = SimDevice::new(64);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        let head = w.append(&mut disk, &[1u8; 70]).unwrap();
        // Starts on the page where `head` ends and spans two pages.
        let next = w.append(&mut disk, &[2u8; 100]).unwrap();
        assert_eq!((next.page, next.offset), (head.page + 1, 10));
        w.finish(&mut disk).unwrap();
        disk.reset_stats();

        let mut pager = Pager::new(Box::new(disk), 0);
        assert_eq!(read_record(&mut pager, head).unwrap(), [1u8; 70]);
        assert_eq!(read_record(&mut pager, next).unwrap(), [2u8; 100]);
        let s = pager.stats();
        // Pages 0, 1 for `head`; page 1 again from the buffer, then 2.
        assert_eq!((s.random_reads, s.seq_reads, s.cache_hits), (1, 2, 1));
    }

    #[test]
    fn corrupt_pointer_reports_error() {
        let mut disk = SimDevice::new(64);
        let mut w = RecordWriter::new(&mut disk).unwrap();
        w.append(&mut disk, b"ok").unwrap();
        w.finish(&mut disk).unwrap();
        // Write a bogus giant length at a fresh page.
        let p = disk.allocate(1).unwrap();
        disk.write_page(p, &u32::MAX.to_le_bytes()).unwrap();
        let mut pager = Pager::new(Box::new(disk), 4);
        let bogus = RecordPtr { page: p, offset: 0 };
        assert!(read_record(&mut pager, bogus).is_err());
    }

    #[test]
    fn read_record_into_roundtrips_from_every_start_and_reuses_its_buffer() {
        const PAGE: usize = 64;
        let mut out = Vec::new();
        for start in [0, 1, PAGE / 2, PAGE - 3, PAGE - 2, PAGE - 1] {
            // Payloads whose prefix and bytes end on the first page (when
            // that page has room), on the second, and ten pages on.
            let room = (PAGE - start).saturating_sub(4);
            for len in [0, room, room + 1, room + PAGE, room + 10 * PAGE - 7] {
                let mut disk = SimDevice::new(PAGE);
                let mut w = RecordWriter::new(&mut disk).unwrap();
                if start > 0 {
                    // A filler record (its prefix and `start - 4` bytes)
                    // moves the next one to `start`; below 4 it takes a
                    // page, and the record starts `start` bytes after
                    // a filler that ends `PAGE + start` bytes in.
                    let filler = if start >= 4 { start } else { PAGE + start };
                    w.append(&mut disk, &vec![0xEE; filler - 4]).unwrap();
                }
                let payload: Vec<u8> = (0..len).map(|i| (i * 7 + start) as u8).collect();
                let ptr = w.append(&mut disk, &payload).unwrap();
                assert_eq!(ptr.offset as usize, start);
                w.finish(&mut disk).unwrap();
                disk.reset_stats();

                let mut pager = Pager::new(Box::new(disk), 0);
                read_record_into(&mut pager, ptr, &mut out).unwrap();
                assert_eq!(out, payload, "{len} bytes from offset {start}");
                let pages = (start + 4 + len).div_ceil(PAGE) as u64;
                let s = pager.stats();
                assert_eq!(
                    (s.random_reads, s.total_reads()),
                    (1, pages),
                    "{len} bytes from offset {start}: one read per page"
                );
            }
        }
        assert!(out.capacity() >= 10 * PAGE, "the buffer kept its capacity");
    }

    #[test]
    fn oversized_length_is_corrupt_before_the_buffer_grows() {
        let mut disk = SimDevice::new(64);
        let p = disk.allocate(2).unwrap();
        // A length claiming more than the device straddles pages p, p + 1.
        let mut page = vec![0u8; 64];
        page[62..].copy_from_slice(&[0xFF, 0xFF]);
        disk.write_page(p, &page).unwrap();
        disk.write_page(p + 1, &[0xFF, 0x7F]).unwrap();
        let mut pager = Pager::new(Box::new(disk), 0);
        let mut out = Vec::new();
        let ptr = RecordPtr {
            page: p,
            offset: 62,
        };
        assert!(matches!(
            read_record_into(&mut pager, ptr, &mut out),
            Err(IndexError::Corrupt(_))
        ));
        assert_eq!(out.capacity(), 0, "nothing reserved for a corrupt length");
        let past = RecordPtr {
            page: p,
            offset: 65,
        };
        assert!(matches!(
            read_record_into(&mut pager, past, &mut out),
            Err(IndexError::Corrupt(_))
        ));
    }

    #[test]
    fn record_ptr_codec_roundtrip() {
        let ptr = RecordPtr {
            page: 123456789,
            offset: 4321,
        };
        let mut w = ByteWriter::new();
        ptr.encode(&mut w);
        assert_eq!(w.len(), RecordPtr::ENCODED_LEN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(RecordPtr::decode(&mut r).unwrap(), ptr);
    }
}
