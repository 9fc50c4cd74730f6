//! The durable contact append log: ground truth of everything a live index
//! ever accepted.
//!
//! The log is the recovery story of [`ShardedLive`](crate::ShardedLive):
//! the sealed shards and the mutable delta are both *derived* state —
//! the epoch directory names the shards, and every record at or above the
//! top cut replays from the log into the delta — so the log must survive
//! every crash. Its layout is built for exactly that:
//!
//! * page 0 is a self-describing header (magic, version, universe size);
//! * every data page is independently valid:
//!   `[count][(record, checksum)…]` with a checksum **per record**, not per
//!   page. The tail page is re-written in place as records accumulate, but
//!   records are append-only *within* the page — a rewrite adding record
//!   `k+1` leaves the bytes of records `1..k` bit-identical. A torn
//!   rewrite therefore always leaves some *prefix* of the page's records
//!   valid, and that prefix contains every record from before the torn
//!   write: acknowledged records survive any later tear;
//! * recovery ([`AppendLog::open`]) scans pages forward, takes each page's
//!   longest valid record prefix, and truncates at the first page that is
//!   not full-and-valid (zero count = never written; short prefix = torn
//!   write) — a torn tail costs at most the records that were never
//!   acknowledged as synced.
//!
//! Records are fixed normalized contacts `(a, b, start, end)` in tick
//! units — the log stores *accepted* records (post lateness clamping), so
//! replaying it reproduces the live index's world exactly.

use reach_core::{Contact, IndexError, ObjectId, Time, TimeInterval};
use reach_storage::{BlockDevice, IoStats, PageId};

/// Header magic: "SLG2" little-endian.
const MAGIC: u32 = u32::from_le_bytes(*b"SLG2");
/// Layout version.
const VERSION: u32 = 2;
/// Bytes of the per-page framing (`count: u32`).
const PAGE_HEADER: usize = 4;
/// Bytes of one encoded record: 16 payload + 4 checksum.
const RECORD_BYTES: usize = 20;

/// 32-bit FNV-1a over `bytes` — cheap, dependency-free torn-write detection
/// (the log guards against *partial* writes, not adversarial corruption).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// What [`AppendLog::open`] found on the device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogRecovery {
    /// Records recovered from valid pages.
    pub records: u64,
    /// Whether a torn (partially written) tail page was found and dropped.
    pub torn_tail: bool,
    /// Data pages scanned (valid and torn alike).
    pub pages_scanned: u64,
}

/// A durable, crash-recoverable append log of contact records on any
/// [`BlockDevice`] (see the module docs for the layout and recovery
/// contract).
#[derive(Debug)]
pub struct AppendLog {
    device: Box<dyn BlockDevice>,
    num_objects: usize,
    records: u64,
    /// Every data page in append order; the last entry is the page being
    /// filled. Kept explicit so replay never touches pages dropped by a
    /// recovery truncation.
    data_pages: Vec<PageId>,
    /// Already-allocated pages past a recovery truncation point, zeroed by
    /// [`AppendLog::open`] and re-used **in device order** before any new
    /// allocation — this keeps the log physically contiguous, so the next
    /// recovery's forward scan cannot stop short of acknowledged records
    /// at an unfilled gap (nor resurrect stale pages out of order).
    recycled: std::collections::VecDeque<PageId>,
    /// Records of the current page.
    cur: Vec<Contact>,
    /// The current page's encoded image, extended in place per append (a
    /// rewrite only patches the count and appends the new record bytes).
    cur_buf: Vec<u8>,
    /// Records one page holds.
    capacity: usize,
}

impl AppendLog {
    /// Creates a fresh log on an empty device, writing the header page.
    ///
    /// # Panics
    ///
    /// Panics if the device already holds pages — an append log never
    /// silently overwrites existing data; use [`AppendLog::open`] for that.
    pub fn create(
        mut device: Box<dyn BlockDevice>,
        num_objects: usize,
    ) -> Result<Self, IndexError> {
        assert_eq!(
            device.len_pages(),
            0,
            "AppendLog::create expects an empty device"
        );
        let capacity = page_capacity(device.page_size());
        let header = device.allocate(1)?;
        let mut buf = vec![0u8; 16];
        buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&VERSION.to_le_bytes());
        buf[8..16].copy_from_slice(&(num_objects as u64).to_le_bytes());
        device.write_page(header, &buf)?;
        let first_data = device.allocate(1)?;
        Ok(Self {
            device,
            num_objects,
            records: 0,
            data_pages: vec![first_data],
            recycled: std::collections::VecDeque::new(),
            cur: Vec::new(),
            cur_buf: encode_page(&[]),
            capacity,
        })
    }

    /// Opens a log previously created on this device, recovering every
    /// record that survived (see the module docs for the truncation rules).
    /// Returns the log positioned to continue appending, the recovered
    /// records in append order, and a recovery report.
    pub fn open(
        mut device: Box<dyn BlockDevice>,
    ) -> Result<(Self, Vec<Contact>, LogRecovery), IndexError> {
        let corrupt = |what: String| IndexError::Corrupt(format!("append log: {what}"));
        if device.len_pages() == 0 {
            return Err(corrupt("device holds no pages".into()));
        }
        let page_size = device.page_size();
        let capacity = page_capacity(page_size);
        let mut buf = vec![0u8; page_size];
        device.read_page_into(0, &mut buf)?;
        let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:#x}")));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let num_objects = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")) as usize;

        let mut records: Vec<Contact> = Vec::new();
        let mut recovery = LogRecovery::default();
        let mut cur: Vec<Contact> = Vec::new();
        let mut data_pages: Vec<PageId> = Vec::new();
        let mut open_ended = true;
        for p in 1..device.len_pages() {
            device.read_page_into(p, &mut buf)?;
            recovery.pages_scanned += 1;
            let scan = decode_page(&buf, capacity, num_objects);
            data_pages.push(p);
            if scan.torn {
                // Torn write: the salvaged prefix — which contains every
                // record acknowledged before the tear — survives; the log
                // ends here and appends continue extending this page.
                recovery.torn_tail = true;
                records.extend_from_slice(&scan.records);
                cur = scan.records;
                open_ended = false;
                break;
            }
            if scan.records.is_empty() {
                // Allocated but never written: the log ends here.
                open_ended = false;
                break;
            }
            let partial = scan.records.len() < capacity;
            if partial {
                cur = scan.records.clone();
            }
            records.extend(scan.records);
            if partial {
                open_ended = false;
                break; // a partial page is always the last valid one
            }
        }
        // Pages already allocated past the truncation point (an allocation
        // that survived a crash whose page write did not, or pages dropped
        // with a torn tail) are zeroed now and re-used in order: leaving
        // them stale would let a later recovery either stop short of
        // acknowledged records at the gap or resurrect dropped ones.
        let mut recycled = std::collections::VecDeque::new();
        if !open_ended {
            let after_tail = data_pages.last().expect("scan visited a page") + 1;
            let zeros = vec![0u8; page_size];
            for p in after_tail..device.len_pages() {
                device.write_page(p, &zeros)?;
                recycled.push_back(p);
            }
            if !recycled.is_empty() {
                device.sync()?;
            }
        } else {
            // Every scanned page was full (or no data pages existed at
            // all): appends continue on a fresh page.
            data_pages.push(device.allocate(1)?);
        }
        recovery.records = records.len() as u64;
        let cur_buf = encode_page(&cur);
        let log = Self {
            device,
            num_objects,
            records: records.len() as u64,
            data_pages,
            recycled,
            cur,
            cur_buf,
            capacity,
        };
        Ok((log, records, recovery))
    }

    /// Appends one record and writes its page. The record is durable once
    /// this returns *and* the device is synced ([`AppendLog::sync`] — or
    /// every append, for callers that prefer the paranoid mode).
    ///
    /// # Panics
    ///
    /// Panics on a self-contact or an object outside the declared universe:
    /// the log stores *accepted* records, and acceptance checks belong to
    /// the caller ([`ShardedLive`](crate::ShardedLive) applies its
    /// `ErrorMode` before logging).
    pub fn append(&mut self, c: Contact) -> Result<(), IndexError> {
        assert!(
            c.a != c.b,
            "self-contact {c:?} must be rejected before logging"
        );
        assert!(
            c.a.index() < self.num_objects && c.b.index() < self.num_objects,
            "contact {c:?} outside the universe of {}",
            self.num_objects
        );
        if self.cur.len() == self.capacity {
            // Recycled (zeroed post-recovery) pages are refilled in device
            // order before anything new is allocated — see `recycled`.
            let next = match self.recycled.pop_front() {
                Some(p) => p,
                None => self.device.allocate(1)?,
            };
            self.data_pages.push(next);
            self.cur.clear();
            self.cur_buf.clear();
            self.cur_buf.extend_from_slice(&0u32.to_le_bytes());
        }
        self.cur.push(c);
        append_record(&mut self.cur_buf, &c);
        self.cur_buf[0..4].copy_from_slice(&(self.cur.len() as u32).to_le_bytes());
        let page = *self.data_pages.last().expect("a data page always exists");
        self.device.write_page(page, &self.cur_buf)?;
        self.records += 1;
        Ok(())
    }

    /// Flushes buffered device writes to durable storage.
    pub fn sync(&mut self) -> Result<(), IndexError> {
        self.device.sync()
    }

    /// Re-reads every logged record from the device, in append order — the
    /// batch-rebuild path (and the oracle the live equivalence tests check
    /// against). Costs one read per data page, sequential after the first.
    pub fn replay(&mut self) -> Result<Vec<Contact>, IndexError> {
        let page_size = self.device.page_size();
        let mut buf = vec![0u8; page_size];
        let mut out = Vec::with_capacity(self.records as usize);
        self.device.break_sequence();
        for &p in &self.data_pages[..self.data_pages.len() - 1] {
            self.device.read_page_into(p, &mut buf)?;
            let scan = decode_page(&buf, self.capacity, self.num_objects);
            if scan.torn || scan.records.len() < self.capacity {
                return Err(IndexError::Corrupt(format!(
                    "append log page {p} unreadable"
                )));
            }
            out.extend(scan.records);
        }
        // The tail page's in-memory copy is authoritative: right after a
        // torn-tail recovery the on-device tail still holds the dropped
        // garbage until the next append rewrites it.
        out.extend_from_slice(&self.cur);
        debug_assert_eq!(out.len() as u64, self.records);
        Ok(out)
    }

    /// Records appended (and recovered) so far.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Universe size declared at creation.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Device pages the log occupies (header included).
    pub fn pages(&self) -> u64 {
        self.device.len_pages()
    }

    /// Cumulative device counters (append writes, replay/recovery reads).
    pub fn io_stats(&self) -> IoStats {
        self.device.stats()
    }

    /// The underlying device (tests and diagnostics).
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        self.device.as_mut()
    }
}

/// Records one data page holds.
fn page_capacity(page_size: usize) -> usize {
    let cap = (page_size - PAGE_HEADER) / RECORD_BYTES;
    assert!(cap >= 1, "page size {page_size} cannot hold one log record");
    cap
}

/// Appends one record's `(payload, checksum)` bytes to a page image.
fn append_record(buf: &mut Vec<u8>, c: &Contact) {
    let at = buf.len();
    buf.extend_from_slice(&c.a.0.to_le_bytes());
    buf.extend_from_slice(&c.b.0.to_le_bytes());
    buf.extend_from_slice(&c.interval.start.to_le_bytes());
    buf.extend_from_slice(&c.interval.end.to_le_bytes());
    let crc = fnv1a(&buf[at..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Serializes one data page from scratch: `[count][(record, checksum)…]`.
/// Record bytes are append-only within the page (see the module docs —
/// this is what makes acknowledged records tear-proof); the hot append
/// path extends the retained image via [`append_record`] instead of
/// calling this.
fn encode_page(records: &[Contact]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAGE_HEADER + records.len() * RECORD_BYTES);
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for c in records {
        append_record(&mut buf, c);
    }
    buf
}

/// What one data page held.
struct PageScan {
    /// The longest valid record prefix.
    records: Vec<Contact>,
    /// Whether the page claimed more records than the prefix delivered
    /// (torn write) — recovery truncates the log here.
    torn: bool,
}

/// Decodes one data page, salvaging the longest valid record prefix (the
/// per-record checksums make every prefix independently verifiable). A
/// `count` of 0 is a valid never-written page.
fn decode_page(buf: &[u8], capacity: usize, num_objects: usize) -> PageScan {
    let count = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    // A torn count field can claim anything; the record scan below is what
    // actually decides, so only cap it to the page.
    let claimed = count.min(capacity);
    let mut records = Vec::with_capacity(claimed);
    for i in 0..claimed {
        let rec = &buf[PAGE_HEADER + i * RECORD_BYTES..PAGE_HEADER + (i + 1) * RECORD_BYTES];
        let word = |j: usize| u32::from_le_bytes(rec[j * 4..j * 4 + 4].try_into().expect("4B"));
        if fnv1a(&rec[..16]) != word(4) {
            break;
        }
        let (a, b, start, end) = (word(0), word(1), word(2), word(3));
        if a == b || a as usize >= num_objects || b as usize >= num_objects || start > end {
            break; // checksum collided with garbage: stop the prefix here
        }
        records.push(Contact::new(
            ObjectId(a),
            ObjectId(b),
            TimeInterval::new(start as Time, end as Time),
        ));
    }
    PageScan {
        torn: records.len() < count,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_storage::{FileDevice, SimDevice};

    fn c(a: u32, b: u32, s: Time, e: Time) -> Contact {
        Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let mut log = AppendLog::create(Box::new(SimDevice::new(64)), 10).unwrap();
        let records: Vec<Contact> = (0..20).map(|i| c(i % 9, 9, i, i + 3)).collect();
        for &r in &records {
            log.append(r).unwrap();
        }
        assert_eq!(log.len(), 20);
        assert_eq!(log.replay().unwrap(), records);
        // 64 B pages hold 3 records: 20 records span 7 data pages + header.
        assert_eq!(log.pages(), 8);
    }

    #[test]
    fn append_writes_cost_io() {
        let mut log = AppendLog::create(Box::new(SimDevice::new(128)), 4).unwrap();
        let before = log.io_stats();
        log.append(c(0, 1, 5, 9)).unwrap();
        let io = log.io_stats().since(&before);
        assert_eq!(io.total_writes(), 1, "one durable page write per append");
    }

    #[test]
    fn reopen_continues_the_same_log() {
        let mut path = std::env::temp_dir();
        path.push(format!("streach-log-reopen-{}.pages", std::process::id()));
        let first: Vec<Contact> = (0..7).map(|i| c(0, 1 + i % 3, i * 2, i * 2 + 1)).collect();
        {
            let dev = FileDevice::create(&path, 64).unwrap();
            let mut log = AppendLog::create(Box::new(dev), 8).unwrap();
            for &r in &first {
                log.append(r).unwrap();
            }
            log.sync().unwrap();
        }
        let dev = FileDevice::open(&path, 64).unwrap();
        let (mut log, recovered, report) = AppendLog::open(Box::new(dev)).unwrap();
        assert_eq!(recovered, first);
        assert_eq!(report.records, 7);
        assert!(!report.torn_tail);
        assert_eq!(log.num_objects(), 8);
        // Appending continues where the log left off, mid-page.
        log.append(c(5, 6, 100, 101)).unwrap();
        log.sync().unwrap();
        let all = log.replay().unwrap();
        assert_eq!(all.len(), 8);
        assert_eq!(all[7], c(5, 6, 100, 101));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_page_is_truncated_on_open() {
        let mut path = std::env::temp_dir();
        path.push(format!("streach-log-torn-{}.pages", std::process::id()));
        let page_size = 64usize;
        {
            let dev = FileDevice::create(&path, page_size).unwrap();
            let mut log = AppendLog::create(Box::new(dev), 8).unwrap();
            for i in 0..9 {
                log.append(c(0, 1, i, i)).unwrap();
            }
            log.sync().unwrap();
        }
        // Simulate a crash mid-write: scribble over the *last* data page
        // (records 7..9), leaving its count plausible but its checksum wrong.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let last_page = 3u64; // header + 3 full pages of 3; page 3 holds 7..9
            f.seek(SeekFrom::Start(last_page * page_size as u64 + 6))
                .unwrap();
            f.write_all(&[0xAB; 20]).unwrap();
        }
        let dev = FileDevice::open(&path, page_size).unwrap();
        let (mut log, recovered, report) = AppendLog::open(Box::new(dev)).unwrap();
        assert!(report.torn_tail, "corrupted tail must be detected");
        assert_eq!(report.records, 6, "only the intact pages survive");
        assert_eq!(recovered.len(), 6);
        assert_eq!(recovered[5], c(0, 1, 5, 5));
        // The torn page is recycled: new appends land where it was.
        log.append(c(2, 3, 50, 51)).unwrap();
        assert_eq!(log.replay().unwrap().len(), 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn acknowledged_records_survive_a_torn_later_append() {
        // r1..r2 are synced in the tail page; a torn in-place rewrite
        // appending r3 must not take them down — record bytes are
        // append-only within the page, so the salvageable prefix always
        // contains everything acknowledged before the tear.
        let mut path = std::env::temp_dir();
        path.push(format!("streach-log-acked-{}.pages", std::process::id()));
        let page_size = 64usize; // capacity 3
        {
            let dev = FileDevice::create(&path, page_size).unwrap();
            let mut log = AppendLog::create(Box::new(dev), 8).unwrap();
            log.append(c(0, 1, 10, 11)).unwrap();
            log.append(c(2, 3, 12, 13)).unwrap();
            log.sync().unwrap();
        }
        // Simulate the torn third append: the count field already says 3
        // but record slot 2 holds garbage (the tear hit mid-record).
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(page_size as u64)).unwrap();
            f.write_all(&3u32.to_le_bytes()).unwrap();
            f.seek(SeekFrom::Start(page_size as u64 + 4 + 2 * 20))
                .unwrap();
            f.write_all(&[0xEE; 16]).unwrap();
        }
        let dev = FileDevice::open(&path, page_size).unwrap();
        let (mut log, recovered, report) = AppendLog::open(Box::new(dev)).unwrap();
        assert!(report.torn_tail);
        assert_eq!(
            recovered,
            vec![c(0, 1, 10, 11), c(2, 3, 12, 13)],
            "acknowledged records must survive the tear"
        );
        // The log continues right where the tear happened.
        log.append(c(4, 5, 20, 21)).unwrap();
        assert_eq!(log.replay().unwrap().len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    /// The double-crash scenario: recovery must zero and recycle orphan
    /// pages past the truncation point, or records acknowledged *after*
    /// the first recovery would sit beyond a gap (or behind stale pages)
    /// and be dropped — or resurrected — by the second recovery.
    #[test]
    fn records_synced_after_a_recovery_survive_the_next_crash() {
        let mut path = std::env::temp_dir();
        path.push(format!("streach-log-twocrash-{}.pages", std::process::id()));
        let page_size = 64usize; // capacity 3
        {
            let dev = FileDevice::create(&path, page_size).unwrap();
            let mut log = AppendLog::create(Box::new(dev), 8).unwrap();
            for i in 0..7 {
                log.append(c(0, 1, i, i)).unwrap(); // pages 1,2 full; r7 on page 3
            }
            log.sync().unwrap();
        }
        // Crash #1 tears page 2 (records r4..r6) while page 3 (stale r7)
        // survives on the device.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(2 * page_size as u64 + 6)).unwrap();
            f.write_all(&[0xAB; 20]).unwrap();
        }
        let recovered_after_first = {
            let dev = FileDevice::open(&path, page_size).unwrap();
            let (mut log, recovered, report) = AppendLog::open(Box::new(dev)).unwrap();
            assert!(report.torn_tail);
            assert_eq!(recovered.len(), 3, "page 1 survives; pages 2+ truncated");
            // Life goes on: four more records (refills page 2, then must
            // recycle the zeroed page 3 — not allocate past it).
            for i in 0..4 {
                log.append(c(2, 3, 100 + i, 100 + i)).unwrap();
            }
            log.sync().unwrap();
            log.replay().unwrap()
        }; // crash #2: clean this time — everything synced must survive
        let dev = FileDevice::open(&path, page_size).unwrap();
        let (_, recovered, report) = AppendLog::open(Box::new(dev)).unwrap();
        assert_eq!(
            recovered, recovered_after_first,
            "acked post-recovery records must survive the second crash"
        );
        assert_eq!(recovered.len(), 7);
        assert!(!report.torn_tail);
        assert!(
            !recovered.iter().any(|r| r.interval.start == 6),
            "the stale pre-crash r7 must not resurrect"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_foreign_devices() {
        let mut dev = SimDevice::new(64);
        let p = dev.allocate(1).unwrap();
        dev.write_page(p, b"not a log").unwrap();
        assert!(matches!(
            AppendLog::open(Box::new(dev)),
            Err(IndexError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn append_rejects_self_contacts() {
        let mut log = AppendLog::create(Box::new(SimDevice::new(64)), 4).unwrap();
        let bad = Contact {
            a: ObjectId(1),
            b: ObjectId(1),
            interval: TimeInterval::new(0, 0),
        };
        let _ = log.append(bad);
    }

    #[test]
    fn full_log_reopens_onto_a_fresh_page() {
        let mut path = std::env::temp_dir();
        path.push(format!("streach-log-full-{}.pages", std::process::id()));
        {
            let dev = FileDevice::create(&path, 64).unwrap();
            let mut log = AppendLog::create(Box::new(dev), 4).unwrap();
            for i in 0..3 {
                log.append(c(0, 1, i, i)).unwrap(); // exactly one full page
            }
            log.sync().unwrap();
        }
        let dev = FileDevice::open(&path, 64).unwrap();
        let (mut log, recovered, _) = AppendLog::open(Box::new(dev)).unwrap();
        assert_eq!(recovered.len(), 3);
        log.append(c(2, 3, 9, 9)).unwrap();
        assert_eq!(log.replay().unwrap().len(), 4);
        let _ = std::fs::remove_file(&path);
    }
}
