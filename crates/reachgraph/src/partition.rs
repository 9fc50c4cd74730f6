//! Partition records: an id-sorted slot table over fixed-width vertex
//! bodies, checked once and decoded a vertex at a time.
//!
//! A partition record (written by [`PartitionEncoder`] for
//! [`crate::ReachGraph::build_on`]) is laid out as
//!
//! ```text
//! [count: u32][w: u8]                              header
//! count × [id: u32][body offset: u32]              slot table, ids ascending
//! count × [start: u32][end: u32]                   bodies, in slot order
//!         (3 + levels) × [list end: w bytes]
//!         entries × [u32]
//! ```
//!
//! A body's lists (members, fwd, rev, then one long-edge bundle per level)
//! sit back to back in its entries; list `i` spans the cumulative ends
//! `end[i - 1]..end[i]`, with the first starting at 0. The width `w` is 1,
//! 2 or 4: the narrowest that holds the largest entry total of any vertex
//! in the record.
//!
//! A traversal fetches whole records but visits only a few of each
//! record's vertices, so [`Partition`] keeps the record bytes as read and
//! checks their framing in one pass over the slot table, reading each
//! body's interval and list ends but none of its entries.
//! [`Partition::vertex`] binary-searches the record's own slot table,
//! decodes just that vertex's lists into a scratch buffer the caller owns,
//! and returns a [`Vertex`] view into it. Once a record is accepted, no
//! later decode of it can fail.

use crate::vertex::Vertex;
use reach_core::{IndexError, TimeInterval};

/// Lists every vertex stores before its long-edge bundles: members, fwd,
/// rev.
const FIXED_LISTS: usize = 3;

/// Bytes before the slot table: the vertex count and the list-end width.
const HEADER: usize = 5;

/// Bytes per slot: a vertex id and the offset of its body.
const SLOT: usize = 8;

/// Bytes of a body before its list ends: the interval.
const INTERVAL: usize = 8;

/// One partition record, its framing checked.
#[derive(Debug)]
pub struct Partition {
    /// The record as read: header, slot table, bodies.
    record: Vec<u8>,
    /// Vertices in the record.
    count: usize,
    /// Bytes per list end.
    width: usize,
    /// Lists per vertex: the fixed three plus one bundle per level.
    lists: usize,
}

/// The little-endian `u32` at `at`, if the bytes hold one.
#[inline]
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let b: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(b))
}

/// The two little-endian `u32`s of an 8-byte pair of fields: a slot's id
/// and body offset, or a body's interval.
#[inline]
fn pair(bytes: &[u8; 8]) -> (u32, u32) {
    let [a0, a1, a2, a3, b0, b1, b2, b3] = *bytes;
    (
        u32::from_le_bytes([a0, a1, a2, a3]),
        u32::from_le_bytes([b0, b1, b2, b3]),
    )
}

/// The list ends packed `W` bytes each, little-endian, in `bytes`.
#[inline]
fn ends_of<const W: usize>(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.as_chunks::<W>().0.iter().map(|end| {
        let mut le = [0; 4];
        le[..W].copy_from_slice(end);
        u32::from_le_bytes(le)
    })
}

/// Appends the list ends packed `width` bytes each in `bytes` to `out`.
fn extend_ends(out: &mut Vec<u32>, bytes: &[u8], width: usize) {
    match width {
        1 => out.extend(ends_of::<1>(bytes)),
        2 => out.extend(ends_of::<2>(bytes)),
        _ => out.extend(ends_of::<4>(bytes)),
    }
}

/// The last of the list ends packed `width` bytes each in `bytes`, which
/// is their lists' entry total; or, for the first end below the one
/// before it, its list, the end and the end before.
fn last_end(bytes: &[u8], width: usize) -> Result<u32, (usize, u32, u32)> {
    fn walk(ends: impl Iterator<Item = u32>) -> Result<u32, (usize, u32, u32)> {
        let mut total = 0;
        for (list, end) in ends.enumerate() {
            if end < total {
                return Err((list, end, total));
            }
            total = end;
        }
        Ok(total)
    }
    match width {
        1 => walk(ends_of::<1>(bytes)),
        2 => walk(ends_of::<2>(bytes)),
        _ => walk(ends_of::<4>(bytes)),
    }
}

/// Appends `values` to `out`, `width` bytes each, little-endian: the
/// inverse of [`ends_of`] for values that fit `width`.
fn push_packed(out: &mut Vec<u8>, values: impl Iterator<Item = u32>, width: usize) {
    match width {
        1 => out.extend(values.map(|value| value as u8)),
        2 => values.for_each(|value| out.extend_from_slice(&(value as u16).to_le_bytes())),
        _ => values.for_each(|value| out.extend_from_slice(&value.to_le_bytes())),
    }
}

/// The narrowest list-end width that holds `total`.
fn width_for(total: u32) -> usize {
    match total {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        _ => 4,
    }
}

impl Partition {
    /// Checks the framing of a whole partition record of an index with
    /// `levels` long-edge levels and keeps the record (a `Vec` moves in, a
    /// slice is copied). `placed_here(v)` says whether the page table
    /// places vertex `v` in this partition.
    ///
    /// One pass over the slot table checks every vertex once. Errors are
    /// [`IndexError::Corrupt`]: a vertex count that does not fit the
    /// record, a list-end width other than 1, 2 or 4, ids not strictly
    /// ascending (so also an id appearing twice), a vertex the page table
    /// places elsewhere, a body that does not start where the previous one
    /// ends, a backwards interval, decreasing list ends, a list running
    /// past the record, or a last body that does not end exactly at the
    /// record's end.
    pub fn decode(
        record: impl Into<Vec<u8>>,
        levels: usize,
        placed_here: impl Fn(u32) -> bool,
    ) -> Result<Self, IndexError> {
        let record = record.into();
        let corrupt = |what: String| IndexError::Corrupt(format!("partition record: {what}"));
        let lists = FIXED_LISTS + levels;
        let size = record.len();
        let width = match record.get(4) {
            Some(&w @ (1 | 2 | 4)) => usize::from(w),
            Some(w) => return Err(corrupt(format!("list-end width {w}"))),
            None => return Err(corrupt(format!("{size}-byte record has no header"))),
        };
        // A vertex takes at least its slot, its interval and its list ends.
        let framing = SLOT + INTERVAL + lists * width;
        let count = u32_at(&record, 0)
            .map(|count| count as usize)
            .filter(|&count| {
                u32::try_from(size).is_ok()
                    && count
                        .checked_mul(framing)
                        .is_some_and(|bytes| bytes <= size - HEADER)
            })
            .ok_or_else(|| corrupt(format!("vertex count does not fit {size} bytes")))?;

        let mut body = HEADER + SLOT * count;
        let mut previous = None;
        for slot in record[HEADER..body].as_chunks::<SLOT>().0 {
            let (id, at) = pair(slot);
            let at = at as usize;
            if previous.is_some_and(|p| p >= id) {
                return Err(corrupt(format!(
                    "vertex {id} follows vertex {} in the slot table",
                    previous.unwrap_or(id)
                )));
            }
            previous = Some(id);
            if !placed_here(id) {
                return Err(corrupt(format!(
                    "holds vertex {id}, which the page table places elsewhere"
                )));
            }
            if at != body {
                return Err(corrupt(format!(
                    "vertex {id} body at byte {at}, the previous body ends at {body}"
                )));
            }
            let entries_at = at + INTERVAL + lists * width;
            let (interval, ends) = record
                .get(at..entries_at)
                .and_then(<[u8]>::split_first_chunk::<INTERVAL>)
                .ok_or_else(|| corrupt(format!("vertex {id} truncated at byte {at} of {size}")))?;
            let (start, end) = pair(interval);
            if start > end {
                return Err(corrupt(format!("vertex {id} interval [{start}, {end}]")));
            }
            let total = last_end(ends, width).map_err(|(list, end, before)| {
                corrupt(format!(
                    "vertex {id} list {list} ends at entry {end}, before entry {before}"
                ))
            })?;
            if total as usize > (size - entries_at) / 4 {
                return Err(corrupt(format!(
                    "vertex {id} lists of {total} entries run past {size} bytes"
                )));
            }
            body = entries_at + 4 * total as usize;
        }
        if body != size {
            return Err(corrupt(format!(
                "{} trailing bytes after {count} vertices",
                size - body
            )));
        }
        Ok(Self {
            record,
            count,
            width,
            lists,
        })
    }

    /// The body of vertex `v`, from its interval to the record's end, if
    /// this partition holds it: a binary search of the slot table.
    fn body_of(&self, v: u32) -> Option<&[u8]> {
        let table = &self.record[HEADER..HEADER + SLOT * self.count];
        let (slots, _) = table.as_chunks::<SLOT>();
        let slot = slots.binary_search_by(|slot| pair(slot).0.cmp(&v)).ok()?;
        Some(&self.record[pair(&slots[slot]).1 as usize..])
    }

    /// The interval opening `body`, and the rest of the body.
    fn interval_of(body: &[u8]) -> (TimeInterval, &[u8]) {
        let (interval, rest) = body.split_first_chunk().expect("checked framing");
        let (start, end) = pair(interval);
        (TimeInterval::new(start, end), rest)
    }

    /// Vertex `v`'s validity interval, if this partition holds it. Decodes
    /// none of its lists.
    pub fn interval(&self, v: u32) -> Option<TimeInterval> {
        self.body_of(v).map(|body| Self::interval_of(body).0)
    }

    /// Vertex `v`, if this partition holds it. Its lists are decoded into
    /// `scratch`, replacing what it held, and the view borrows them there:
    /// one bound per list, then every list back to back.
    pub fn vertex<'s>(&self, v: u32, scratch: &'s mut Vec<u32>) -> Option<Vertex<'s>> {
        let (interval, rest) = Self::interval_of(self.body_of(v)?);
        let (ends, entries) = rest.split_at(self.lists * self.width);
        scratch.clear();
        scratch.push(0);
        extend_ends(scratch, ends, self.width);
        let total = scratch[self.lists] as usize;
        let (entries, _) = entries[..4 * total].as_chunks::<4>();
        scratch.extend(entries.iter().map(|&entry| u32::from_le_bytes(entry)));
        let (b, arena) = scratch.split_at(self.lists + 1);
        let list = |i: usize| &arena[b[i] as usize..b[i + 1] as usize];
        Some(Vertex::in_arena(
            interval,
            list(0),
            list(1),
            list(2),
            arena,
            &b[FIXED_LISTS..],
        ))
    }

    /// Gives the record buffer back, so a later fetch can read into it.
    pub fn into_record(self) -> Vec<u8> {
        self.record
    }
}

/// Writes partition records (see the module docs). Vertices are pushed in
/// any order; [`PartitionEncoder::finish`] lays them out by id. The
/// encoder keeps its buffers from one record to the next, so a build that
/// encodes every partition through one encoder allocates only while they
/// grow.
#[derive(Debug)]
pub struct PartitionEncoder {
    /// Lists per vertex: the fixed three plus one bundle per level.
    lists: usize,
    /// Per pushed vertex, `id << 32 | offset`, where `offset` is where the
    /// vertex starts in `pushed`.
    slots: Vec<u64>,
    /// Every pushed vertex in push order, little-endian: its body with
    /// every list end four bytes wide.
    pushed: Vec<u8>,
    /// The largest entry total of a pushed vertex.
    largest: u32,
    /// The last record finished.
    record: Vec<u8>,
}

impl PartitionEncoder {
    /// An encoder for the records of an index with `levels` long-edge
    /// levels.
    pub fn new(levels: usize) -> Self {
        Self {
            lists: FIXED_LISTS + levels,
            slots: Vec::new(),
            pushed: Vec::new(),
            largest: 0,
            record: Vec::new(),
        }
    }

    /// Adds vertex `id` to the record under way, from borrowed parts, so
    /// construction can pass bundle slices straight from a
    /// [`MultiRes`](reach_contact::MultiRes).
    ///
    /// # Panics
    /// If `bundles` does not hold one list per level.
    pub fn push<'b>(
        &mut self,
        id: u32,
        interval: TimeInterval,
        members: &[u32],
        fwd: &[u32],
        rev: &[u32],
        bundles: impl ExactSizeIterator<Item = &'b [u32]>,
    ) {
        assert_eq!(
            FIXED_LISTS + bundles.len(),
            self.lists,
            "one long-edge bundle per level"
        );
        let at = self.pushed.len();
        let offset = u32::try_from(at).expect("a partition of fewer than 2^32 bytes");
        self.slots.push(u64::from(id) << 32 | u64::from(offset));
        self.pushed.extend_from_slice(&interval.start.to_le_bytes());
        self.pushed.extend_from_slice(&interval.end.to_le_bytes());
        let ends = at + INTERVAL;
        let entries = ends + 4 * self.lists;
        self.pushed.resize(entries, 0);
        let mut list = 0;
        let mut put = |values: &[u32]| {
            for &value in values {
                self.pushed.extend_from_slice(&value.to_le_bytes());
            }
            let total = u32::try_from((self.pushed.len() - entries) / 4).expect("a u32 total");
            self.pushed[ends + 4 * list..][..4].copy_from_slice(&total.to_le_bytes());
            list += 1;
            total
        };
        put(members);
        put(fwd);
        let total = bundles.fold(put(rev), |_, bundle| put(bundle));
        self.largest = self.largest.max(total);
    }

    /// Writes the record of every vertex pushed since the last call, in
    /// ascending id order, and returns it. The encoder is then empty.
    ///
    /// # Panics
    /// If a vertex id was pushed twice.
    pub fn finish(&mut self) -> &[u8] {
        self.slots.sort_unstable();
        assert!(
            self.slots.windows(2).all(|s| s[0] >> 32 != s[1] >> 32),
            "a vertex pushed twice into one partition"
        );
        let (lists, pushed) = (self.lists, &self.pushed);
        // A pushed vertex: its interval, its four-byte list ends, and its
        // entries, the last end counting them.
        let parts = |slot: u64| {
            let (interval, rest) = pushed[slot as u32 as usize..]
                .split_first_chunk::<INTERVAL>()
                .expect("pushed vertices hold an interval");
            let (ends, rest) = rest.split_at(4 * lists);
            let total = ends
                .last_chunk()
                .map_or(0, |&last| u32::from_le_bytes(last));
            (interval, ends, &rest[..4 * total as usize])
        };
        let width = width_for(self.largest);
        let count = self.slots.len();
        let entries = pushed.len() - count * (INTERVAL + 4 * lists);
        let size = HEADER + count * (SLOT + INTERVAL + lists * width) + entries;
        u32::try_from(size).expect("a partition record of fewer than 2^32 bytes");

        let record = &mut self.record;
        record.clear();
        record.reserve(size);
        record.extend_from_slice(&(count as u32).to_le_bytes());
        record.push(width as u8);
        // The slot table, filled in as each body is appended after it.
        record.resize(HEADER + SLOT * count, 0);
        for (i, &slot) in self.slots.iter().enumerate() {
            let (id, body) = ((slot >> 32) as u32, record.len() as u32);
            let at = HEADER + SLOT * i;
            record[at..at + 4].copy_from_slice(&id.to_le_bytes());
            record[at + 4..at + SLOT].copy_from_slice(&body.to_le_bytes());
            let (interval, ends, entries) = parts(slot);
            record.extend_from_slice(interval);
            push_packed(record, ends_of::<4>(ends), width);
            record.extend_from_slice(entries);
        }
        debug_assert_eq!(record.len(), size);
        self.slots.clear();
        self.pushed.clear();
        self.largest = 0;
        &self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexData;
    use proptest::prelude::*;

    fn vertex(start: u32, members: &[u32], bundles: Vec<Vec<u32>>) -> VertexData {
        VertexData {
            interval: TimeInterval::new(start, start + 4),
            members: members.to_vec(),
            fwd: vec![start + 10],
            rev: vec![],
            bundles,
        }
    }

    /// The record of `vertices`, pushed in the order given.
    fn record(levels: usize, vertices: &[(u32, VertexData)]) -> Vec<u8> {
        let mut encoder = PartitionEncoder::new(levels);
        for (id, v) in vertices {
            v.encode(*id, &mut encoder);
        }
        encoder.finish().to_vec()
    }

    /// Overwrites the `u32` at `at`.
    fn patch(bytes: &mut [u8], at: usize, value: u32) {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    fn is_corrupt(bytes: &[u8], levels: usize, placed: impl Fn(u32) -> bool) -> bool {
        matches!(
            Partition::decode(bytes, levels, placed),
            Err(IndexError::Corrupt(_))
        )
    }

    #[test]
    fn vertices_pushed_in_any_order_are_laid_out_by_id() {
        let vs = vec![
            (9, vertex(0, &[1, 2], vec![vec![3], vec![]])),
            (4, vertex(5, &[2], vec![vec![], vec![7, 8]])),
            (6, vertex(9, &[], vec![vec![1], vec![2]])),
        ];
        let bytes = record(2, &vs);
        let ids: Vec<u32> = (0..3)
            .map(|i| u32_at(&bytes, HEADER + SLOT * i).unwrap())
            .collect();
        assert_eq!(ids, [4, 6, 9]);
        let p = Partition::decode(bytes.as_slice(), 2, |_| true).unwrap();
        let mut scratch = Vec::new();
        for (id, v) in &vs {
            assert_eq!(&p.vertex(*id, &mut scratch).unwrap().to_data(), v);
            assert_eq!(p.interval(*id), Some(v.interval));
        }
        assert!(p.vertex(5, &mut scratch).is_none());
        assert_eq!(p.into_record(), bytes, "the record is kept as read");
    }

    #[test]
    fn records_out_of_id_order_are_rejected() {
        let vs = [
            (4, vertex(5, &[2], vec![vec![7]])),
            (6, vertex(9, &[3], vec![vec![1]])),
        ];
        let mut bytes = record(1, &vs);
        // Swap the ids of the two slots: the bodies stay where the slots
        // say, but the table runs 6, 4.
        patch(&mut bytes, HEADER, 6);
        patch(&mut bytes, HEADER + SLOT, 4);
        assert!(is_corrupt(&bytes, 1, |_| true));
    }

    #[test]
    fn corrupt_records_are_typed_errors() {
        // Three vertices of one level, lists of 1, 1, 0 and 1 entries: at
        // `w = 1`, bodies of 8 + 4 + 12 bytes after a 5 + 24-byte table.
        let vs = [
            (3, vertex(0, &[1], vec![vec![2]])),
            (4, vertex(2, &[1], vec![vec![2]])),
            (7, vertex(6, &[5], vec![vec![8]])),
        ];
        let bytes = record(1, &vs);
        let body = |i: usize| HEADER + SLOT * 3 + 24 * i;
        assert_eq!(bytes.len(), body(3));
        assert_eq!(u32_at(&bytes, HEADER + 4), Some(body(0) as u32));
        Partition::decode(bytes.as_slice(), 1, |_| true).unwrap();
        let corrupt = |what: &str, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = bytes.clone();
            edit(&mut bad);
            assert!(is_corrupt(&bad, 1, |_| true), "{what} decoded");
        };

        for cut in 0..bytes.len() {
            assert!(
                is_corrupt(&bytes[..cut], 1, |_| true),
                "prefix of {cut} bytes"
            );
        }
        for width in [0, 3, 5, 8, 255] {
            corrupt(&format!("width {width}"), &|b| b[4] = width);
            // Without vertices, only the width itself is wrong.
            let empty = [0, 0, 0, 0, width];
            assert!(is_corrupt(&empty, 1, |_| true), "empty, width {width}");
        }
        corrupt("a count past the record", &|b| patch(b, 0, 4));
        corrupt("a count short of the record", &|b| patch(b, 0, 2));
        corrupt("a huge count", &|b| patch(b, 0, u32::MAX));
        corrupt("ids out of order", &|b| patch(b, HEADER + SLOT, 9));
        corrupt("a duplicate id", &|b| patch(b, HEADER + SLOT, 3));
        assert!(
            is_corrupt(&bytes, 1, |v| v != 4),
            "a vertex the page table places elsewhere"
        );
        let offset = |i: usize| HEADER + SLOT * i + 4;
        corrupt("a gap before the first body", &|b| {
            patch(b, offset(0), body(0) as u32 + 1)
        });
        corrupt("a gap between bodies", &|b| {
            patch(b, offset(1), body(1) as u32 + 4)
        });
        corrupt("overlapping bodies", &|b| {
            patch(b, offset(2), body(2) as u32 - 4)
        });
        corrupt("an offset past the record", &|b| {
            patch(b, offset(2), u32::MAX)
        });
        // List ends of body 1 (members, fwd, rev, bundle): 1, 2, 2, 3.
        let ends = body(1) + INTERVAL;
        assert_eq!(&bytes[ends..ends + 4], &[1, 2, 2, 3]);
        corrupt("decreasing ends", &|b| b[ends + 1] = 0);
        corrupt("a list past its body", &|b| b[ends + 3] = 4);
        corrupt("the last list past the record", &|b| {
            b[body(2) + INTERVAL + 3] = 255
        });
        corrupt("a backwards interval", &|b| {
            patch(b, body(1), 9);
            patch(b, body(1) + 4, 3);
        });
        corrupt("a trailing byte", &|b| b.push(0));
        corrupt("a trailing entry", &|b| b.extend([0; 4]));
        assert!(is_corrupt(&bytes, 0, |_| true), "fewer levels than written");
        assert!(is_corrupt(&bytes, 2, |_| true), "more levels than written");
    }

    #[test]
    fn an_encoder_starts_each_record_afresh() {
        let wide = vertex(0, &[7; 300], vec![vec![1]]);
        let narrow = vertex(3, &[2], vec![vec![]]);
        let mut encoder = PartitionEncoder::new(1);
        wide.encode(4, &mut encoder);
        assert_eq!(encoder.finish()[4], 2, "300 entries need two-byte ends");
        narrow.encode(9, &mut encoder);
        let bytes = encoder.finish().to_vec();
        assert_eq!(bytes, record(1, &[(9, narrow.clone())]));
        let p = Partition::decode(bytes, 1, |v| v == 9).unwrap();
        assert_eq!(p.vertex(9, &mut Vec::new()).unwrap().to_data(), narrow);
    }

    #[test]
    fn an_empty_record_decodes_to_no_vertices() {
        let bytes = record(2, &[]);
        assert_eq!(bytes, [0, 0, 0, 0, 1]);
        let p = Partition::decode(bytes, 2, |_| false).unwrap();
        assert!(p.vertex(0, &mut Vec::new()).is_none());
    }

    /// A list of up to `max` entries.
    fn list(max: usize) -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec(any::<u32>(), 0..=max)
    }

    /// A vertex of an index with `levels` levels whose entries total one of
    /// the boundaries of a list-end width (255/256, 65,535/65,536) or a
    /// small random count.
    fn vertex_data(levels: usize) -> impl Strategy<Value = VertexData> {
        // Mostly small vertices; one in seven grows to a width boundary.
        let mut totals = vec![None; 24];
        totals.extend([255usize, 256, 65_535, 65_536].map(Some));
        (
            any::<u32>(),
            any::<u32>(),
            list(6),
            list(4),
            list(4),
            prop::collection::vec(list(3), levels),
            prop::sample::select(totals),
            0..3 + levels,
        )
            .prop_map(|(a, b, members, fwd, rev, bundles, total, list)| {
                let mut v = VertexData {
                    interval: TimeInterval::new(a.min(b), a.max(b)),
                    members,
                    fwd,
                    rev,
                    bundles,
                };
                if let Some(total) = total {
                    // Grow one list so the vertex holds exactly `total`.
                    let held = v.members.len() + v.fwd.len() + v.rev.len();
                    let held = held + v.bundles.iter().map(Vec::len).sum::<usize>();
                    let grown = match list {
                        0 => &mut v.members,
                        1 => &mut v.fwd,
                        2 => &mut v.rev,
                        level => &mut v.bundles[level - 3],
                    };
                    grown.extend((0..total - held).map(|i| i as u32 ^ a));
                }
                v
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every vertex of a random record comes back as encoded, through
        /// one scratch buffer reused across vertices of any size, and an
        /// id the record does not hold comes back as `None`. Entry totals
        /// at the width boundaries exercise every list-end width.
        #[test]
        fn lazy_vertices_match_what_was_encoded(
            (levels, vertices) in (0usize..=5).prop_flat_map(|levels| {
                let vertices = prop::collection::vec((0u32..200, vertex_data(levels)), 0..8);
                (Just(levels), vertices)
            }),
            absent in prop::collection::vec(0u32..220, 8),
        ) {
            // Ids are distinct; the encoder takes them in any order.
            let mut vertices = vertices;
            let mut seen = std::collections::HashSet::new();
            vertices.retain(|(id, _)| seen.insert(*id));
            let bytes = record(levels, &vertices);
            let largest = vertices.iter().map(|(_, v)| {
                v.members.len() + v.fwd.len() + v.rev.len()
                    + v.bundles.iter().map(Vec::len).sum::<usize>()
            }).max().unwrap_or(0);
            prop_assert_eq!(usize::from(bytes[4]), width_for(largest as u32));
            let p = Partition::decode(bytes, levels, |_| true).unwrap();
            let mut scratch = Vec::new();
            for (id, v) in &vertices {
                let got = p.vertex(*id, &mut scratch).map(|view| view.to_data());
                prop_assert_eq!(got.as_ref(), Some(v));
                prop_assert_eq!(p.interval(*id), Some(v.interval));
            }
            for id in absent {
                if vertices.iter().all(|(held, _)| *held != id) {
                    prop_assert!(p.vertex(id, &mut scratch).is_none());
                    prop_assert!(p.interval(id).is_none());
                }
            }
        }
    }
}
