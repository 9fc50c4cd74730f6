//! Partition records, checked once and decoded a vertex at a time.
//!
//! A partition record (written by [`crate::ReachGraph::build_on`]) is a
//! `u32` vertex count followed, per vertex, by its `u32` id and its
//! [`VertexData::encode`](crate::VertexData::encode) bytes. A traversal
//! fetches whole records but visits only a few of each record's vertices,
//! so [`Partition`] keeps the record bytes as read and walks only their
//! framing up front: each vertex's id, interval, length prefixes and bundle
//! count. The walk makes every check a full decode would and builds a
//! sorted id → byte-offset table. [`Partition::vertex`] then decodes just
//! the asked-for vertex's lists, into a scratch buffer the caller owns, and
//! returns a [`Vertex`] view into it. Once a record is accepted, no later
//! decode of it can fail.

use crate::vertex::Vertex;
use reach_core::{IndexError, TimeInterval};

/// Lists every vertex stores before its long-edge bundles: members, fwd,
/// rev.
const FIXED_LISTS: usize = 3;

/// One partition record, its framing checked.
#[derive(Debug)]
pub struct Partition {
    /// The record as read: vertex count, then the vertices.
    record: Vec<u8>,
    /// Per vertex, `id << 32 | offset`, where `offset` is the position of
    /// its interval in `record`; ascending, so sorted by id.
    slots: Vec<u64>,
    /// Lists per vertex: the fixed three plus one bundle per level.
    lists: usize,
}

/// The little-endian `u32` at `at`, if the bytes hold one.
#[inline]
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let b: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(b))
}

impl Partition {
    /// Checks the framing of a whole partition record of an index with
    /// `levels` long-edge levels and keeps the record (a `Vec` moves in, a
    /// slice is copied). `placed_here(v)` says whether the page table
    /// places vertex `v` in this partition.
    ///
    /// A vertex's framing (id, interval, one length prefix per list, bundle
    /// count) has a fixed size, so the vertex count is checked against the
    /// record's size before the slot table is sized; the walk then checks
    /// each field once. Errors are [`IndexError::Corrupt`]: a truncated
    /// record or a list running past it, a malformed interval, a bundle
    /// count other than `levels`, trailing bytes, a vertex the page table
    /// places elsewhere, or a vertex id appearing twice.
    pub fn decode(
        record: impl Into<Vec<u8>>,
        levels: usize,
        placed_here: impl Fn(u32) -> bool,
    ) -> Result<Self, IndexError> {
        let record = record.into();
        let corrupt = |what: String| IndexError::Corrupt(format!("partition record: {what}"));
        let lists = FIXED_LISTS + levels;
        let size = record.len();
        let framing = 4 + 8 + 4 * lists + 1;
        let count = u32_at(&record, 0)
            .map(|count| count as usize)
            .filter(|&count| {
                u32::try_from(size).is_ok()
                    && count
                        .checked_mul(framing)
                        .is_some_and(|bytes| bytes <= size - 4)
            })
            .ok_or_else(|| corrupt(format!("vertex count does not fit {size} bytes")))?;

        let truncated = |at: usize| corrupt(format!("truncated at byte {at} of {size}"));
        let mut slots = Vec::with_capacity(count);
        let mut at = 4;
        for _ in 0..count {
            let head: [u8; 12] = record
                .get(at..at + 12)
                .and_then(|head| head.try_into().ok())
                .ok_or_else(|| truncated(at))?;
            let field =
                |i: usize| u32::from_le_bytes([head[i], head[i + 1], head[i + 2], head[i + 3]]);
            let (id, start, end) = (field(0), field(4), field(8));
            if !placed_here(id) {
                return Err(corrupt(format!(
                    "holds vertex {id}, which the page table places elsewhere"
                )));
            }
            if start > end {
                return Err(corrupt(format!("vertex {id} interval [{start}, {end}]")));
            }
            slots.push((u64::from(id) << 32) | (at + 4) as u64);
            at += 12;
            for list in 0..lists {
                let len = u32_at(&record, at).ok_or_else(|| truncated(at))? as usize;
                if len > (size - at - 4) / 4 {
                    return Err(corrupt(format!(
                        "vertex {id} list {list} of {len} entries runs past {size} bytes"
                    )));
                }
                at += 4 + 4 * len;
                if list + 1 == FIXED_LISTS {
                    let bundles = *record.get(at).ok_or_else(|| truncated(at))? as usize;
                    if bundles != levels {
                        return Err(corrupt(format!(
                            "vertex {id} has {bundles} long-edge bundles, the index has {levels} levels"
                        )));
                    }
                    at += 1;
                }
            }
        }
        if at != size {
            return Err(corrupt(format!(
                "{} trailing bytes after {count} vertices",
                size - at
            )));
        }
        slots.sort_unstable();
        if let Some(w) = slots.windows(2).find(|w| w[0] >> 32 == w[1] >> 32) {
            return Err(corrupt(format!("holds vertex {} twice", w[0] >> 32)));
        }
        Ok(Self {
            record,
            slots,
            lists,
        })
    }

    /// Position of vertex `v`'s interval in the record, if this partition
    /// holds it.
    fn offset_of(&self, v: u32) -> Option<usize> {
        let at = self
            .slots
            .binary_search_by_key(&v, |&slot| (slot >> 32) as u32)
            .ok()?;
        Some(self.slots[at] as u32 as usize)
    }

    /// The interval at `at`, which the framing walk checked.
    fn interval_at(&self, at: usize) -> TimeInterval {
        let field = |at| u32_at(&self.record, at).expect("checked framing");
        TimeInterval::new(field(at), field(at + 4))
    }

    /// Vertex `v`'s validity interval, if this partition holds it. Decodes
    /// none of its lists.
    pub fn interval(&self, v: u32) -> Option<TimeInterval> {
        self.offset_of(v).map(|at| self.interval_at(at))
    }

    /// Vertex `v`, if this partition holds it. Its lists are decoded into
    /// `scratch`, replacing what it held, and the view borrows them there:
    /// one bound per list, then every list back to back.
    pub fn vertex<'s>(&self, v: u32, scratch: &'s mut Vec<u32>) -> Option<Vertex<'s>> {
        let at = self.offset_of(v)?;
        let interval = self.interval_at(at);
        let bounds = self.lists + 1;
        scratch.clear();
        scratch.resize(bounds, 0);
        let mut pos = at + 8;
        for list in 0..self.lists {
            let len = u32_at(&self.record, pos).expect("checked framing") as usize;
            let bytes = &self.record[pos + 4..pos + 4 + 4 * len];
            scratch.extend(
                bytes
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
            scratch[list + 1] = (scratch.len() - bounds) as u32;
            // The bundle count byte follows rev.
            pos += 4 + 4 * len + usize::from(list + 1 == FIXED_LISTS);
        }
        let (b, arena) = scratch.split_at(bounds);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexData;
    use proptest::prelude::*;
    use reach_storage::ByteWriter;

    fn vertex(start: u32, members: &[u32], bundles: Vec<Vec<u32>>) -> VertexData {
        VertexData {
            interval: TimeInterval::new(start, start + 4),
            members: members.to_vec(),
            fwd: vec![start + 10],
            rev: vec![],
            bundles,
        }
    }

    fn record(vertices: &[(u32, VertexData)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(vertices.len() as u32);
        for (id, v) in vertices {
            w.put_u32(*id);
            v.encode(&mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn decodes_every_vertex_in_any_record_order() {
        let vs = vec![
            (9, vertex(0, &[1, 2], vec![vec![3], vec![]])),
            (4, vertex(5, &[2], vec![vec![], vec![7, 8]])),
            (6, vertex(9, &[], vec![vec![1], vec![2]])),
        ];
        let bytes = record(&vs);
        let p = Partition::decode(bytes.as_slice(), 2, |_| true).unwrap();
        assert_eq!(p.slots.len(), 3);
        let mut scratch = Vec::new();
        for (id, v) in &vs {
            assert_eq!(&p.vertex(*id, &mut scratch).unwrap().to_data(), v);
            assert_eq!(p.interval(*id), Some(v.interval));
        }
        assert!(p.vertex(5, &mut scratch).is_none());
        assert_eq!(p.into_record(), bytes, "the record is kept as read");
    }

    #[test]
    fn corrupt_records_are_typed_errors() {
        let one = |id| (id, vertex(0, &[1], vec![vec![2]]));
        let corrupt = |bytes: &[u8], placed: &dyn Fn(u32) -> bool| {
            matches!(
                Partition::decode(bytes, 1, placed),
                Err(IndexError::Corrupt(_))
            )
        };
        assert!(
            corrupt(&record(&[one(3), one(3)]), &|_| true),
            "duplicate id"
        );
        assert!(
            corrupt(&record(&[one(3), one(4)]), &|v| v == 3),
            "misplaced"
        );
        let mut trailing = record(&[one(3)]);
        trailing.push(0);
        assert!(corrupt(&trailing, &|_| true), "trailing byte");
        let levels = record(&[(3, vertex(0, &[1], vec![]))]);
        assert!(corrupt(&levels, &|_| true), "bundle count");
        // Start 9, end 3: count and id take bytes 0..8.
        let mut backwards = record(&[one(3)]);
        backwards[8..16].copy_from_slice(&[9, 0, 0, 0, 3, 0, 0, 0]);
        assert!(
            corrupt(&backwards, &|_| true),
            "interval ends before it starts"
        );
    }

    /// A list of up to `max` entries.
    fn list(max: usize) -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec(any::<u32>(), 0..=max)
    }

    /// A vertex of an index with `levels` levels.
    fn vertex_data(levels: usize) -> impl Strategy<Value = VertexData> {
        (
            any::<u32>(),
            any::<u32>(),
            list(6),
            list(4),
            list(4),
            prop::collection::vec(list(3), levels),
        )
            .prop_map(|(a, b, members, fwd, rev, bundles)| VertexData {
                interval: TimeInterval::new(a.min(b), a.max(b)),
                members,
                fwd,
                rev,
                bundles,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every vertex of a random record comes back as encoded, through
        /// one scratch buffer reused across vertices of any size, and an
        /// id the record does not hold comes back as `None`.
        #[test]
        fn lazy_vertices_match_what_was_encoded(
            (levels, vertices) in (0usize..=5).prop_flat_map(|levels| {
                let vertices = prop::collection::vec((0u32..200, vertex_data(levels)), 0..12);
                (Just(levels), vertices)
            }),
            absent in prop::collection::vec(0u32..220, 8),
        ) {
            // Ids are distinct; records hold vertices in placement order,
            // not id order.
            let mut vertices = vertices;
            let mut seen = std::collections::HashSet::new();
            vertices.retain(|(id, _)| seen.insert(*id));
            let p = Partition::decode(record(&vertices), levels, |_| true).unwrap();
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
