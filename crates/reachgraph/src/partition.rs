//! Decoded partition records.
//!
//! A partition record (written by [`crate::ReachGraph::build_on`]) is a
//! `u32` vertex count followed, per vertex, by its `u32` id and its
//! [`VertexData::encode`](crate::VertexData::encode) bytes. [`Partition`]
//! decodes a whole record once into flat tables — every list back to back
//! in one `u32` arena, list boundaries, intervals, and an id → slot table —
//! and hands out [`Vertex`] views into them, so a traversal visiting the
//! partition's vertices allocates nothing per visit.

use crate::vertex::Vertex;
use reach_core::{IndexError, TimeInterval};
use reach_storage::ByteReader;

/// Lists every vertex stores before its long-edge bundles: members, fwd,
/// rev.
const FIXED_LISTS: usize = 3;

/// One partition record, decoded and validated.
#[derive(Debug)]
pub struct Partition {
    /// `(vertex id, slot)`, ascending by id.
    slots: Vec<(u32, u32)>,
    /// Validity interval per slot.
    intervals: Vec<TimeInterval>,
    /// List boundaries into `arena`: slot `s` owns lists
    /// `s * lists .. (s + 1) * lists`, list `i` spans
    /// `bounds[i]..bounds[i + 1]`.
    bounds: Vec<u32>,
    /// Every list of every vertex, back to back, in record order.
    arena: Vec<u32>,
    /// Lists per vertex: the fixed three plus one bundle per level.
    lists: usize,
}

impl Partition {
    /// Decodes and validates a whole partition record of an index with
    /// `levels` long-edge levels. `placed_here(v)` says whether the page
    /// table places vertex `v` in this partition.
    ///
    /// One pass, every table sized exactly up front: a vertex's framing
    /// (id, interval, one length prefix per list, bundle count) has a fixed
    /// size, so the bytes a valid record leaves after the framing are
    /// exactly its list entries. Errors are [`IndexError::Corrupt`]: a
    /// truncated record or a list running past it, a malformed interval, a
    /// bundle count other than `levels`, trailing bytes, a vertex the page
    /// table places elsewhere, or a vertex id appearing twice.
    pub fn decode(
        record: &[u8],
        levels: usize,
        placed_here: impl Fn(u32) -> bool,
    ) -> Result<Self, IndexError> {
        let corrupt = |what: String| IndexError::Corrupt(format!("partition record: {what}"));
        let lists = FIXED_LISTS + levels;
        let mut r = ByteReader::new(record);
        let count = r.get_u32()? as usize;
        let framing = 4 + 8 + 4 * lists + 1;
        let entries = count
            .checked_mul(framing)
            .and_then(|bytes| r.remaining().checked_sub(bytes))
            .map(|payload| payload / 4)
            .filter(|&n| u32::try_from(n).is_ok())
            .ok_or_else(|| corrupt(format!("{count} vertices overrun {} bytes", record.len())))?;

        let mut slots = Vec::with_capacity(count);
        let mut intervals = Vec::with_capacity(count);
        let mut bounds = Vec::with_capacity(count * lists + 1);
        let mut arena = Vec::with_capacity(entries);
        bounds.push(0);
        for slot in 0..count as u32 {
            let id = r.get_u32()?;
            if !placed_here(id) {
                return Err(corrupt(format!(
                    "holds vertex {id}, which the page table places elsewhere"
                )));
            }
            let (start, end) = (r.get_u32()?, r.get_u32()?);
            let interval = TimeInterval::try_new(start, end)
                .ok_or_else(|| corrupt(format!("vertex {id} interval [{start}, {end}]")))?;
            slots.push((id, slot));
            intervals.push(interval);
            for list in 0..lists {
                if list == FIXED_LISTS {
                    let bundles = r.get_u8()? as usize;
                    if bundles != levels {
                        return Err(corrupt(format!(
                            "vertex {id} has {bundles} long-edge bundles, the index has {levels} levels"
                        )));
                    }
                }
                for b in r.get_u32_list_bytes()?.chunks_exact(4) {
                    arena.push(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                }
                bounds.push(arena.len() as u32);
            }
        }
        if r.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after {count} vertices",
                r.remaining()
            )));
        }
        slots.sort_unstable();
        if let Some(w) = slots.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(corrupt(format!("holds vertex {} twice", w[0].0)));
        }
        Ok(Self {
            slots,
            intervals,
            bounds,
            arena,
            lists,
        })
    }

    /// Vertex `v`, if this partition holds it.
    pub fn vertex(&self, v: u32) -> Option<Vertex<'_>> {
        let at = self.slots.binary_search_by_key(&v, |&(id, _)| id).ok()?;
        let slot = self.slots[at].1 as usize;
        let b = &self.bounds[slot * self.lists..=(slot + 1) * self.lists];
        let list = |i: usize| &self.arena[b[i] as usize..b[i + 1] as usize];
        Some(Vertex::in_arena(
            self.intervals[slot],
            list(0),
            list(1),
            list(2),
            &self.arena,
            &b[FIXED_LISTS..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexData;
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
        let p = Partition::decode(&record(&vs), 2, |_| true).unwrap();
        assert_eq!(p.slots.len(), 3);
        assert_eq!(p.arena.len(), p.arena.capacity(), "arena sized exactly");
        for (id, v) in &vs {
            assert_eq!(&p.vertex(*id).unwrap().to_data(), v);
        }
        assert!(p.vertex(5).is_none());
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
}
