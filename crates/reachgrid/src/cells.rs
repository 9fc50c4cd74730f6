//! Grid-cell records: the on-disk unit of ReachGrid.
//!
//! A cell record holds, for every object whose chunk segment touches the
//! cell, the object's *full* segment for that temporal partition. Storing the
//! whole segment (rather than only the in-cell samples) keeps each seed's
//! position known for every tick of the chunk once a single cell containing
//! it has been read — the property Algorithm 1's incremental sweep relies on.

use reach_core::{Coord, IndexError, ObjectId, Point, Time};
use reach_storage::{ByteReader, ByteWriter};
use std::ops::Range;

/// Contents of one grid cell for one temporal partition, as the build
/// stages and encodes it (queries decode records into a [`CellArena`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellData {
    /// `(object, samples)` pairs, ascending by object id; `samples[k]` is
    /// the position at tick `window.start + k` of the chunk.
    pub objects: Vec<(ObjectId, Vec<Point>)>,
}

impl CellData {
    /// Serializes the cell into a record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(8 + self.objects.len() * 64);
        w.put_u32(self.objects.len() as u32);
        for (o, samples) in &self.objects {
            w.put_u32(o.0);
            w.put_u32(samples.len() as u32);
            for p in samples {
                w.put_f32(p.x);
                w.put_f32(p.y);
            }
        }
        w.into_bytes()
    }
}

/// Marks "no arena entry" in per-object tables indexed alongside a
/// [`CellArena`].
pub(crate) const NO_ENTRY: u32 = u32::MAX;

/// The cells one chunk's query has read, decoded back to back.
///
/// Entry `e` is one object's chunk segment from one cell: `id(e)` and
/// `segment(e)`, the `seg_len` samples stored entry-major in one flat
/// point table. A cell decodes straight from its record bytes into a
/// contiguous range of entries, so a chunk's reads allocate nothing per
/// object and a segment is never copied.
#[derive(Debug, Default)]
pub struct CellArena {
    /// Samples per segment: the length of the chunk's tick window.
    seg_len: usize,
    /// Object id per entry.
    ids: Vec<u32>,
    /// Samples of every entry, entry-major.
    pts: Vec<Point>,
    /// Bytes of the cell record last read, refilled by every read.
    pub(crate) record: Vec<u8>,
}

impl CellArena {
    /// Empties the arena for a chunk whose segments hold `seg_len` samples.
    pub fn reset(&mut self, seg_len: usize) {
        self.seg_len = seg_len;
        self.ids.clear();
        self.pts.clear();
    }

    /// Decodes one cell record of an index over `num_objects` objects and
    /// appends its entries, returning their range.
    ///
    /// The record's size is fixed by its object count and the chunk's
    /// window length, so it is checked before anything is reserved. Errors
    /// are [`IndexError::Corrupt`]: a record whose size does not match its
    /// count, a segment whose length is not the window's, or an object id
    /// that is out of range or not above the one before.
    pub fn decode(&mut self, record: &[u8], num_objects: usize) -> Result<Range<u32>, IndexError> {
        let corrupt = |what: String| IndexError::Corrupt(format!("cell record: {what}"));
        let u32_at = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let count = ByteReader::new(record).get_u32()? as usize;
        let body = &record[4..];
        let entry_bytes = 8 + 8 * self.seg_len;
        if count.checked_mul(entry_bytes) != Some(body.len()) {
            return Err(corrupt(format!(
                "{count} segments of {} samples do not fill {} bytes",
                self.seg_len,
                body.len()
            )));
        }
        let first = self.ids.len() as u32;
        self.ids.reserve(count);
        self.pts.reserve(count * self.seg_len);
        for entry in body.chunks_exact(entry_bytes) {
            let (id, len) = (u32_at(&entry[..4]), u32_at(&entry[4..8]));
            let prev = self.ids[first as usize..].last();
            if id as usize >= num_objects || prev.is_some_and(|&p| id <= p) {
                return Err(corrupt(format!(
                    "object {id} after {prev:?} in an index of {num_objects} objects"
                )));
            }
            if len as usize != self.seg_len {
                return Err(corrupt(format!(
                    "object {id} has {len} samples, the chunk has {} ticks",
                    self.seg_len
                )));
            }
            self.ids.push(id);
            self.pts.extend(entry[8..].chunks_exact(8).map(|b| {
                Point::new(
                    f32::from_le_bytes([b[0], b[1], b[2], b[3]]),
                    f32::from_le_bytes([b[4], b[5], b[6], b[7]]),
                )
            }));
        }
        Ok(first..self.ids.len() as u32)
    }

    /// Object id of entry `e`.
    #[inline]
    pub fn id(&self, e: u32) -> u32 {
        self.ids[e as usize]
    }

    /// Chunk segment of entry `e`: sample `k` is the position at the
    /// chunk's `k`-th tick.
    #[inline]
    pub fn segment(&self, e: u32) -> &[Point] {
        let start = e as usize * self.seg_len;
        &self.pts[start..start + self.seg_len]
    }

    /// The entries `entries` as an owned [`CellData`] (diagnostics and
    /// tests).
    pub fn to_cell_data(&self, entries: Range<u32>) -> CellData {
        CellData {
            objects: entries
                .map(|e| (ObjectId(self.id(e)), self.segment(e).to_vec()))
                .collect(),
        }
    }

    /// Whether object `o` has an entry in `cell`, a range
    /// [`CellArena::decode`] returned for one cell.
    pub fn holds(&self, cell: Range<u32>, o: u32) -> bool {
        self.ids[cell.start as usize..cell.end as usize]
            .binary_search(&o)
            .is_ok()
    }
}

/// Maps positions to spatial-grid cell coordinates.
#[derive(Clone, Copy, Debug)]
pub struct GridGeometry {
    /// Cell side in metres.
    pub cell_size: Coord,
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
}

impl GridGeometry {
    /// Builds the geometry for an environment of `width × height` metres.
    pub fn new(width: Coord, height: Coord, cell_size: Coord) -> Self {
        assert!(cell_size > 0.0);
        let cols = (width / cell_size).ceil().max(1.0) as u32;
        let rows = (height / cell_size).ceil().max(1.0) as u32;
        Self {
            cell_size,
            cols,
            rows,
        }
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> u32 {
        self.cols * self.rows
    }

    /// Cell id containing `p` (positions outside the environment are
    /// clamped to the border cells).
    #[inline]
    pub fn cell_of(&self, p: Point) -> u32 {
        let cx = grid_index(p.x / self.cell_size, self.cols);
        let cy = grid_index(p.y / self.cell_size, self.rows);
        cy * self.cols + cx
    }

    /// All cell ids intersecting the axis-aligned square of half-width
    /// `margin` around `p` — the cells a `d_T`-inflated seed position can
    /// touch (the potential-seed cells `N_i` of §4.2).
    pub fn cells_around(&self, p: Point, margin: Coord, out: &mut Vec<u32>) {
        let lo_x = grid_index((p.x - margin) / self.cell_size, self.cols);
        let hi_x = grid_index((p.x + margin) / self.cell_size, self.cols);
        let lo_y = grid_index((p.y - margin) / self.cell_size, self.rows);
        let hi_y = grid_index((p.y + margin) / self.cell_size, self.rows);
        for cy in lo_y..=hi_y {
            for cx in lo_x..=hi_x {
                out.push(cy * self.cols + cx);
            }
        }
    }
}

/// `⌊q⌋` clamped to `[0, n - 1]`, for a coordinate `q` in cell units.
///
/// Below 1 the clamp gives 0 whatever the floor is, and from 1 up the
/// truncating cast is the floor (saturating at `i64::MAX` for huge or
/// infinite `q`; NaN casts to 0). This avoids `f32::floor`, which baseline
/// x86-64 (no SSE4.1 `roundss`) compiles to a library call.
#[inline]
fn grid_index(q: Coord, n: u32) -> u32 {
    if q < 1.0 {
        0
    } else {
        (q as i64).min(i64::from(n) - 1) as u32
    }
}

/// A chunk (temporal partition) boundary helper: chunk `j` covers ticks
/// `[j·R_T, min((j+1)·R_T, horizon) - 1]`.
#[derive(Clone, Copy, Debug)]
pub struct ChunkLayout {
    /// Ticks per chunk (`R_T`).
    pub temporal: Time,
    /// Dataset horizon.
    pub horizon: Time,
}

impl ChunkLayout {
    /// Number of chunks.
    pub fn num_chunks(&self) -> u32 {
        if self.horizon == 0 {
            0
        } else {
            self.horizon.div_ceil(self.temporal)
        }
    }

    /// Chunk index containing tick `t`.
    #[inline]
    pub fn chunk_of(&self, t: Time) -> u32 {
        t / self.temporal
    }

    /// Tick window of chunk `j`.
    pub fn window(&self, j: u32) -> reach_core::TimeInterval {
        let start = j * self.temporal;
        let end = ((j + 1) * self.temporal - 1).min(self.horizon - 1);
        reach_core::TimeInterval::new(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes `cell`'s record into a fresh arena for a chunk of
    /// `seg_len` ticks in an index of 10 objects.
    fn decode(cell: &[u8], seg_len: usize) -> Result<CellData, IndexError> {
        let mut arena = CellArena::default();
        arena.reset(seg_len);
        let entries = arena.decode(cell, 10)?;
        Ok(arena.to_cell_data(entries))
    }

    #[test]
    fn cell_record_roundtrip() {
        let cell = CellData {
            objects: vec![
                (
                    ObjectId(3),
                    vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)],
                ),
                (
                    ObjectId(9),
                    vec![Point::new(-1.5, 0.25), Point::new(0.0, 7.0)],
                ),
            ],
        };
        assert_eq!(decode(&cell.encode(), 2).unwrap(), cell);
    }

    #[test]
    fn empty_cell_roundtrip() {
        let cell = CellData::default();
        assert_eq!(decode(&cell.encode(), 2).unwrap(), cell);
    }

    #[test]
    fn truncated_cell_is_corrupt() {
        let cell = CellData {
            objects: vec![(ObjectId(1), vec![Point::new(0.0, 0.0)])],
        };
        let bytes = cell.encode();
        for len in [0, 2, bytes.len() - 2] {
            assert!(matches!(
                decode(&bytes[..len], 1),
                Err(IndexError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn geometry_cell_mapping() {
        let g = GridGeometry::new(100.0, 50.0, 10.0);
        assert_eq!(g.cols, 10);
        assert_eq!(g.rows, 5);
        assert_eq!(g.num_cells(), 50);
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), 0);
        assert_eq!(g.cell_of(Point::new(95.0, 45.0)), 49);
        assert_eq!(g.cell_of(Point::new(15.0, 25.0)), 2 * 10 + 1);
        // Out-of-range positions clamp to border cells.
        assert_eq!(g.cell_of(Point::new(-5.0, -5.0)), 0);
        assert_eq!(g.cell_of(Point::new(1000.0, 1000.0)), 49);
    }

    /// Coordinates where the contact disk's edge and the grid lines meet
    /// around `c`: each of `c - d`, `c` and `c + d`, the grid lines on
    /// either side of it, and one ulp to either side of each of those.
    fn edges_near(c: f32, d: f32, cell: f32) -> Vec<f32> {
        let mut out = Vec::new();
        for v in [c - d, c, c + d] {
            let line = (v / cell).floor() * cell;
            for x in [v, line, line + cell] {
                out.extend([x.next_down(), x, x.next_up()]);
            }
        }
        out
    }

    /// A coordinate in grid-cell units `k + frac` (`k` may lie outside
    /// the grid), or on the line `k` nudged by `ulps`.
    fn coord(cell: f32) -> impl Strategy<Value = f32> {
        (-3i32..12, 0.0f32..1.0, -1i32..=1, any::<bool>()).prop_map(
            move |(k, frac, ulps, on_line)| {
                let line = k as f32 * cell;
                match (on_line, ulps) {
                    (false, _) => line + frac * cell,
                    (true, -1) => line.next_down(),
                    (true, 1) => line.next_up(),
                    (true, _) => line,
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rule both the query's cell loads and its frontier probes
        /// rest on: an object within `d` of a seed has its home cell among
        /// `cells_around(seed, d)`. Probed on, and one ulp beside, cell
        /// boundaries and the disk's edge, and outside the environment
        /// (where both sides clamp to the border cells).
        #[test]
        fn contact_implies_home_cell_around_seed(
            (cell, sx, sy) in prop::sample::select(vec![1.0f32, 7.3, 10.0, 100.0 / 3.0, 64.0])
                .prop_flat_map(|cell| (Just(cell), coord(cell), coord(cell))),
            cols in 1u32..9,
            rows in 1u32..9,
            d_cells in 0.0f32..2.5,
        ) {
            let g = GridGeometry::new(cols as f32 * cell, rows as f32 * cell, cell);
            let s = Point::new(sx, sy);
            let d = d_cells * cell;
            let mut around = Vec::new();
            g.cells_around(s, d, &mut around);
            for px in edges_near(sx, d, cell) {
                for py in edges_near(sy, d, cell) {
                    let p = Point::new(px, py);
                    if p.within(&s, d) {
                        prop_assert!(
                            around.contains(&g.cell_of(p)),
                            "{p:?} is within {d} of {s:?}, but its cell {} is not in {around:?}",
                            g.cell_of(p)
                        );
                    }
                }
            }
        }
    }

    /// A coordinate in cell units: any bit pattern (NaN, ±∞, negative,
    /// subnormal, |q| ≥ 2⁶³), one of a list of edge values, or a cell
    /// boundary `k` nudged by at most one ulp.
    fn cell_units() -> impl Strategy<Value = f32> {
        let two63 = (1u64 << 63) as f32;
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            two63,
            -two63,
            two63.next_down(),
            two63.next_up(),
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0f32.next_down(),
            -1.0f32.next_up(),
        ];
        (0u8..3, any::<u32>(), -3i32..70, -1i32..=1).prop_map(move |(kind, bits, k, ulps)| {
            match kind {
                0 => f32::from_bits(bits),
                1 => special[bits as usize % special.len()],
                _ => {
                    let line = k as f32;
                    match ulps {
                        -1 => line.next_down(),
                        1 => line.next_up(),
                        _ => line,
                    }
                }
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `grid_index` is the floor-and-clamp it replaces, on every kind
        /// of input.
        #[test]
        fn grid_index_is_floor_then_clamp(q in cell_units(), n in 1u32..64) {
            let expect = (q.floor() as i64).clamp(0, i64::from(n) - 1) as u32;
            prop_assert_eq!(grid_index(q, n), expect, "q = {:?}, n = {}", q, n);
        }
    }

    #[test]
    fn cells_around_covers_neighborhood() {
        let g = GridGeometry::new(100.0, 100.0, 10.0);
        let mut out = Vec::new();
        // Point in the middle of cell (5,5); margin under a cell: only the
        // home cell unless the margin crosses a boundary.
        g.cells_around(Point::new(55.0, 55.0), 4.0, &mut out);
        assert_eq!(out, vec![5 * 10 + 5]);
        out.clear();
        // Margin crossing into all 8 neighbors.
        g.cells_around(Point::new(55.0, 55.0), 6.0, &mut out);
        assert_eq!(out.len(), 9);
        out.clear();
        // Corner point: clamped to the grid.
        g.cells_around(Point::new(0.0, 0.0), 15.0, &mut out);
        assert_eq!(out.len(), 4); // cells (0,0),(1,0),(0,1),(1,1)
    }

    #[test]
    fn chunk_layout_windows() {
        let l = ChunkLayout {
            temporal: 20,
            horizon: 45,
        };
        assert_eq!(l.num_chunks(), 3);
        assert_eq!(l.window(0), reach_core::TimeInterval::new(0, 19));
        assert_eq!(l.window(1), reach_core::TimeInterval::new(20, 39));
        assert_eq!(l.window(2), reach_core::TimeInterval::new(40, 44));
        assert_eq!(l.chunk_of(0), 0);
        assert_eq!(l.chunk_of(19), 0);
        assert_eq!(l.chunk_of(20), 1);
        assert_eq!(l.chunk_of(44), 2);
    }

    #[test]
    fn chunk_layout_exact_multiple() {
        let l = ChunkLayout {
            temporal: 10,
            horizon: 30,
        };
        assert_eq!(l.num_chunks(), 3);
        assert_eq!(l.window(2), reach_core::TimeInterval::new(20, 29));
    }
}
