//! ReachGrid index construction and disk placement (paper §4.1).
//!
//! Layout on the block device (simulated or real, see
//! [`reach_storage::BlockDevice`]), in page order:
//!
//! 1. the object→cell *directory*: for every chunk, a fixed-width array of
//!    `u32` cell ids giving each object's cell at the chunk's first tick
//!    (the paper's external hash table mapping objects to trajectories);
//! 2. the cell records of chunk 0, page-aligned, ascending cell id;
//! 3. the cell records of chunk 1; … and so on.
//!
//! Cells of earlier chunks strictly precede later chunks (the paper's
//! placement rule for early termination) and the trajectories inside a cell
//! sit on consecutive pages.

use crate::cells::{CellArena, CellData, ChunkLayout, GridGeometry};
use crate::params::GridParams;
use reach_core::{Environment, IndexError, ObjectId, Time, TimeInterval};
use reach_storage::{BlockDevice, Pager, RecordPtr, RecordWriter, SharedDevice, SimDevice};
use reach_traj::TrajectoryStore;
use std::ops::Range;

/// Per-chunk metadata kept in memory (the grid directory itself is tiny
/// compared to the data; the object→cell directory is on disk).
#[derive(Clone, Debug)]
pub struct ChunkMeta {
    /// Tick window of the chunk.
    pub window: TimeInterval,
    /// `(cell id, record address)` of every non-empty cell, ascending id.
    pub cells: Vec<(u32, RecordPtr)>,
}

impl ChunkMeta {
    /// Record pointer of a cell, if the cell is non-empty.
    pub fn cell_ptr(&self, cell: u32) -> Option<RecordPtr> {
        self.cells
            .binary_search_by_key(&cell, |&(c, _)| c)
            .ok()
            .map(|i| self.cells[i].1)
    }
}

/// A fully constructed, disk-resident ReachGrid index: an immutable image
/// (parameters, grid geometry, chunk directory, and the device hub its
/// pages live behind). Every query reads through its own cold pager, so
/// one image serves any number of threads at once.
#[derive(Debug)]
pub struct ReachGrid {
    pub(crate) params: GridParams,
    pub(crate) geometry: GridGeometry,
    pub(crate) layout: ChunkLayout,
    pub(crate) chunks: Vec<ChunkMeta>,
    pub(crate) dir_first_page: u64,
    pub(crate) dir_pages_per_chunk: u64,
    pub(crate) num_objects: usize,
    pub(crate) device: SharedDevice,
}

impl ReachGrid {
    /// Builds the index for `store` on the paper's memory-backed simulator.
    pub fn build(store: &TrajectoryStore, params: GridParams) -> Result<Self, IndexError> {
        let device = SimDevice::new(params.page_size);
        Self::build_on(Box::new(device), store, params)
    }

    /// Builds the index for `store` onto any block device. The device's page
    /// size must match `params.page_size`. A [`SharedDevice`] handle joins
    /// its hub (and the hub's page cache, if any).
    pub fn build_on(
        mut device: Box<dyn BlockDevice>,
        store: &TrajectoryStore,
        params: GridParams,
    ) -> Result<Self, IndexError> {
        params.validate();
        assert_eq!(
            device.page_size(),
            params.page_size,
            "device page size must match GridParams page size"
        );
        let env: Environment = store.environment();
        let geometry = GridGeometry::new(env.width, env.height, params.cell_size);
        let layout = ChunkLayout {
            temporal: params.temporal,
            horizon: store.horizon(),
        };
        let num_objects = store.num_objects();
        let disk = device.as_mut();

        // --- Directory region -------------------------------------------
        let entries_per_page = params.page_size / 4;
        let dir_pages_per_chunk = (num_objects as u64)
            .div_ceil(entries_per_page as u64)
            .max(1);
        let num_chunks = layout.num_chunks() as u64;
        let dir_first_page = disk.allocate((dir_pages_per_chunk * num_chunks) as usize)?;

        // --- Cell region --------------------------------------------------
        let mut writer = RecordWriter::new(disk)?;
        let mut chunks = Vec::with_capacity(num_chunks as usize);
        let mut dir_page_buf = vec![0u8; params.page_size];
        for j in 0..layout.num_chunks() {
            let window = layout.window(j);
            // Assign each object's chunk segment to every cell one of its
            // samples falls in.
            let mut staging: std::collections::BTreeMap<u32, CellData> =
                std::collections::BTreeMap::new();
            let mut dir_entries: Vec<u32> = Vec::with_capacity(num_objects);
            let mut touched: Vec<u32> = Vec::new();
            for traj in store.iter() {
                let seg = traj
                    .segment(window)
                    .expect("chunk windows lie inside the horizon");
                touched.clear();
                for (_, p) in seg.samples() {
                    touched.push(self_cell(&geometry, p));
                }
                touched.sort_unstable();
                touched.dedup();
                dir_entries.push(self_cell(&geometry, seg.positions[0]));
                for &cell in &touched {
                    staging
                        .entry(cell)
                        .or_default()
                        .objects
                        .push((traj.object, seg.positions.to_vec()));
                }
            }
            // Write this chunk's directory pages.
            for (page_idx, chunk_entries) in dir_entries.chunks(entries_per_page).enumerate() {
                dir_page_buf.fill(0);
                for (k, &cell) in chunk_entries.iter().enumerate() {
                    dir_page_buf[k * 4..k * 4 + 4].copy_from_slice(&cell.to_le_bytes());
                }
                disk.write_page(
                    dir_first_page + u64::from(j) * dir_pages_per_chunk + page_idx as u64,
                    &dir_page_buf,
                )?;
            }
            // Write the chunk's cells in ascending cell-id order, each
            // page-aligned so its first access is one seek.
            let mut cells = Vec::with_capacity(staging.len());
            for (cell_id, data) in staging {
                writer.align_to_page(disk)?;
                let ptr = writer.append(disk, &data.encode())?;
                cells.push((cell_id, ptr));
            }
            chunks.push(ChunkMeta { window, cells });
        }
        writer.finish(disk)?;
        disk.reset_stats();
        Ok(Self {
            params,
            geometry,
            layout,
            chunks,
            dir_first_page,
            dir_pages_per_chunk,
            num_objects,
            device: SharedDevice::share(device),
        })
    }

    /// Index parameters.
    pub fn params(&self) -> &GridParams {
        &self.params
    }

    /// Grid geometry (spatial partitioning).
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Temporal chunk layout.
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// Number of indexed objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Indexed horizon.
    pub fn horizon(&self) -> Time {
        self.layout.horizon
    }

    /// Per-chunk metadata.
    pub fn chunk(&self, j: u32) -> &ChunkMeta {
        &self.chunks[j as usize]
    }

    /// Total index size on the device, in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.device.size_bytes()
    }

    /// The underlying block device (diagnostics and equivalence testing).
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        &mut self.device
    }

    /// A cold pager for one query: a fresh device handle (zeroed counters,
    /// no head position) with an empty `cache_pages` buffer pool.
    pub(crate) fn open(&self) -> Pager {
        self.device.cold_pager(self.params.cache_pages)
    }

    /// Test-only public wrapper over the directory lookup.
    #[doc(hidden)]
    pub fn dir_lookup_for_tests(&self, chunk: u32, o: ObjectId) -> Result<u32, IndexError> {
        self.dir_lookup(&mut self.open(), chunk, o)
    }

    /// Test-only public reader of one cell record of `chunk`.
    #[doc(hidden)]
    pub fn read_cell_for_tests(&self, chunk: u32, ptr: RecordPtr) -> Result<CellData, IndexError> {
        let mut arena = CellArena::default();
        arena.reset(self.layout.window(chunk).len() as usize);
        let entries = self.read_cell_into(&mut self.open(), ptr, &mut arena)?;
        Ok(arena.to_cell_data(entries))
    }

    /// Reads one object→cell directory entry through `pager`. A directory
    /// probe touches exactly one page, so it borrows the cached buffer via
    /// the zero-copy `with_page` path. An entry naming no cell of the grid
    /// is [`IndexError::Corrupt`].
    pub(crate) fn dir_lookup(
        &self,
        pager: &mut Pager,
        chunk: u32,
        o: ObjectId,
    ) -> Result<u32, IndexError> {
        let entries_per_page = self.params.page_size / 4;
        let page = self.dir_first_page
            + u64::from(chunk) * self.dir_pages_per_chunk
            + (o.index() / entries_per_page) as u64;
        let off = (o.index() % entries_per_page) * 4;
        let cell = pager.with_page(page, |bytes| {
            u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
        })?;
        if cell >= self.geometry.num_cells() {
            return Err(IndexError::Corrupt(format!(
                "directory of chunk {chunk} sends {o} to cell {cell}, the grid has {}",
                self.geometry.num_cells()
            )));
        }
        Ok(cell)
    }

    /// Reads one cell record through `pager` and decodes it into `arena`
    /// (see [`CellArena::decode`]), returning its entries.
    pub(crate) fn read_cell_into(
        &self,
        pager: &mut Pager,
        ptr: RecordPtr,
        arena: &mut CellArena,
    ) -> Result<Range<u32>, IndexError> {
        let bytes = reach_storage::read_record(pager, ptr)?;
        arena.decode(&bytes, self.num_objects)
    }
}

#[inline]
fn self_cell(geometry: &GridGeometry, p: reach_core::Point) -> u32 {
    geometry.cell_of(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::Point;
    use reach_traj::Trajectory;

    fn store() -> TrajectoryStore {
        // 3 objects, 25 ticks, 100×100 env: o0 in the west, o1 in the east,
        // o2 wandering across.
        let env = Environment::square(100.0);
        let mk = |id: u32, f: &dyn Fn(u32) -> (f32, f32)| {
            Trajectory::new(
                ObjectId(id),
                0,
                (0..25)
                    .map(|t| {
                        let (x, y) = f(t);
                        Point::new(x, y)
                    })
                    .collect(),
            )
        };
        let trajs = vec![
            mk(0, &|_| (10.0, 10.0)),
            mk(1, &|_| (90.0, 90.0)),
            mk(2, &|t| (4.0 * t as f32, 50.0)),
        ];
        TrajectoryStore::new(env, trajs).unwrap()
    }

    fn params() -> GridParams {
        GridParams {
            temporal: 10,
            cell_size: 25.0,
            threshold: 5.0,
            cache_pages: 16,
            page_size: 256,
        }
    }

    #[test]
    fn build_creates_expected_chunks() {
        let g = ReachGrid::build(&store(), params()).unwrap();
        assert_eq!(g.layout().num_chunks(), 3);
        assert_eq!(g.chunk(0).window, TimeInterval::new(0, 9));
        assert_eq!(g.chunk(2).window, TimeInterval::new(20, 24));
        assert_eq!(g.num_objects(), 3);
        assert!(g.size_bytes() > 0);
    }

    #[test]
    fn directory_points_to_start_cell() {
        let g = ReachGrid::build(&store(), params()).unwrap();
        let mut pager = g.open();
        // o0 at (10,10) → cell (0,0) = 0 in a 4×4 grid of 25m cells.
        assert_eq!(g.dir_lookup(&mut pager, 0, ObjectId(0)).unwrap(), 0);
        // o1 at (90,90) → cell (3,3) = 15.
        assert_eq!(g.dir_lookup(&mut pager, 0, ObjectId(1)).unwrap(), 15);
        // o2 starts chunk 1 at x=40 → col 1, row 2 → 9.
        assert_eq!(g.dir_lookup(&mut pager, 1, ObjectId(2)).unwrap(), 2 * 4 + 1);
    }

    #[test]
    fn cells_contain_full_segments() {
        let g = ReachGrid::build(&store(), params()).unwrap();
        let ptr = g.chunk(0).cell_ptr(0).expect("o0's home cell is non-empty");
        let cell = g.read_cell_for_tests(0, ptr).unwrap();
        let (o, samples) = &cell.objects[0];
        assert_eq!(*o, ObjectId(0));
        assert_eq!(samples.len(), 10, "full chunk segment stored");
    }

    #[test]
    fn moving_object_lands_in_multiple_cells() {
        let g = ReachGrid::build(&store(), params()).unwrap();
        // o2 crosses x=0..36 in chunk 0 → cells (0,2) and (1,2).
        let c_a = g.chunk(0).cell_ptr(2 * 4).expect("cell (0,2)");
        let c_b = g.chunk(0).cell_ptr(2 * 4 + 1).expect("cell (1,2)");
        let in_a = g.read_cell_for_tests(0, c_a).unwrap();
        let in_b = g.read_cell_for_tests(0, c_b).unwrap();
        assert!(in_a.objects.iter().any(|(o, _)| *o == ObjectId(2)));
        assert!(in_b.objects.iter().any(|(o, _)| *o == ObjectId(2)));
    }

    #[test]
    fn empty_cells_not_stored() {
        let g = ReachGrid::build(&store(), params()).unwrap();
        // 4×4 grid, but only a handful of cells are populated per chunk.
        assert!(g.chunk(0).cells.len() <= 6);
        assert!(g.chunk(0).cell_ptr(5).is_none(), "cell (1,1) is empty");
    }

    #[test]
    fn chunks_placed_in_order_on_disk() {
        let g = ReachGrid::build(&store(), params()).unwrap();
        let mut last = 0u64;
        for j in 0..g.layout().num_chunks() {
            for &(_, ptr) in &g.chunk(j).cells {
                assert!(
                    ptr.page >= last,
                    "cell pages must be non-decreasing across chunks"
                );
                last = ptr.page;
            }
        }
    }
}
