//! Property tests for ReachGrid's structural pieces: grid geometry, cell
//! records, and the index layout.

use proptest::prelude::*;
use reach_core::{Environment, ObjectId, Point};
use reach_grid::{CellArena, CellData, ChunkLayout, GridGeometry, GridParams, ReachGrid};
use reach_mobility::RwpConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every point maps to exactly one cell, and that cell is always among
    /// the cells returned by a neighborhood probe around the point.
    #[test]
    fn geometry_cell_mapping_consistent(
        w in 50.0f32..5000.0,
        h in 50.0f32..5000.0,
        cell in 10.0f32..2000.0,
        x in 0.0f32..5000.0,
        y in 0.0f32..5000.0,
        margin in 0.0f32..500.0,
    ) {
        let g = GridGeometry::new(w, h, cell);
        let p = Point::new(x.min(w), y.min(h));
        let home = g.cell_of(p);
        prop_assert!(home < g.num_cells());
        let mut around = Vec::new();
        g.cells_around(p, margin, &mut around);
        prop_assert!(around.contains(&home), "home cell missing from probe");
        for &c in &around {
            prop_assert!(c < g.num_cells());
        }
        // Probe set grows monotonically with the margin.
        let mut wider = Vec::new();
        g.cells_around(p, margin + cell, &mut wider);
        for c in &around {
            prop_assert!(wider.contains(c), "wider probe lost a cell");
        }
    }

    /// Chunk windows partition the horizon exactly.
    #[test]
    fn chunk_windows_partition_horizon(temporal in 1u32..100, horizon in 1u32..5000) {
        let l = ChunkLayout { temporal, horizon };
        let mut covered = 0u64;
        let mut expected_start = 0u32;
        for j in 0..l.num_chunks() {
            let w = l.window(j);
            prop_assert_eq!(w.start, expected_start, "gap before chunk {}", j);
            covered += w.len();
            expected_start = w.end + 1;
            // Every tick of the window maps back to this chunk.
            prop_assert_eq!(l.chunk_of(w.start), j);
            prop_assert_eq!(l.chunk_of(w.end), j);
        }
        prop_assert_eq!(covered, u64::from(horizon));
    }

    /// Cell records round-trip for arbitrary contents, and a second record
    /// decoded into the same arena lands right after the first.
    #[test]
    fn cell_records_roundtrip(
        objects in prop::collection::vec(
            (0u32..1000, prop::collection::vec((0.0f32..1e4, 0.0f32..1e4), 30)),
            0..20,
        ),
        seg_len in 1usize..30,
    ) {
        let mut objects: Vec<(ObjectId, Vec<Point>)> = objects
            .into_iter()
            .map(|(o, ps)| {
                let samples = ps.into_iter().take(seg_len).map(|(x, y)| Point::new(x, y));
                (ObjectId(o), samples.collect())
            })
            .collect();
        objects.sort_by_key(|(o, _)| *o);
        objects.dedup_by_key(|(o, _)| *o);
        let cell = CellData { objects };
        let record = cell.encode();
        let mut arena = CellArena::default();
        arena.reset(seg_len);
        let first = arena.decode(&record, 1000).expect("roundtrip decodes");
        let second = arena.decode(&record, 1000).expect("roundtrip decodes");
        prop_assert_eq!(second.start, first.end);
        prop_assert_eq!(arena.to_cell_data(first), cell.clone());
        prop_assert_eq!(arena.to_cell_data(second), cell);
    }

    /// Index construction invariants hold across parameter space: every
    /// object has a directory entry pointing at a stored, non-empty cell
    /// containing its full chunk segment.
    #[test]
    fn directory_always_points_at_a_populated_cell(
        seed in 0u64..100,
        temporal in prop::sample::select(vec![3u32, 7, 16]),
        cell in prop::sample::select(vec![40.0f32, 120.0, 400.0]),
    ) {
        let store = RwpConfig {
            env: Environment::square(400.0),
            num_objects: 8,
            horizon: 40,
            tick_seconds: 6.0,
            speed_min: 1.0,
            speed_max: 2.0,
            pause_ticks_max: 1,
        }
        .generate(seed);
        let mut grid = ReachGrid::build(
            &store,
            GridParams {
                temporal,
                cell_size: cell,
                threshold: 25.0,
                cache_pages: 16,
                page_size: 256,
            },
        )
        .expect("builds");
        for j in 0..grid.layout().num_chunks() {
            let window = grid.layout().window(j);
            for o in 0..8u32 {
                let c = grid.dir_lookup_for_tests(j, ObjectId(o)).expect("lookup succeeds");
                let ptr = grid
                    .chunk(j)
                    .cell_ptr(c)
                    .expect("directory cell must be stored");
                let data = grid.read_cell_for_tests(j, ptr).expect("cell decodes");
                let entry = data
                    .objects
                    .iter()
                    .find(|(obj, _)| *obj == ObjectId(o))
                    .expect("object present in its directory cell");
                prop_assert_eq!(entry.1.len() as u64, window.len(), "segment must span the chunk");
            }
        }
    }
}
