//! ReachGrid query processing — Algorithm 1 of the paper (§4.2).
//!
//! Each query reads through its own cold pager ([`ReachGrid`] is an
//! immutable image), so concurrent queries count exactly their lone IO.
//! The evaluator sweeps the query interval chunk by chunk, keeping the
//! *seed set* (objects already reachable from the query source), and stops
//! as soon as the destination becomes a seed. Cell buffers are discarded at
//! chunk boundaries, as the paper prescribes.
//!
//! **Per chunk.** Each cell the chunk reads is decoded once, straight from
//! its record bytes, into a flat [`CellArena`]. A seed refers to its chunk
//! segment by arena entry, so no segment is copied. The rest of the working
//! state is dense (a slot per cell id, an entry per object) and is reset
//! through the lists of what the chunk touched. The chunk starts by loading
//! each seed's directory cell (FindCells), which must hold the seed.
//!
//! **Per tick.** A tick runs passes to a fix-point over same-tick contact
//! chains. Each pass takes a *frontier*: every seed on the first pass, and
//! on each later pass the seeds the pass before found. For each frontier
//! seed at position `p`, the pass loads the potential-seed cells
//! `N_i = cells_around(p, d_T)` not yet loaded, then tests `p` against each
//! non-seed object whose tick-`t` *home cell* (the cell its sample falls in)
//! is in `N_i`, testing each object in its home cell only. No spatial hash
//! is built. This is exact: the build stores an object's segment in every
//! cell one of its samples falls in, and an object within `d_T` of `p` has
//! its home cell in `N_i` (see [`GridGeometry::cells_around`]). Seeds from
//! earlier passes need no second probe: their `N_i` were loaded when they
//! were probed, so every object near them was found then.
//!
//! **Load order.** Counted IO depends only on which cells load, in which
//! order, and the order here is the one the recorded IO baselines were
//! taken with. The frontier is taken from its back. A tick's first pass
//! fills it with the seeds in ascending id; each pass's finds refill it
//! sorted by (lowest loaded cell holding them, id), the order a scan of all
//! loaded cells in cell-id order would meet them. `tests/pinned_io.rs`
//! pins the resulting IO exactly.
//!
//! [`GridGeometry::cells_around`]: crate::GridGeometry::cells_around

use crate::cells::{CellArena, NO_ENTRY};
use crate::index::ReachGrid;
use reach_core::{IndexError, ObjectId, Query, QueryOutcome, QueryResult, QueryStats, ReachIndex};
use reach_storage::Pager;
use std::ops::Range;
use std::time::Instant;

/// Per-chunk working state of Algorithm 1, allocated once per query and
/// reset at each chunk through the lists of what the chunk touched.
struct ChunkState {
    /// The chunk's decoded cells.
    arena: CellArena,
    /// Arena entries per cell id, once the chunk has loaded the cell (an
    /// empty cell, which is not stored, loads as an empty range).
    cells: Vec<Option<Range<u32>>>,
    /// Cells loaded this chunk.
    loaded: Vec<u32>,
    /// Per object: an arena entry holding its segment, or [`NO_ENTRY`].
    entry: Vec<u32>,
    /// Per object with an entry: the lowest loaded cell id holding it.
    low_cell: Vec<u32>,
    /// Objects with an entry this chunk.
    seen: Vec<u32>,
}

impl ChunkState {
    fn new(num_cells: u32, num_objects: usize) -> Self {
        Self {
            arena: CellArena::default(),
            cells: vec![None; num_cells as usize],
            loaded: Vec::new(),
            entry: vec![NO_ENTRY; num_objects],
            low_cell: vec![0; num_objects],
            seen: Vec::new(),
        }
    }

    /// Empties the state for a chunk of `seg_len` ticks.
    fn reset(&mut self, seg_len: usize) {
        self.arena.reset(seg_len);
        for c in self.loaded.drain(..) {
            self.cells[c as usize] = None;
        }
        for o in self.seen.drain(..) {
            self.entry[o as usize] = NO_ENTRY;
        }
    }
}

impl ReachGrid {
    /// Algorithm 1 for one query on `pager`.
    fn run_query(
        &self,
        pager: &mut Pager,
        q: &Query,
        stats: &mut QueryStats,
    ) -> Result<QueryOutcome, IndexError> {
        let interval = q.admit(self.num_objects(), self.horizon())?;
        if q.source == q.dest {
            return Ok(QueryOutcome::reachable_at(interval.start));
        }
        let threshold = self.params.threshold;

        let mut is_seed = vec![false; self.num_objects()];
        is_seed[q.source.index()] = true;
        // Seeds in the order they became seeds (FindCells looks them up in
        // this order) and in ascending id (each tick's first pass).
        let mut seed_list: Vec<u32> = vec![q.source.0];
        let mut ascending: Vec<u32> = vec![q.source.0];
        let mut state = ChunkState::new(self.geometry.num_cells(), self.num_objects());
        let mut frontier: Vec<u32> = Vec::new();
        let mut found: Vec<u32> = Vec::new();
        let mut around: Vec<u32> = Vec::new();

        let first_chunk = self.layout.chunk_of(interval.start);
        let last_chunk = self.layout.chunk_of(interval.end);
        for j in first_chunk..=last_chunk {
            let chunk_window = self.layout.window(j);
            let window = chunk_window
                .intersect(&interval)
                .expect("chunk range overlaps the query interval");
            state.reset(chunk_window.len() as usize);
            // FindCells: load every current seed's directory cell.
            for &s in &seed_list {
                let cell = self.dir_lookup(pager, j, ObjectId(s))?;
                let entries = self.load_cell(pager, j, cell, &mut state, stats)?;
                if !state.arena.holds(entries, s) {
                    return Err(IndexError::Corrupt(format!(
                        "directory of chunk {j} sends o{s} to cell {cell}, which does not hold it"
                    )));
                }
            }
            for t in window.ticks() {
                let idx = (t - chunk_window.start) as usize;
                frontier.clear();
                frontier.extend_from_slice(&ascending);
                loop {
                    while let Some(s) = frontier.pop() {
                        let p = state.arena.segment(state.entry[s as usize])[idx];
                        around.clear();
                        self.geometry.cells_around(p, threshold, &mut around);
                        for &cell in &around {
                            for e in self.load_cell(pager, j, cell, &mut state, stats)? {
                                let o = state.arena.id(e) as usize;
                                if is_seed[o] {
                                    continue;
                                }
                                let sample = state.arena.segment(e)[idx];
                                if self.geometry.cell_of(sample) != cell {
                                    continue;
                                }
                                stats.examined += 1;
                                if p.within(&sample, threshold) {
                                    // Becoming a seed also keeps later
                                    // frontier seeds from finding it again.
                                    is_seed[o] = true;
                                    found.push(o as u32);
                                }
                            }
                        }
                    }
                    if found.is_empty() {
                        break;
                    }
                    found.sort_unstable_by_key(|&o| (state.low_cell[o as usize], o));
                    for &o in &found {
                        seed_list.push(o);
                        if o == q.dest.0 {
                            return Ok(QueryOutcome::reachable_at(t));
                        }
                    }
                    ascending.extend_from_slice(&found);
                    ascending.sort_unstable();
                    // Loop again: the new seeds may close same-tick chains.
                    frontier.append(&mut found);
                }
            }
        }
        Ok(QueryOutcome::UNREACHABLE)
    }

    /// Loads `cell` of `chunk` into the arena unless the chunk already
    /// has, and returns its entries.
    fn load_cell(
        &self,
        pager: &mut Pager,
        chunk: u32,
        cell: u32,
        state: &mut ChunkState,
        stats: &mut QueryStats,
    ) -> Result<Range<u32>, IndexError> {
        if let Some(entries) = &state.cells[cell as usize] {
            return Ok(entries.clone());
        }
        let entries = match self.chunks[chunk as usize].cell_ptr(cell) {
            Some(ptr) => {
                stats.visited += 1;
                self.read_cell_into(pager, ptr, &mut state.arena)?
            }
            None => 0..0,
        };
        for e in entries.clone() {
            let o = state.arena.id(e) as usize;
            if state.entry[o] == NO_ENTRY {
                state.entry[o] = e;
                state.low_cell[o] = cell;
                state.seen.push(o as u32);
            } else {
                state.low_cell[o] = state.low_cell[o].min(cell);
            }
        }
        state.cells[cell as usize] = Some(entries.clone());
        state.loaded.push(cell);
        Ok(entries)
    }
}

impl ReachIndex for ReachGrid {
    fn name(&self) -> &'static str {
        "ReachGrid"
    }

    /// Guided expansion (Algorithm 1) on a cold pager of its own.
    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        let started = Instant::now();
        let mut pager = self.open();
        let mut stats = QueryStats::default();
        let outcome = self.run_query(&mut pager, query, &mut stats)?;
        let io = pager.stats();
        stats.random_ios = io.random_reads;
        stats.seq_ios = io.seq_reads;
        stats.cpu = started.elapsed();
        Ok(QueryResult { outcome, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GridParams;
    use reach_contact::Oracle;
    use reach_core::{Environment, Point, Time, TimeInterval};
    use reach_traj::{Trajectory, TrajectoryStore};

    /// Three walkers on a line: o0 stays west, o1 walks from o0 to o2,
    /// o2 stays east. Contacts: o0-o1 early, o1-o2 late.
    fn relay_store() -> TrajectoryStore {
        let env = Environment::square(200.0);
        let mk = |id: u32, f: &dyn Fn(u32) -> f32| {
            Trajectory::new(
                ObjectId(id),
                0,
                (0..40).map(|t| Point::new(f(t), 0.0)).collect(),
            )
        };
        let trajs = vec![
            mk(0, &|_| 0.0),
            mk(1, &|t| t as f32 * 4.0), // 0 → 156
            mk(2, &|_| 150.0),
        ];
        TrajectoryStore::new(env, trajs).unwrap()
    }

    fn grid(store: &TrajectoryStore) -> ReachGrid {
        ReachGrid::build(
            store,
            GridParams {
                temporal: 10,
                cell_size: 30.0,
                threshold: 5.0,
                cache_pages: 32,
                page_size: 256,
            },
        )
        .unwrap()
    }

    fn q(s: u32, d: u32, a: Time, b: Time) -> Query {
        Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b))
    }

    #[test]
    fn relay_chain_is_found() {
        let store = relay_store();
        let g = grid(&store);
        let oracle = Oracle::build(&store, 5.0);
        // o0 → o2 requires the full relay through o1.
        let full = g.evaluate(&q(0, 2, 0, 39)).unwrap();
        assert_eq!(full.outcome, oracle.evaluate(&q(0, 2, 0, 39)));
        assert!(full.reachable());
        // Cutting the interval before o1 meets o2 breaks the chain.
        let cut = g.evaluate(&q(0, 2, 0, 20)).unwrap();
        assert_eq!(cut.outcome, oracle.evaluate(&q(0, 2, 0, 20)));
        assert!(!cut.reachable());
    }

    #[test]
    fn direction_matters() {
        let store = relay_store();
        let g = grid(&store);
        let oracle = Oracle::build(&store, 5.0);
        // o2 → o0 needs the reverse chronology (o2 meets o1 *after* o1 left
        // o0), so it must be unreachable.
        let r = g.evaluate(&q(2, 0, 0, 39)).unwrap();
        assert_eq!(r.outcome, oracle.evaluate(&q(2, 0, 0, 39)));
        assert!(!r.reachable());
    }

    #[test]
    fn self_query_costs_nothing() {
        let store = relay_store();
        let g = grid(&store);
        let r = g.evaluate(&q(1, 1, 5, 10)).unwrap();
        assert!(r.reachable());
        assert_eq!(r.stats.random_ios + r.stats.seq_ios, 0);
    }

    #[test]
    fn early_termination_reads_less() {
        let store = relay_store();
        let g = grid(&store);
        // o0 → o1 succeeds in the first chunk; the same query over the whole
        // horizon must not read more pages than the unreachable o0 → o2 cut.
        let quick = g.evaluate(&q(0, 1, 0, 39)).unwrap();
        let slow = g.evaluate(&q(0, 2, 0, 20)).unwrap();
        assert!(quick.reachable());
        assert!(
            quick.stats.normalized_io() <= slow.stats.normalized_io(),
            "early termination should not cost more IO"
        );
    }

    #[test]
    fn unknown_object_and_bad_interval_error() {
        let store = relay_store();
        let g = grid(&store);
        assert!(matches!(
            g.evaluate(&q(9, 0, 0, 5)),
            Err(IndexError::UnknownObject(_))
        ));
        assert!(matches!(
            g.evaluate(&q(0, 1, 100, 120)),
            Err(IndexError::IntervalOutOfRange { .. })
        ));
    }

    #[test]
    fn interval_end_clipped_to_horizon() {
        let store = relay_store();
        let g = grid(&store);
        let r = g.evaluate(&q(0, 2, 0, 10_000)).unwrap();
        assert!(r.reachable());
    }

    #[test]
    fn trait_dispatch_works() {
        let store = relay_store();
        let g = grid(&store);
        let idx: &dyn ReachIndex = &g;
        assert_eq!(idx.name(), "ReachGrid");
        assert!(idx.evaluate(&q(0, 1, 0, 39)).unwrap().reachable());
    }

    #[test]
    fn every_query_starts_cold() {
        // A warm pager would serve the repeat from its buffer pool; each
        // query's own cold pager pays the same IO again.
        let store = relay_store();
        let g = grid(&store);
        let first = g.evaluate(&q(0, 2, 0, 39)).unwrap().stats;
        let again = g.evaluate(&q(0, 2, 0, 39)).unwrap().stats;
        assert!(first.random_ios > 0);
        assert_eq!(
            (first.random_ios, first.seq_ios, first.visited),
            (again.random_ios, again.seq_ios, again.visited)
        );
    }

    /// Overwrites the `u32` that sits `at` bytes past the start of `page`
    /// on the index's device; `at` may run past that page, since a record
    /// need not start a page and may span several.
    fn patch(g: &mut ReachGrid, page: u64, at: usize, value: u32) {
        let dev = g.device_mut();
        let size = dev.page_size();
        let (page, at) = (page + (at / size) as u64, at % size);
        assert!(at + 4 <= size, "the patched u32 lies on one page");
        let mut buf = vec![0; size];
        dev.read_page_into(page, &mut buf).unwrap();
        buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
        dev.write_page(page, &buf).unwrap();
    }

    #[test]
    fn corrupt_cell_is_an_error_for_grid_and_spj() {
        let store = relay_store();
        // Chunk 0's cell 0 holds o0 and o1, ten samples each: after the
        // record's length prefix, a count, then per object its id, its
        // sample count and 80 bytes of samples.
        let ptr = grid(&store).chunk(0).cell_ptr(0).unwrap();
        let at = ptr.offset as usize + 4;
        let (o0_len, o1_id) = (at + 8, at + 4 + 88);
        for (field, value, what) in [
            (o1_id, 3, "object id out of range"),
            (o1_id, 0, "object ids not ascending"),
            (o0_len, 9, "segment shorter than the chunk"),
            (o0_len, 11, "segment longer than the chunk"),
            (at, u32::MAX, "count overrunning the record"),
        ] {
            let mut g = grid(&store);
            assert!(g.evaluate(&q(0, 2, 0, 39)).is_ok());
            patch(&mut g, ptr.page, field, value);
            assert!(
                matches!(g.evaluate(&q(0, 2, 0, 39)), Err(IndexError::Corrupt(_))),
                "ReachGrid: {what}"
            );
            assert!(
                matches!(
                    crate::Spj::new(&g).evaluate(&q(0, 2, 0, 39)),
                    Err(IndexError::Corrupt(_))
                ),
                "SPJ: {what}"
            );
        }
        // Relabelling o2's only chunk-0 record (cell 5) as o0 leaves a
        // valid record but o2 in no cell: SPJ's full scan notices.
        let mut g = grid(&store);
        let ptr = g.chunk(0).cell_ptr(5).unwrap();
        patch(&mut g, ptr.page, ptr.offset as usize + 8, 0);
        assert!(matches!(
            crate::Spj::new(&g).evaluate(&q(0, 2, 0, 39)),
            Err(IndexError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_directory_entry_is_an_error() {
        let store = relay_store();
        // o0's chunk-0 entry is the first of the directory. The grid has
        // 7 × 7 cells; cell 5 holds only o2, and cell 48 is empty.
        for (cell, what) in [
            (49, "cell beyond the grid"),
            (5, "cell not holding the object"),
            (48, "empty cell"),
        ] {
            let mut g = grid(&store);
            assert!(g.evaluate(&q(0, 2, 0, 39)).is_ok());
            let page = g.dir_first_page;
            patch(&mut g, page, 0, cell);
            assert!(
                matches!(g.evaluate(&q(0, 2, 0, 39)), Err(IndexError::Corrupt(_))),
                "{what}"
            );
        }
    }
}
