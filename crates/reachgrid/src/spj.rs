//! SPJ — the paper's naïve baseline (§6.1.2).
//!
//! SPJ materializes the query-relevant contact network `C'` by *retrieving
//! every trajectory segment overlapping the query interval* (a full scan of
//! the window's chunks) and only then traverses it. It shares ReachGrid's
//! on-disk layout, so the comparison isolates the value of guided expansion:
//! the paper reports ReachGrid beating SPJ by ≥ 96 %.
//!
//! Each tick's contact pairs come from the join's exact sort-and-sweep
//! kernel ([`reach_traj::proximity_pairs`]); one [`SweepScratch`] carries
//! the `x` order across the ticks and chunks of a query, so consecutive
//! ticks pay only a near-linear insertion pass. The join is CPU work on
//! pages already read, so it never changes SPJ's counted IO.

use crate::cells::{CellArena, NO_ENTRY};
use crate::index::ReachGrid;
use reach_core::{
    IndexError, Point, Query, QueryOutcome, QueryResult, QueryStats, ReachIndex, UnionFind,
};
use reach_traj::{proximity_pairs, SweepScratch};
use std::time::Instant;

/// SPJ evaluator borrowing a built ReachGrid layout.
pub struct Spj<'a> {
    grid: &'a ReachGrid,
}

impl<'a> Spj<'a> {
    /// Wraps a grid index for full-scan evaluation.
    pub fn new(grid: &'a ReachGrid) -> Self {
        Self { grid }
    }
}

impl ReachIndex for Spj<'_> {
    fn name(&self) -> &'static str {
        "SPJ"
    }

    /// Full materialization of `C'` followed by propagation, reading
    /// through its own cold pager.
    fn evaluate(&self, q: &Query) -> Result<QueryResult, IndexError> {
        let started = Instant::now();
        let grid = self.grid;
        let mut pager = grid.open();
        let mut stats = QueryStats::default();
        let interval = q.admit(grid.num_objects(), grid.horizon())?;

        let n = grid.num_objects();
        let mut infected = vec![false; n];
        infected[q.source.index()] = true;
        let mut earliest = if q.source == q.dest {
            Some(interval.start)
        } else {
            None
        };

        let first_chunk = grid.layout.chunk_of(interval.start);
        let last_chunk = grid.layout.chunk_of(interval.end);
        let threshold = grid.params.threshold;
        let mut sweep = SweepScratch::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut uf = UnionFind::new(n);
        let mut arena = CellArena::default();
        // Per object: the arena entry of its first cell this chunk.
        let mut entry = vec![NO_ENTRY; n];
        for j in first_chunk..=last_chunk {
            let chunk_window = grid.layout.window(j);
            let window = chunk_window
                .intersect(&interval)
                .expect("chunk overlaps interval");
            // Full scan: every cell of the chunk, in disk order. This is the
            // entire IO bill of SPJ — no pruning, no early termination.
            arena.reset(chunk_window.len() as usize);
            entry.fill(NO_ENTRY);
            for &(_, ptr) in &grid.chunks[j as usize].cells {
                for e in grid.read_cell_into(&mut pager, ptr, &mut arena)? {
                    let o = arena.id(e) as usize;
                    if entry[o] == NO_ENTRY {
                        entry[o] = e;
                    }
                }
                stats.visited += 1;
            }
            if let Some(o) = entry.iter().position(|&e| e == NO_ENTRY) {
                return Err(IndexError::Corrupt(format!(
                    "no cell of chunk {j} holds o{o}"
                )));
            }
            // Traverse the materialized sub-network tick by tick.
            let mut points: Vec<Point> = vec![Point::default(); n];
            for t in window.ticks() {
                let idx = (t - chunk_window.start) as usize;
                for (p, &e) in points.iter_mut().zip(&entry) {
                    *p = arena.segment(e)[idx];
                }
                proximity_pairs(&points, threshold, &mut sweep, &mut pairs);
                stats.examined += pairs.len() as u64;
                if pairs.is_empty() {
                    continue;
                }
                uf.reset();
                for &(a, b) in &pairs {
                    uf.union(a, b);
                }
                // Component closure: infect whole components that contain an
                // infected member.
                let mut roots: Vec<(u32, u32)> = Vec::with_capacity(pairs.len() * 2);
                for &(a, b) in &pairs {
                    roots.push((uf.find(a), a));
                    roots.push((uf.find(b), b));
                }
                roots.sort_unstable();
                roots.dedup();
                let mut i = 0;
                while i < roots.len() {
                    let root = roots[i].0;
                    let mut k = i;
                    let mut any = false;
                    while k < roots.len() && roots[k].0 == root {
                        any |= infected[roots[k].1 as usize];
                        k += 1;
                    }
                    if any {
                        for r in &roots[i..k] {
                            if !infected[r.1 as usize] {
                                infected[r.1 as usize] = true;
                                if r.1 == q.dest.0 && earliest.is_none() {
                                    earliest = Some(t);
                                }
                            }
                        }
                    }
                    i = k;
                }
            }
        }

        let io = pager.stats();
        stats.random_ios = io.random_reads;
        stats.seq_ios = io.seq_reads;
        stats.cpu = started.elapsed();
        let outcome = match earliest {
            Some(t) => QueryOutcome::reachable_at(t),
            None => QueryOutcome::UNREACHABLE,
        };
        Ok(QueryResult { outcome, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GridParams;
    use reach_contact::Oracle;
    use reach_core::{Environment, ObjectId, Time, TimeInterval};
    use reach_traj::{Trajectory, TrajectoryStore};

    fn store() -> TrajectoryStore {
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
            mk(1, &|t| t as f32 * 4.0),
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
    fn spj_matches_oracle() {
        let store = store();
        let oracle = Oracle::build(&store, 5.0);
        let g = grid(&store);
        for (s, d, a, b) in [
            (0, 2, 0, 39),
            (0, 2, 0, 20),
            (2, 0, 0, 39),
            (0, 1, 0, 10),
            (1, 2, 20, 39),
        ] {
            let query = q(s, d, a, b);
            let got = Spj::new(&g).evaluate(&query).unwrap();
            assert_eq!(got.outcome, oracle.evaluate(&query), "query {query}");
        }
    }

    #[test]
    fn guided_expansion_prunes_remote_clusters() {
        // ReachGrid's advantage materializes when most of the window's data
        // is spatially irrelevant to the query: plant a busy far-away
        // cluster that SPJ must scan but guided expansion never touches.
        let env = Environment::square(2000.0);
        let mk = |id: u32, f: Box<dyn Fn(u32) -> (f32, f32)>| {
            Trajectory::new(
                ObjectId(id),
                0,
                (0..40)
                    .map(|t| {
                        let (x, y) = f(t);
                        Point::new(x, y)
                    })
                    .collect(),
            )
        };
        let mut trajs = vec![
            mk(0, Box::new(|_| (0.0, 0.0))),
            mk(1, Box::new(|t| (t as f32 * 4.0, 0.0))),
            mk(2, Box::new(|_| (150.0, 0.0))),
        ];
        // A dozen objects milling around a far corner.
        for i in 0..12u32 {
            trajs.push(mk(
                3 + i,
                Box::new(move |t| {
                    (
                        1800.0 + (i % 4) as f32 * 3.0 + (t as f32 * 0.1).sin(),
                        1800.0 + (i / 4) as f32 * 3.0,
                    )
                }),
            ));
        }
        let store = TrajectoryStore::new(env, trajs).unwrap();
        let g = ReachGrid::build(
            &store,
            GridParams {
                temporal: 10,
                cell_size: 100.0,
                threshold: 5.0,
                cache_pages: 64,
                page_size: 256,
            },
        )
        .unwrap();
        let query = q(0, 2, 0, 39);
        let spj = Spj::new(&g).evaluate(&query).unwrap().stats;
        let grid = g.evaluate(&query).unwrap().stats;
        assert!(
            spj.random_ios + spj.seq_ios > grid.random_ios + grid.seq_ios,
            "SPJ ({spj:?}) should read strictly more pages than guided expansion ({grid:?})"
        );
        // The grid evaluator must never touch the remote cluster's cells.
        assert!(grid.visited < spj.visited);
    }

    #[test]
    fn spj_io_is_interval_proportional_not_outcome_dependent() {
        let store = store();
        let g = grid(&store);
        // Same interval, different destinations: identical full-scan IO.
        let a = Spj::new(&g).evaluate(&q(0, 1, 0, 39)).unwrap();
        let b = Spj::new(&g).evaluate(&q(0, 2, 0, 39)).unwrap();
        assert_eq!(
            a.stats.random_ios + a.stats.seq_ios,
            b.stats.random_ios + b.stats.seq_ios
        );
    }
}
