//! Memory-resident `HN` (paper §6.4, Table 5a).
//!
//! For datasets that fit in memory the paper compares ReachGraph against
//! GRAIL without any disk involvement; this adapter exposes a built
//! [`DnGraph`] + [`MultiRes`] pair directly to the traversal algorithms.

use crate::params::TraversalKind;
use crate::traverse::{evaluate, TraversalStats};
use crate::vertex::{HnSource, Vertex};
use reach_contact::{DnGraph, MultiRes};
use reach_core::{
    Answer, IndexError, ObjectId, Query, QueryKind, QueryResult, QueryStats, RankDirection,
    ReachIndex, ReachRequest, Time,
};
use std::time::Instant;

/// Memory-backed `HN` source. As a [`ReachIndex`] it is shared `&self`:
/// each query walks a fresh copy with its own `members` scratch.
pub struct MemoryHn<'a> {
    dn: &'a DnGraph,
    mr: &'a MultiRes,
    /// The last visited vertex's members as raw ids (the DN stores
    /// [`ObjectId`]s; every other list is borrowed in place).
    members: Vec<u32>,
}

impl<'a> MemoryHn<'a> {
    /// Wraps a DN and its long-edge bundles.
    pub fn new(dn: &'a DnGraph, mr: &'a MultiRes) -> Self {
        Self {
            dn,
            mr,
            members: Vec::new(),
        }
    }

    /// A copy over the same DN with empty scratch: one query's walk.
    fn fresh(&self) -> Self {
        Self::new(self.dn, self.mr)
    }

    /// Evaluates with an explicit strategy, timing the pure computation.
    pub fn evaluate_with(&self, q: &Query, kind: TraversalKind) -> Result<QueryResult, IndexError> {
        let started = Instant::now();
        let (outcome, tstats) = evaluate(&mut self.fresh(), q, kind)?;
        Ok(QueryResult {
            outcome,
            stats: QueryStats {
                visited: tstats.visited,
                examined: tstats.examined,
                cpu: started.elapsed(),
                ..Default::default()
            },
        })
    }

    /// Raw traversal counters for a query (test helper).
    pub fn raw(&self, q: &Query, kind: TraversalKind) -> Result<TraversalStats, IndexError> {
        Ok(evaluate(&mut self.fresh(), q, kind)?.1)
    }

    /// Every object reachable from `source` during `interval`, with exact
    /// earliest hold ticks (the paper's batch scenarios, §1).
    pub fn reachable_set(
        &self,
        source: ObjectId,
        interval: reach_core::TimeInterval,
    ) -> Result<Vec<(ObjectId, Time)>, IndexError> {
        Ok(crate::traverse::reachable_set(&mut self.fresh(), source, interval)?.0)
    }
}

impl HnSource for MemoryHn<'_> {
    fn backing(&self) -> &'static str {
        "memory"
    }

    fn levels(&self) -> &[Time] {
        self.mr.levels()
    }

    fn horizon(&self) -> Time {
        self.dn.horizon()
    }

    fn num_objects(&self) -> usize {
        self.dn.num_objects()
    }

    fn vertex(&mut self, v: u32) -> Result<Vertex<'_>, IndexError> {
        if v as usize >= self.dn.num_nodes() {
            return Err(IndexError::Corrupt(format!("vertex {v} out of range")));
        }
        let node = self.dn.node(v);
        self.members.clear();
        self.members.extend(node.members.iter().map(|m| m.0));
        Ok(Vertex::resident(
            node.interval,
            &self.members,
            self.dn.fwd(v),
            self.dn.rev(v),
            self.mr,
            v,
        ))
    }

    fn node_of(&mut self, o: ObjectId, t: Time) -> Result<u32, IndexError> {
        if o.index() >= self.dn.num_objects() {
            return Err(IndexError::UnknownObject(o));
        }
        Ok(self.dn.node_of(o, t).0)
    }
}

impl ReachIndex for MemoryHn<'_> {
    fn name(&self) -> &'static str {
        "ReachGraph(mem)"
    }

    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        self.evaluate_with(query, TraversalKind::BmBfs)
    }

    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        let started = Instant::now();
        let q = &request.query;
        let hn = &mut self.fresh();
        match request.kind {
            QueryKind::Reach => self.evaluate(q).map(Answer::from),
            QueryKind::Decay { theta, model } => {
                let (hit, tstats) =
                    crate::decay::decay_reachable(hn, q.source, q.dest, q.interval, &model, theta)?;
                Ok(Answer::decay(
                    q.dest,
                    hit,
                    QueryStats {
                        visited: tstats.visited,
                        examined: tstats.examined,
                        cpu: started.elapsed(),
                        ..Default::default()
                    },
                ))
            }
            QueryKind::TopK {
                k,
                model,
                direction,
            } => {
                let (ranking, tstats) = match direction {
                    RankDirection::Reachable => {
                        crate::decay::top_k_reachable(hn, q.source, q.interval, k, &model)?
                    }
                    RankDirection::Reaching => {
                        crate::decay::top_k_reaching(hn, q.source, q.interval, k, &model)?
                    }
                };
                Ok(Answer::ranked(
                    ranking,
                    QueryStats {
                        visited: tstats.visited,
                        examined: tstats.examined,
                        cpu: started.elapsed(),
                        ..Default::default()
                    },
                ))
            }
            _ => Err(request.unsupported(self.name())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reach_contact::{Oracle, DEFAULT_LEVELS};
    use reach_core::TimeInterval;

    fn random_world(
        seed: u64,
        n: usize,
        horizon: Time,
        density: f64,
    ) -> (DnGraph, MultiRes, Oracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let script: Vec<Vec<(u32, u32)>> = (0..horizon)
            .map(|_| {
                let mut pairs = Vec::new();
                for a in 0..n as u32 {
                    for b in (a + 1)..n as u32 {
                        if rng.gen_bool(density) {
                            pairs.push((a, b));
                        }
                    }
                }
                pairs
            })
            .collect();
        let dn = DnGraph::build_from_ticks(n, horizon, |t| script[t as usize].as_slice());
        dn.validate().unwrap();
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        let oracle = Oracle::from_events(n, script);
        (dn, mr, oracle)
    }

    #[test]
    fn all_kinds_match_oracle_on_random_worlds() {
        for seed in 0..8u64 {
            let n = 7;
            let horizon = 80;
            let (dn, mr, oracle) = random_world(seed, n, horizon, 0.02);
            let hn = MemoryHn::new(&dn, &mr);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5555);
            for _ in 0..60 {
                let s = rng.gen_range(0..n as u32);
                let d = rng.gen_range(0..n as u32);
                let a = rng.gen_range(0..horizon);
                let b = rng.gen_range(a..horizon);
                let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
                let expected = oracle.evaluate(&q).reachable;
                for kind in [
                    TraversalKind::EDfs,
                    TraversalKind::EBfs,
                    TraversalKind::BBfs,
                    TraversalKind::BmBfs,
                ] {
                    let got = hn.evaluate_with(&q, kind).unwrap().reachable();
                    assert_eq!(
                        got,
                        expected,
                        "{} disagrees with oracle on {q} (seed {seed})",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn instant_queries_equal_snapshot_components() {
        let (dn, mr, oracle) = random_world(42, 6, 30, 0.1);
        let hn = MemoryHn::new(&dn, &mr);
        for t in 0..30 {
            for s in 0..6u32 {
                for d in 0..6u32 {
                    let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::instant(t));
                    let got = hn.evaluate_with(&q, TraversalKind::BmBfs).unwrap();
                    assert_eq!(
                        got.reachable(),
                        oracle.evaluate(&q).reachable,
                        "instant query {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn bmbfs_visits_no_more_than_bbfs_on_long_windows() {
        // The whole point of long edges: fewer vertex visits on long
        // reachable windows. Compare totals across a batch.
        let (dn, mr, _) = random_world(3, 8, 200, 0.03);
        let hn = MemoryHn::new(&dn, &mr);
        let mut bm_total = 0u64;
        let mut b_total = 0u64;
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let s = rng.gen_range(0..8u32);
            let d = rng.gen_range(0..8u32);
            let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(0, 199));
            bm_total += hn.raw(&q, TraversalKind::BmBfs).unwrap().visited;
            b_total += hn.raw(&q, TraversalKind::BBfs).unwrap().visited;
        }
        assert!(
            bm_total <= b_total,
            "BM-BFS visited {bm_total} vs B-BFS {b_total}"
        );
    }

    #[test]
    fn unknown_object_errors() {
        let (dn, mr, _) = random_world(1, 4, 10, 0.05);
        let hn = MemoryHn::new(&dn, &mr);
        let q = Query::new(ObjectId(99), ObjectId(0), TimeInterval::new(0, 5));
        assert!(matches!(
            hn.evaluate_with(&q, TraversalKind::BmBfs),
            Err(IndexError::UnknownObject(_))
        ));
    }

    #[test]
    fn out_of_horizon_errors() {
        let (dn, mr, _) = random_world(1, 4, 10, 0.05);
        let hn = MemoryHn::new(&dn, &mr);
        let q = Query::new(ObjectId(0), ObjectId(1), TimeInterval::new(10, 12));
        assert!(matches!(
            hn.evaluate_with(&q, TraversalKind::BmBfs),
            Err(IndexError::IntervalOutOfRange { .. })
        ));
    }
}
