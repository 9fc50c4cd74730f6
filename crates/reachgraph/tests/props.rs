//! Property tests for the ReachGraph traversals: point queries and batch
//! reachable-set queries must agree with brute-force propagation on random
//! event worlds, through both the memory and the disk backing.

use proptest::prelude::*;
use reach_contact::{DnGraph, MultiRes, Oracle, DEFAULT_LEVELS};
use reach_core::{ObjectId, Query, TimeInterval};
use reach_graph::{reachable_set, GraphParams, MemoryHn, ReachGraph, TraversalKind};

fn script_strategy(
    max_objects: usize,
    max_horizon: usize,
) -> impl Strategy<Value = (usize, Vec<Vec<(u32, u32)>>)> {
    (3..=max_objects, 4..=max_horizon).prop_flat_map(move |(n, h)| {
        let pair = (0..n as u32, 0..n as u32)
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| (a.min(b), a.max(b))));
        let tick = prop::collection::vec(pair, 0..3);
        prop::collection::vec(tick, h).prop_map(move |script| (n, script))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch reachable-set (memory backing) ≡ oracle spread, including the
    /// exact earliest hold tick of every object.
    #[test]
    fn reachable_set_matches_oracle((n, script) in script_strategy(7, 24)) {
        let h = script.len() as u32;
        let dn = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        let oracle = Oracle::from_events(n, script);
        let mut hn = MemoryHn::new(&dn, &mr);
        for s in 0..n as u32 {
            for (t1, t2) in [(0, h - 1), (h / 3, h - 1), (0, h / 2)] {
                let iv = TimeInterval::new(t1, t2);
                let got = reachable_set(&mut hn, ObjectId(s), iv)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?
                    .0;
                let (_, when) = oracle.spread(ObjectId(s), iv, None);
                let expected: Vec<(ObjectId, u32)> = when
                    .iter()
                    .enumerate()
                    .filter_map(|(o, w)| w.map(|t| (ObjectId(o as u32), t)))
                    .collect();
                prop_assert_eq!(
                    &got, &expected,
                    "batch mismatch from o{} over {} (n={}, h={})", s, iv, n, h
                );
            }
        }
    }

    /// Disk and memory backings return identical point-query verdicts and
    /// visit counts for BM-BFS across random parameters.
    #[test]
    fn disk_equals_memory(
        (n, script) in script_strategy(6, 20),
        depth in 1u32..12,
        cache in 1usize..6,
        page in prop::sample::select(vec![128usize, 256, 512]),
    ) {
        let h = script.len() as u32;
        let dn = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        let disk = ReachGraph::build(
            &dn,
            &mr,
            GraphParams {
                partition_depth: depth,
                partition_cache: cache,
                page_size: page,
                ..GraphParams::default()
            },
        )
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mem = MemoryHn::new(&dn, &mr);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(0, h - 1));
                let a = disk
                    .evaluate_with(&q, TraversalKind::BmBfs)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                let b = mem
                    .evaluate_with(&q, TraversalKind::BmBfs)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(a.reachable(), b.reachable(), "verdict differs on {}", q);
                prop_assert_eq!(a.stats.visited, b.stats.visited, "visits differ on {}", q);
            }
        }
    }

    /// The reachable set is monotone in the interval and always contains the
    /// source at the start tick.
    #[test]
    fn reachable_set_monotone((n, script) in script_strategy(6, 20)) {
        let h = script.len() as u32;
        let dn = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        let mr = MultiRes::build(&dn, &[]);
        let mut hn = MemoryHn::new(&dn, &mr);
        for s in 0..n as u32 {
            let mut prev = 0usize;
            for t2 in 0..h {
                let set = reachable_set(&mut hn, ObjectId(s), TimeInterval::new(0, t2))
                    .map_err(|e| TestCaseError::fail(e.to_string()))?
                    .0;
                prop_assert!(set.iter().any(|&(o, t)| o == ObjectId(s) && t == 0));
                prop_assert!(set.len() >= prev, "reachable set shrank at t2={}", t2);
                prev = set.len();
            }
        }
    }
}
