//! Property tests for the ReachGraph traversals: point queries and batch
//! reachable-set queries must agree with brute-force propagation on random
//! event worlds, through both the memory and the disk backing.

use proptest::prelude::*;
use reach_contact::{DnGraph, MultiRes, Oracle, DEFAULT_LEVELS};
use reach_core::{ObjectId, Query, Time, TimeInterval};
use reach_graph::{
    reachable_set, reachable_set_seeded, GraphParams, MemoryHn, ReachGraph, TraversalKind,
};

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

/// The oracle's answer to a seeded expansion over `[t1, t2]`: a seed
/// `(o, t)` holds from `max(t, t1)` and is skipped past `t2`, and each
/// object's row is its earliest arrival over the seeds' single-source
/// spreads, ascending by object id.
fn seeded_expected(
    oracle: &Oracle,
    seeds: &[(ObjectId, Time)],
    t1: Time,
    t2: Time,
) -> Vec<(ObjectId, Time)> {
    let mut when: Vec<Option<Time>> = vec![None; oracle.num_objects()];
    for &(o, t) in seeds {
        let entry = t.max(t1);
        if entry > t2 {
            continue;
        }
        let (_, reached) = oracle.spread(o, TimeInterval::new(entry, t2), None);
        for (slot, r) in when.iter_mut().zip(reached) {
            if let Some(r) = r {
                *slot = Some(slot.map_or(r, |w: Time| w.min(r)));
            }
        }
    }
    (0..)
        .zip(when)
        .filter_map(|(o, w)| w.map(|t| (ObjectId(o), t)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-seed expansion (memory and disk backing) ≡ the earliest
    /// arrival over the seeds' oracle spreads, with rows strictly ascending
    /// by object id — the order `FrontierHandoff::absorb` relies on.
    #[test]
    fn seeded_reachable_set_matches_oracle(
        (n, script) in script_strategy(9, 24),
        raw_seeds in prop::collection::vec((0u32..9, 0u32..30), 1..5),
        raw_window in (0u32..24, 0u32..24),
    ) {
        let h = script.len() as u32;
        let dn = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        let oracle = Oracle::from_events(n, script);
        let disk = ReachGraph::build(
            &dn,
            &mr,
            GraphParams {
                partition_depth: 4,
                page_size: 256,
                ..GraphParams::default()
            },
        )
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut mem = MemoryHn::new(&dn, &mr);
        let seeds: Vec<(ObjectId, Time)> = raw_seeds
            .iter()
            .map(|&(o, t)| (ObjectId(o % n as u32), t))
            .collect();
        let (a, b) = (raw_window.0 % h, raw_window.1 % h);
        let iv = TimeInterval::new(a.min(b), a.max(b));
        let expected = seeded_expected(&oracle, &seeds, iv.start, iv.end);
        let from_mem = reachable_set_seeded(&mut mem, &seeds, iv)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .0;
        let from_disk = disk
            .reachable_set_from(&seeds, iv)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .0;
        prop_assert!(
            from_mem.windows(2).all(|w| w[0].0 < w[1].0),
            "rows not strictly ascending: {:?}", from_mem
        );
        prop_assert_eq!(&from_mem, &expected, "seeds {:?} over {} (n={}, h={})", seeds, iv, n, h);
        prop_assert_eq!(&from_disk, &expected, "disk, seeds {:?} over {}", seeds, iv);
    }

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
