//! ReachGrid and SPJ must agree with the brute-force oracle on randomized
//! mobility datasets across grid resolutions.

use proptest::prelude::*;
use reach_contact::Oracle;
use reach_core::{ObjectId, Query, ReachIndex, TimeInterval};
use reach_grid::{GridParams, ReachGrid, Spj};
use reach_mobility::{RwpConfig, WorkloadConfig};
use reach_traj::TrajectoryStore;

fn dataset(seed: u64, n: usize, horizon: u32) -> TrajectoryStore {
    RwpConfig {
        env: reach_core::Environment::square(300.0),
        num_objects: n,
        horizon,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 4.0,
        pause_ticks_max: 2,
    }
    .generate(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reachgrid_matches_oracle(
        seed in 0u64..1000,
        temporal in prop::sample::select(vec![4u32, 7, 10, 20]),
        cell in prop::sample::select(vec![40.0f32, 75.0, 150.0, 400.0]),
    ) {
        let store = dataset(seed, 8, 60);
        let threshold = 25.0;
        let oracle = Oracle::build(&store, threshold);
        let grid = ReachGrid::build(
            &store,
            GridParams {
                temporal,
                cell_size: cell,
                threshold,
                cache_pages: 64,
                page_size: 256,
            },
        ).unwrap();
        let queries = WorkloadConfig {
            num_queries: 30,
            interval_len_min: 5,
            interval_len_max: 50,
        }
        .generate(8, 60, seed ^ 0xABCD);
        for q in &queries {
            let expected = oracle.evaluate(q);
            let got = grid.evaluate(q).unwrap();
            prop_assert_eq!(
                got.outcome.reachable, expected.reachable,
                "grid mismatch on {} (seed {}, RT {}, RS {})", q, seed, temporal, cell
            );
            if expected.reachable {
                prop_assert_eq!(
                    got.outcome.earliest, expected.earliest,
                    "earliest-arrival mismatch on {}", q
                );
            }
            let spj = Spj::new(&grid).evaluate(q).unwrap();
            prop_assert_eq!(
                spj.outcome.reachable, expected.reachable,
                "SPJ mismatch on {} (seed {})", q, seed
            );
        }
    }
}

#[test]
fn batch_workload_sanity_on_denser_world() {
    // A denser deterministic check with the default-style parameters.
    let store = dataset(7, 16, 120);
    let threshold = 30.0;
    let oracle = Oracle::build(&store, threshold);
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 20,
            cell_size: 100.0,
            threshold,
            cache_pages: 64,
            page_size: 512,
        },
    )
    .unwrap();
    let queries = WorkloadConfig {
        num_queries: 60,
        interval_len_min: 10,
        interval_len_max: 100,
    }
    .generate(16, 120, 99);
    let mut reachable = 0;
    for q in &queries {
        let expected = oracle.evaluate(q).reachable;
        let got = grid.evaluate(q).unwrap().reachable();
        assert_eq!(got, expected, "query {q}");
        reachable += usize::from(got);
    }
    // The workload must exercise both outcomes to be meaningful.
    assert!(reachable > 0, "no reachable queries in the batch");
    assert!(reachable < queries.len(), "every query reachable");
}

#[test]
fn source_in_motion_across_chunk_boundaries() {
    // Regression guard: seeds crossing chunk boundaries must be relocated
    // via the directory, including seeds discovered mid-chunk.
    let store = dataset(3, 10, 80);
    let threshold = 40.0;
    let oracle = Oracle::build(&store, threshold);
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 7, // deliberately unaligned with interval starts
            cell_size: 60.0,
            threshold,
            cache_pages: 64,
            page_size: 256,
        },
    )
    .unwrap();
    for s in 0..10u32 {
        for d in 0..10u32 {
            let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(13, 66));
            assert_eq!(
                grid.evaluate(&q).unwrap().reachable(),
                oracle.evaluate(&q).reachable,
                "query {q}"
            );
        }
    }
}
