//! ReachGrid's query IO pinned exactly on a fixed dataset and query set.
//!
//! The counted IO of Algorithm 1 depends only on the order in which the
//! evaluator loads cells: which cells, and in what sequence (a read is
//! sequential when it follows the previous read's page). The summed counts
//! and every outcome below were recorded before the query loop moved to a
//! flat per-chunk arena with frontier probes; any change to the cell-load
//! order shows up here as an exact mismatch, not as drift within the
//! `bench_diff` gate's tolerance.

use reach_core::{Environment, Time};
use reach_grid::{GridParams, ReachGrid};
use reach_mobility::{RwpConfig, WorkloadConfig};

/// Earliest arrival per query (`None` = unreachable), in workload order.
#[rustfmt::skip]
const ARRIVALS: [Option<Time>; 48] = [
    Some(176), Some(173), Some(27), None, Some(130), Some(140),
    None, None, Some(151), Some(184), Some(96), Some(81),
    Some(118), Some(145), None, None, None, None,
    Some(202), None, Some(140), None, Some(27), None,
    Some(118), None, Some(157), None, None, None,
    None, None, None, Some(142), None, None,
    Some(81), Some(45), None, Some(66), None, Some(163),
    Some(166), Some(105), None, Some(180), Some(43), Some(137),
];
const RANDOM_IOS: u64 = 4109;
const SEQ_IOS: u64 = 2674;
const VISITED: u64 = 4587;

#[test]
fn query_io_and_outcomes_match_the_recorded_values() {
    let store = RwpConfig {
        env: Environment::square(1000.0),
        num_objects: 60,
        horizon: 240,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 4.0,
        pause_ticks_max: 2,
    }
    .generate(21);
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 20,
            cell_size: 80.0,
            threshold: 25.0,
            cache_pages: 64,
            page_size: 512,
        },
    )
    .expect("builds");
    let queries = WorkloadConfig {
        num_queries: 48,
        interval_len_min: 10,
        interval_len_max: 120,
    }
    .generate(60, 240, 5);

    let (mut random, mut seq, mut visited) = (0, 0, 0);
    let mut arrivals = Vec::new();
    for q in &queries {
        let r = grid.evaluate_query(q).expect("query answers");
        random += r.stats.random_ios;
        seq += r.stats.seq_ios;
        visited += r.stats.visited;
        arrivals.push(r.outcome.reachable.then(|| r.outcome.earliest.unwrap()));
    }
    assert_eq!(arrivals, ARRIVALS);
    assert_eq!((random, seq, visited), (RANDOM_IOS, SEQ_IOS, VISITED));
}
