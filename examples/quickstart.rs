//! Quickstart: the paper's Figure 1 world, end to end.
//!
//! Four objects move during `[0, 3]`; contacts: {o1,o2}@[0,0], {o2,o4}@[1,1],
//! {o3,o4}@[1,2], {o1,o2}@[2,3]. The paper's headline observations:
//! o4 is reachable from o1 during [0,1], but o1 is NOT reachable from o4 in
//! the same window (chronology matters).
//!
//! Run with: `cargo run --release --example quickstart`

use streach::prelude::*;

fn main() {
    // Positions on a line encode Figure 1's contact pattern with d_T = 1 m.
    // (Object ids 0..3 stand for the paper's o1..o4.)
    let far = |k: f32| 100.0 * k;
    let rows: Vec<Vec<f32>> = vec![
        vec![0.0, far(1.0), 10.0, 10.0],      // o1
        vec![0.5, 20.0, 10.5, 10.5],          // o2
        vec![far(2.0), 21.5, 40.0, far(2.0)], // o3
        vec![far(3.0), 20.5, 40.5, far(3.0)], // o4
    ];
    let trajectories = rows
        .into_iter()
        .enumerate()
        .map(|(i, xs)| {
            Trajectory::new(
                ObjectId(i as u32),
                0,
                xs.into_iter().map(|x| Point::new(x, 0.0)).collect(),
            )
        })
        .collect();
    let store =
        TrajectoryStore::new(Environment::square(1000.0), trajectories).expect("valid store");
    let d_t = 1.0;

    println!("== contacts extracted from the trajectories ==");
    for c in streach::contact::extract_contacts(&store, store.horizon_interval(), d_t) {
        println!("  {c:?}");
    }

    // --- ReachGrid -------------------------------------------------------
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 2,
            cell_size: 16.0,
            threshold: d_t,
            ..GridParams::default()
        },
    )
    .expect("grid builds");

    // --- ReachGraph ------------------------------------------------------
    let dn = DnGraph::build(&store, d_t);
    let mr = MultiRes::build(&dn, &[2]);
    let graph = ReachGraph::build(
        &dn,
        &mr,
        GraphParams {
            levels: vec![2],
            ..GraphParams::default()
        },
    )
    .expect("graph builds");
    println!(
        "\nDN: {} hyper nodes, {} edges (TEN would have {} vertices)",
        dn.num_nodes(),
        dn.size().edges,
        DnGraph::ten_size(store.num_objects(), store.horizon(), 6).vertices,
    );

    // --- The paper's example queries --------------------------------------
    let queries = [
        (
            "o1 ~[0,1]~> o4 (paper: reachable)",
            Query::new(ObjectId(0), ObjectId(3), TimeInterval::new(0, 1)),
        ),
        (
            "o4 ~[0,1]~> o1 (paper: NOT reachable)",
            Query::new(ObjectId(3), ObjectId(0), TimeInterval::new(0, 1)),
        ),
        (
            "o1 ~[2,3]~> o2",
            Query::new(ObjectId(0), ObjectId(1), TimeInterval::new(2, 3)),
        ),
        (
            "o3 ~[1,3]~> o1",
            Query::new(ObjectId(2), ObjectId(0), TimeInterval::new(1, 3)),
        ),
    ];
    let oracle = Oracle::build(&store, d_t);
    println!("\n== queries ==");
    for (label, q) in queries {
        let g = grid.evaluate(&q).expect("grid evaluates");
        let h = graph.evaluate(&q).expect("graph evaluates");
        let o = oracle.evaluate(&q);
        assert_eq!(
            g.reachable(),
            o.reachable,
            "ReachGrid disagrees with oracle"
        );
        assert_eq!(
            h.reachable(),
            o.reachable,
            "ReachGraph disagrees with oracle"
        );
        println!(
            "  {label}\n    -> {} (ReachGrid {:.2} IOs, ReachGraph {:.2} IOs)",
            if g.reachable() {
                "reachable"
            } else {
                "not reachable"
            },
            g.stats.normalized_io(),
            h.stats.normalized_io(),
        );
    }
    println!("\nReachGrid, ReachGraph and the brute-force oracle all agree.");
}
