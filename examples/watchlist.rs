//! Watch-list monitoring — the paper's law-enforcement scenario (§1):
//! discover everyone who has potentially been in contact, directly or
//! through intermediaries, with individuals on a watch list. Contact tracing
//! *toward* the watch list uses reverse queries (who can reach a suspect),
//! tracing *from* it uses forward queries.
//!
//! Vehicles on a road network with DSRC-range communication, as in the
//! paper's VN datasets.
//!
//! Run with: `cargo run --release --example watchlist`

use streach::prelude::*;

fn main() {
    let network = RoadNetwork::city_grid(Environment::square(15000.0), 18, 18, 99);
    let store = VehicleConfig {
        network,
        num_objects: 120,
        horizon: 900,
        tick_seconds: 5.0,
        speed_min: 6.0,
        speed_max: 16.0,
    }
    .generate(7);
    let d_t = 300.0; // DSRC effective range (paper §6)

    let dn = DnGraph::build(&store, d_t);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("graph builds");
    println!(
        "fleet: {} vehicles, {} ticks; DN has {} hyper nodes in {} partitions",
        store.num_objects(),
        store.horizon(),
        graph.num_nodes(),
        graph.num_partitions(),
    );

    let watchlist = [ObjectId(3), ObjectId(77)];
    let window = TimeInterval::new(200, 650);

    // Forward trace: who could have received something from a suspect?
    let mut downstream: Vec<ObjectId> = Vec::new();
    for v in 0..store.num_objects() as u32 {
        let v = ObjectId(v);
        if watchlist.contains(&v) {
            continue;
        }
        let reached = watchlist.iter().any(|&s| {
            graph
                .evaluate(&Query::new(s, v, window))
                .expect("query evaluates")
                .reachable()
        });
        if reached {
            downstream.push(v);
        }
    }

    // Reverse trace: who could have passed something TO a suspect?
    let mut upstream: Vec<ObjectId> = Vec::new();
    for v in 0..store.num_objects() as u32 {
        let v = ObjectId(v);
        if watchlist.contains(&v) {
            continue;
        }
        let reaches = watchlist.iter().any(|&s| {
            graph
                .evaluate(&Query::new(v, s, window))
                .expect("query evaluates")
                .reachable()
        });
        if reaches {
            upstream.push(v);
        }
    }

    println!(
        "window {window}: {} vehicles downstream of the watch list, {} upstream",
        downstream.len(),
        upstream.len()
    );
    println!(
        "(DSRC's 300 m range percolates across an urban fleet — the paper makes the \
         same observation about its VN datasets having many reachable pairs)"
    );

    // Verify both directions against the oracle.
    let oracle = Oracle::build(&store, d_t);
    for v in 0..store.num_objects() as u32 {
        let v = ObjectId(v);
        if watchlist.contains(&v) {
            continue;
        }
        let fwd = watchlist
            .iter()
            .any(|&s| oracle.evaluate(&Query::new(s, v, window)).reachable);
        assert_eq!(
            fwd,
            downstream.contains(&v),
            "forward trace mismatch at {v}"
        );
        let bwd = watchlist
            .iter()
            .any(|&s| oracle.evaluate(&Query::new(v, s, window)).reachable);
        assert_eq!(bwd, upstream.contains(&v), "reverse trace mismatch at {v}");
    }
    println!("both traces verified against brute-force propagation ✓");

    // The asymmetry the paper highlights: temporal reachability is NOT
    // symmetric. Count pairs reachable in exactly one direction.
    let mut asymmetric = 0;
    for &s in &watchlist {
        for v in (0..store.num_objects() as u32).map(ObjectId) {
            if v == s {
                continue;
            }
            let fwd = oracle.evaluate(&Query::new(s, v, window)).reachable;
            let bwd = oracle.evaluate(&Query::new(v, s, window)).reachable;
            if fwd != bwd {
                asymmetric += 1;
            }
        }
    }
    println!("direction-asymmetric suspect pairs in this window: {asymmetric}");
}
