//! Epidemic exposure analysis — the paper's public-health motivating
//! scenario (§1): given a set of individuals known to carry a contagious
//! virus, find everyone who could have been directly or indirectly
//! contaminated within a time window, by running a batch of reachability
//! queries from each carrier.
//!
//! Run with: `cargo run --release --example epidemic`

use streach::prelude::*;

fn main() {
    // A town of random-waypoint pedestrians, Bluetooth-range contacts.
    let store = RwpConfig {
        env: Environment::square(4000.0),
        num_objects: 300,
        horizon: 1200,
        tick_seconds: 6.0,
        speed_min: 0.5,
        speed_max: 1.5,
        pause_ticks_max: 4,
    }
    .generate(2024);
    let d_t = 25.0;

    // Index once, query many times — the regime both indexes target.
    let dn = DnGraph::build(&store, d_t);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("graph builds");

    // Three index cases reported on day one.
    let carriers = [ObjectId(17), ObjectId(118), ObjectId(250)];
    let window = TimeInterval::new(100, 700);

    println!(
        "population: {} individuals over {} ticks; carriers: {:?}; window {window}",
        store.num_objects(),
        store.horizon(),
        carriers
    );

    // One batch traversal per carrier answers what would otherwise be
    // |O| - 1 point queries (the paper's §1 scenario).
    let mut exposed = vec![false; store.num_objects()];
    let mut batch_io = 0.0;
    for &carrier in &carriers {
        let (set, stats) = graph
            .reachable_set(carrier, window)
            .expect("batch traversal evaluates");
        batch_io += stats.normalized_io();
        for (o, _earliest) in set {
            exposed[o.index()] = true;
        }
    }
    let exposed_count = exposed.iter().filter(|&&e| e).count();
    println!(
        "exposed individuals: {exposed_count} / {} (3 batch traversals, {:.1} IOs each)",
        store.num_objects(),
        batch_io / carriers.len() as f64,
    );
    // The point-query route, for comparison.
    let mut point_io = 0.0;
    let mut queries = 0u32;
    for &carrier in &carriers {
        for other in (0..store.num_objects() as u32).map(ObjectId) {
            if other == carrier {
                continue;
            }
            let r = graph
                .evaluate(&Query::new(carrier, other, window))
                .expect("query evaluates");
            point_io += r.stats.normalized_io();
            queries += 1;
        }
    }
    println!(
        "equivalent point queries: {queries} queries, {:.1} total IOs (vs {:.1} batched)",
        point_io, batch_io
    );

    // Cross-check the whole exposure set against the brute-force oracle.
    let oracle = Oracle::build(&store, d_t);
    let mut oracle_exposed = vec![false; store.num_objects()];
    for &carrier in &carriers {
        for o in oracle.reachable_set(carrier, window) {
            oracle_exposed[o.index()] = true;
        }
    }
    assert_eq!(
        exposed, oracle_exposed,
        "index-driven exposure set must match the oracle"
    );
    println!("exposure set verified against brute-force propagation ✓");

    // Timely intervention: how much smaller is the exposure set if carriers
    // are isolated one simulated hour earlier?
    let earlier = TimeInterval::new(100, 100 + (700 - 100) / 2);
    let mut early_exposed = 0usize;
    let mut seen = vec![false; store.num_objects()];
    for &carrier in &carriers {
        for o in oracle.reachable_set(carrier, earlier) {
            if !seen[o.index()] {
                seen[o.index()] = true;
                early_exposed += 1;
            }
        }
    }
    println!(
        "with intervention at the window midpoint, exposure shrinks to {early_exposed} individuals"
    );
}
