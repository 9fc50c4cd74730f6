//! Tier-1 integration of the ingestion pipeline: a synthetic trajectory
//! dataset round-trips through the trace format — extract contacts, write a
//! trace file, re-ingest it — and the loader-built DN is edge-identical to
//! the trajectory-built one; the component-colocation embedding then lets
//! ReachGrid answer the same queries as the trace-built ReachGraph, all
//! checked against the oracle.

use streach::contact::extract_contacts;
use streach::contact::ingest::{embed, write_events, write_intervals, EMBED_THRESHOLD};
use streach::prelude::*;

fn rwp_store(seed: u64, n: usize, horizon: Time) -> TrajectoryStore {
    RwpConfig {
        env: Environment::square(500.0),
        num_objects: n,
        horizon,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 2,
    }
    .generate(seed)
}

fn assert_same_dn(a: &DnGraph, b: &DnGraph, what: &str) {
    assert_eq!(a.num_objects(), b.num_objects(), "{what}: |O|");
    assert_eq!(a.horizon(), b.horizon(), "{what}: |T|");
    assert_eq!(a.nodes(), b.nodes(), "{what}: nodes");
    for v in 0..a.num_nodes() as u32 {
        assert_eq!(a.fwd(v), b.fwd(v), "{what}: out-edges of node {v}");
        assert_eq!(a.rev(v), b.rev(v), "{what}: in-edges of node {v}");
    }
}

fn trace_of(store: &TrajectoryStore, d_t: f32) -> ContactTrace {
    let contacts = extract_contacts(store, store.horizon_interval(), d_t);
    ContactTrace::from_parts(store.num_objects(), store.horizon(), contacts)
        .expect("extracted contacts fit their own universe")
}

/// The headline acceptance criterion: trajectory pipeline and trace pipeline
/// meet at the same DN, through real files in both formats.
#[test]
fn file_round_trip_preserves_the_dn() {
    let d_t = 25.0;
    let store = rwp_store(42, 40, 300);
    let reference = DnGraph::build(&store, d_t);
    reference.validate().expect("reference DN valid");
    let trace = trace_of(&store, d_t);
    assert_same_dn(&reference, &trace.build_dn(), "from_parts");

    let dir = std::env::temp_dir();
    for (kind, path) in [
        (
            "events",
            dir.join(format!("streach-it-ev-{}.trace", std::process::id())),
        ),
        (
            "intervals",
            dir.join(format!("streach-it-iv-{}.trace", std::process::id())),
        ),
    ] {
        {
            let f = std::fs::File::create(&path).expect("trace file creates");
            if kind == "events" {
                write_events(&trace, f).expect("trace writes");
            } else {
                write_intervals(&trace, f).expect("trace writes");
            }
        }
        let loaded = ContactTrace::load_path(&path, &IngestOptions::default())
            .expect("trace file re-ingests");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.contacts(), trace.contacts(), "{kind}: contacts");
        assert_same_dn(&reference, &loaded.build_dn(), kind);
    }
}

/// The embedding contract: ReachGrid built on the embedded trajectories and
/// ReachGraph built on the event-direct DN agree with the oracle on every
/// query of a workload.
#[test]
fn embedded_grid_agrees_with_trace_graph_and_oracle() {
    let store = rwp_store(7, 36, 240);
    let trace = trace_of(&store, 25.0);
    let embedded = embed(&trace);
    let dn = trace.build_dn();
    assert_same_dn(
        &dn,
        &DnGraph::build(&embedded, EMBED_THRESHOLD),
        "embedding",
    );

    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("graph builds");
    let grid = ReachGrid::build(
        &embedded,
        GridParams {
            cell_size: embedded.environment().width,
            threshold: EMBED_THRESHOLD,
            ..GridParams::default()
        },
    )
    .expect("grid builds on the embedding");
    let oracle = Oracle::build(&embedded, EMBED_THRESHOLD);
    let queries = WorkloadConfig {
        num_queries: 60,
        interval_len_min: 30,
        interval_len_max: 120,
    }
    .generate(trace.num_objects(), trace.horizon(), 0xE1);
    for q in &queries {
        let expected = oracle.evaluate(q).reachable;
        let via_graph = graph.evaluate(q).expect("graph evaluates").reachable();
        let via_grid = grid.evaluate(q).expect("grid evaluates").reachable();
        assert_eq!(via_graph, expected, "graph disagrees with oracle on {q}");
        assert_eq!(via_grid, expected, "grid disagrees with oracle on {q}");
    }
}

/// Lossy ingestion of a corrupted trace still answers queries: the clean
/// records survive and the skip counter reports the damage.
#[test]
fn lossy_ingestion_of_damaged_trace() {
    let store = rwp_store(11, 20, 120);
    let trace = trace_of(&store, 25.0);
    let mut buf = Vec::new();
    write_events(&trace, &mut buf).expect("in-memory write");
    let mut text = String::from_utf8(buf).unwrap();
    text.push_str("7 7 3\nnot a record\n1 2 oops\n");

    assert!(
        ContactTrace::parse(&text, &IngestOptions::default()).is_err(),
        "strict mode must reject the damage"
    );
    let lossy = ContactTrace::parse(&text, &IngestOptions::lossy()).expect("lossy survives");
    assert_eq!(lossy.skipped(), 3);
    assert_eq!(lossy.contacts(), trace.contacts());
    assert_same_dn(&trace.build_dn(), &lossy.build_dn(), "lossy");
}
