//! End-to-end integration: every evaluator in the workspace must return the
//! same verdicts on realistic mobility datasets, from raw trajectories
//! through index construction to query results.

use streach::baselines::{GrailDisk, GrailMem};
use streach::prelude::*;

fn rwp_store(seed: u64, n: usize, horizon: Time) -> TrajectoryStore {
    RwpConfig {
        env: Environment::square(600.0),
        num_objects: n,
        horizon,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 2,
    }
    .generate(seed)
}

fn vn_store(seed: u64, n: usize, horizon: Time) -> TrajectoryStore {
    let network = RoadNetwork::city_grid(Environment::square(3000.0), 6, 6, seed ^ 1);
    VehicleConfig {
        network,
        num_objects: n,
        horizon,
        tick_seconds: 5.0,
        speed_min: 6.0,
        speed_max: 16.0,
    }
    .generate(seed)
}

/// Runs every evaluator over a shared workload and checks agreement with the
/// oracle.
fn assert_all_agree(store: &TrajectoryStore, d_t: f32, seed: u64) {
    let oracle = Oracle::build(store, d_t);
    let dn = DnGraph::build(store, d_t);
    dn.validate().expect("DN invariants hold");
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);

    let grid = ReachGrid::build(
        store,
        GridParams {
            temporal: 15,
            cell_size: 150.0,
            threshold: d_t,
            ..GridParams::default()
        },
    )
    .expect("grid builds");
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("graph builds");
    let grail_mem = GrailMem::new(&dn, 4, seed);
    let grail_disk = GrailDisk::build(&dn, 4, seed, 4096, 32).expect("grail disk builds");

    let queries = WorkloadConfig {
        num_queries: 50,
        interval_len_min: 20,
        interval_len_max: 150,
    }
    .generate(store.num_objects(), store.horizon(), seed ^ 0xBEEF);

    for q in &queries {
        let expected = oracle.evaluate(q).reachable;
        let g = grid.evaluate(q).expect("grid evaluates");
        assert_eq!(g.reachable(), expected, "ReachGrid vs oracle on {q}");
        if expected {
            assert_eq!(
                g.outcome.earliest,
                oracle.evaluate(q).earliest,
                "ReachGrid earliest-arrival on {q}"
            );
        }
        for kind in [
            TraversalKind::EDfs,
            TraversalKind::EBfs,
            TraversalKind::BBfs,
            TraversalKind::BmBfs,
        ] {
            let r = graph.evaluate_with(q, kind).expect("graph evaluates");
            assert_eq!(r.reachable(), expected, "{} vs oracle on {q}", kind.name());
        }
        let spj = Spj::new(&grid);
        assert_eq!(
            spj.evaluate(q).expect("spj evaluates").reachable(),
            expected,
            "SPJ vs oracle on {q}"
        );
        assert_eq!(
            grail_mem.evaluate(q).expect("grail mem").reachable(),
            expected,
            "GRAIL(mem) vs oracle on {q}"
        );
        assert_eq!(
            grail_disk.evaluate(q).expect("grail disk").reachable(),
            expected,
            "GRAIL(disk) vs oracle on {q}"
        );
        let mem = MemoryHn::new(&dn, &mr);
        assert_eq!(
            mem.evaluate(q).expect("memory hn").reachable(),
            expected,
            "ReachGraph(mem) vs oracle on {q}"
        );
    }
}

#[test]
fn all_evaluators_agree_on_rwp() {
    assert_all_agree(&rwp_store(1, 40, 300), 25.0, 0xA1);
    assert_all_agree(&rwp_store(2, 25, 400), 25.0, 0xA2);
}

#[test]
fn all_evaluators_agree_on_vn() {
    assert_all_agree(&vn_store(3, 30, 300), 300.0, 0xB1);
}

#[test]
fn all_evaluators_agree_on_sparse_gps() {
    let dense = vn_store(4, 20, 240);
    let sparse = streach::mobility::sparsify(&dense, 12);
    assert_all_agree(&sparse, 300.0, 0xC1);
}

/// The disk index's vertex views and its re-streamed DN must equal the
/// memory-resident source exactly, vertex by vertex and list by list.
#[test]
fn disk_vertices_and_restream_equal_memory_on_rwp() {
    use streach::graph::HnSource;
    let store = rwp_store(4, 40, 300);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let params = GraphParams {
        page_size: 512,
        ..GraphParams::default()
    };
    let index = ReachGraph::build(&dn, &mr, params).expect("graph builds");
    let mut mem = MemoryHn::new(&dn, &mr);
    assert!(
        index.num_partitions() > 1,
        "records span several partitions"
    );
    let mut graph = index.context();
    for v in 0..dn.num_nodes() as u32 {
        let disk = graph.vertex(v).expect("disk vertex");
        let resident = mem.vertex(v).expect("memory vertex");
        assert_eq!(disk.interval(), resident.interval(), "interval of {v}");
        assert_eq!(disk.members(), resident.members(), "members of {v}");
        assert_eq!(disk.fwd(), resident.fwd(), "fwd of {v}");
        assert_eq!(disk.rev(), resident.rev(), "rev of {v}");
        assert_eq!(disk.num_bundles(), resident.num_bundles(), "levels of {v}");
        for level in 0..disk.num_bundles() {
            assert_eq!(
                disk.bundle(level),
                resident.bundle(level),
                "bundle {level} of {v}"
            );
        }
    }

    let mut graph = index.context();
    assert_eq!(DnAccess::num_nodes(&graph), dn.num_nodes());
    assert_eq!(DnAccess::num_objects(&graph), dn.num_objects());
    assert_eq!(DnAccess::horizon(&graph), dn.horizon());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for v in 0..dn.num_nodes() as u32 {
        assert_eq!(DnAccess::interval(&mut graph, v), dn.node(v).interval);
        graph.members_into(v, &mut got);
        (&dn).members_into(v, &mut want);
        assert_eq!(got, want, "re-streamed members of {v}");
        graph.fwd_into(v, &mut got);
        assert_eq!(got, dn.fwd(v), "re-streamed fwd of {v}");
        graph.rev_into(v, &mut got);
        assert_eq!(got, dn.rev(v), "re-streamed rev of {v}");
    }
    let mut timeline = Vec::new();
    for o in 0..dn.num_objects() as u32 {
        DnAccess::timeline_into(&mut graph, ObjectId(o), &mut timeline);
        assert_eq!(timeline, dn.timeline(ObjectId(o)), "timeline of {o}");
    }
}
