//! The paper's qualitative claims, asserted as integration tests on scaled
//! data. These are the "shape" results the reproduction must preserve even
//! though absolute numbers differ from the paper's testbed.

use streach::prelude::*;

/// Tuned graph parameters at test scale (see reach-bench: depth and page
/// size are tuned per scale, exactly as the paper tunes d_p = 32 and 4 KB
/// pages for its own datasets).
fn tuned_graph_params() -> GraphParams {
    GraphParams {
        partition_depth: 8,
        page_size: 512,
        ..GraphParams::default()
    }
}

fn rwp(seed: u64, n: usize, horizon: Time) -> TrajectoryStore {
    RwpConfig {
        env: Environment::square(900.0),
        num_objects: n,
        horizon,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 3,
    }
    .generate(seed)
}

/// §6.2.1.1: the reduction phase shrinks the TEN representation
/// dramatically.
#[test]
fn reduction_shrinks_contact_network() {
    let store = rwp(9, 80, 600);
    let stats = streach::contact::reduction_stats(&store, 25.0);
    assert!(
        stats.vertex_reduction_pct() > 50.0,
        "vertex reduction too weak: {:.1}%",
        stats.vertex_reduction_pct()
    );
    assert!(
        stats.edge_reduction_pct() > 50.0,
        "edge reduction too weak: {:.1}%",
        stats.edge_reduction_pct()
    );
}

/// §6.1.2: guided expansion reads fewer pages than the SPJ full scan on
/// average (the paper reports ≥96 % fewer normalized IOs at scale).
#[test]
fn reachgrid_beats_spj_on_average() {
    let store = rwp(11, 120, 800);
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 20,
            cell_size: 120.0,
            threshold: 25.0,
            ..GridParams::default()
        },
    )
    .expect("grid builds");
    let queries = WorkloadConfig {
        num_queries: 40,
        interval_len_min: 100,
        interval_len_max: 300,
    }
    .generate(120, 800, 5);
    let mut grid_pages = 0u64;
    let mut spj_pages = 0u64;
    for q in &queries {
        let a = grid.evaluate(q).expect("grid evaluates").stats;
        grid_pages += a.random_ios + a.seq_ios;
        let b = Spj::new(&grid).evaluate(q).expect("spj evaluates").stats;
        spj_pages += b.random_ios + b.seq_ios;
    }
    assert!(
        grid_pages * 2 < spj_pages,
        "expected ≥2× page advantage: grid {grid_pages} vs SPJ {spj_pages}"
    );
}

/// Figure 13: early termination + long edges means BM-BFS visits no more
/// vertices than B-BFS, which visits fewer than the exact-vertex E-DFS
/// search, across a batch.
#[test]
fn traversal_strategy_ordering() {
    let store = rwp(13, 100, 900);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, tuned_graph_params()).expect("builds");
    let queries = WorkloadConfig {
        num_queries: 40,
        interval_len_min: 150,
        interval_len_max: 350,
    }
    .generate(100, 900, 17);
    let mut visited = std::collections::HashMap::new();
    for kind in [
        TraversalKind::EDfs,
        TraversalKind::BBfs,
        TraversalKind::BmBfs,
    ] {
        let mut total = 0u64;
        for q in &queries {
            total += graph
                .evaluate_with(q, kind)
                .expect("evaluates")
                .stats
                .visited;
        }
        visited.insert(kind.name(), total);
    }
    assert!(
        visited["BM-BFS"] <= visited["B-BFS"],
        "BM-BFS should not visit more than B-BFS: {visited:?}"
    );
    assert!(
        visited["B-BFS"] < visited["E-DFS"],
        "bidirectional search should beat exact-vertex DFS: {visited:?}"
    );
}

/// §6.2.1.4 / Figure 12: partition depth is a real tuning knob with a
/// finite optimum — far-too-deep partitions (huge fetch units) must lose to
/// the tuned depth, and the knob must move the needle at all.
#[test]
fn partition_depth_has_interior_optimum() {
    let store = rwp(15, 100, 900);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let queries = WorkloadConfig {
        num_queries: 40,
        interval_len_min: 150,
        interval_len_max: 350,
    }
    .generate(100, 900, 23);
    let mut io_by_depth = Vec::new();
    for depth in [1u32, 8, 256] {
        let graph = ReachGraph::build(
            &dn,
            &mr,
            GraphParams {
                partition_depth: depth,
                page_size: 512,
                ..GraphParams::default()
            },
        )
        .expect("builds");
        let mut total = 0.0;
        for q in &queries {
            total += graph.evaluate(q).expect("evaluates").stats.normalized_io();
        }
        io_by_depth.push(total);
    }
    let tuned = io_by_depth[0].min(io_by_depth[1]);
    assert!(
        io_by_depth[2] > tuned * 1.2,
        "far-too-deep partitions should clearly lose to the tuned depth: {io_by_depth:?}"
    );
}

/// Figure 14's trend: ReachGraph's advantage over ReachGrid grows with the
/// query-interval length (ReachGrid sweeps the interval; ReachGraph jumps).
#[test]
fn interval_length_scaling() {
    let store = rwp(17, 100, 1200);
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 20,
            cell_size: 120.0,
            threshold: 25.0,
            ..GridParams::default()
        },
    )
    .expect("builds");
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, tuned_graph_params()).expect("builds");
    let mut ratios = Vec::new();
    for len in [100u32, 500] {
        let queries = WorkloadConfig::fixed_length(30, len).generate(100, 1200, 31);
        let mut grid_io = 0.0;
        let mut graph_io = 0.0;
        for q in &queries {
            grid_io += grid.evaluate(q).expect("grid").stats.normalized_io();
            graph_io += graph.evaluate(q).expect("graph").stats.normalized_io();
        }
        ratios.push(grid_io / graph_io.max(1e-9));
    }
    assert!(
        ratios[1] > ratios[0] * 0.8,
        "ReachGrid's relative cost should not collapse on long intervals: {ratios:?}"
    );
}

/// GRAIL on disk loses to ReachGraph's placement-aware layout (Table 5b).
#[test]
fn reachgraph_beats_disk_grail() {
    use streach::baselines::GrailDisk;
    let store = rwp(19, 100, 900);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, tuned_graph_params()).expect("builds");
    let grail = GrailDisk::build(&dn, 5, 7, 512, 64).expect("builds");
    let queries = WorkloadConfig {
        num_queries: 40,
        interval_len_min: 150,
        interval_len_max: 350,
    }
    .generate(100, 900, 37);
    let mut graph_io = 0.0;
    let mut grail_io = 0.0;
    for q in &queries {
        graph_io += graph.evaluate(q).expect("graph").stats.normalized_io();
        grail_io += grail.evaluate(q).expect("grail").stats.normalized_io();
    }
    assert!(
        graph_io < grail_io,
        "ReachGraph ({graph_io:.1}) should beat disk GRAIL ({grail_io:.1})"
    );
}
