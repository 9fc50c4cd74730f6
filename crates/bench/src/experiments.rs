//! One function per table/figure of the paper's evaluation (§6).
//!
//! Every function returns the [`Table`]s that reproduce the corresponding
//! artifact; `all` runs the whole suite in paper order. Absolute values
//! differ from the paper (simulated device, scaled datasets); the
//! reproduction target is the *shape*: who wins, by what factor, and where
//! the crossovers sit. EXPERIMENTS.md records the comparison.

use crate::datasets::{
    middle, prefix_store, rwp_series, vn_series, vnr, DatasetSpec, Run, ScratchLive, Tier,
};
use crate::report::{fbytes, fdur, fnum, Table};
use crate::runner::{
    answer_traced, assert_same_pages, cold_vs_warm_reads, run_batch, timed, BatchResult,
};
use reach_baselines::{GrailDisk, GrailMem};
use reach_contact::{reduction_stats_for, DnGraph, MultiRes};
use reach_core::{Contact, Query, ReachIndex as _, ReachRequest, Time};
use reach_graph::{GraphParams, MemoryHn, ReachGraph, TraversalKind};
use reach_grid::{GridParams, ReachGrid, Spj};
use reach_live::{LiveConfig, ShardedLive};
use reach_mobility::WorkloadConfig;
use reach_storage::BuildBudget;
use reach_traj::TrajectoryStore;

/// Builds a ReachGrid on the run's configured storage backend.
fn build_grid(run: &Run, store: &TrajectoryStore, params: GridParams) -> ReachGrid {
    let device = run.backend.device(params.page_size);
    ReachGrid::build_on(device, store, params).expect("grid builds")
}

/// Builds a ReachGraph on the run's configured storage backend.
fn build_graph(run: &Run, dn: &DnGraph, mr: &MultiRes, params: GraphParams) -> ReachGraph {
    let device = run.backend.device(params.page_size);
    ReachGraph::build_on(device, dn, mr, params).expect("graph builds")
}

/// Builds a disk GRAIL (5 labels, seed 0xF1, 64 cached pages) on the run's
/// configured storage backend.
fn build_grail(run: &Run, dn: &DnGraph) -> GrailDisk {
    let device = run.backend.device(run.tier.page_size());
    GrailDisk::build_on(device, dn, 5, 0xF1, 64).expect("grail builds")
}

/// Queries per batch (paper: 400; quick tier trims for turnaround).
pub fn num_queries(tier: Tier) -> usize {
    match tier {
        Tier::Quick => 120,
        Tier::Full => 400,
    }
}

fn workload(spec: &DatasetSpec, tier: Tier, seed: u64) -> Vec<Query> {
    WorkloadConfig {
        num_queries: num_queries(tier),
        interval_len_min: 150,
        interval_len_max: 350,
    }
    .generate(spec.num_objects, spec.horizon, seed)
}

fn grid_params_for(spec: &DatasetSpec, tier: Tier) -> GridParams {
    // R_S follows the paper's per-family optima: ~1/10 of the environment
    // for RWP (1024 m in their 10 km world), and the *whole* environment for
    // VN (their optimum is R_S = 17 km ≈ the full extent — vehicles cluster
    // on roads, so spatial partitioning degenerates and the grid acts as a
    // temporal index). R_T = 20 per the paper. Trace embeddings have no
    // spatial locality at all (components teleport between home points), so
    // they take the VN degenerate setting too.
    let cell_size = match spec.family {
        crate::datasets::Family::Rwp => (spec.env_side() / 10.0).max(64.0),
        crate::datasets::Family::Vn
        | crate::datasets::Family::Vnr
        | crate::datasets::Family::Trace => spec.env_side(),
    };
    GridParams {
        temporal: 20,
        cell_size,
        threshold: spec.threshold,
        page_size: tier.page_size(),
        ..GridParams::default()
    }
}

fn graph_params_for(tier: Tier) -> GraphParams {
    // The paper tunes d_p = 32 on its datasets (§6.2.1.4); our scaled
    // datasets have narrower traversal cones and the same sweep (Figure 12)
    // lands on a smaller optimum — we use ours just as the paper uses
    // theirs.
    GraphParams {
        partition_depth: 8,
        page_size: tier.page_size(),
        ..GraphParams::default()
    }
}

/// Delta trigger sized to one target *epoch* of records (1,500 quick,
/// 4,000 full), not to the whole stream: each seal stays proportional to
/// one epoch, and seal *frequency* scales with stream length instead — the
/// scaling exp_shard measures directly.
fn epoch_delta_budget(tier: Tier) -> usize {
    let records = match tier {
        Tier::Quick => 1500,
        Tier::Full => 4000,
    };
    (records * reach_live::DeltaDn::MAX_RECORD_RESIDENT_BYTES).max(16 << 10)
}

/// The live experiments' dataset: RWP 400 × 1200 (quick) or 1000 × 4000
/// (full) under a per-experiment name and seed.
fn live_spec(tier: Tier, name: &str, seed: u64) -> DatasetSpec {
    match tier {
        Tier::Quick => DatasetSpec::rwp(name, 400, 1200, seed),
        Tier::Full => DatasetSpec::rwp(name, 1000, 4000, seed),
    }
}

/// The contacts of `store` in arrival order: ascending start with local
/// shuffling — the out-of-order-within-a-window pattern the delta absorbs.
/// Disjoint swaps displace each record by at most two positions (a
/// cascading swap chain would carry the earliest record to the very end
/// and make it unboundedly late).
fn arrival_stream(spec: &DatasetSpec, store: &TrajectoryStore) -> Vec<Contact> {
    let mut contacts = spec.contacts(store);
    contacts.sort_by_key(|c| (c.interval.start, c.a, c.b));
    for i in (4..contacts.len()).step_by(4) {
        contacts.swap(i, i - 2);
    }
    contacts
}

/// The live experiments' index config: ReachGraph shards at the tier's
/// params, sealed under `--build-budget` (unbounded by default).
fn live_config(run: &Run) -> LiveConfig {
    let budget = run
        .build_budget
        .map_or_else(BuildBudget::unbounded, BuildBudget::bytes);
    LiveConfig::graph(graph_params_for(run.tier), budget)
}

/// A batch ReachGraph over the records `live` accepted, at the live
/// experiments' params: their answer oracle and rebuild-cost reference.
fn batch_graph(run: &Run, live: &ShardedLive, accepted: &[Contact]) -> ReachGraph {
    let dn = DnGraph::from_contacts(live.num_objects(), live.now(), accepted);
    let params = graph_params_for(run.tier);
    let mr = MultiRes::build(&dn, &params.levels);
    build_graph(run, &dn, &mr, params)
}

/// Asserts `live` answers every query as `batch` does, then tabulates the
/// two evaluators' mean cost.
fn live_vs_batch(
    id: &str,
    caption: &str,
    live: &ShardedLive,
    batch: &ReachGraph,
    queries: &[Query],
) -> Table {
    for q in queries {
        let a = live.evaluate(q).expect("live query");
        let b = batch.evaluate(q).expect("batch query");
        assert_eq!(
            a.reachable(),
            b.reachable(),
            "live and batch disagree on {q} (watermark {})",
            live.watermark()
        );
    }
    let mut t = cost_table(id, caption, "evaluator");
    t.row(cost_row(
        "ShardedLive (shard + delta)",
        run_batch(live, queries),
    ));
    t.row(cost_row("batch ReachGraph", run_batch(batch, queries)));
    t
}

/// A table of per-evaluator mean query cost, one [`cost_row`] per
/// evaluator.
fn cost_table(id: &str, caption: &str, evaluator: &str) -> Table {
    let headers = [
        evaluator,
        "mean normalized IO",
        "mean CPU",
        "reachable frac",
    ];
    Table::new(id, caption, &headers)
}

fn cost_row(name: &str, r: BatchResult) -> Vec<String> {
    vec![
        name.to_string(),
        fnum(r.mean_io),
        fdur(r.mean_cpu),
        format!("{:.2}", r.reachable_frac),
    ]
}

// ---------------------------------------------------------------------------
// Table 2 — dataset inventory
// ---------------------------------------------------------------------------

/// Table 2: the data-collection sizes.
pub fn exp_table2(run: &Run) -> Vec<Table> {
    let mut t = Table::new(
        "Table 2",
        "data collection sizes (raw packed trajectory samples)",
        &["dataset", "objects", "ticks", "env side (m)", "raw size"],
    );
    for spec in rwp_series(run.tier)
        .into_iter()
        .chain(vn_series(run.tier))
        .chain([vnr(run.tier)])
    {
        let store = spec.generate();
        t.row(vec![
            spec.name.clone(),
            store.num_objects().to_string(),
            store.horizon().to_string(),
            fnum(f64::from(spec.env_side())),
            fbytes(store.raw_size_bytes()),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figure 8 — ReachGrid resolution optimization
// ---------------------------------------------------------------------------

/// Figure 8(a,b): query IO vs spatial / temporal grid resolution.
pub fn exp_fig8(run: &Run) -> Vec<Table> {
    let rwp = rwp_series(run.tier);
    let spec = middle(&rwp);
    let store = spec.generate();
    let queries = workload(spec, run.tier, 0x8A);

    let side = spec.env_side();
    let spatial_candidates: Vec<f32> = [
        side / 32.0,
        side / 16.0,
        side / 8.0,
        side / 4.0,
        side / 2.0,
        side,
    ]
    .into_iter()
    .map(|c| c.max(32.0))
    .collect();

    let mut ta = Table::new(
        "Figure 8(a)",
        format!(
            "ReachGrid IO vs spatial resolution R_S ({}, R_T=20)",
            spec.name
        )
        .as_str(),
        &["R_S (m)", "mean normalized IO"],
    );
    let mut best = (f64::INFINITY, spatial_candidates[0]);
    for &rs in &spatial_candidates {
        let grid = build_grid(
            run,
            &store,
            GridParams {
                cell_size: rs,
                ..grid_params_for(spec, run.tier)
            },
        );
        let r = run_batch(&grid, &queries);
        if r.mean_io < best.0 {
            best = (r.mean_io, rs);
        }
        ta.row(vec![fnum(f64::from(rs)), fnum(r.mean_io)]);
    }

    let mut tb = Table::new(
        "Figure 8(b)",
        format!(
            "ReachGrid IO vs temporal resolution R_T ({}, R_S={} m)",
            spec.name, best.1
        )
        .as_str(),
        &["R_T (ticks)", "mean normalized IO"],
    );
    for rt in [5u32, 10, 20, 40, 80] {
        let grid = build_grid(
            run,
            &store,
            GridParams {
                temporal: rt,
                cell_size: best.1,
                ..grid_params_for(spec, run.tier)
            },
        );
        let r = run_batch(&grid, &queries);
        tb.row(vec![rt.to_string(), fnum(r.mean_io)]);
    }
    vec![ta, tb]
}

// ---------------------------------------------------------------------------
// Figure 9 — ReachGrid construction time
// ---------------------------------------------------------------------------

/// Figure 9(a,b): ReachGrid construction time vs horizon for both families.
pub fn exp_fig9(run: &Run) -> Vec<Table> {
    let mut out = Vec::new();
    for (fig, series) in [
        ("Figure 9(a)", rwp_series(run.tier)),
        ("Figure 9(b)", vn_series(run.tier)),
    ] {
        let mut t = Table::new(
            fig,
            "ReachGrid construction time vs |T|",
            &["dataset", "|T| (ticks)", "build time", "index size"],
        );
        for spec in &series {
            let store = spec.generate();
            for frac in [4u32, 2, 1] {
                let horizon = spec.horizon / frac;
                let prefix = prefix_store(&store, horizon);
                let params = grid_params_for(spec, run.tier);
                let (grid, dur) = timed(|| build_grid(run, &prefix, params));
                t.row(vec![
                    spec.name.clone(),
                    horizon.to_string(),
                    fdur(dur),
                    fbytes(grid.size_bytes()),
                ]);
            }
        }
        out.push(t);
    }
    out
}

// ---------------------------------------------------------------------------
// §6.1.2 — ReachGrid vs SPJ
// ---------------------------------------------------------------------------

/// §6.1.2: ReachGrid vs the naïve SPJ baseline (paper: ≥96 % better).
pub fn exp_spj(run: &Run) -> Vec<Table> {
    let mut t = Table::new(
        "§6.1.2",
        "ReachGrid vs SPJ (mean normalized IO; paper reports ≥96% improvement)",
        &["dataset", "SPJ IO", "ReachGrid IO", "improvement"],
    );
    for series in [rwp_series(run.tier), vn_series(run.tier)] {
        for spec in &series {
            let store = spec.generate();
            let queries = workload(spec, run.tier, 0x59);
            let grid = build_grid(run, &store, grid_params_for(spec, run.tier));
            let spj = run_batch(&Spj::new(&grid), &queries);
            let rg = run_batch(&grid, &queries);
            let improvement = if spj.mean_io > 0.0 {
                100.0 * (1.0 - rg.mean_io / spj.mean_io)
            } else {
                0.0
            };
            t.row(vec![
                spec.name.clone(),
                fnum(spj.mean_io),
                fnum(rg.mean_io),
                format!("{:.1}%", improvement),
            ]);
        }
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figures 10 & 11 + §6.2.1.1 — contact network size, reduction, build time
// ---------------------------------------------------------------------------

/// Figure 10(a,b): DN edges/vertices vs |T|; Figure 11(a,b): DN construction
/// time vs |T|.
pub fn exp_contact_growth(run: &Run) -> Vec<Table> {
    let mut fig10 = Table::new(
        "Figure 10",
        "contact network (DN) size vs |T| (RWP series; (a)=edges, (b)=vertices)",
        &["dataset", "|T| (ticks)", "edges |E|", "vertices |V|"],
    );
    let mut fig11 = Table::new(
        "Figure 11",
        "contact network (DN) construction time vs |T| ((a)=RWP, (b)=VN)",
        &["dataset", "|T| (ticks)", "build time"],
    );
    for series in [rwp_series(run.tier), vn_series(run.tier)] {
        for spec in &series {
            let store = spec.generate();
            for frac in [4u32, 2, 1] {
                let horizon = spec.horizon / frac;
                let prefix = prefix_store(&store, horizon);
                let (dn, dur) = timed(|| spec.build_dn(&prefix));
                let size = dn.size();
                if matches!(spec.family, crate::datasets::Family::Rwp) {
                    fig10.row(vec![
                        spec.name.clone(),
                        horizon.to_string(),
                        size.edges.to_string(),
                        size.vertices.to_string(),
                    ]);
                }
                fig11.row(vec![spec.name.clone(), horizon.to_string(), fdur(dur)]);
            }
        }
    }
    vec![fig10, fig11]
}

/// §6.2.1.1: TEN→DN reduction (paper: ≈81 %/80 % for RWP, ≈64 %/61 % for
/// VN).
pub fn exp_reduction(run: &Run) -> Vec<Table> {
    let mut t = Table::new(
        "§6.2.1.1",
        "reduction step: TEN vs DN sizes",
        &[
            "dataset",
            "TEN |V|",
            "TEN |E|",
            "DN |V|",
            "DN |E|",
            "vertex reduction",
            "edge reduction",
        ],
    );
    for series in [rwp_series(run.tier), vn_series(run.tier)] {
        for spec in &series {
            let store = spec.generate();
            let dn = spec.build_dn(&store);
            let s = reduction_stats_for(&store, spec.threshold, &dn);
            t.row(vec![
                spec.name.clone(),
                s.ten.vertices.to_string(),
                s.ten.edges.to_string(),
                s.dn.vertices.to_string(),
                s.dn.edges.to_string(),
                format!("{:.1}%", s.vertex_reduction_pct()),
                format!("{:.1}%", s.edge_reduction_pct()),
            ]);
        }
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Table 4 — multi-resolution average degrees
// ---------------------------------------------------------------------------

/// Table 4: average vertex degree at DN_2 … DN_32 for the largest RWP/VN
/// datasets plus VNR.
pub fn exp_table4(run: &Run) -> Vec<Table> {
    let rwp = rwp_series(run.tier);
    let vn = vn_series(run.tier);
    let specs = [
        vn.last().expect("vn series non-empty").clone(),
        rwp.last().expect("rwp series non-empty").clone(),
        vnr(run.tier),
    ];
    let mut t = Table::new(
        "Table 4",
        "average vertex degree per resolution (vertices with ≥1 edge at that level)",
        &["resolution", &specs[0].name, &specs[1].name, &specs[2].name],
    );
    let mut per_spec = Vec::new();
    for spec in &specs {
        let store = spec.generate();
        let dn = spec.build_dn(&store);
        let mr = spec.build_multires(&dn);
        per_spec.push(
            (0..mr.levels().len())
                .map(|i| mr.avg_degree(i))
                .collect::<Vec<_>>(),
        );
    }
    for (i, level) in [2u32, 4, 8, 16, 32].into_iter().enumerate() {
        t.row(vec![
            format!("DN{level}"),
            fnum(per_spec[0][i]),
            fnum(per_spec[1][i]),
            fnum(per_spec[2][i]),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figure 12 + §6.2.1.4 — disk-placement optimization
// ---------------------------------------------------------------------------

/// Figure 12: BM-BFS IO vs partition depth; companion sweep over the number
/// of resolutions (§6.2.1.4; paper optima d_p=32, six resolutions).
pub fn exp_fig12(run: &Run) -> Vec<Table> {
    let rwp = rwp_series(run.tier);
    let vn = vn_series(run.tier);
    let mut depth_table = Table::new(
        "Figure 12",
        "ReachGraph IO vs partition depth d_p (BM-BFS, 6 resolutions)",
        &["d_p", middle(&rwp).name.as_str(), middle(&vn).name.as_str()],
    );
    let mut res_table = Table::new(
        "§6.2.1.4",
        "ReachGraph IO vs number of resolutions (tuned d_p)",
        &[
            "resolutions",
            middle(&rwp).name.as_str(),
            middle(&vn).name.as_str(),
        ],
    );
    let mut per_depth: Vec<Vec<f64>> = Vec::new();
    let mut per_res: Vec<Vec<f64>> = Vec::new();
    let depths = [1u32, 4, 8, 16, 32, 64];
    let res_counts = 1usize..=6;
    for spec in [middle(&rwp), middle(&vn)] {
        let store = spec.generate();
        let dn = spec.build_dn(&store);
        let queries = workload(spec, run.tier, 0x12);
        // Depth sweep at full resolutions.
        let mr = spec.build_multires(&dn);
        let mut col_depth = Vec::new();
        for &dp in &depths {
            let rg = build_graph(
                run,
                &dn,
                &mr,
                GraphParams {
                    partition_depth: dp,
                    ..graph_params_for(run.tier)
                },
            );
            col_depth.push(run_batch(&rg, &queries).mean_io);
        }
        per_depth.push(col_depth);
        // Resolution-count sweep at the tuned depth.
        let mut col_res = Vec::new();
        for r in res_counts.clone() {
            let levels: Vec<Time> = (1..r).map(|i| 2u32 << (i - 1)).collect();
            let mr_r = MultiRes::build(&dn, &levels);
            let rg = build_graph(
                run,
                &dn,
                &mr_r,
                GraphParams {
                    levels,
                    ..graph_params_for(run.tier)
                },
            );
            col_res.push(run_batch(&rg, &queries).mean_io);
        }
        per_res.push(col_res);
    }
    for (i, &dp) in depths.iter().enumerate() {
        depth_table.row(vec![
            dp.to_string(),
            fnum(per_depth[0][i]),
            fnum(per_depth[1][i]),
        ]);
    }
    for (i, r) in res_counts.enumerate() {
        res_table.row(vec![
            r.to_string(),
            fnum(per_res[0][i]),
            fnum(per_res[1][i]),
        ]);
    }
    vec![depth_table, res_table]
}

// ---------------------------------------------------------------------------
// Figure 13 — traversal strategies
// ---------------------------------------------------------------------------

/// Figure 13: BM-BFS vs B-BFS vs E-DFS (plus E-BFS) IO.
pub fn exp_fig13(run: &Run) -> Vec<Table> {
    let rwp = rwp_series(run.tier);
    let vn = vn_series(run.tier);
    let mut t = Table::new(
        "Figure 13",
        "ReachGraph query IO by traversal strategy (paper: BM-BFS ≥80% under E-DFS, ≥15% under B-BFS)",
        &["dataset", "E-DFS", "E-BFS", "B-BFS", "BM-BFS"],
    );
    for spec in [middle(&rwp), middle(&vn)] {
        let store = spec.generate();
        let dn = spec.build_dn(&store);
        let mr = spec.build_multires(&dn);
        let rg = build_graph(run, &dn, &mr, graph_params_for(run.tier));
        let queries = workload(spec, run.tier, 0x13);
        let mut cells = vec![spec.name.clone()];
        for kind in [
            TraversalKind::EDfs,
            TraversalKind::EBfs,
            TraversalKind::BBfs,
            TraversalKind::BmBfs,
        ] {
            let mut total = 0.0;
            for q in &queries {
                total += rg
                    .evaluate_with(q, kind)
                    .expect("query evaluates")
                    .stats
                    .normalized_io();
            }
            cells.push(fnum(total / queries.len() as f64));
        }
        t.row(cells);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figures 14 & 15 — ReachGrid vs ReachGraph
// ---------------------------------------------------------------------------

/// Figure 14(a,b) (IO) and Figure 15(a,b) (CPU time): ReachGrid vs
/// ReachGraph across query-interval lengths 100/300/500.
pub fn exp_fig14_15(run: &Run) -> Vec<Table> {
    let rwp = rwp_series(run.tier);
    let vn = vn_series(run.tier);
    let mut fig14 = Table::new(
        "Figure 14",
        "ReachGrid vs ReachGraph mean IO by query interval length",
        &["dataset", "|Tp|", "ReachGrid IO", "ReachGraph IO"],
    );
    let mut fig15 = Table::new(
        "Figure 15",
        "ReachGrid vs ReachGraph mean CPU time by query interval length",
        &["dataset", "|Tp|", "ReachGrid CPU", "ReachGraph CPU"],
    );
    for spec in [middle(&rwp), middle(&vn)] {
        let store = spec.generate();
        let grid = build_grid(run, &store, grid_params_for(spec, run.tier));
        let dn = spec.build_dn(&store);
        let mr = spec.build_multires(&dn);
        let rg = build_graph(run, &dn, &mr, GraphParams::default());
        for len in [100u32, 300, 500] {
            let queries = WorkloadConfig::fixed_length(num_queries(run.tier), len).generate(
                spec.num_objects,
                spec.horizon,
                0x1415 ^ u64::from(len),
            );
            let g: BatchResult = run_batch(&grid, &queries);
            let h: BatchResult = run_batch(&rg, &queries);
            fig14.row(vec![
                spec.name.clone(),
                len.to_string(),
                fnum(g.mean_io),
                fnum(h.mean_io),
            ]);
            fig15.row(vec![
                spec.name.clone(),
                len.to_string(),
                fdur(g.mean_cpu),
                fdur(h.mean_cpu),
            ]);
        }
    }
    vec![fig14, fig15]
}

// ---------------------------------------------------------------------------
// Table 5 — GRAIL comparison
// ---------------------------------------------------------------------------

/// Table 5(a,b): GRAIL vs ReachGraph, memory-resident runtime and
/// disk-resident IO (paper setting: |T| = 1000, interval length 300).
pub fn exp_table5(run: &Run) -> Vec<Table> {
    let rwp = rwp_series(run.tier);
    let vn = vn_series(run.tier);
    let mut ta = Table::new(
        "Table 5(a)",
        "memory-resident: GRAIL vs ReachGraph mean query runtime (|T|=1000, |Tp|=300)",
        &["dataset", "GRAIL", "ReachGraph (BM-BFS)"],
    );
    let mut tb = Table::new(
        "Table 5(b)",
        "disk-resident: GRAIL vs ReachGraph mean IO count",
        &["dataset", "GRAIL IO", "ReachGraph IO", "improvement"],
    );
    for spec in [middle(&vn), middle(&rwp)] {
        let store = spec.generate();
        // (a) memory-resident runtimes on the paper's |T| = 1000 prefix.
        let horizon = spec.horizon.min(1000);
        let prefix = prefix_store(&store, horizon);
        let dn_mem = DnGraph::build(&prefix, spec.threshold);
        let mr_mem = spec.build_multires(&dn_mem);
        let queries = WorkloadConfig::fixed_length(num_queries(run.tier), 300.min(horizon))
            .generate(spec.num_objects, horizon, 0x55);
        let grail_mem = GrailMem::new(&dn_mem, 5, 0xF1);
        let gm = run_batch(&grail_mem, &queries);
        let mem = MemoryHn::new(&dn_mem, &mr_mem);
        let rm = run_batch(&mem, &queries);
        ta.row(vec![
            spec.name.clone(),
            fdur(gm.mean_cpu),
            fdur(rm.mean_cpu),
        ]);
        // (b) disk-resident IO: same query shape against the *full*
        // disk-resident dataset (§6.4: "we issue the same queries but on the
        // disk resident contact datasets").
        let dn = spec.build_dn(&store);
        let mr = spec.build_multires(&dn);
        let queries = WorkloadConfig::fixed_length(num_queries(run.tier), 300).generate(
            spec.num_objects,
            spec.horizon,
            0x56,
        );
        let grail_disk = build_grail(run, &dn);
        let gd = run_batch(&grail_disk, &queries);
        let rg = build_graph(run, &dn, &mr, graph_params_for(run.tier));
        let rd = run_batch(&rg, &queries);
        let improvement = if gd.mean_io > 0.0 {
            100.0 * (1.0 - rd.mean_io / gd.mean_io)
        } else {
            0.0
        };
        tb.row(vec![
            spec.name.clone(),
            fnum(gd.mean_io),
            fnum(rd.mean_io),
            format!("{improvement:.1}%"),
        ]);
    }
    vec![ta, tb]
}

// ---------------------------------------------------------------------------
// exp_trace — loaded contact traces (ISSUE 3: the first non-generator
// workload)
// ---------------------------------------------------------------------------

/// Ingested-trace comparison: ReachGrid (over the component-colocation
/// embedding), ReachGraph (event-direct DN, BM-BFS) and disk GRAIL answer
/// one workload over a loaded contact trace, on whatever `--backend` is
/// selected.
///
/// The trace comes from `--trace=PATH` when given (any format of
/// `DATAFORMATS.md`); otherwise a synthetic trace is written through the
/// full text pipeline ([`crate::datasets::synthetic_trace`]) so the
/// experiment — and its CI smoke run — needs no network access.
pub fn exp_trace(run: &Run) -> Vec<Table> {
    // Holds the synthetic trace file until the experiment ends or panics.
    let (spec, _synthetic) = match &run.trace {
        Some(path) => (
            DatasetSpec::trace("trace", path)
                .unwrap_or_else(|e| panic!("loading trace {}: {e}", path.display())),
            None,
        ),
        None => {
            let (spec, guard) = crate::datasets::synthetic_trace(run.tier, &std::env::temp_dir());
            (spec, Some(guard))
        }
    };
    let trace = spec.contact_trace().expect("trace spec carries its trace");
    let mut inventory = Table::new(
        "exp_trace (inventory)",
        "loaded contact trace",
        &[
            "trace", "objects", "ticks", "contacts", "records", "skipped",
        ],
    );
    inventory.row(vec![
        spec.name.clone(),
        trace.num_objects().to_string(),
        trace.horizon().to_string(),
        trace.contacts().len().to_string(),
        trace.records().to_string(),
        trace.skipped().to_string(),
    ]);

    let mut t = cost_table(
        "exp_trace",
        "ReachGrid vs ReachGraph vs GRAIL on an ingested contact trace (event-direct DN)",
        "index",
    );
    assert!(
        spec.num_objects >= 2 && spec.horizon >= 2,
        "trace {} is too small for a query workload",
        spec.name
    );
    let queries = workload(&spec, run.tier, 0x7C);
    let store = spec.generate();
    let dn = spec.build_dn(&store);
    let mr = spec.build_multires(&dn);
    let grid = build_grid(run, &store, grid_params_for(&spec, run.tier));
    t.row(cost_row("ReachGrid", run_batch(&grid, &queries)));
    let mut rg = build_graph(run, &dn, &mr, graph_params_for(run.tier));
    t.row(cost_row("ReachGraph (BM-BFS)", run_batch(&rg, &queries)));
    let mut grail = build_grail(run, &dn);
    t.row(cost_row("GRAIL (disk)", run_batch(&grail, &queries)));

    let mut out = vec![inventory, t];
    if let Some(budget) = run.build_budget {
        out.push(exp_trace_budgeted(
            run, trace, &queries, &mut rg, &mut grail, budget,
        ));
    }
    out
}

/// The memory-bounded construction demo behind `--build-budget=BYTES`:
/// rebuilds ReachGraph and disk GRAIL from a [`StreamedDn`] whose decoded
/// DN segments respect the budget (spilling to a scratch device under
/// pressure), then **asserts** the on-device pages and every query result
/// are byte-identical to the unbounded in-memory build just measured.
/// The returned table reports the spill counters — the price of the bound —
/// and the peak resident bytes the budget actually enforced.
fn exp_trace_budgeted(
    run: &Run,
    trace: &reach_contact::ContactTrace,
    queries: &[Query],
    rg: &mut ReachGraph,
    grail: &mut GrailDisk,
    budget: usize,
) -> Table {
    use reach_contact::{StreamedDn, DEFAULT_LEVELS};

    let device = || run.backend.device(run.tier.page_size());
    let ((mut rg_s, mut grail_s, spill), dur) = timed(|| {
        let mut sdn = StreamedDn::from_contacts(
            trace.num_objects(),
            trace.horizon(),
            trace.contacts(),
            BuildBudget::bytes(budget),
            device(),
        );
        let mr = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
        let rg_s = ReachGraph::build_on(device(), &mut sdn, &mr, graph_params_for(run.tier))
            .expect("budgeted graph builds");
        let grail_s =
            GrailDisk::build_on(device(), &mut sdn, 5, 0xF1, 64).expect("budgeted grail builds");
        (rg_s, grail_s, sdn.spill_stats())
    });

    // Byte-identity against the unbounded builds: the budget may cost
    // scratch IO, never correctness.
    assert_same_pages(rg.device_mut(), rg_s.device_mut(), "ReachGraph");
    assert_same_pages(grail.device_mut(), grail_s.device_mut(), "GRAIL");
    for q in queries {
        let a = rg.evaluate(q).expect("unbounded query");
        let b = rg_s.evaluate(q).expect("budgeted query");
        assert_eq!(a.outcome, b.outcome, "budgeted build changed {q}");
        assert_eq!(
            (a.stats.random_ios, a.stats.seq_ios),
            (b.stats.random_ios, b.stats.seq_ios),
            "budgeted build changed IO accounting on {q}"
        );
    }

    let mut t = Table::new(
        "exp_trace (budgeted build)",
        "memory-bounded streaming construction: pages and query results verified byte-identical to the in-memory build",
        &[
            "budget",
            "peak resident",
            "segments spilled",
            "segments reloaded",
            "spill write pages",
            "spill read pages",
            "build time",
        ],
    );
    t.row(vec![
        fbytes(budget as u64),
        fbytes(spill.peak_resident_bytes),
        spill.spilled.to_string(),
        spill.reloaded.to_string(),
        spill.io.total_writes().to_string(),
        spill.io.total_reads().to_string(),
        fdur(dur),
    ]);
    t
}

/// The live-ingestion experiment (ISSUE 5): a synthetic contact stream is
/// appended record by record into a [`reach_live::ShardedLive`] — every
/// device on the run's configured backend — with a delta budget sized to
/// force mid-run seals, each run inline by the append that crossed the
/// budget, and one final [`compact`](reach_live::ShardedLive::compact)
/// that coalesces the epochs into one whole-history shard. Reports append
/// throughput, seal and compaction cost vs a full batch rebuild, and
/// cross-boundary query IO, and **asserts** along the way that at least
/// one seal fired and that every query answer matches a batch-built
/// ReachGraph over the same records.
pub fn exp_live(run: &Run) -> Vec<Table> {
    let spec = live_spec(run.tier, "live-rwp", 53);
    let store = spec.generate();
    let contacts = arrival_stream(&spec, &store);
    // Delta trigger = one epoch of records (see `epoch_delta_budget`):
    // forces mid-run seals at a rate set by the epoch size, not by the
    // stream length; the lateness slack keeps the locally-shuffled
    // arrivals inside the mutable window.
    let config = live_config(run)
        .with_delta_budget(epoch_delta_budget(run.tier))
        .with_lateness(16);
    let live = ScratchLive::new(run.backend, config, store.num_objects());

    let (appended, append_dur) = timed(|| live.append_all(&contacts));
    let seals = live.stats().compactions;
    assert!(
        seals >= 1,
        "the budget must force at least one mid-run seal"
    );
    let epochs = live.shard_count();
    live.compact().expect("final compaction succeeds");
    let stats = live.stats();

    let mut inventory = Table::new(
        "exp_live (inventory)",
        "continuous ingestion into a ShardedLive (inline seals under a delta budget, one final compaction)",
        &[
            "stream",
            "records",
            "appended",
            "clamped",
            "dropped late",
            "seals",
            "epochs compacted",
            "watermark",
            "horizon",
        ],
    );
    inventory.row(vec![
        spec.name.clone(),
        contacts.len().to_string(),
        appended.to_string(),
        stats.clamped.to_string(),
        stats.dropped_late.to_string(),
        seals.to_string(),
        epochs.to_string(),
        live.watermark().to_string(),
        live.now().to_string(),
    ]);

    // Batch rebuild over the accepted records: the oracle for answers and
    // the cost reference for compaction.
    let accepted = live.replay_log().expect("log replays");
    let (batch, rebuild_dur) = timed(|| batch_graph(run, &live, &accepted));

    let mut append_t = Table::new(
        "exp_live (append + compaction)",
        "append throughput, seal + compaction cost, and the final compaction vs one batch rebuild",
        &[
            "records/s",
            "log pages",
            "log write pages",
            "delta peak",
            "compaction base-read pages",
            "seal + compaction spill pages",
            "final compaction",
            "batch rebuild",
        ],
    );
    let last = stats.last_compaction.expect("the final compaction ran");
    append_t.row(vec![
        fnum(appended as f64 / append_dur.as_secs_f64().max(1e-9)),
        live.log_pages().to_string(),
        stats.append_io.total_writes().to_string(),
        fbytes(stats.delta_peak_bytes),
        (stats.compaction_read_io.total_reads()).to_string(),
        (stats.compaction_spill_io.total_reads() + stats.compaction_spill_io.total_writes())
            .to_string(),
        fdur(last.duration),
        fdur(rebuild_dur),
    ]);

    // Query comparison: live (cross-boundary) vs the batch index — and the
    // answers must agree, query by query.
    let query_t = live_vs_batch(
        "exp_live (queries)",
        "query cost across the sealed/live boundary (answers asserted identical to batch)",
        &live,
        &batch,
        &workload(&spec, run.tier, 0x1BEE),
    );
    vec![inventory, append_t, query_t]
}

// ---------------------------------------------------------------------------
// Concurrent serving — queries, appends, and compactions interleaved
// ---------------------------------------------------------------------------

/// exp_serve: concurrent query serving over a `ShardedLive` — appends,
/// rebuilds (seals inline on the appending thread, compactions that
/// coalesce the epochs, one of them on a helper thread), and a
/// multi-threaded query stream (through the `reach_serve` admission queue
/// and worker pool) all interleaved on one index.
///
/// **Asserts** along the way: at least one rebuild committed; at least
/// one query completed *while* a compaction was building (the
/// non-blocking-readers contract); and, after quiescing, every workload
/// query answers exactly as a batch-built ReachGraph over the accepted
/// records.
pub fn exp_serve(run: &Run) -> Vec<Table> {
    use reach_core::ReachRequest;
    use reach_serve::{ServeConfig, Server, SubmitError};
    use std::sync::Arc;

    let spec = live_spec(run.tier, "serve-rwp", 57);
    let store = spec.generate();
    let contacts = arrival_stream(&spec, &store);
    let config = live_config(run)
        .with_delta_budget(epoch_delta_budget(run.tier))
        .with_lateness(16);
    let index = ScratchLive::new(run.backend, config, store.num_objects());

    // Phase 1 — ingest the whole stream. Over-budget appends seal inline,
    // so ingest throughput includes the seals.
    let (appended, append_dur) = timed(|| index.append_all(&contacts));

    // Coalesce the ingested stream into one shard so the overlap phase's
    // queries exercise a sealed base (and pay counted IO), not just the
    // in-memory delta.
    index.compact().expect("post-ingest compaction");

    // Phase 2 — guaranteed overlap: stretch one compaction's build window
    // and serve queries through the worker pool while it is in flight.
    // `compact` runs on a helper thread; the pool answers same-source
    // bursts the whole time.
    if index.watermark() >= index.now().saturating_sub(16) {
        // The stream's tail is already sealed; open fresh room so the
        // overlap compaction has a cut to advance to.
        index.advance(index.now() + 32);
    }
    index.set_compaction_pause_ms(80);
    let server = Server::start(
        index.shared() as Arc<dyn reach_core::ReachIndex>,
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            max_batch: 32,
        },
    )
    .expect("server starts");
    let compaction_thread = {
        let index = index.shared();
        std::thread::spawn(move || index.compact())
    };
    let overlap_deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !index.metrics().compacting {
        assert!(
            std::time::Instant::now() < overlap_deadline,
            "overlap compaction never started"
        );
        std::thread::yield_now();
    }
    let burst_window = reach_core::TimeInterval::new(0, index.now() - 1);
    let mut burst_source = 0u32;
    while index.metrics().compacting {
        // One same-source burst per loop: dest fan-out the pool coalesces.
        let source = reach_core::ObjectId(burst_source % store.num_objects() as u32);
        burst_source += 1;
        let tickets: Vec<_> = (0..8u32)
            .filter_map(|d| {
                let dest =
                    reach_core::ObjectId((burst_source + d * 7) % store.num_objects() as u32);
                match server.submit(ReachRequest::reach(source, burst_window, dest)) {
                    Ok(t) => Some(t),
                    Err(SubmitError::QueueFull { .. }) => None,
                    Err(SubmitError::ShuttingDown) => unreachable!("server is alive"),
                }
            })
            .collect();
        for t in tickets {
            t.wait().expect("burst query answers");
        }
    }
    index.set_compaction_pause_ms(0);
    compaction_thread
        .join()
        .expect("compaction thread")
        .expect("overlap compaction succeeds");

    let live = index.metrics();
    let serve_m = server.metrics();
    drop(server);
    assert!(live.compactions >= 1, "no rebuild ever committed");
    assert!(
        live.overlapped_queries >= 1,
        "no query overlapped a building compaction"
    );

    let mut inventory = Table::new(
        "exp_serve (inventory)",
        "concurrent serving: appends + inline seals + compactions + pooled queries on one index",
        &[
            "stream",
            "records",
            "appended",
            "rebuilds",
            "generation",
            "watermark",
            "horizon",
            "overlapped queries",
        ],
    );
    inventory.row(vec![
        spec.name.clone(),
        contacts.len().to_string(),
        appended.to_string(),
        live.compactions.to_string(),
        live.generation.to_string(),
        live.watermark.to_string(),
        live.now.to_string(),
        live.overlapped_queries.to_string(),
    ]);

    let mut service = Table::new(
        "exp_serve (service)",
        "the admission queue and worker pool during the overlap window",
        &[
            "append records/s",
            "completed",
            "failed",
            "rejected",
            "batched",
            "p50 IO",
            "p99 IO",
        ],
    );
    service.row(vec![
        fnum(appended as f64 / append_dur.as_secs_f64().max(1e-9)),
        serve_m.completed.to_string(),
        serve_m.failed.to_string(),
        serve_m.rejected.to_string(),
        serve_m.batched.to_string(),
        fnum(serve_m.p50_normalized_io),
        fnum(serve_m.p99_normalized_io),
    ]);

    // Phase 3 — quiesce and prove exactness: the live index vs a batch
    // ReachGraph over the accepted records, query by query.
    let batch = batch_graph(run, &index, &index.replay_log().expect("log replays"));
    let queries: Vec<Query> = workload(&spec, run.tier, 0x5E12E)
        .into_iter()
        .filter(|q| q.interval.start < index.now())
        .collect();
    let query_t = live_vs_batch(
        "exp_serve (queries)",
        "quiesced query cost (answers asserted identical to a batch ReachGraph)",
        &index,
        &batch,
        &queries,
    );
    let mut tables = vec![inventory, service, query_t];

    // Phase 4 (`--warm-cache`) — the full deterministic stream through two
    // *fresh* live indexes: a cold reference, and one whose shard hubs
    // carry a shared PageCache with readahead. Manual compaction means no
    // timing-dependent lateness drops, so (unlike the concurrent phases
    // above) every counter in this table is identical run to run and
    // backend to backend. The workload is evaluated twice on both: the
    // cold index pays the base reads every round, the warm one absorbs
    // the repeats as shared residency. Answers are asserted identical
    // query by query.
    if run.warm_cache {
        let replay = |cache_pages: usize, window: usize| {
            let mut cfg = live_config(run).manual_compaction();
            if cache_pages > 0 {
                cfg = cfg.with_shared_cache(cache_pages).with_readahead(window);
            }
            let idx = ScratchLive::new(run.backend, cfg, store.num_objects());
            idx.append_all(&contacts);
            idx.advance(store.horizon());
            idx.compact().expect("replay compaction succeeds");
            idx
        };
        let cold = replay(0, 0);
        let warm = replay(8192, 8);
        let warm_queries: Vec<Query> = workload(&spec, run.tier, 0x5E12E)
            .into_iter()
            .filter(|q| q.interval.start < store.horizon())
            .collect();
        let (cold_reads, warm_reads) = cold_vs_warm_reads(&cold, &warm, &warm_queries, 2);
        assert!(
            warm_reads < cold_reads,
            "warm shared cache must reduce repeated-serve device reads \
             (cold {cold_reads}, warm {warm_reads})"
        );
        let cache = warm.cache_stats().expect("warm index carries a cache");
        let lookups = cache.total_hits() + cache.misses;
        let mut warm_t = Table::new(
            "exp_serve (warm cache)",
            "repeated workload: cold per-query pools vs one shared cache with readahead",
            &[
                "backend",
                "cold reads",
                "warm reads",
                "reduction",
                "hit rate",
                "prefetched",
                "prefetch hits",
                "evictions",
            ],
        );
        warm_t.row(vec![
            run.backend.name().to_string(),
            cold_reads.to_string(),
            warm_reads.to_string(),
            format!(
                "{:.1}%",
                100.0 * (1.0 - warm_reads as f64 / cold_reads.max(1) as f64)
            ),
            format!(
                "{:.1}%",
                100.0 * cache.total_hits() as f64 / lookups.max(1) as f64
            ),
            cache.prefetched.to_string(),
            cache.prefetch_hits.to_string(),
            cache.evictions.to_string(),
        ]);
        tables.push(warm_t);
    }
    tables
}

// ---------------------------------------------------------------------------
// exp_shard — the epoch-sharded live timeline
// ---------------------------------------------------------------------------

/// The sharding experiment (ISSUE 8): the same contact stream is
/// appended into epoch-sharded live timelines ([`reach_live::ShardedLive`])
/// at varying target epoch sizes, and the costs are contrasted with a
/// monolithic timeline that [`compact`](reach_live::ShardedLive::compact)s
/// at the same trigger, re-streaming the whole sealed history every time. Reports seal cost per epoch size, seal cost
/// vs history length (the headline: sharded seals read **zero** sealed
/// pages and their scratch traffic tracks the epoch, while monolithic
/// compaction re-reads grow with the timeline), and cross-shard query IO
/// before and after `merge_epochs`. **Asserts** along the way that every
/// probed sharded answer matches a batch oracle over the accepted trace.
pub fn exp_shard(run: &Run) -> Vec<Table> {
    let spec = live_spec(run.tier, "shard-rwp", 59);
    let store = spec.generate();
    let contacts = arrival_stream(&spec, &store);
    let total = contacts.len();
    // Unlike the other live experiments, the rebuild budget defaults to a
    // *bounded* value here: seal cost then shows up as scratch (spill)
    // traffic, which is what the epoch-size sweep measures. Override with
    // `--build-budget=BYTES`.
    let config = LiveConfig::graph(
        graph_params_for(run.tier),
        BuildBudget::bytes(run.build_budget.unwrap_or(96 << 10)),
    )
    .with_lateness(16);

    // One sharded timeline over a stream prefix, auto-sealing whenever
    // the delta holds ~`epoch_records`, with a final flush seal so the
    // whole prefix is sealed.
    let sharded_over = |count: usize, epoch_records: usize| {
        let live = ScratchLive::new(
            run.backend,
            config
                .clone()
                .with_delta_budget(epoch_records * reach_live::DeltaDn::MAX_RECORD_RESIDENT_BYTES),
            store.num_objects(),
        );
        live.append_all(&contacts[..count]);
        live.seal_now().expect("flush seal succeeds");
        live
    };

    // Table 1 — seal cost vs epoch size, full history. Scratch traffic
    // per seal tracks the epoch; no seal reads sealed history.
    let mut by_epoch = Table::new(
        "exp_shard (seal cost vs epoch size)",
        "auto-sealing epoch shards: per-seal cost is set by the epoch, never by history",
        &[
            "epoch records",
            "seals",
            "shards",
            "scratch pages/seal",
            "sealed-history pages read",
        ],
    );
    for divisor in [8usize, 4, 2] {
        let epoch_records = (total / divisor).max(1);
        let live = sharded_over(total, epoch_records);
        let stats = live.stats().clone();
        assert!(stats.compactions >= 1, "at least the flush seal ran");
        assert_eq!(
            stats.compaction_read_io.total_reads(),
            0,
            "sealing must never re-read sealed history"
        );
        let spill =
            stats.compaction_spill_io.total_reads() + stats.compaction_spill_io.total_writes();
        by_epoch.row(vec![
            epoch_records.to_string(),
            stats.compactions.to_string(),
            live.shard_count().to_string(),
            fnum(spill as f64 / stats.compactions as f64),
            stats.compaction_read_io.total_reads().to_string(),
        ]);
    }

    // Table 2 — seal cost vs history length at a fixed epoch size,
    // against a monolithic timeline compacted at the same trigger. Each
    // compaction re-streams the whole sealed base, so its last
    // compaction's read traffic grows with the prefix; the sharded seal
    // touches only the delta.
    let epoch_records = (total / 4).max(1);
    let mut by_history = Table::new(
        "exp_shard (seal cost vs history length)",
        "fixed epoch size: sharded seal cost is flat in history; monolithic compaction is not",
        &[
            "records",
            "sharded scratch pages/seal",
            "sharded history pages read",
            "monolithic base pages read (last compaction)",
        ],
    );
    let mut mono_last_reads = Vec::new();
    let mut sharded_per_seal = Vec::new();
    for count in [total / 2, total] {
        let stats = sharded_over(count, epoch_records).stats().clone();
        let spill =
            stats.compaction_spill_io.total_reads() + stats.compaction_spill_io.total_writes();
        let per_seal = spill as f64 / stats.compactions.max(1) as f64;
        sharded_per_seal.push(per_seal);

        let mono = ScratchLive::new(
            run.backend,
            config.clone().manual_compaction(),
            store.num_objects(),
        );
        for chunk in contacts[..count].chunks(epoch_records) {
            mono.append_all(chunk);
            if chunk.len() == epoch_records {
                mono.compact().expect("monolithic compaction succeeds");
            }
        }
        mono.compact().expect("flush compaction succeeds");
        let last_reads = mono
            .stats()
            .last_compaction
            .expect("at least the flush compaction ran")
            .base_read_io
            .total_reads();
        mono_last_reads.push(last_reads);
        by_history.row(vec![
            count.to_string(),
            fnum(per_seal),
            stats.compaction_read_io.total_reads().to_string(),
            last_reads.to_string(),
        ]);
    }
    assert!(
        mono_last_reads[1] > mono_last_reads[0],
        "monolithic compaction re-reads must grow with history \
         ({} !> {})",
        mono_last_reads[1],
        mono_last_reads[0]
    );
    assert!(
        sharded_per_seal[1] <= sharded_per_seal[0] * 2.0,
        "sharded per-seal cost must stay flat as history doubles \
         ({} vs {})",
        sharded_per_seal[1],
        sharded_per_seal[0]
    );

    // Table 3 — cross-shard queries and epoch merging. Every probe is
    // asserted against a batch oracle over the accepted trace; merging
    // epochs changes layout and IO, never answers.
    let live = sharded_over(total, (total / 8).max(1));
    let accepted = live.replay_log().expect("log replays");
    let horizon = live.now();
    let oracle = reach_contact::Oracle::from_contacts(store.num_objects(), horizon, &accepted);
    let queries: Vec<Query> = workload(&spec, run.tier, 0x5A)
        .into_iter()
        .map(|q| {
            let end = q.interval.end.min(horizon - 1);
            Query::new(
                q.source,
                q.dest,
                reach_core::TimeInterval::new(q.interval.start.min(end), end),
            )
        })
        .collect();
    let probe = |live: &ShardedLive, tag: &str| -> (f64, f64) {
        let (mut random, mut seq) = (0u64, 0u64);
        for q in &queries {
            let got = live.evaluate(q).expect("sharded query evaluates");
            let want = oracle.evaluate(q);
            assert_eq!(
                got.reachable(),
                want.reachable,
                "{tag}: sharded answer diverged from the batch oracle on {q}"
            );
            random += got.stats.random_ios;
            seq += got.stats.seq_ios;
        }
        let n = queries.len() as f64;
        (
            (random as f64 + seq as f64 / 20.0) / n,
            seq as f64 / (random + seq).max(1) as f64,
        )
    };
    let mut merged_table = Table::new(
        "exp_shard (cross-shard queries, epoch merge)",
        "frontier handoff across shard boundaries; merge_epochs coalesces without changing answers",
        &[
            "layout",
            "shards",
            "mean IO",
            "seq fraction",
            "merge pages read",
        ],
    );
    let (io, seqf) = probe(&live, "pre-merge");
    merged_table.row(vec![
        "epoch shards".into(),
        live.shard_count().to_string(),
        fnum(io),
        fnum(seqf),
        "-".into(),
    ]);
    let before = live.stats().compaction_read_io.total_reads();
    while live.shard_count() > 1 {
        live.merge_epochs(0, 1).expect("merge succeeds");
    }
    let merge_reads = live.stats().compaction_read_io.total_reads() - before;
    let (io, seqf) = probe(&live, "post-merge");
    merged_table.row(vec![
        "merged to one".into(),
        live.shard_count().to_string(),
        fnum(io),
        fnum(seqf),
        merge_reads.to_string(),
    ]);

    vec![by_epoch, by_history, merged_table]
}

// ---------------------------------------------------------------------------
// exp_decay — decay-weighted and top-k reachability workloads
// ---------------------------------------------------------------------------

/// The decay experiment (ISSUE 9): decay-weighted point queries and top-k
/// rankings (Strzheletska & Tsotras, PAPERS.md) on a ReachGraph over the
/// run's configured backend. Reports the threshold sweep (verdict mix and
/// IO vs θ), the top-k vs full-enumeration contrast (the running
/// kth-best-weight floor prunes expansion — the headline, asserted
/// strictly), and forward vs reverse ranking cost. **Asserts** every
/// verdict and ranking against the exhaustive path-enumeration oracle
/// ([`reach_ext::DecayOracle`]), so running this under
/// `--backend=sim|file` revalidates the decay semantics on each
/// storage backend.
pub fn exp_decay(run: &Run) -> Vec<Table> {
    use reach_core::{DecayModel, ObjectId, RankDirection, TimeInterval};
    use reach_ext::DecayOracle;

    let spec = match run.tier {
        Tier::Quick => DatasetSpec::rwp("decay-rwp", 120, 600, 37),
        Tier::Full => DatasetSpec::rwp("decay-rwp", 300, 1500, 37),
    };
    let store = spec.generate();
    let dn = spec.build_dn(&store);
    let mr = spec.build_multires(&dn);
    let oracle = DecayOracle::new(&dn);
    // Shorter windows than the boolean workload: elapsed-time decay makes
    // wide windows near-worthless anyway, and the oracle enumerates every
    // in-window path.
    let queries: Vec<Query> = WorkloadConfig {
        num_queries: num_queries(run.tier),
        interval_len_min: 60,
        interval_len_max: 160,
    }
    .generate(spec.num_objects, spec.horizon, 0xDC);
    let model = DecayModel::new(0.7, 0.99).expect("factors lie in (0, 1]");

    // One oracle enumeration per query point; every θ row filters it.
    let best: Vec<_> = queries
        .iter()
        .map(|q| oracle.best_weights(q.source, q.interval, &model))
        .collect();

    let mut sweep = Table::new(
        "exp_decay (threshold sweep)",
        "point decay verdicts vs θ; every verdict asserted against the path-enumeration oracle",
        &["theta", "reachable", "mean IO", "mean visited"],
    );
    let rg = build_graph(run, &dn, &mr, graph_params_for(run.tier));
    for theta in [0.05, 0.2, 0.5, 0.8] {
        let (mut random, mut seq, mut visited, mut hits) = (0u64, 0u64, 0u64, 0u64);
        for (q, best) in queries.iter().zip(&best) {
            let answer = rg
                .answer(&ReachRequest::decay(
                    q.source, q.interval, q.dest, theta, model,
                ))
                .expect("decay query evaluates");
            let (got, stats) = (
                answer.ranking.first().map(|r| (r.weight, r.arrival)),
                answer.stats,
            );
            let want = oracle.lookup(best, q.dest).filter(|&(w, _)| w >= theta);
            assert_eq!(
                got, want,
                "decay verdict diverged from the oracle on {q} at θ={theta}"
            );
            random += stats.random_ios;
            seq += stats.seq_ios;
            visited += stats.visited;
            hits += u64::from(got.is_some());
        }
        let n = queries.len() as f64;
        sweep.row(vec![
            format!("{theta:.2}"),
            hits.to_string(),
            fnum((random as f64 + seq as f64 / 20.0) / n),
            fnum(visited as f64 / n),
        ]);
    }

    // Top-k vs full enumeration: same anchors, same windows. "Full" ranks
    // every object (k = n), which the dynamic floor can never prune, so
    // the IO gap is exactly what threshold pruning buys.
    let anchors: Vec<(ObjectId, TimeInterval)> = queries
        .iter()
        .take(40)
        .map(|q| (q.source, q.interval))
        .collect();
    let io_of = |stats: &reach_core::QueryStats| stats.random_ios + stats.seq_ios;
    let mut full_io = 0u64;
    let mut full_lists = Vec::new();
    let top_k = |a, iv, k, direction| {
        let request = match direction {
            RankDirection::Reachable => ReachRequest::top_k_reachable(a, iv, k, model),
            RankDirection::Reaching => ReachRequest::top_k_reaching(a, iv, k, model),
        };
        rg.answer(&request)
            .map(|answer| (answer.ranking, answer.stats))
    };
    for &(a, iv) in &anchors {
        let (list, stats) = top_k(a, iv, store.num_objects(), RankDirection::Reachable)
            .expect("full enumeration evaluates");
        full_io += io_of(&stats);
        full_lists.push(list);
    }
    let mut topk = Table::new(
        "exp_decay (top-k vs full enumeration)",
        "the running kth-best weight prunes expansion; full enumeration ranks every object",
        &[
            "k",
            "mean top-k IO pages",
            "mean full-enum IO pages",
            "saved",
        ],
    );
    for k in [1usize, 5, 20] {
        let mut k_io = 0u64;
        for (i, &(a, iv)) in anchors.iter().enumerate() {
            let (list, stats) = top_k(a, iv, k, RankDirection::Reachable).expect("top-k evaluates");
            k_io += io_of(&stats);
            assert_eq!(
                list,
                oracle.top_k_reachable(a, iv, k, &model),
                "top-{k} ranking diverged from the oracle at anchor {a:?} {iv}"
            );
            assert_eq!(
                list.as_slice(),
                &full_lists[i][..k.min(full_lists[i].len())],
                "top-{k} must be a prefix of the full ranking at anchor {a:?} {iv}"
            );
        }
        assert!(
            k_io < full_io,
            "top-{k} counted IO must stay strictly below full enumeration ({k_io} !< {full_io})"
        );
        let n = anchors.len() as f64;
        topk.row(vec![
            k.to_string(),
            fnum(k_io as f64 / n),
            fnum(full_io as f64 / n),
            format!("{:.0}%", 100.0 * (1.0 - k_io as f64 / full_io as f64)),
        ]);
    }

    // Ranking direction: the native backward walk against the oracle's
    // quadratic per-candidate specification.
    let mut rev = Table::new(
        "exp_decay (ranking direction)",
        "forward expansion vs the native backward walk, k = 5",
        &["direction", "mean IO pages", "mean visited"],
    );
    for direction in [RankDirection::Reachable, RankDirection::Reaching] {
        let (mut io, mut visited) = (0u64, 0u64);
        let probes = &anchors[..8.min(anchors.len())];
        for &(a, iv) in probes {
            let (list, stats) = top_k(a, iv, 5, direction).expect("ranked query evaluates");
            io += io_of(&stats);
            visited += stats.visited;
            let want = match direction {
                RankDirection::Reachable => oracle.top_k_reachable(a, iv, 5, &model),
                RankDirection::Reaching => oracle.top_k_reaching(a, iv, 5, &model),
            };
            assert_eq!(
                list,
                want,
                "{} ranking diverged from the oracle at {a:?} {iv}",
                direction.name()
            );
        }
        let n = probes.len() as f64;
        rev.row(vec![
            direction.name().into(),
            fnum(io as f64 / n),
            fnum(visited as f64 / n),
        ]);
    }

    vec![sweep, topk, rev]
}

// ---------------------------------------------------------------------------
// Observability — tracing overhead and span/IO accounting identity
// ---------------------------------------------------------------------------

/// The observability experiment: the same query workload evaluated on an
/// epoch-sharded live timeline with tracing off and on.
///
/// Three tables: *identity* (counted IO is byte-identical either way —
/// asserted, not just reported), *composition* (how many spans each query
/// kind emits, and that per-trace span IO sums to the query's own
/// counters), and *overhead* (wall time with tracing off vs on, plus the
/// recorder's retention).
pub fn exp_obs(run: &Run) -> Vec<Table> {
    use reach_core::{DecayModel, ObjectId, ReachRequest, TimeInterval};
    use reach_obs::{Obs, ObsConfig};

    let spec = live_spec(run.tier, "obs-rwp", 61);
    let store = spec.generate();
    let mut contacts = spec.contacts(&store);
    contacts.sort_by_key(|c| (c.interval.start, c.a, c.b));
    // An epoch-sharded timeline (~4 epochs), so traces carry real
    // cross-shard leg spans, on the run's configured backend.
    let epoch_records = (contacts.len() / 4).max(1);
    let config = live_config(run)
        .with_delta_budget(epoch_records * reach_live::DeltaDn::MAX_RECORD_RESIDENT_BYTES)
        .with_lateness(16);
    let index = ScratchLive::new(run.backend, config, store.num_objects());
    index.append_all(&contacts);
    index.seal_now().expect("flush seal succeeds");

    // The workload: reach queries over windows that straddle shard cuts,
    // plus decay queries (whose legs carry a weighted frontier).
    let model = DecayModel::per_transfer(0.8);
    let now = index.now();
    let n = store.num_objects() as u32;
    let mut requests = Vec::new();
    for (i, q) in workload(&spec, run.tier, 0x0B5).into_iter().enumerate() {
        requests.push(ReachRequest::from(q));
        if i % 4 == 0 {
            let window = TimeInterval::new(now / 4, now.saturating_sub(1).max(1));
            requests.push(ReachRequest::decay(
                ObjectId(i as u32 % n),
                window,
                ObjectId((i as u32 * 7 + 3) % n),
                0.1,
                model,
            ));
        }
    }

    // Pass 1 — tracing off: the perf-gate configuration.
    let obs_off = Obs::untraced();
    let (off_totals, off_dur) = timed(|| {
        let mut totals = std::collections::BTreeMap::new();
        for r in &requests {
            let a = index
                .answer(&r.clone().with_trace(obs_off.tracer()))
                .expect("untraced answer");
            let e = totals.entry(kind_name(r)).or_insert((0u64, 0u64, 0u64));
            e.0 += 1;
            e.1 += a.stats.random_ios;
            e.2 += a.stats.seq_ios;
        }
        totals
    });

    // Pass 2 — tracing on, asserting per-trace span IO == query counters.
    let obs_on = Obs::new(ObsConfig::default());
    let mut span_counts: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    let (on_totals, on_dur) = timed(|| {
        let mut totals = std::collections::BTreeMap::new();
        for r in &requests {
            let (a, events) = answer_traced(&*index, r, &obs_on.tracer());
            let e = totals.entry(kind_name(r)).or_insert((0u64, 0u64, 0u64));
            e.0 += 1;
            e.1 += a.stats.random_ios;
            e.2 += a.stats.seq_ios;
            let s = span_counts.entry(kind_name(r)).or_insert((0, 0));
            s.0 += events.len() as u64;
            s.1 += events
                .iter()
                .filter(|ev| ev.name.starts_with("shard/"))
                .count() as u64;
        }
        totals
    });
    assert_eq!(
        off_totals, on_totals,
        "tracing must not change counted IO by a single page"
    );

    let mut identity = Table::new(
        "exp_obs (identity)",
        "counted IO with tracing off vs on — identical by construction, asserted per query kind",
        &[
            "kind",
            "queries",
            "random IO",
            "seq IO",
            "traced random",
            "traced seq",
        ],
    );
    for (kind, (count, rand, seq)) in &off_totals {
        let on = on_totals[kind];
        identity.row(vec![
            kind.to_string(),
            count.to_string(),
            rand.to_string(),
            seq.to_string(),
            on.1.to_string(),
            on.2.to_string(),
        ]);
    }

    let mut composition = Table::new(
        "exp_obs (composition)",
        "spans per query by kind (shard/* legs are the cross-shard frontier handoffs)",
        &["kind", "queries", "spans/query", "shard legs/query"],
    );
    for (kind, (spans, legs)) in &span_counts {
        let count = on_totals[kind].0;
        composition.row(vec![
            kind.to_string(),
            count.to_string(),
            fnum(*spans as f64 / count as f64),
            fnum(*legs as f64 / count as f64),
        ]);
    }

    let recorder = obs_on.recorder().expect("default config records");
    let mut overhead = Table::new(
        "exp_obs (overhead)",
        "wall time for the whole workload with tracing off vs on, and what the recorder kept",
        &[
            "queries",
            "untraced",
            "traced",
            "events recorded",
            "events retained",
            "recorder bytes",
        ],
    );
    overhead.row(vec![
        requests.len().to_string(),
        fdur(off_dur),
        fdur(on_dur),
        recorder.recorded().to_string(),
        recorder.dump().len().to_string(),
        fbytes(recorder.bytes_recorded()),
    ]);
    vec![identity, composition, overhead]
}

/// Stable per-kind label for the exp_obs aggregation.
fn kind_name(r: &reach_core::ReachRequest) -> &'static str {
    use reach_core::QueryKind;
    match r.kind {
        QueryKind::Reach => "reach",
        QueryKind::Uncertain { .. } => "uncertain",
        QueryKind::NonImmediate => "non-immediate",
        QueryKind::Decay { .. } => "decay",
        QueryKind::TopK { .. } => "top-k",
        _ => "other",
    }
}

// ---------------------------------------------------------------------------
// Ablations — design choices the paper motivates but does not sweep
// ---------------------------------------------------------------------------

/// Ablations: buffer sizes for both indexes (placement-adjacent knobs the
/// paper fixes after tuning).
pub fn exp_ablation(run: &Run) -> Vec<Table> {
    let rwp = rwp_series(run.tier);
    let spec = middle(&rwp);
    let store = spec.generate();
    let queries = workload(spec, run.tier, 0xAB);

    let mut ta = Table::new(
        "Ablation A",
        "ReachGraph partition buffer size vs IO (tuned d_p, 6 resolutions)",
        &["buffered partitions", "mean IO"],
    );
    let dn = spec.build_dn(&store);
    let mr = spec.build_multires(&dn);
    for cache in [1usize, 4, 16, 64] {
        let rg = build_graph(
            run,
            &dn,
            &mr,
            GraphParams {
                partition_cache: cache,
                ..graph_params_for(run.tier)
            },
        );
        let r = run_batch(&rg, &queries);
        ta.row(vec![cache.to_string(), fnum(r.mean_io)]);
    }

    let mut tb = Table::new(
        "Ablation B",
        "ReachGrid page-buffer size vs IO (R_T=20)",
        &["buffered pages", "mean IO"],
    );
    for cache in [8usize, 64, 256] {
        let grid = build_grid(
            run,
            &store,
            GridParams {
                cache_pages: cache,
                ..grid_params_for(spec, run.tier)
            },
        );
        let r = run_batch(&grid, &queries);
        tb.row(vec![cache.to_string(), fnum(r.mean_io)]);
    }
    vec![ta, tb]
}

/// One experiment: the tables it reproduces for a run's settings.
pub type Experiment = fn(&Run) -> Vec<Table>;

/// Every experiment under its `streach_exp` name, in paper order.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table2", exp_table2),
    ("fig8", exp_fig8),
    ("fig9", exp_fig9),
    ("spj", exp_spj),
    ("contact_growth", exp_contact_growth),
    ("reduction", exp_reduction),
    ("table4", exp_table4),
    ("fig12", exp_fig12),
    ("fig13", exp_fig13),
    ("fig14_15", exp_fig14_15),
    ("table5", exp_table5),
    ("trace", exp_trace),
    ("live", exp_live),
    ("serve", exp_serve),
    ("shard", exp_shard),
    ("decay", exp_decay),
    ("obs", exp_obs),
    ("ablation", exp_ablation),
];

/// Runs the entire suite in paper order.
pub fn all(run: &Run) -> Vec<Table> {
    EXPERIMENTS.iter().flat_map(|(_, exp)| exp(run)).collect()
}
