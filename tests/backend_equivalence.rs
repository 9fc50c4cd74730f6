//! Backend-equivalence suite: every index must behave *identically* on the
//! memory-backed simulator and the real-file backend — byte-identical
//! on-device pages, identical query outcomes, and identical counted IO —
//! and file-backed indexes must survive being dropped and reopened.
//!
//! This is the contract that lets the paper's IO-count results (measured on
//! `SimDevice`) transfer to real storage: the backends differ only in where
//! the bytes live, never in what the indexes do.

use std::path::PathBuf;
use streach::prelude::*;
use streach::storage::BlockDevice;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("streach-eqv-{}-{tag}.pages", std::process::id()));
    p
}

fn small_store(seed: u64) -> TrajectoryStore {
    RwpConfig {
        env: Environment::square(400.0),
        num_objects: 14,
        horizon: 160,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 2.0,
        pause_ticks_max: 2,
    }
    .generate(seed)
}

fn queries(store: &TrajectoryStore, n: usize, seed: u64) -> Vec<Query> {
    WorkloadConfig {
        num_queries: n,
        interval_len_min: 10,
        interval_len_max: 120,
    }
    .generate(store.num_objects(), store.horizon(), seed)
}

/// Reads back every page of a device (then clears the accounting the dump
/// itself incurred).
fn dump_pages(dev: &mut dyn BlockDevice) -> Vec<Vec<u8>> {
    let page_size = dev.page_size();
    let mut out = Vec::with_capacity(dev.len_pages() as usize);
    let mut buf = vec![0u8; page_size];
    for p in 0..dev.len_pages() {
        dev.read_page_into(p, &mut buf).expect("page in bounds");
        out.push(buf.clone());
    }
    dev.reset_stats();
    out
}

fn assert_same_pages(a: &mut dyn BlockDevice, b: &mut dyn BlockDevice, what: &str) {
    assert_eq!(a.page_size(), b.page_size(), "{what}: page size");
    assert_eq!(a.len_pages(), b.len_pages(), "{what}: device length");
    let pa = dump_pages(a);
    let pb = dump_pages(b);
    for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(x, y, "{what}: page {i} differs between backends");
    }
}

#[test]
fn reachgrid_identical_on_sim_and_file() {
    let store = small_store(11);
    let params = GridParams {
        temporal: 20,
        cell_size: 80.0,
        threshold: 25.0,
        cache_pages: 32,
        page_size: 256,
    };
    let mut on_sim = ReachGrid::build(&store, params).expect("sim build");
    let path = temp_path("grid");
    let file_dev = FileDevice::create(&path, params.page_size).expect("file device");
    let mut on_file = ReachGrid::build_on(Box::new(file_dev), &store, params).expect("file build");

    assert_same_pages(on_sim.device_mut(), on_file.device_mut(), "ReachGrid");
    let oracle = Oracle::build(&store, 25.0);
    for q in &queries(&store, 40, 0xA1) {
        let a = on_sim.evaluate(q).expect("sim query");
        let b = on_file.evaluate(q).expect("file query");
        assert_eq!(a.outcome, b.outcome, "outcome differs on {q}");
        assert_eq!(a.outcome, oracle.evaluate(q), "oracle disagrees on {q}");
        assert_eq!(
            (a.stats.random_ios, a.stats.seq_ios, a.stats.visited),
            (b.stats.random_ios, b.stats.seq_ios, b.stats.visited),
            "IO accounting differs on {q}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reachgraph_identical_on_all_backends() {
    let store = small_store(22);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let params = GraphParams {
        partition_depth: 8,
        page_size: 256,
        ..GraphParams::default()
    };
    let mut on_sim = ReachGraph::build(&dn, &mr, params.clone()).expect("sim build");
    let file_path = temp_path("graph-file");
    let mut on_file = ReachGraph::build_on(
        StorageConfig::file(&file_path, params.page_size)
            .create()
            .expect("file device"),
        &dn,
        &mr,
        params,
    )
    .expect("file build");

    assert_same_pages(
        on_sim.device_mut(),
        on_file.device_mut(),
        "ReachGraph sim/file",
    );
    for q in &queries(&store, 40, 0xB2) {
        let a = on_sim.evaluate(q).expect("sim query");
        let b = on_file.evaluate(q).expect("file query");
        assert_eq!(a.outcome, b.outcome, "sim/file outcome differs on {q}");
        assert_eq!(
            (a.stats.random_ios, a.stats.seq_ios, a.stats.visited),
            (b.stats.random_ios, b.stats.seq_ios, b.stats.visited),
            "sim/file IO differs on {q}"
        );
    }
    let _ = std::fs::remove_file(&file_path);
}

#[test]
fn grail_identical_on_sim_and_file() {
    let store = small_store(33);
    let dn = DnGraph::build(&store, 25.0);
    let mut on_sim = GrailDisk::build(&dn, 3, 7, 256, 16).expect("sim build");
    let path = temp_path("grail");
    let mut on_file = GrailDisk::build_on(
        StorageConfig::file(&path, 256).create().expect("device"),
        &dn,
        3,
        7,
        16,
    )
    .expect("file build");

    assert_same_pages(on_sim.device_mut(), on_file.device_mut(), "GrailDisk");
    for q in &queries(&store, 40, 0xC3) {
        let a = on_sim.evaluate(q).expect("sim query");
        let b = on_file.evaluate(q).expect("file query");
        assert_eq!(a.outcome, b.outcome, "outcome differs on {q}");
        assert_eq!(
            (a.stats.random_ios, a.stats.seq_ios, a.stats.visited),
            (b.stats.random_ios, b.stats.seq_ios, b.stats.visited),
            "IO accounting differs on {q}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reachgraph_file_reopens_after_drop_with_identical_answers() {
    let store = small_store(44);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let params = GraphParams {
        partition_depth: 8,
        page_size: 256,
        ..GraphParams::default()
    };
    let path = temp_path("reopen");
    let cfg = StorageConfig::file(&path, params.page_size);
    let qs = queries(&store, 30, 0xD4);

    let first: Vec<QueryResult> = {
        let graph = ReachGraph::build_on(cfg.create().expect("device"), &dn, &mr, params)
            .expect("file build");
        qs.iter()
            .map(|q| graph.evaluate(q).expect("query evaluates"))
            .collect()
    }; // the index and its device are gone; only the file remains

    let reopened = ReachGraph::open(cfg.open().expect("device reopens")).expect("graph reopens");
    let mut any_io = 0;
    for (q, before) in qs.iter().zip(&first) {
        let after = reopened.evaluate(q).expect("query evaluates");
        assert_eq!(after.outcome, before.outcome, "outcome changed on {q}");
        assert_eq!(
            (after.stats.random_ios, after.stats.seq_ios),
            (before.stats.random_ios, before.stats.seq_ios),
            "IO accounting changed across reopen on {q}"
        );
        any_io += after.stats.random_ios + after.stats.seq_ios;
    }
    assert!(
        any_io > 0,
        "reopened queries must pay plausible (nonzero) IO"
    );
    let _ = std::fs::remove_file(&path);
}
