//! Streaming-construction suite: a memory-bounded build (`StreamedDn` +
//! `BuildBudget`) must be *indistinguishable* from the in-memory build —
//! byte-identical on-device pages, identical query outcomes, identical IO
//! accounting — on every storage backend, while a tight budget provably
//! spills. The perf-regression gate (`bench_diff`) is exercised against the
//! committed `BENCH_quick.json` baseline.

mod common;

use common::{device_for, BACKENDS};
use reach_bench::assert_same_pages;
use streach::prelude::*;

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

/// The core contract: streaming build == in-memory build, bit for bit, on
/// every backend — with both an unbounded budget (no spills) and a tight
/// one (provable spills).
#[test]
fn streaming_build_is_byte_identical_on_all_backends() {
    let store = small_store(77);
    let dn = DnGraph::build(&store, 25.0);
    let contacts = streach::contact::extract_contacts(&store, store.horizon_interval(), 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let params = GraphParams {
        partition_depth: 8,
        page_size: 256,
        ..GraphParams::default()
    };
    let qs = queries(&store, 30, 0xE5);

    for backend in BACKENDS {
        for (budget, expect_spills) in [
            (BuildBudget::unbounded(), false),
            (BuildBudget::bytes(2048), true),
        ] {
            let tag = format!("{backend}-{}", if expect_spills { "tight" } else { "wide" });
            // Reference: the classic in-memory build.
            let dev = device_for(backend, params.page_size);
            let mut reference =
                ReachGraph::build_on(dev, &dn, &mr, params.clone()).expect("in-memory build");
            // Candidate: streaming build from contacts under the budget.
            let mut sdn = StreamedDn::from_contacts(
                store.num_objects(),
                store.horizon(),
                &contacts,
                budget,
                Box::new(SimDevice::new(256)),
            );
            let mr_s = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
            let dev = device_for(backend, params.page_size);
            let mut streamed = ReachGraph::build_on(dev, &mut sdn, &mr_s, params.clone())
                .expect("streaming build");

            assert_same_pages(
                reference.device_mut(),
                streamed.device_mut(),
                &format!("ReachGraph[{tag}]"),
            );
            for q in &qs {
                let a = reference.evaluate(q).expect("reference query");
                let b = streamed.evaluate(q).expect("streamed query");
                assert_eq!(a.outcome, b.outcome, "[{tag}] outcome differs on {q}");
                assert_eq!(
                    (a.stats.random_ios, a.stats.seq_ios, a.stats.visited),
                    (b.stats.random_ios, b.stats.seq_ios, b.stats.visited),
                    "[{tag}] IO accounting differs on {q}"
                );
            }

            let spill = sdn.spill_stats();
            if expect_spills {
                assert!(
                    spill.spilled > 0,
                    "[{tag}] tight budget must spill: {spill:?}"
                );
                assert!(
                    spill.reloaded > 0,
                    "[{tag}] consumers must reload: {spill:?}"
                );
                assert!(
                    spill.io.total_writes() > 0 && spill.io.total_reads() > 0,
                    "[{tag}] spill IO must be counted: {spill:?}"
                );
            } else {
                assert_eq!(
                    (spill.spilled, spill.reloaded, spill.io.total_writes()),
                    (0, 0, 0),
                    "[{tag}] unbounded budget must never touch scratch"
                );
            }
        }
    }
}

/// Disk GRAIL takes the identical DnAccess path: streaming build must match
/// its in-memory build bit for bit too (labels included — the randomized
/// DFS consumes its RNG identically through the accessor).
#[test]
fn grail_streaming_build_matches_in_memory() {
    let store = small_store(88);
    let dn = DnGraph::build(&store, 25.0);
    let contacts = streach::contact::extract_contacts(&store, store.horizon_interval(), 25.0);
    let mut reference = GrailDisk::build(&dn, 3, 7, 256, 16).expect("in-memory build");
    let mut sdn = StreamedDn::from_contacts(
        store.num_objects(),
        store.horizon(),
        &contacts,
        BuildBudget::bytes(2048),
        Box::new(SimDevice::new(256)),
    );
    let mut streamed = GrailDisk::build_on(
        StorageConfig::sim(256).create().expect("sim device"),
        &mut sdn,
        3,
        7,
        16,
    )
    .expect("streaming build");
    assert_same_pages(reference.device_mut(), streamed.device_mut(), "GrailDisk");
    assert!(sdn.spill_stats().spilled > 0, "tight budget must spill");
    for q in &queries(&store, 30, 0xF6) {
        let a = reference.evaluate(q).expect("reference query");
        let b = streamed.evaluate(q).expect("streamed query");
        assert_eq!(a.outcome, b.outcome, "outcome differs on {q}");
        assert_eq!(
            (a.stats.random_ios, a.stats.seq_ios),
            (b.stats.random_ios, b.stats.seq_ios),
            "IO accounting differs on {q}"
        );
    }
}

/// A tight budget must actually bound resident memory: the peak resident
/// bytes under the budget stay far below the unbounded build's peak.
#[test]
fn budget_bounds_peak_resident_bytes() {
    // A larger world than the equivalence tests: the peak-memory contrast
    // only shows once the DN dwarfs a single segment.
    let store = RwpConfig {
        env: Environment::square(600.0),
        num_objects: 40,
        horizon: 500,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 2.0,
        pause_ticks_max: 2,
    }
    .generate(99);
    let contacts = streach::contact::extract_contacts(&store, store.horizon_interval(), 25.0);
    let build = |budget: BuildBudget| {
        let mut sdn = StreamedDn::from_contacts(
            store.num_objects(),
            store.horizon(),
            &contacts,
            budget,
            Box::new(SimDevice::new(256)),
        );
        let mr = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
        let _ = ReachGraph::build_on(
            StorageConfig::sim(256).create().expect("device"),
            &mut sdn,
            &mr,
            GraphParams {
                page_size: 256,
                ..GraphParams::default()
            },
        )
        .expect("builds");
        sdn.spill_stats().peak_resident_bytes
    };
    let unbounded = build(BuildBudget::unbounded());
    let bounded = build(BuildBudget::bytes(4096));
    assert!(
        bounded * 4 < unbounded,
        "budgeted peak {bounded} should be well under unbounded peak {unbounded}"
    );
}

/// The perf gate: the committed baseline passes against itself, an injected
/// regression fails, and a vanished counter fails.
#[test]
fn bench_diff_gates_on_the_committed_baseline() {
    use reach_bench::perf::{diff, PerfReport};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_quick.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_quick.json exists");
    let baseline = PerfReport::parse(&text).expect("committed baseline parses");
    assert!(
        baseline.counters.len() >= 20,
        "baseline should track a meaningful counter set"
    );
    assert!(
        baseline.counters.keys().any(|k| k.contains("stream/spill")),
        "baseline must watch the streaming-build spill counters"
    );

    // Identical run: gate passes.
    let d = diff(&baseline, &baseline, 0.05);
    assert!(d.passed(), "self-diff must pass: {:?}", d.violations);

    // A 10% regression on one counter: gate fails and names the counter.
    let mut regressed = baseline.clone();
    let (key, value) = {
        let (k, v) = regressed
            .counters
            .iter()
            .find(|&(_, &v)| v >= 100)
            .map(|(k, &v)| (k.clone(), v))
            .expect("some counter is large enough to perturb");
        (k, v)
    };
    regressed
        .counters
        .insert(key.clone(), value + value / 10 + 1);
    let d = diff(&baseline, &regressed, 0.05);
    assert!(!d.passed(), "a >5% regression must fail the gate");
    assert!(
        d.violations.iter().any(|v| v.contains(&key)),
        "violation must name the regressed counter: {:?}",
        d.violations
    );

    // A counter that disappeared: gate fails.
    let mut shrunk = baseline.clone();
    shrunk.counters.remove(&key);
    assert!(!diff(&baseline, &shrunk, 0.05).passed());

    // The JSON writer round-trips the committed file exactly.
    assert_eq!(
        PerfReport::parse(&baseline.to_json()).expect("reparse"),
        baseline
    );
}
