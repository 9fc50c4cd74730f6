//! Failure injection: disk-backed indexes must surface corruption and
//! out-of-range requests as typed errors, never panics or wrong answers,
//! and a sharded live index must recover from a crash at any point of a
//! rebuild's commit to exactly the pre- or post-commit shard set.

mod common;

use common::{base_files, check_all_pairs, cleanup, graph_params, manual, sharded_on, PAGE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use streach::prelude::*;
use streach::storage::{Pager, RecordPtr, RecordWriter, SimDevice};

fn small_store(seed: u64) -> TrajectoryStore {
    RwpConfig {
        env: Environment::square(400.0),
        num_objects: 12,
        horizon: 120,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 2.0,
        pause_ticks_max: 2,
    }
    .generate(seed)
}

#[test]
fn grid_rejects_out_of_range_requests_without_panicking() {
    let store = small_store(1);
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 10,
            cell_size: 80.0,
            threshold: 25.0,
            ..GridParams::default()
        },
    )
    .expect("builds");
    // Unknown objects.
    for (s, d) in [(99, 0), (0, 99), (99, 98)] {
        let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(0, 10));
        assert!(matches!(
            grid.evaluate(&q),
            Err(IndexError::UnknownObject(_))
        ));
    }
    // Interval fully outside the horizon.
    let q = Query::new(ObjectId(0), ObjectId(1), TimeInterval::new(500, 600));
    assert!(matches!(
        grid.evaluate(&q),
        Err(IndexError::IntervalOutOfRange { .. })
    ));
    // The index stays usable after errors.
    let q = Query::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 100));
    assert!(grid.evaluate(&q).is_ok());
}

#[test]
fn graph_rejects_out_of_range_requests_without_panicking() {
    let store = small_store(2);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("builds");
    for kind in [
        TraversalKind::EDfs,
        TraversalKind::EBfs,
        TraversalKind::BBfs,
        TraversalKind::BmBfs,
    ] {
        let q = Query::new(ObjectId(50), ObjectId(0), TimeInterval::new(0, 10));
        assert!(matches!(
            graph.evaluate_with(&q, kind),
            Err(IndexError::UnknownObject(_))
        ));
        let q = Query::new(ObjectId(0), ObjectId(1), TimeInterval::new(400, 500));
        assert!(matches!(
            graph.evaluate_with(&q, kind),
            Err(IndexError::IntervalOutOfRange { .. })
        ));
    }
    assert!(graph
        .reachable_set(ObjectId(99), TimeInterval::new(0, 10))
        .is_err());
    // Still healthy afterwards.
    let q = Query::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 100));
    assert!(graph.evaluate(&q).is_ok());
}

#[test]
fn corrupt_records_decode_to_errors_not_panics() {
    // Hand-roll a device holding a record whose length prefix lies.
    let mut disk = SimDevice::new(128);
    let mut w = RecordWriter::new(&mut disk).unwrap();
    let good = w.append(&mut disk, b"fine").expect("write succeeds");
    w.finish(&mut disk).expect("flush succeeds");
    let evil_page = disk.allocate(1).unwrap();
    disk.write_page(evil_page, &u32::MAX.to_le_bytes())
        .expect("write succeeds");
    let mut pager = Pager::new(Box::new(disk), 4);
    // The good record still reads.
    assert_eq!(
        streach::storage::read_record(&mut pager, good).expect("readable"),
        b"fine"
    );
    // The corrupt one errors.
    let bogus = RecordPtr {
        page: evil_page,
        offset: 0,
    };
    assert!(matches!(
        streach::storage::read_record(&mut pager, bogus),
        Err(IndexError::Corrupt(_) | IndexError::PageOutOfBounds { .. })
    ));
    // Pointers past the device error too.
    let outer = RecordPtr {
        page: 10_000,
        offset: 0,
    };
    assert!(matches!(
        streach::storage::read_record(&mut pager, outer),
        Err(IndexError::PageOutOfBounds { .. })
    ));
}

#[test]
fn vertex_decode_rejects_truncation_everywhere() {
    use streach::graph::{Partition, PartitionEncoder, VertexData};
    let v = VertexData {
        interval: TimeInterval::new(3, 9),
        members: vec![1, 4, 7],
        fwd: vec![10, 12],
        rev: vec![0],
        bundles: vec![vec![20], vec![30, 31]],
    };
    // A one-vertex partition record: header, one slot, then the body.
    let mut encoder = PartitionEncoder::new(2);
    v.encode(5, &mut encoder);
    let bytes = encoder.finish().to_vec();
    // Every strict prefix must fail cleanly (no panic, no partial success
    // that silently drops edges).
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                Partition::decode(&bytes[..cut], 2, |_| true),
                Err(IndexError::Corrupt(_))
            ),
            "prefix of {cut} bytes decoded successfully"
        );
    }
    let p = Partition::decode(bytes, 2, |_| true).expect("full decode");
    assert_eq!(p.vertex(5, &mut Vec::new()).expect("vertex 5").to_data(), v);
}

#[test]
fn queries_are_deterministic_across_repeats_and_cache_states() {
    // Same query repeated must give identical verdicts regardless of buffer
    // history (cold vs warm paths).
    let store = small_store(3);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("builds");
    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 10,
            cell_size: 80.0,
            threshold: 25.0,
            ..GridParams::default()
        },
    )
    .expect("builds");
    let queries = WorkloadConfig {
        num_queries: 25,
        interval_len_min: 10,
        interval_len_max: 80,
    }
    .generate(12, 120, 9);
    for q in &queries {
        let g1 = graph.evaluate(q).expect("evaluates").reachable();
        let g2 = graph.evaluate(q).expect("evaluates").reachable();
        assert_eq!(g1, g2, "graph verdict changed across repeats on {q}");
        let r1 = grid.evaluate(q).expect("evaluates").outcome;
        let r2 = grid.evaluate(q).expect("evaluates").outcome;
        assert_eq!(r1, r2, "grid outcome changed across repeats on {q}");
    }
}

// ---------------------------------------------------------------------------
// Epoch-directory crash recovery (sharded live timeline). The engine has no
// fault hook: a test runs a rebuild to completion, snapshots the index's
// files before and after it, and writes out the files a crash at each
// commit point would have left (`crash_states`).
// ---------------------------------------------------------------------------

/// A file-backed sharded index over six objects in a fresh scratch
/// directory.
fn sharded_rig() -> (ShardedLive, PathBuf) {
    let (live, dir) = sharded_on("file", manual(), 6);
    (live, dir.expect("the file backend has a scratch directory"))
}

fn try_reopen_sharded(dir: &Path) -> Result<(ShardedLive, ShardRecovery), IndexError> {
    manual()
        .builder()
        .backend(StorageConfig::file(dir, PAGE))
        .open_sharded()
}

fn reopen_sharded(dir: &Path) -> (ShardedLive, ShardRecovery) {
    try_reopen_sharded(dir).expect("sharded index reopens")
}

fn c(a: u32, b: u32, s: Time, e: Time) -> Contact {
    Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
}

fn shard_contacts() -> Vec<Contact> {
    vec![
        c(0, 1, 0, 2),
        c(1, 2, 4, 6),
        c(2, 3, 8, 9),
        c(3, 4, 12, 14),
        c(4, 5, 16, 18),
        c(0, 5, 21, 22),
    ]
}

/// Every file of `dir`, by name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("index directory lists")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&path).expect("file reads"))
        })
        .collect()
}

/// Writes `files` into a fresh directory named `{dir}-{tag}`.
fn write_out(dir: &Path, tag: &str, files: &BTreeMap<String, Vec<u8>>) -> PathBuf {
    let out = PathBuf::from(format!("{}-{tag}", dir.display()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("crash directory creates");
    for (name, bytes) in files {
        std::fs::write(out.join(name), bytes).expect("crash file writes");
    }
    out
}

/// Runs `rebuild` on the file-backed index in `dir` and returns, for each
/// crash point of its commit, a directory holding the files that crash
/// would have left:
///
/// * `before` the directory record: the files from before the rebuild
///   plus its new shard base, an orphan no record names;
/// * `inside` the record: the same, plus a torn record — the length
///   prefix and the first half of the new generation record's payload
///   (checksum missing), zero-padded to whole pages;
/// * `after` the record: the files from after the rebuild plus the shard
///   bases it superseded, which the commit had not yet removed.
fn crash_states(dir: &Path, rebuild: impl FnOnce()) -> [(&'static str, PathBuf); 3] {
    let old = snapshot(dir);
    rebuild();
    let new = snapshot(dir);
    let only_in = |a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>| {
        a.iter()
            .filter(|(name, _)| !b.contains_key(*name))
            .map(|(name, bytes)| (name.clone(), bytes.clone()))
            .collect::<Vec<_>>()
    };
    let mut before = old.clone();
    before.extend(only_in(&new, &old));
    let mut torn = before.clone();
    let record = &new["shard-dir.pages"][old["shard-dir.pages"].len()..];
    let payload = u32::from_le_bytes(record[..4].try_into().expect("length prefix")) as usize;
    let mut tail = record[..4 + payload / 2].to_vec();
    tail.resize(tail.len().div_ceil(PAGE) * PAGE, 0);
    torn.get_mut("shard-dir.pages")
        .expect("epoch directory")
        .extend_from_slice(&tail);
    let mut after = new.clone();
    after.extend(only_in(&old, &new));
    [
        ("before", write_out(dir, "before", &before)),
        ("inside", write_out(dir, "inside", &torn)),
        ("after", write_out(dir, "after", &after)),
    ]
}

/// A sealed shard whose base footer names another partition record layout
/// (`RGP1`, one before this layout's `RGP2`) fails recovery with a typed
/// error instead of being decoded in the wrong layout.
#[test]
fn recovery_rejects_a_shard_base_of_another_record_format() {
    use streach::storage::{meta, FileDevice};
    let (live, dir) = sharded_rig();
    for c in shard_contacts() {
        live.append(c).expect("append accepted");
    }
    live.seal(10).expect("clean seal");
    drop(live);
    let mut bases = 0;
    for entry in std::fs::read_dir(&dir).expect("rig directory lists") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("shard-base-") {
            continue;
        }
        let device = FileDevice::open(&path, PAGE).expect("base reopens");
        let mut pager = Pager::new(Box::new(device), 0);
        let mut footer = meta::read_footer(&mut pager).expect("base footer reads");
        assert_eq!(&footer[..4], b"RGP2");
        footer[..4].copy_from_slice(b"RGP1");
        meta::write_footer(pager.device_mut(), &footer).expect("patched footer writes");
        bases += 1;
    }
    assert_eq!(bases, 1, "one sealed shard");
    assert!(matches!(
        try_reopen_sharded(&dir),
        Err(IndexError::Corrupt(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash before, inside, or after the directory record of a seal
/// recovers to exactly the pre-commit or post-commit shard set — never a
/// torn mixture — and the recovered index answers exactly as the batch
/// oracle.
#[test]
fn seal_crashes_recover_to_pre_or_post_commit_shard_sets() {
    let (live, dir) = sharded_rig();
    for c in shard_contacts() {
        live.append(c).expect("append accepted");
    }
    live.seal(10).expect("clean seal");
    let states = crash_states(&dir, || {
        live.seal(20).expect("seal").expect("seals an epoch");
    });
    cleanup(live, Some(dir));
    let expected = [vec![(0, 10)], vec![(0, 10)], vec![(0, 10), (10, 20)]];
    for ((point, state), spans) in states.into_iter().zip(expected) {
        let tag = format!("seal crash {point} the directory record");
        let (recovered, recovery) = reopen_sharded(&state);
        let cut = spans.last().expect("a sealed shard").1;
        assert_eq!(recovered.shard_spans(), spans, "{tag}: shard spans");
        assert_eq!(recovery.shards, spans.len(), "{tag}: shard count");
        assert_eq!(recovery.top_cut, cut, "{tag}: top cut");
        assert_eq!(recovered.watermark(), cut, "{tag}: watermark");
        check_all_pairs(&recovered, &tag);
        // Recovery leaves a fully functional index: the interrupted seal
        // can simply be retried.
        recovered.seal(20).expect("post-recovery seal");
        assert_eq!(recovered.watermark(), 20, "{tag}: retried seal lands");
        check_all_pairs(&recovered, &tag);
        cleanup(recovered, Some(state));
    }
}

/// The same contract for `merge_epochs`: a crash before, inside, or after
/// the directory record leaves either the original adjacent shards or the
/// coalesced one.
#[test]
fn merge_crashes_recover_to_pre_or_post_commit_shard_sets() {
    let (live, dir) = sharded_rig();
    for c in shard_contacts() {
        live.append(c).expect("append accepted");
    }
    live.seal(10).expect("first seal");
    live.seal(20).expect("second seal");
    let states = crash_states(&dir, || {
        live.merge_epochs(0, 1).expect("merge").expect("merges");
    });
    cleanup(live, Some(dir));
    let expected = [
        vec![(0, 10), (10, 20)],
        vec![(0, 10), (10, 20)],
        vec![(0, 20)],
    ];
    for ((point, state), spans) in states.into_iter().zip(expected) {
        let tag = format!("merge crash {point} the directory record");
        let (recovered, recovery) = reopen_sharded(&state);
        assert_eq!(recovered.shard_spans(), spans, "{tag}: shard spans");
        assert_eq!(recovery.top_cut, 20, "{tag}: merge never moves the top cut");
        check_all_pairs(&recovered, &tag);
        // And the interrupted merge can be retried (or is already done).
        if recovered.shard_count() == 2 {
            recovered.merge_epochs(0, 1).expect("post-recovery merge");
        }
        assert_eq!(recovered.shard_spans(), vec![(0, 20)], "{tag}: coalesced");
        check_all_pairs(&recovered, &tag);
        cleanup(recovered, Some(state));
    }
}

/// Recovery removes every shard device a crash left behind: a base the
/// recovered generation does not name (the new base of a crash before the
/// record, or the superseded bases of a crash after it) and rebuild
/// scratch. Compacting the reopened `after` state then leaves one base.
#[test]
fn recovery_removes_shard_devices_no_record_names() {
    let (live, dir) = sharded_rig();
    for c in shard_contacts() {
        live.append(c).expect("append accepted");
    }
    live.seal(10).expect("first seal");
    live.seal(20).expect("second seal");
    let states = crash_states(&dir, || {
        live.merge_epochs(0, 1).expect("merge").expect("merges");
    });
    cleanup(live, Some(dir));
    for (point, state) in states {
        let tag = format!("merge crash {point} the directory record");
        std::fs::write(state.join("shard-scratch-9.pages"), [0u8; PAGE]).expect("scratch writes");
        let (recovered, _) = reopen_sharded(&state);
        assert_eq!(
            base_files(&state),
            recovered.shard_count(),
            "{tag}: one base per recovered shard"
        );
        assert!(
            !state.join("shard-scratch-9.pages").exists(),
            "{tag}: rebuild scratch removed"
        );
        recovered.compact().expect("post-recovery compaction");
        assert_eq!(base_files(&state), 1, "{tag}: compaction leaves one base");
        check_all_pairs(&recovered, &tag);
        cleanup(recovered, Some(state));
    }
}

/// A rebuild that fails must leave shards, delta, and watermark untouched
/// (failure atomicity). A directory squatting on the path of the next
/// shard base makes a rebuild fail when it creates its device; removing
/// the squatter lets the next rebuild through.
#[test]
fn failed_compaction_leaves_the_index_consistent() {
    let q = |s: u32, d: u32, a: Time, b: Time| {
        Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b))
    };
    // Auto-sealing from the first record (a one-byte delta budget).
    let config =
        LiveConfig::graph(graph_params(), BuildBudget::bytes(1 << 20)).with_delta_budget(1);
    let (live, dir) = sharded_on("file", config, 4);
    let dir = dir.expect("the file backend has a scratch directory");
    let base = |seq: u64| dir.join(format!("shard-base-{seq}.pages"));
    std::fs::create_dir(base(0)).expect("squatter creates");
    // An *auto*-seal failure must not masquerade as an append failure:
    // the record lands, the error rides the outcome.
    for record in [c(0, 1, 0, 2), c(1, 2, 4, 5)] {
        let o = live.append(record).expect("append accepted");
        assert!(o.logged && !o.compacted);
        assert!(o.compaction_error.is_some());
    }
    // An explicit rebuild that fails must fail too…
    let err = live.compact().unwrap_err();
    assert!(matches!(err, IndexError::Io(_)), "{err}");
    // …and the index must be exactly as before: watermark unmoved, delta
    // intact, queries still exact.
    assert_eq!(live.watermark(), 0);
    assert_eq!(live.now(), 6);
    let r = live.evaluate(&q(0, 2, 0, 5)).expect("query");
    assert_eq!(r.outcome, QueryOutcome::reachable_at(4));
    // Without the squatter the retried compaction succeeds and agrees.
    std::fs::remove_dir(base(0)).expect("squatter removes");
    live.compact().expect("compaction").expect("compacts");
    assert_eq!(live.watermark(), 6);
    assert!(live.evaluate(&q(0, 2, 0, 5)).expect("query").reachable());
    // Blocked again: the next over-budget append's seal fails after the
    // record is durable.
    std::fs::create_dir(base(1)).expect("squatter creates");
    let o = live.append(c(2, 3, 8, 9)).expect("append accepted");
    assert!(o.logged);
    assert!(o.compaction_error.is_some());
    assert_eq!(
        live.replay_log().expect("log replays").len(),
        3,
        "the append itself was durable"
    );
    assert!(live.evaluate(&q(2, 3, 8, 9)).expect("query").reachable());
    cleanup(live, Some(dir));
}
