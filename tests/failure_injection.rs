//! Failure injection: disk-backed indexes must surface corruption and
//! out-of-range requests as typed errors, never panics or wrong answers.

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
// Epoch-directory crash recovery (sharded live timeline).
// ---------------------------------------------------------------------------

/// A file-backed sharded index in a scratch directory.
fn sharded_rig(tag: &str) -> (ShardedLive, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("streach-shardcrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = LiveConfig::graph(
        GraphParams {
            partition_depth: 8,
            page_size: 256,
            ..GraphParams::default()
        },
        BuildBudget::bytes(64 << 10),
    )
    .manual_compaction()
    .builder()
    .backend(StorageConfig::file(&dir, 256))
    .build_sharded(6)
    .expect("sharded index creates");
    (live, dir)
}

fn try_reopen_sharded(dir: &std::path::Path) -> Result<(ShardedLive, ShardRecovery), IndexError> {
    LiveConfig::graph(
        GraphParams {
            partition_depth: 8,
            page_size: 256,
            ..GraphParams::default()
        },
        BuildBudget::bytes(64 << 10),
    )
    .manual_compaction()
    .builder()
    .backend(StorageConfig::file(dir, 256))
    .open_sharded()
}

fn reopen_sharded(dir: &std::path::Path) -> (ShardedLive, ShardRecovery) {
    try_reopen_sharded(dir).expect("sharded index reopens")
}

/// The batch oracle over the accepted trace, plus an all-pairs sweep.
fn check_sharded_against_oracle(live: &ShardedLive, tag: &str) {
    if live.now() == 0 {
        return;
    }
    let accepted = live.replay_log().expect("log replays");
    let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); live.now() as usize];
    for c in &accepted {
        for t in c.interval.ticks() {
            per_tick[t as usize].push((c.a.0, c.b.0));
        }
    }
    let oracle = Oracle::from_events(live.num_objects(), per_tick);
    let last = live.now() - 1;
    for s in 0..live.num_objects() as u32 {
        for d in 0..live.num_objects() as u32 {
            for iv in [
                TimeInterval::new(0, last),
                TimeInterval::new(last / 2, last),
            ] {
                let q = Query::new(ObjectId(s), ObjectId(d), iv);
                let got = live.evaluate(&q).expect("query evaluates");
                let want = oracle.evaluate(&q);
                assert_eq!(got.reachable(), want.reachable, "{tag}: {q}");
                if let (Some(gt), Some(wt)) = (got.outcome.earliest, want.earliest) {
                    assert_eq!(gt, wt, "{tag}: {q} arrival");
                }
            }
        }
    }
}

fn shard_contacts() -> Vec<Contact> {
    vec![
        Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 2)),
        Contact::new(ObjectId(1), ObjectId(2), TimeInterval::new(4, 6)),
        Contact::new(ObjectId(2), ObjectId(3), TimeInterval::new(8, 9)),
        Contact::new(ObjectId(3), ObjectId(4), TimeInterval::new(12, 14)),
        Contact::new(ObjectId(4), ObjectId(5), TimeInterval::new(16, 18)),
        Contact::new(ObjectId(0), ObjectId(5), TimeInterval::new(21, 22)),
    ]
}

/// A sealed shard whose base footer names another partition record layout
/// (`RGP1`, one before this layout's `RGP2`) fails recovery with a typed
/// error instead of being decoded in the wrong layout.
#[test]
fn recovery_rejects_a_shard_base_of_another_record_format() {
    use streach::storage::{meta, FileDevice};
    let (live, dir) = sharded_rig("format");
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
        let device = FileDevice::open(&path, 256).expect("base reopens");
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

/// A crash between any two phases of a seal commit recovers to exactly
/// the pre-commit or post-commit shard set — never a torn mixture — and
/// the recovered index answers exactly as the batch oracle.
#[test]
fn seal_crashes_recover_to_pre_or_post_commit_shard_sets() {
    use streach::live::ShardCrashPoint::*;
    for (point, expect_shards, expect_cut) in [
        (BeforeDirectory, 1, 10),
        (TornDirectory, 1, 10),
        (AfterDirectory, 2, 20),
    ] {
        let tag = format!("{point:?}");
        let (live, dir) = sharded_rig(&tag);
        for c in shard_contacts() {
            live.append(c).expect("append accepted");
        }
        live.seal(10).expect("clean seal");
        live.inject_crash(point);
        assert!(live.seal(20).is_err(), "{tag}: injected crash surfaces");
        drop(live);

        let (recovered, recovery) = reopen_sharded(&dir);
        assert_eq!(recovery.shards, expect_shards, "{tag}: shard count");
        assert_eq!(recovery.top_cut, expect_cut, "{tag}: top cut");
        assert_eq!(recovered.watermark(), expect_cut, "{tag}: watermark");
        check_sharded_against_oracle(&recovered, &tag);
        // Recovery leaves a fully functional index: the interrupted seal
        // can simply be retried.
        recovered.seal(20).expect("post-recovery seal");
        assert_eq!(recovered.watermark(), 20, "{tag}: retried seal lands");
        check_sharded_against_oracle(&recovered, &tag);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same contract for `merge_epochs`: a crash between commit phases
/// leaves either the original adjacent shards or the coalesced one.
#[test]
fn merge_crashes_recover_to_pre_or_post_commit_shard_sets() {
    use streach::live::ShardCrashPoint::*;
    for (point, expect_spans) in [
        (BeforeDirectory, vec![(0, 10), (10, 20)]),
        (TornDirectory, vec![(0, 10), (10, 20)]),
        (AfterDirectory, vec![(0, 20)]),
    ] {
        let tag = format!("merge-{point:?}");
        let (live, dir) = sharded_rig(&tag);
        for c in shard_contacts() {
            live.append(c).expect("append accepted");
        }
        live.seal(10).expect("first seal");
        live.seal(20).expect("second seal");
        live.inject_crash(point);
        assert!(
            live.merge_epochs(0, 1).is_err(),
            "{tag}: injected crash surfaces"
        );
        drop(live);

        let (recovered, recovery) = reopen_sharded(&dir);
        assert_eq!(recovered.shard_spans(), expect_spans, "{tag}: shard spans");
        assert_eq!(recovery.top_cut, 20, "{tag}: merge never moves the top cut");
        check_sharded_against_oracle(&recovered, &tag);
        // And the interrupted merge can be retried (or is already done).
        if recovered.shard_count() == 2 {
            recovered.merge_epochs(0, 1).expect("post-recovery merge");
        }
        assert_eq!(recovered.shard_spans(), vec![(0, 20)], "{tag}: coalesced");
        check_sharded_against_oracle(&recovered, &tag);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
