//! Tier-1 suite for the live ingestion subsystem (ISSUE 5 acceptance
//! criteria):
//!
//! 1. **Equivalence** — any tested interleaving of appends, queries,
//!    seals, and compactions answers exactly as a batch rebuild over the
//!    accepted trace;
//! 2. **Byte-identity** — a compacted shard equals a from-scratch
//!    streaming build over the full log, byte for byte, on sim and file
//!    backends;
//! 3. **Durability** — a live index recovers from its epoch directory and
//!    append log, and a torn log tail page truncates cleanly.

mod common;

use common::{
    base_files, check_all_pairs, device_for, graph_params, oracle_of, stream, LiveOn, BACKENDS,
    PAGE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streach::prelude::*;

fn live_on(backend: &'static str, budget: usize, num_objects: usize) -> LiveOn {
    let config = LiveConfig::graph(graph_params(), BuildBudget::bytes(budget));
    LiveOn::new(backend, config, num_objects)
}

/// Equivalence under interleaving: appends (with lateness), auto seals
/// and manual compactions, queries before/at/after the watermark — all must
/// answer exactly as the batch oracle over the log's accepted records.
#[test]
fn interleavings_match_batch_rebuild() {
    for seed in 0..3u64 {
        let n = 8usize;
        let horizon = 100u32;
        let live = live_on("sim", 2_000, n); // small budget: auto-seals
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let records = stream(seed, n as u32, horizon, 150, 2);
        for (i, &c) in records.iter().enumerate() {
            live.append(c).expect("lossy appends never error");
            if i % 17 == 3 {
                live.compact().expect("manual compaction");
            }
            if i % 11 == 5 && live.now() > 1 {
                let oracle = oracle_of(&live);
                let w = live.watermark();
                for _ in 0..6 {
                    let s = rng.gen_range(0..n as u32);
                    let d = rng.gen_range(0..n as u32);
                    // Bias intervals around the watermark: the hand-off is
                    // the part worth hammering.
                    let a = if rng.gen_bool(0.5) && w > 1 {
                        rng.gen_range(0..w)
                    } else {
                        rng.gen_range(0..live.now())
                    };
                    let b = rng.gen_range(a..live.now());
                    let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
                    let got = live.evaluate(&q).expect("live query");
                    let want = oracle.evaluate(&q);
                    assert_eq!(
                        got.reachable(),
                        want.reachable,
                        "{q} diverged (seed {seed}, append {i}, watermark {w})"
                    );
                }
            }
        }
        assert!(
            live.stats().compactions >= 2,
            "schedule must include compactions (seed {seed})"
        );
        // Full final sweep across the boundary.
        check_all_pairs(&live, &format!("final sweep (seed {seed})"));
    }
}

/// Byte-identity: after any number of incremental compactions, the one
/// compacted shard equals a from-scratch streaming build over the whole
/// log — on both storage backends.
#[test]
fn compacted_base_is_byte_identical_to_batch_build() {
    for backend in BACKENDS {
        let n = 8usize;
        let records = stream(7, n as u32, 80, 120, 2);
        let live = live_on(backend, 1 << 20, n);
        // Three incremental seals at different cut points.
        for (i, &c) in records.iter().enumerate() {
            live.append(c).expect("append accepted");
            if i == 40 || i == 90 {
                live.compact().expect("mid-stream compaction");
            }
        }
        live.compact().expect("final compaction");
        // The log holds what was *accepted* (the watermark may have clamped
        // or dropped stragglers); byte-identity is against that record set.
        let accepted = live.replay_log().expect("log replays");
        assert!(!accepted.is_empty());

        // From-scratch: the same streaming builders over the full log.
        let mut sdn = StreamedDn::from_contacts(
            n,
            live.now(),
            &accepted,
            BuildBudget::bytes(1 << 20),
            device_for(backend, PAGE),
        );
        let mr = MultiRes::build(&mut sdn, &graph_params().levels);
        let mut batch =
            ReachGraph::build_on(device_for(backend, PAGE), &mut sdn, &mr, graph_params())
                .expect("batch build succeeds");

        assert_eq!(live.shard_count(), 1, "{backend}: compaction coalesces");
        let mut live_dev = live.shard_device(0).expect("a sealed shard exists");
        let batch_dev = batch.device_mut();
        assert_eq!(
            live_dev.len_pages(),
            batch_dev.len_pages(),
            "{backend}: device sizes differ"
        );
        let (mut a, mut b) = (vec![0u8; PAGE], vec![0u8; PAGE]);
        for p in 0..live_dev.len_pages() {
            live_dev.read_page_into(p, &mut a).expect("live page");
            batch_dev.read_page_into(p, &mut b).expect("batch page");
            assert_eq!(a, b, "{backend}: page {p} differs after 3 compactions");
        }
    }
}

/// Lateness semantics: what the index accepted (clamped records included)
/// is exactly what the oracle sees — queries agree even when the schedule
/// was lossy.
#[test]
fn lossy_lateness_stays_equivalent() {
    let n = 6usize;
    let live = live_on("sim", 1 << 20, n);
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..6u32 {
        for _ in 0..12 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b {
                continue;
            }
            // Half the records reach back before the current watermark.
            let base = round * 12;
            let s = (base + rng.gen_range(0..24u32)).saturating_sub(12);
            let e = s + rng.gen_range(0..4u32);
            live.append(Contact::new(
                ObjectId(a.min(b)),
                ObjectId(a.max(b)),
                TimeInterval::new(s, e),
            ))
            .expect("lossy appends never error");
        }
        live.compact().expect("compaction");
    }
    let stats = live.stats();
    assert!(
        stats.clamped + stats.dropped_late > 0,
        "schedule must exercise lateness ({stats:?})"
    );
    check_all_pairs(&live, "lossy schedule");
}

/// Crash recovery: the epoch directory restores the sealed shard and the
/// log replays the rest; a torn log tail page is dropped, and everything
/// acknowledged before it survives.
#[test]
fn append_log_recovers_after_a_crash() {
    let dir = std::env::temp_dir().join(format!("streach-live-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || {
        LiveConfig::graph(graph_params(), BuildBudget::bytes(1 << 20))
            .manual_compaction()
            .builder()
            .backend(StorageConfig::file(&dir, PAGE))
    };
    let n = 6usize;
    let records = stream(3, n as u32, 50, 40, 2);
    let sealed_at = {
        let live = config().build_sharded(n).expect("live index creates");
        for &c in &records[..20] {
            live.append(c).expect("append accepted");
        }
        live.compact()
            .expect("compaction")
            .expect("something to seal");
        for &c in &records[20..] {
            live.append(c).expect("append accepted");
        }
        live.sync().expect("durable");
        live.watermark()
    }; // crash: drop everything but the files

    // Scribble over the log's final page to simulate a torn write.
    let log = dir.join("shard-log.pages");
    {
        use std::io::{Seek, SeekFrom, Write};
        let len = std::fs::metadata(&log).expect("log exists").len();
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .expect("log opens");
        f.seek(SeekFrom::Start(len - PAGE as u64 + 5))
            .expect("seek");
        f.write_all(&[0xEE; 32]).expect("scribble");
    }

    let (live, recovery) = config().open_sharded().expect("recovery succeeds");
    assert!(recovery.log.torn_tail, "torn page must be detected");
    assert!(recovery.log.records < records.len() as u64);
    assert!(
        recovery.log.records >= records.len() as u64 - 15,
        "at most one page of records may be lost (got {})",
        recovery.log.records
    );
    assert_eq!(recovery.shards, 1, "the compacted shard is restored");
    assert_eq!(recovery.top_cut, sealed_at);
    // The recovered world answers exactly as a batch rebuild over the
    // surviving records.
    let accepted = live.replay_log().expect("log replays");
    assert_eq!(accepted.len() as u64, recovery.log.records);
    check_all_pairs(&live, "after recovery");
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction after recovery: a reopened index folds its restored shards
/// and the replayed log tail into one base, removes the superseded
/// `shard-base-*` files, and reopens once more to the same answers.
#[test]
fn compaction_after_recovery_removes_superseded_bases() {
    let dir = std::env::temp_dir().join(format!("streach-live-recompact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || {
        LiveConfig::graph(graph_params(), BuildBudget::bytes(1 << 20))
            .manual_compaction()
            .builder()
            .backend(StorageConfig::file(&dir, PAGE))
    };
    let n = 6usize;
    let records = stream(11, n as u32, 60, 80, 2);
    {
        let live = config().build_sharded(n).expect("live index creates");
        for (i, &c) in records.iter().enumerate() {
            live.append(c).expect("append accepted");
            if i == 30 || i == 55 {
                live.compact()
                    .expect("compaction")
                    .expect("something to seal");
            }
        }
        live.sync().expect("durable");
        assert_eq!(live.shard_count(), 1, "each compaction coalesces");
    } // drop everything but the files
    assert_eq!(base_files(&dir), 1, "the first base was superseded");

    let (live, recovery) = config().open_sharded().expect("recovery succeeds");
    assert_eq!(recovery.shards, 1);
    assert!(recovery.log.records > 0, "a log tail replays");
    live.compact()
        .expect("compaction after recovery")
        .expect("the log tail seals");
    assert_eq!(live.shard_count(), 1);
    assert_eq!(base_files(&dir), 1, "the restored base was superseded");
    let sealed_at = live.watermark();
    let accepted = live.replay_log().expect("log replays");
    check_all_pairs(&live, "after compacting the recovered index");
    drop(live);

    let (live, recovery) = config().open_sharded().expect("second recovery");
    assert_eq!(recovery.shards, 1);
    assert_eq!(recovery.top_cut, sealed_at);
    assert_eq!(live.replay_log().expect("log replays"), accepted);
    check_all_pairs(&live, "after the second recovery");
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}
