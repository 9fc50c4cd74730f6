//! Shared by the root suites: the backend names, a fresh device or live
//! index on a named backend, the scratch path a file backend writes under,
//! the live suites' parameters and append stream, and the batch oracle
//! every live index is swept against. Each suite uses only part of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use streach::prelude::*;

/// Every storage backend the matrix suites run on.
pub const BACKENDS: [&str; 2] = ["sim", "file"];

/// The page size of every live index and device the suites build.
pub const PAGE: usize = 256;

/// ReachGraph parameters small enough for many pages per index.
pub fn graph_params() -> GraphParams {
    GraphParams {
        partition_depth: 8,
        page_size: PAGE,
        ..GraphParams::default()
    }
}

/// The live config that seals only when a test asks.
pub fn manual() -> LiveConfig {
    LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10)).manual_compaction()
}

/// A deterministic synthetic append stream: `count` random contacts over
/// `n` objects and `horizon` ticks, sorted by start, then every fourth
/// record swapped with the one `back` places before it — roughly
/// time-ordered with local shuffling, the arrival order a bounded-lateness
/// window is designed for.
pub fn stream(seed: u64, n: u32, horizon: u32, count: usize, back: usize) -> Vec<Contact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut contacts: Vec<Contact> = (0..count)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            let s = rng.gen_range(0..horizon);
            let e = (s + rng.gen_range(0..5u32)).min(horizon - 1);
            Contact::new(
                ObjectId(a.min(b)),
                ObjectId(a.max(b)),
                TimeInterval::new(s, e),
            )
        })
        .collect();
    contacts.sort_by_key(|c| c.interval.start);
    for i in (4..contacts.len()).step_by(4) {
        contacts.swap(i, i - back);
    }
    contacts
}

/// The batch oracle over every record `live` has accepted.
pub fn oracle_of(live: &ShardedLive) -> Oracle {
    let accepted = live.replay_log().expect("log replays");
    Oracle::from_contacts(live.num_objects(), live.now(), &accepted)
}

/// Asserts one query against the oracle: the verdict, and the arrival
/// tick whenever both report one.
pub fn check_query(live: &ShardedLive, oracle: &Oracle, q: &Query, tag: &str) {
    let got = live.evaluate(q).expect("live query evaluates");
    let want = oracle.evaluate(q);
    assert_eq!(
        got.reachable(),
        want.reachable,
        "{tag}: {q} diverged (shards {:?}, watermark {})",
        live.shard_spans(),
        live.watermark()
    );
    if let (Some(gt), Some(wt)) = (got.outcome.earliest, want.earliest) {
        assert_eq!(gt, wt, "{tag}: {q} arrival tick");
    }
}

/// Checks every source × destination pair against the batch oracle over
/// the accepted log, on windows that cross every shard boundary, an
/// interior window, and one hugging the top cut (the base → delta
/// handoff).
pub fn check_all_pairs(live: &ShardedLive, tag: &str) {
    let now = live.now();
    if now == 0 {
        return;
    }
    let oracle = oracle_of(live);
    let last = now - 1;
    let windows = [
        TimeInterval::new(0, last),
        TimeInterval::new(now / 3, 2 * now / 3),
        TimeInterval::new(last / 2, last),
        TimeInterval::new(live.watermark().saturating_sub(1).min(last), last),
    ];
    let n = live.num_objects() as u32;
    for s in 0..n {
        for d in 0..n {
            for iv in windows {
                let q = Query::new(ObjectId(s), ObjectId(d), iv);
                check_query(live, &oracle, &q, tag);
            }
        }
    }
}

/// The `shard-base-*` device files in a live index's directory.
pub fn base_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("index directory lists")
        .filter(|e| {
            e.as_ref()
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .starts_with("shard-base-")
        })
        .count()
}

/// The storage recipe for the named backend (`sim` or `file`), plus the
/// fresh scratch path a `file` recipe points at (`None` for `sim`).
fn storage_for(backend: &str, page: usize) -> (StorageConfig, Option<PathBuf>) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    match backend {
        "sim" => (StorageConfig::sim(page), None),
        "file" => {
            let path = std::env::temp_dir().join(format!(
                "streach-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            (StorageConfig::file(&path, page), Some(path))
        }
        other => panic!("unknown backend {other}"),
    }
}

/// A fresh device of the named backend. A file device is unlinked while
/// open (Unix), so the suites leave nothing behind.
pub fn device_for(backend: &str, page: usize) -> Box<dyn BlockDevice> {
    let (storage, path) = storage_for(backend, page);
    let device = storage.create().expect("device creates");
    if let Some(path) = path {
        let _ = std::fs::remove_file(path);
    }
    device
}

/// A live index from `config` on the named backend, plus the scratch
/// directory to remove once the index is dropped (`None` for `sim`).
pub fn sharded_on(
    backend: &str,
    config: LiveConfig,
    num_objects: usize,
) -> (ShardedLive, Option<PathBuf>) {
    let (storage, dir) = storage_for(backend, config.params.page_size);
    let live = config
        .builder()
        .backend(storage)
        .build_sharded(num_objects)
        .expect("live index creates");
    (live, dir)
}

/// Drops a [`sharded_on`] index, then removes its scratch directory.
pub fn cleanup(live: ShardedLive, dir: Option<PathBuf>) {
    drop(live);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A [`sharded_on`] index that removes its scratch directory when dropped.
pub struct LiveOn {
    index: ShardedLive,
    dir: Option<PathBuf>,
}

impl LiveOn {
    pub fn new(backend: &str, config: LiveConfig, num_objects: usize) -> Self {
        let (index, dir) = sharded_on(backend, config, num_objects);
        Self { index, dir }
    }
}

impl std::ops::Deref for LiveOn {
    type Target = ShardedLive;

    fn deref(&self) -> &ShardedLive {
        &self.index
    }
}

impl Drop for LiveOn {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
