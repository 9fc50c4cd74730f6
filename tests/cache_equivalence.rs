//! Tier-1 suite for the shared page cache (ISSUE 7 acceptance criteria):
//!
//! 1. **Answer invariance** — query answers (and the on-device page
//!    bytes) are byte-identical with the cache off, with a private LRU
//!    pool, and with a shared [`PageCache`] (with readahead), on sim and
//!    file — the cache changes *where bytes are read from*, never *what
//!    is read*;
//! 2. **Concurrent sharing** — multi-threaded serving over a warm shared
//!    cache answers exactly as the single-threaded cold path, while the
//!    cache demonstrably absorbs reads;
//! 3. **Shard coherence** — a shard swap never serves a stale base page:
//!    after every compaction the cached serving index still answers
//!    exactly as the batch oracle over the accepted log, no matter how
//!    warm the superseded shard's cache was.

mod common;

use common::{check_all_pairs, device_for, graph_params, stream, LiveOn, BACKENDS, PAGE};
use std::sync::Arc;
use streach::prelude::*;

/// Reads back every page of a device (then clears the accounting the dump
/// itself incurred). Raw `BlockDevice` reads bypass any cache — this is
/// the ground truth the cache must agree with.
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
        assert_eq!(x, y, "{what}: page {i} differs between cache modes");
    }
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

/// ReachGrid in all three cache modes — off (`cache_pages: 0`), private
/// LRU pool, and a shared [`PageCache`] with readahead — must produce
/// byte-identical on-device pages and identical query outcomes on every
/// backend, and the shared cache must demonstrably absorb lookups.
#[test]
fn grid_answers_and_pages_identical_across_cache_modes() {
    let store = small_store(0x5CA1);
    let oracle = Oracle::build(&store, 25.0);
    let qs = queries(&store, 40, 0xCAFE);
    let params = |cache_pages: usize| GridParams {
        temporal: 20,
        cell_size: 80.0,
        threshold: 25.0,
        cache_pages,
        page_size: PAGE,
    };
    for backend in BACKENDS {
        let mut off = ReachGrid::build_on(device_for(backend, PAGE), &store, params(0))
            .expect("cache-off build");
        let mut private = ReachGrid::build_on(device_for(backend, PAGE), &store, params(32))
            .expect("private build");
        let cache = Arc::new(PageCache::new(512).with_readahead(4));
        let hub = SharedDevice::with_cache(device_for(backend, PAGE), Arc::clone(&cache));
        let mut shared =
            ReachGrid::build_on(Box::new(hub), &store, params(0)).expect("shared build");

        assert_same_pages(
            off.device_mut(),
            private.device_mut(),
            &format!("ReachGrid off/private ({backend})"),
        );
        assert_same_pages(
            off.device_mut(),
            shared.device_mut(),
            &format!("ReachGrid off/shared ({backend})"),
        );
        // Twice over the workload: the second pass runs against a warm
        // shared cache (and a warm private cache) and must not change a
        // single answer.
        for round in 0..2 {
            for q in &qs {
                let a = off.evaluate(q).expect("cache-off query");
                let b = private.evaluate(q).expect("private-pool query");
                let c = shared.evaluate(q).expect("shared-cache query");
                assert_eq!(a.outcome, oracle.evaluate(q), "oracle disagrees on {q}");
                assert_eq!(
                    a.outcome, b.outcome,
                    "off/private outcome differs on {q} ({backend}, round {round})"
                );
                assert_eq!(
                    a.outcome, c.outcome,
                    "off/shared outcome differs on {q} ({backend}, round {round})"
                );
            }
        }
        let stats = cache.stats();
        assert!(
            stats.total_hits() > 0,
            "the shared cache never absorbed a read ({backend}): {stats:?}"
        );
    }
}

/// ReachGraph cold vs. warm: a second index whose device hub carries a
/// shared cache with readahead answers every query identically (readahead
/// prefetches record continuations and timeline spans — never wrong
/// bytes), and repeated evaluation pays strictly fewer device reads than
/// the cold index.
#[test]
fn graph_shared_cache_preserves_answers_and_reduces_reads() {
    let store = small_store(0x9EAF);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let qs = queries(&store, 40, 0xBEEF);
    for backend in BACKENDS {
        let cold = ReachGraph::build_on(device_for(backend, PAGE), &dn, &mr, graph_params())
            .expect("cold build");
        let cache = Arc::new(PageCache::new(2048).with_readahead(8));
        let hub = SharedDevice::with_cache(device_for(backend, PAGE), Arc::clone(&cache));
        let warm =
            ReachGraph::build_on(Box::new(hub), &dn, &mr, graph_params()).expect("warm build");

        let (mut cold_reads, mut warm_reads) = (0u64, 0u64);
        for round in 0..3 {
            for q in &qs {
                let a = cold.evaluate(q).expect("cold query");
                let b = warm.evaluate(q).expect("warm query");
                assert_eq!(
                    a.outcome, b.outcome,
                    "cold/warm outcome differs on {q} ({backend}, round {round})"
                );
                cold_reads += a.stats.random_ios + a.stats.seq_ios;
                warm_reads += b.stats.random_ios + b.stats.seq_ios;
            }
        }
        assert!(
            warm_reads < cold_reads,
            "the warm index must read less ({backend}: warm {warm_reads} vs cold {cold_reads})"
        );
        let stats = cache.stats();
        assert!(
            stats.prefetch_hits > 0,
            "readahead never paid off ({backend}): {stats:?}"
        );
        // Every device read the warm index skipped is accounted for by a
        // cache hit — reads are absorbed, never lost.
        assert!(
            warm_reads + stats.total_hits() >= cold_reads,
            "hits must cover the skipped reads ({backend}): \
             warm {warm_reads} + hits {} < cold {cold_reads}",
            stats.total_hits()
        );
    }
}

/// Concurrent serving over a warm shared cache: three reader threads
/// hammering the same cached shard must each answer the full sweep
/// exactly as the single-threaded cold index, on every backend.
#[test]
fn concurrent_serve_with_shared_cache_matches_single_threaded() {
    let n = 8usize;
    let horizon = 100u32;
    let records = stream(0x51AB, n as u32, horizon, 200, 2);
    for backend in BACKENDS {
        let config =
            LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10)).with_lateness(16);
        let cold = LiveOn::new(backend, config.clone(), n);
        let warm = LiveOn::new(backend, config.with_shared_cache(2048).with_readahead(8), n);
        for &c in &records {
            cold.append(c).expect("cold append");
            warm.append(c).expect("warm append");
        }
        cold.compact().expect("cold seal");
        warm.compact().expect("warm seal");

        // Single-threaded ground truth from the cold index.
        let now = cold.now();
        let mut sweep = Vec::new();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                for (a, b) in [(0, now - 1), (now / 3, 2 * now / 3), (now / 2, now - 1)] {
                    sweep.push(Query::new(
                        ObjectId(s),
                        ObjectId(d),
                        TimeInterval::new(a, b.max(a)),
                    ));
                }
            }
        }
        let expected: Vec<bool> = sweep
            .iter()
            .map(|q| cold.evaluate(q).expect("cold query").reachable())
            .collect();

        let warm = Arc::new(warm);
        std::thread::scope(|scope| {
            for reader in 0..3u64 {
                let warm = Arc::clone(&warm);
                let (sweep, expected) = (&sweep, &expected);
                scope.spawn(move || {
                    // Each reader walks the sweep from a different offset,
                    // so the threads contend for different shards at any
                    // instant while still covering everything.
                    let start = (reader as usize * sweep.len()) / 3;
                    for i in 0..sweep.len() {
                        let at = (start + i) % sweep.len();
                        let q = &sweep[at];
                        let got = warm.evaluate(q).expect("warm query").reachable();
                        assert_eq!(
                            got, expected[at],
                            "{q} diverged under the shared cache ({backend}, reader {reader})"
                        );
                    }
                });
            }
        });
        let stats = warm.cache_stats().expect("warm shard carries a cache");
        assert!(
            stats.total_hits() > 0,
            "concurrent readers never shared residency ({backend}): {stats:?}"
        );
    }
}

/// Shard swaps never serve a stale base page: warm the cache hard against
/// the current shard, append more records, compact (swapping the shard
/// and invalidating the superseded cache), and assert the full sweep
/// still answers exactly as the batch oracle over everything the log
/// accepted — four times over.
#[test]
fn epoch_swaps_never_serve_stale_cached_pages() {
    let n = 8usize;
    let horizon = 100u32;
    let index = LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10))
        .with_lateness(16)
        .with_shared_cache(4096)
        .with_readahead(8)
        .builder()
        .build_sharded(n)
        .expect("cached serving index creates");
    let records = stream(0xDEAD, n as u32, horizon, 240, 2);
    let rounds = 4;
    let per_round = records.len() / rounds;

    for round in 0..rounds {
        for &c in &records[round * per_round..(round + 1) * per_round] {
            index.append(c).expect("append");
        }
        index.compact().expect("shard swap");
        check_all_pairs(&index, &format!("after shard swap {round}"));
        let now = index.now();
        // Re-run part of the sweep so the *next* round's swap happens over
        // a thoroughly warm cache — the hardest case for coherence.
        for s in 0..n as u32 {
            let q = Query::new(ObjectId(s), ObjectId((s + 3) % n as u32), {
                TimeInterval::new(0, now - 1)
            });
            index.evaluate(&q).expect("warming query");
        }
        let stats = index.cache_stats().expect("shard carries a cache");
        assert!(
            stats.total_hits() > 0,
            "round {round} never hit the cache it was supposed to stress: {stats:?}"
        );
    }
    assert!(
        index.generation() >= rounds as u64,
        "every round must have committed a fresh generation"
    );
}
