//! Tier-1 suite for concurrent serving (ISSUE 6 acceptance criteria):
//!
//! 1. **Equivalence** — any tested interleaving of concurrent queries,
//!    appends, seals, and compactions (inline on the appending thread or
//!    on their own) quiesces to exactly the single-threaded batch-oracle
//!    answers, on sim, file, and mmap;
//! 2. **Safety while moving** — answers produced *during* concurrent
//!    appends are bracketed by the prefix/full oracles, and a shard swap
//!    never exposes a torn base (answers over a static record set stay
//!    exact through repeated swaps);
//! 3. **Liveness** — queries are served while a compaction is building,
//!    never blocked behind it;
//! 4. **One API** — every index type in the workspace answers through the
//!    unified [`ReachIndex`] envelope, with no per-index dispatch;
//! 5. **Cold readers** — one shared image of each disk index answers many
//!    threads at once, every answer counting exactly the IO of the same
//!    answer made alone, directly and behind a multi-worker server.

mod common;

use common::LiveOn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use streach::contact::extract_contacts;
use streach::ext::UncertainEvent;
use streach::prelude::*;

const PAGE: usize = 256;
const BACKENDS: [&str; 3] = ["sim", "file", "mmap"];

fn graph_params() -> GraphParams {
    GraphParams {
        partition_depth: 8,
        page_size: PAGE,
        ..GraphParams::default()
    }
}

/// A live index on the named backend.
fn live_on(backend: &'static str, delta_budget: usize, num_objects: usize) -> LiveOn {
    let config = LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10))
        .with_delta_budget(delta_budget)
        .with_lateness(16);
    LiveOn::new(backend, config, num_objects)
}

/// A deterministic synthetic append stream with out-of-order arrivals
/// (same recipe as `tests/live_reach.rs`).
fn stream(seed: u64, n: u32, horizon: u32, count: usize) -> Vec<Contact> {
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
        contacts.swap(i, i - 2);
    }
    contacts
}

fn oracle_of(n: usize, horizon: u32, contacts: &[Contact]) -> Oracle {
    let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); horizon as usize];
    for c in contacts {
        for t in c.interval.ticks() {
            per_tick[t as usize].push((c.a.0, c.b.0));
        }
    }
    Oracle::from_events(n, per_tick)
}

/// Randomized interleavings of concurrent queries, appends, seals, and
/// compactions, on every backend: after quiescing, a full source × dest
/// sweep must answer exactly as the batch oracle over the accepted log.
#[test]
fn concurrent_interleavings_quiesce_to_the_batch_oracle() {
    for backend in BACKENDS {
        for seed in 0..2u64 {
            let n = 8usize;
            let horizon = 100u32;
            // Small delta budget: the appender seals inline on its own,
            // and a compactor thread takes explicit requests, while the
            // readers keep running.
            let index = Arc::new(live_on(backend, 2_500, n));
            let records = stream(seed ^ 0xC0C0, n as u32, horizon, 200);
            let stop = AtomicBool::new(false);
            let served = AtomicU64::new(0);

            std::thread::scope(|scope| {
                let (request, requests) = std::sync::mpsc::channel::<()>();
                let compactor = Arc::clone(&index);
                scope.spawn(move || {
                    for () in requests {
                        compactor.compact().expect("requested compaction");
                    }
                });
                for reader in 0..3u64 {
                    let index = Arc::clone(&index);
                    let stop = &stop;
                    let served = &served;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ reader.wrapping_mul(0x9E37));
                        while !stop.load(Ordering::Acquire) {
                            let now = index.now();
                            if now < 2 {
                                std::thread::yield_now();
                                continue;
                            }
                            let a = rng.gen_range(0..now - 1);
                            let b = rng.gen_range(a..now);
                            let q = Query::new(
                                ObjectId(rng.gen_range(0..n as u32)),
                                ObjectId(rng.gen_range(0..n as u32)),
                                TimeInterval::new(a, b),
                            );
                            // Answers over a moving record set are checked
                            // for liveness here; exactness is asserted by
                            // the post-quiesce sweep below and bracketed by
                            // the monotone-bounds test.
                            index.evaluate_query(&q).expect("concurrent query");
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                for (i, &c) in records.iter().enumerate() {
                    index.append(c).expect("lossy appends never error");
                    if i % 37 == 11 {
                        request.send(()).expect("compactor thread runs");
                    }
                }
                drop(request);
                // Appending 200 records takes microseconds; hold the door
                // open until the readers have actually interleaved.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                while served.load(Ordering::Relaxed) < 50 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "readers never got scheduled"
                    );
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
            });

            // Quiesce: compact everything, then sweep against the oracle over
            // exactly the records the log accepted.
            index.compact().expect("quiescing compaction");
            assert!(served.load(Ordering::Relaxed) > 0, "readers must have run");
            let accepted = index.replay_log().expect("log replays");
            let oracle = oracle_of(n, index.now(), &accepted);
            let now = index.now();
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    for (a, b) in [(0, now - 1), (now / 3, 2 * now / 3), (now / 2, now - 1)] {
                        let q =
                            Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b.max(a)));
                        let got = index.evaluate_query(&q).expect("quiesced query");
                        let want = oracle.evaluate(&q);
                        assert_eq!(
                            got.reachable(),
                            want.reachable,
                            "{q} diverged after quiesce ({backend}, seed {seed})"
                        );
                    }
                }
            }
            assert!(
                index.stats().compactions >= 1,
                "the schedule must have compacted ({backend}, seed {seed})"
            );
        }
    }
}

/// Answers produced *while* appends are in flight are monotone: anything
/// the sealed prefix proves reachable stays reachable, and nothing is
/// answered reachable that the full eventual record set cannot justify
/// (appended records only ever add ticks; clamping/dropping only removes
/// them).
#[test]
fn concurrent_answers_are_bracketed_by_prefix_and_full_oracles() {
    let n = 8usize;
    let horizon = 100u32;
    let index = Arc::new(live_on("sim", usize::MAX / 2, n));
    let records = stream(0xB0B, n as u32, horizon, 200);
    let prefix = records.len() / 2;
    for &c in &records[..prefix] {
        index.append(c).expect("prefix append");
    }
    index.compact().expect("prefix seals");

    // The prefix oracle sees exactly what the index has accepted so far;
    // the full oracle sees every record that will ever arrive (an upper
    // bound: lateness clamping and drops only shrink coverage).
    let accepted = index.replay_log().expect("log replays");
    let prefix_now = index.now();
    let prefix_oracle = oracle_of(n, prefix_now, &accepted);
    let full_oracle = oracle_of(n, horizon, &records);
    let window_end = prefix_now - 1;

    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (stop, served) = (&stop, &served);
        for reader in 0..3u64 {
            let index = Arc::clone(&index);
            let (prefix_oracle, full_oracle) = (&prefix_oracle, &full_oracle);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xFACE ^ reader);
                while !stop.load(Ordering::Acquire) {
                    let s = rng.gen_range(0..n as u32);
                    let d = rng.gen_range(0..n as u32);
                    let a = rng.gen_range(0..window_end);
                    let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, window_end));
                    let got = index
                        .evaluate_query(&q)
                        .expect("concurrent query")
                        .reachable();
                    if prefix_oracle.evaluate(&q).reachable {
                        assert!(got, "{q}: sealed-prefix reachability was lost mid-append");
                    }
                    if got {
                        assert!(
                            full_oracle.evaluate(&q).reachable,
                            "{q}: answered reachable beyond the full record set"
                        );
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for &c in &records[prefix..] {
            index.append(c).expect("live append");
        }
        let compactor = Arc::clone(&index);
        scope.spawn(move || compactor.compact().expect("compaction under readers"));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while served.load(Ordering::Relaxed) < 50 {
            assert!(
                std::time::Instant::now() < deadline,
                "readers never got scheduled"
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });
}

/// Shard swaps never serve a torn base: over a *static* record set, every
/// answer must stay exactly the oracle's while repeated (artificially
/// slowed) compactions swap the shard underneath the readers.
#[test]
fn epoch_swaps_never_serve_a_torn_base() {
    let n = 8usize;
    let horizon = 60u32;
    let index = Arc::new(live_on("sim", usize::MAX / 2, n));
    let records = stream(0xE90C, n as u32, horizon, 150);
    for &c in &records {
        index.append(c).expect("append");
    }
    index.compact().expect("initial seal");
    let accepted = index.replay_log().expect("log replays");
    let data_now = index.now();
    let oracle = oracle_of(n, data_now, &accepted);
    index.set_compaction_pause_ms(25);

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        for reader in 0..3u64 {
            let index = Arc::clone(&index);
            let oracle = &oracle;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x70B ^ reader);
                while !stop.load(Ordering::Acquire) {
                    let s = rng.gen_range(0..n as u32);
                    let d = rng.gen_range(0..n as u32);
                    let a = rng.gen_range(0..data_now - 1);
                    let b = rng.gen_range(a..data_now);
                    let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
                    let got = index.evaluate_query(&q).expect("query during swaps");
                    assert_eq!(
                        got.reachable(),
                        oracle.evaluate(&q).reachable,
                        "{q} diverged while shards were swapping"
                    );
                }
            });
        }
        // Keep the cut advancing so every compact really rebuilds and
        // swaps a fresh shard in under the readers.
        for round in 1..=4u32 {
            index.advance(data_now + 8 * round);
            index.compact().expect("swap compaction");
        }
        stop.store(true, Ordering::Release);
    });

    let m = index.metrics();
    assert!(
        m.generation >= 4,
        "every round must commit a generation (got {})",
        m.generation
    );
    assert!(
        m.overlapped_queries > 0,
        "readers must have answered while a swap was building"
    );
}

/// Queries are served *while* a compaction is building — never queued
/// behind it.
#[test]
fn queries_are_served_during_a_compaction() {
    let n = 8usize;
    let horizon = 60u32;
    let index = Arc::new(live_on("sim", usize::MAX / 2, n));
    for &c in &stream(0x0CC, n as u32, horizon, 150) {
        index.append(c).expect("append");
    }
    index.set_compaction_pause_ms(150);

    let worker = {
        let index = Arc::clone(&index);
        std::thread::spawn(move || index.compact())
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !index.metrics().compacting {
        assert!(
            std::time::Instant::now() < deadline,
            "compaction never started building"
        );
        std::thread::yield_now();
    }
    let mut during = 0u64;
    let now = index.now();
    while index.metrics().compacting {
        let q = Query::new(
            ObjectId(during as u32 % n as u32),
            ObjectId((during as u32 + 3) % n as u32),
            TimeInterval::new(0, now - 1),
        );
        index.evaluate_query(&q).expect("query during compaction");
        during += 1;
    }
    worker
        .join()
        .expect("compaction thread")
        .expect("compaction commits");
    assert!(during > 0, "no query completed while the base was building");
    assert!(
        index.metrics().overlapped_queries > 0,
        "overlap accounting missed the served queries"
    );
}

/// Every index type answers through the unified [`ReachIndex`] envelope:
/// ReachGrid, ReachGraph, GRAIL(disk) and ShardedLive — one dispatch
/// loop, no per-index arms, no wrapper.
/// The ext variants ride the same envelope with their own
/// [`QueryKind`]s.
#[test]
fn every_index_type_answers_through_reach_index() {
    let d_t = 25.0f32;
    let store = RwpConfig {
        env: Environment::square(600.0),
        num_objects: 30,
        horizon: 240,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 2,
    }
    .generate(11);
    let horizon = store.horizon();
    let n = store.num_objects();
    let oracle = Oracle::build(&store, d_t);
    let contacts = extract_contacts(&store, TimeInterval::new(0, horizon - 1), d_t);
    let dn = DnGraph::build(&store, d_t);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);

    let grid = ReachGrid::build(
        &store,
        GridParams {
            temporal: 15,
            cell_size: 150.0,
            threshold: d_t,
            ..GridParams::default()
        },
    )
    .expect("grid builds");
    let graph = ReachGraph::build(&dn, &mr, GraphParams::default()).expect("graph builds");
    let grail = GrailDisk::build(&dn, 4, 0xD15C, 4096, 32).expect("grail disk builds");
    let live = LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10))
        .builder()
        .build_sharded(n)
        .expect("live index creates");
    for &c in &contacts {
        live.append(c).expect("append accepted");
    }
    live.compact().expect("live compaction");

    // One trait object per index — the loop below is the only dispatch.
    let evaluators: Vec<Box<dyn ReachIndex>> = vec![
        Box::new(grid),
        Box::new(graph),
        Box::new(grail),
        Box::new(live),
    ];

    let queries = WorkloadConfig {
        num_queries: 40,
        interval_len_min: 20,
        interval_len_max: 150,
    }
    .generate(n, horizon, 0x5E12E);
    for q in &queries {
        let expected = oracle.evaluate(q).reachable;
        for index in &evaluators {
            let a = index
                .answer(&ReachRequest::from(*q))
                .unwrap_or_else(|e| panic!("{} failed on {q}: {e}", index.name()));
            assert_eq!(a.reachable(), expected, "{} vs oracle on {q}", index.name());
        }
    }

    // The ext variants answer their own kinds through the same envelope.
    let uevents: Vec<UncertainEvent> = contacts
        .iter()
        .flat_map(|c| {
            c.interval.ticks().map(|t| UncertainEvent {
                t,
                a: c.a,
                b: c.b,
                p: 1.0,
            })
        })
        .collect();
    let uncertain: Box<dyn ReachIndex> = Box::new(UReachGraph::build(n, horizon, &uevents));
    for q in queries.iter().take(10) {
        let req = ReachRequest::from(*q).with_kind(QueryKind::Uncertain { threshold: 0.9 });
        let a = uncertain.answer(&req).expect("uncertain query evaluates");
        // With every event certain (p = 1), threshold reachability is plain
        // reachability.
        assert_eq!(
            a.reachable(),
            oracle.evaluate(q).reachable,
            "U-ReachGraph vs oracle on {q}"
        );
        // And a foreign kind is rejected at the envelope, not miscomputed.
        assert!(matches!(
            uncertain.answer(&ReachRequest::from(*q)),
            Err(IndexError::Unsupported(_))
        ));
    }
}

/// What one answer must reproduce exactly: its outcome and every counter.
type Fingerprint = (QueryOutcome, u64, u64, u64, u64);

fn fingerprint(a: &Answer) -> Fingerprint {
    let s = &a.stats;
    (a.outcome, s.random_ios, s.seq_ios, s.visited, s.examined)
}

/// A 40-object RWP world, its queries and its oracle.
fn cold_world() -> (TrajectoryStore, Vec<Query>, Oracle) {
    let store = RwpConfig {
        env: Environment::square(600.0),
        num_objects: 40,
        horizon: 300,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 2,
    }
    .generate(0xC01D);
    let queries = WorkloadConfig {
        num_queries: 48,
        interval_len_min: 20,
        interval_len_max: 200,
    }
    .generate(40, 300, 0xC01D);
    let oracle = Oracle::build(&store, 25.0);
    (store, queries, oracle)
}

fn cold_grid(store: &TrajectoryStore) -> ReachGrid {
    ReachGrid::build(
        store,
        GridParams {
            temporal: 15,
            cell_size: 100.0,
            threshold: 25.0,
            cache_pages: 16,
            page_size: PAGE,
        },
    )
    .expect("grid builds")
}

/// One `Arc` each of ReachGrid, ReachGraph and GrailDisk, answered by four
/// threads at once (released together by a barrier, each walking the
/// queries from a different offset): every answer's outcome and
/// random/seq/visited/examined counters equal the single-threaded answer
/// on the same image.
#[test]
fn cold_readers_share_one_image_with_exact_io() {
    let (store, queries, oracle) = cold_world();
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let indexes: Vec<Arc<dyn ReachIndex>> = vec![
        Arc::new(cold_grid(&store)),
        Arc::new(ReachGraph::build(&dn, &mr, graph_params()).expect("graph builds")),
        Arc::new(GrailDisk::build(&dn, 4, 0xD15C, PAGE, 16).expect("grail builds")),
    ];
    const THREADS: usize = 4;
    for index in &indexes {
        let alone: Vec<Fingerprint> = queries
            .iter()
            .map(|q| {
                let a = index.answer(&ReachRequest::from(*q)).expect("answers");
                assert_eq!(a.reachable(), oracle.evaluate(q).reachable, "{q}");
                fingerprint(&a)
            })
            .collect();
        assert!(alone.iter().any(|f| f.1 > 0), "{}: no IO", index.name());
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (index, queries, start) = (Arc::clone(index), &queries, &start);
                    scope.spawn(move || {
                        start.wait();
                        let n = queries.len();
                        (0..n)
                            .map(|k| (k + t * n / THREADS) % n)
                            .map(|i| {
                                let req = ReachRequest::from(queries[i]);
                                (i, fingerprint(&index.answer(&req).expect("answers")))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                for (i, got) in worker.join().expect("reader thread") {
                    assert_eq!(
                        got,
                        alone[i],
                        "{}: concurrent answer to {} diverged",
                        index.name(),
                        queries[i]
                    );
                }
            }
        });
    }
}

/// A 4-worker server over a bare ReachGrid (no wrapper) answers every
/// query as the oracle does, each with exactly its single-threaded IO.
#[test]
fn four_workers_serve_a_bare_grid() {
    let (store, queries, oracle) = cold_world();
    let grid = Arc::new(cold_grid(&store));
    let alone: Vec<Fingerprint> = queries
        .iter()
        .map(|q| fingerprint(&grid.answer(&ReachRequest::from(*q)).expect("answers")))
        .collect();
    let server = Server::start(
        Arc::clone(&grid) as Arc<dyn ReachIndex>,
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            max_batch: 8,
        },
    )
    .expect("server starts");
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| server.submit(ReachRequest::from(*q)).expect("admitted"))
        .collect();
    for ((q, ticket), want) in queries.iter().zip(tickets).zip(&alone) {
        let a = ticket.wait().expect("served");
        assert_eq!(a.reachable(), oracle.evaluate(q).reachable, "{q} vs oracle");
        assert_eq!(&fingerprint(&a), want, "served {q} diverged from alone");
    }
    assert_eq!(server.metrics().completed, queries.len() as u64);
}
