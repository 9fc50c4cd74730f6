//! Tier-1 suite for decay-weighted and top-k reachability (ISSUE 9
//! acceptance criteria):
//!
//! 1. **Oracle equality** — decay point verdicts and top-k rankings from
//!    ReachGraph and disk GRAIL equal the exhaustive path-enumeration
//!    oracle, weight for weight, on sim, file, and mmap backends;
//! 2. **Dispatch stability** — answers are identical whether a decay
//!    cohort goes through `answer_batch` (the serving path's coalescing)
//!    or per-request `answer`, and whether requests flow through the
//!    `reach_serve` worker pool or are evaluated directly;
//! 3. **Cross-shard composition** — the weighted frontier relay across
//!    epoch shards (and the sealed/delta boundary of a compacting live
//!    index) reproduces the monolithic in-memory walk bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// A fresh device of the named backend. File-backed devices are unlinked
/// while open (Unix), so the suite leaves nothing behind.
fn device_for(backend: &str) -> Box<dyn BlockDevice> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    match backend {
        "sim" => StorageConfig::sim(PAGE).create().expect("sim device"),
        _ => {
            let path = std::env::temp_dir().join(format!(
                "streach-decay-{}-{}.pages",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let cfg = if backend == "file" {
                StorageConfig::file(&path, PAGE)
            } else {
                StorageConfig::mmap(&path, PAGE)
            };
            let dev = cfg.create().expect("temp device creates");
            let _ = std::fs::remove_file(&path);
            dev
        }
    }
}

/// A random deviation network: each tick draws independent contact pairs.
fn random_dn(seed: u64, n: usize, horizon: Time, density: f64) -> DnGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let script: Vec<Vec<(u32, u32)>> = (0..horizon)
        .map(|_| {
            let mut pairs = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(density) {
                        pairs.push((a, b));
                    }
                }
            }
            pairs
        })
        .collect();
    let dn = DnGraph::build_from_ticks(n, horizon, |t| script[t as usize].as_slice());
    dn.validate().expect("random DN validates");
    dn
}

fn models() -> Vec<DecayModel> {
    vec![
        DecayModel::per_transfer(0.5),
        DecayModel::per_tick(0.9),
        DecayModel::new(0.8, 0.96).expect("factors lie in (0, 1]"),
    ]
}

/// Outcome + ranking of an [`Answer`] — everything semantically
/// comparable (stats carry wall-clock time and are never equal).
fn essence(a: &Answer) -> (QueryOutcome, Vec<Ranked>) {
    (a.outcome, a.ranking.clone())
}

#[test]
fn engines_match_the_oracle_on_every_backend() {
    let n = 10;
    let horizon: Time = 64;
    let dn = random_dn(0xDECA, n, horizon, 0.03);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let oracle = DecayOracle::new(&dn);
    for backend in BACKENDS {
        let rg = ReachGraph::build_on(device_for(backend), &dn, &mr, graph_params())
            .expect("graph builds");
        let grail =
            GrailDisk::build_on(device_for(backend), &dn, 4, 0x5EED, 32).expect("grail builds");
        let mut rng = StdRng::seed_from_u64(0xBAC0);
        for model in models() {
            for _ in 0..20 {
                let s = ObjectId(rng.gen_range(0..n as u32));
                let d = ObjectId(rng.gen_range(0..n as u32));
                let a = rng.gen_range(0..horizon);
                let iv = TimeInterval::new(a, rng.gen_range(a..horizon));
                let theta = [0.01, 0.2, 0.6][rng.gen_range(0..3usize)];
                let want = oracle.decay_reachable(s, d, iv, &model, theta);
                let (got, _) = rg
                    .decay_reachable(s, d, iv, &model, theta)
                    .expect("graph decay evaluates");
                assert_eq!(got, want, "{backend}: graph {s:?}->{d:?} {iv} θ={theta}");
                let (got, _) = grail
                    .decay_reachable(s, d, iv, &model, theta)
                    .expect("grail decay evaluates");
                assert_eq!(got, want, "{backend}: grail {s:?}->{d:?} {iv} θ={theta}");

                let k = rng.gen_range(1..=n);
                for direction in [RankDirection::Reachable, RankDirection::Reaching] {
                    let want = match direction {
                        RankDirection::Reachable => oracle.top_k_reachable(s, iv, k, &model),
                        RankDirection::Reaching => oracle.top_k_reaching(s, iv, k, &model),
                    };
                    let (got, _) = rg
                        .top_k(s, iv, k, &model, direction)
                        .expect("graph top-k evaluates");
                    assert_eq!(
                        got,
                        want,
                        "{backend}: graph top-{k} {} from {s:?} {iv}",
                        direction.name()
                    );
                    let (got, _) = grail
                        .top_k(s, iv, k, &model, direction)
                        .expect("grail top-k evaluates");
                    assert_eq!(
                        got,
                        want,
                        "{backend}: grail top-{k} {} from {s:?} {iv}",
                        direction.name()
                    );
                }
            }
        }
    }
}

/// A deterministic synthetic append stream (same recipe as
/// `tests/live_reach.rs`): roughly time-ordered with local shuffling.
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
        contacts.swap(i - 1, i);
    }
    contacts
}

/// The monolithic weighted engine over everything an index accepted: an
/// in-memory DN over the replayed log, walked by `MemoryHn`.
fn monolithic_over(accepted: &[Contact], num_objects: usize, horizon: Time) -> DnGraph {
    let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); horizon as usize];
    for c in accepted {
        for t in c.interval.ticks() {
            per_tick[t as usize].push((c.a.0, c.b.0));
        }
    }
    DnGraph::build_from_ticks(num_objects, horizon, |t| per_tick[t as usize].as_slice())
}

#[test]
fn batch_and_served_dispatch_match_single_answers() {
    let n = 8u32;
    let horizon = 40u32;
    let live = LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10))
        .manual_compaction()
        .builder()
        .build_sharded(n as usize)
        .expect("live index creates");
    let contacts = stream(0x5E77, n, horizon, 120);
    let cut = contacts.len() / 2;
    for &c in &contacts[..cut] {
        live.append(c).expect("append accepted");
    }
    live.compact().expect("compaction succeeds");
    for &c in &contacts[cut..] {
        live.append(c).expect("append accepted");
    }
    let window = TimeInterval::new(0, live.now() - 1);
    let model = DecayModel::new(0.7, 0.97).expect("factors lie in (0, 1]");
    let shared: Arc<dyn ReachIndex> = Arc::new(live);

    // Per-destination answers are the reference…
    let dests: Vec<ObjectId> = (0..n).map(ObjectId).collect();
    let template = ReachRequest::decay(ObjectId(0), window, ObjectId(0), 0.1, model);
    let singles: Vec<_> = dests
        .iter()
        .map(|&d| {
            let mut req = template.clone();
            req.query.dest = d;
            essence(&shared.answer(&req).expect("decay answer evaluates"))
        })
        .collect();
    // …the batch entry point must reproduce them exactly…
    let batch = shared
        .answer_batch(&template, &dests)
        .expect("decay batch evaluates");
    assert_eq!(batch.len(), singles.len());
    for (want, got) in singles.iter().zip(&batch) {
        assert_eq!(*want, essence(got), "batch dispatch changed a decay answer");
    }
    // …and so must the worker pool, for decay cohorts and ranked
    // requests alike (rankings must come back in identical order).
    let server = Server::start(
        Arc::clone(&shared),
        ServeConfig {
            workers: 3,
            queue_capacity: 64,
            max_batch: 16,
        },
    )
    .expect("server starts");
    let tickets: Vec<_> = dests
        .iter()
        .map(|&d| {
            let mut req = template.clone();
            req.query.dest = d;
            server.submit(req).expect("admitted")
        })
        .collect();
    for (want, t) in singles.iter().zip(tickets) {
        let got = t.wait().expect("served decay answer");
        assert_eq!(
            *want,
            essence(&got),
            "served dispatch changed a decay answer"
        );
    }
    for direction in [RankDirection::Reachable, RankDirection::Reaching] {
        let req = match direction {
            RankDirection::Reachable => {
                ReachRequest::top_k_reachable(ObjectId(1), window, 4, model)
            }
            RankDirection::Reaching => ReachRequest::top_k_reaching(ObjectId(1), window, 4, model),
        };
        let want = essence(&shared.answer(&req).expect("top-k answer evaluates"));
        let got = server
            .submit(req)
            .expect("admitted")
            .wait()
            .expect("served top-k answer");
        assert_eq!(want, essence(&got), "served top-k diverged ({direction:?})");
    }
}

#[test]
fn cross_shard_composition_matches_the_monolithic_walk() {
    let n = 10u32;
    let horizon = 48u32;
    let contacts = stream(0xC0DE, n, horizon, 160);
    let sharded = LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10))
        .manual_compaction()
        .builder()
        .build_sharded(n as usize)
        .expect("sharded index creates");
    // Three sealed epochs plus a live delta tail.
    let third = contacts.len() / 3;
    for (i, &c) in contacts.iter().enumerate() {
        sharded.append(c).expect("append accepted");
        if i + 1 == third || i + 1 == 2 * third {
            sharded.seal_now().expect("seal succeeds");
        }
    }
    let accepted = sharded.replay_log().expect("log replays");
    let now = sharded.now();
    let dn = monolithic_over(&accepted, n as usize, now);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let mono = MemoryHn::new(&dn, &mr);

    let mut rng = StdRng::seed_from_u64(0x51AB);
    for model in models() {
        for _ in 0..25 {
            let s = ObjectId(rng.gen_range(0..n));
            let d = ObjectId(rng.gen_range(0..n));
            let a = rng.gen_range(0..now);
            let iv = TimeInterval::new(a, rng.gen_range(a..now));
            let theta = [0.01, 0.25][rng.gen_range(0..2usize)];
            let req = ReachRequest::decay(s, iv, d, theta, model);
            let want = essence(&mono.answer(&req).expect("monolithic decay evaluates"));
            let got =
                essence(&ReachIndex::answer(&sharded, &req).expect("sharded decay evaluates"));
            assert_eq!(
                want,
                got,
                "sharded decay diverged from the monolithic walk on {s:?}->{d:?} {iv} θ={theta} \
                 (shards {:?}, watermark {})",
                sharded.shard_spans(),
                sharded.watermark()
            );
            let k = rng.gen_range(1..=n as usize);
            for req in [
                ReachRequest::top_k_reachable(s, iv, k, model),
                ReachRequest::top_k_reaching(s, iv, k, model),
            ] {
                let want = essence(&mono.answer(&req).expect("monolithic top-k evaluates"));
                let got =
                    essence(&ReachIndex::answer(&sharded, &req).expect("sharded top-k evaluates"));
                assert_eq!(
                    want, got,
                    "sharded top-{k} diverged from the monolithic walk at {s:?} {iv}"
                );
            }
        }
    }

    // A compacted timeline (one whole-history shard + delta) composes
    // through the same weighted frontier; it must agree with the same
    // walk.
    let live = LiveConfig::graph(graph_params(), BuildBudget::bytes(64 << 10))
        .manual_compaction()
        .builder()
        .build_sharded(n as usize)
        .expect("live index creates");
    for (i, &c) in contacts.iter().enumerate() {
        live.append(c).expect("append accepted");
        if i + 1 == contacts.len() / 2 {
            live.compact().expect("compaction succeeds");
        }
    }
    let accepted = live.replay_log().expect("log replays");
    let now = live.now();
    let dn = monolithic_over(&accepted, n as usize, now);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let mono = MemoryHn::new(&dn, &mr);
    let model = DecayModel::new(0.8, 0.96).expect("factors lie in (0, 1]");
    for a in 0..now.min(40) {
        let iv = TimeInterval::new(a, now - 1);
        let s = ObjectId(a % n);
        let req = ReachRequest::decay(s, iv, ObjectId((a + 3) % n), 0.05, model);
        let want = essence(&mono.answer(&req).expect("monolithic decay evaluates"));
        let got = essence(&live.answer(&req).expect("live decay evaluates"));
        assert_eq!(
            want, got,
            "live decay diverged across the watermark at {iv}"
        );
        let req = ReachRequest::top_k_reachable(s, iv, 5, model);
        let want = essence(&mono.answer(&req).expect("monolithic top-k evaluates"));
        let got = essence(&live.answer(&req).expect("live top-k evaluates"));
        assert_eq!(
            want, got,
            "live top-k diverged across the watermark at {iv}"
        );
    }
}

/// A paper-shaped end-to-end pass: an RWP world, contact extraction, and
/// the serving path answering a mixed boolean/decay workload — the decay
/// verdicts re-checked against the oracle on the extracted DN.
#[test]
fn end_to_end_mixed_workload_agrees_with_the_oracle() {
    let store = RwpConfig {
        env: Environment::square(400.0),
        num_objects: 16,
        horizon: 120,
        ..RwpConfig::default()
    }
    .generate(0xE2E);
    let dn = DnGraph::build(&store, 25.0);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let oracle = DecayOracle::new(&dn);
    let graph = ReachGraph::build(&dn, &mr, graph_params()).expect("graph construction succeeds");
    let model = DecayModel::per_transfer(0.9);
    let theta = 1e-6;
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..30 {
        let s = ObjectId(rng.gen_range(0..16));
        let d = ObjectId(rng.gen_range(0..16));
        let a = rng.gen_range(0..120);
        let iv = TimeInterval::new(a, rng.gen_range(a..120));
        let plain = graph
            .answer(&ReachRequest::reach(s, iv, d))
            .expect("plain request evaluates");
        let decayed = graph
            .answer(&ReachRequest::decay(s, iv, d, theta, model))
            .expect("decay request evaluates");
        // θ→0 decay reachability coincides with boolean reachability
        // whenever the weight floor cannot bite. Every DN₁ edge advances
        // time by at least one tick, so any in-window path makes h ≤ 119
        // transfers and 0.9^119 ≈ 3.6e-6 stays above θ = 1e-6.
        if plain.reachable() {
            assert!(
                decayed.reachable(),
                "near-zero θ lost a reachable pair {s:?}->{d:?} {iv}"
            );
        }
        assert_eq!(
            decayed.ranking.first().map(|r| (r.weight, r.arrival)),
            oracle.decay_reachable(s, d, iv, &model, theta),
            "decay witness diverged from the oracle on {s:?}->{d:?} {iv}"
        );
    }
}
