//! Tier-1 suite for decay-weighted and top-k reachability (ISSUE 9
//! acceptance criteria):
//!
//! 1. **Oracle equality** — decay point verdicts and top-k rankings from
//!    ReachGraph and disk GRAIL equal the exhaustive path-enumeration
//!    oracle, weight for weight, on sim and file backends;
//! 2. **Dispatch stability** — answers are identical whether a decay
//!    cohort goes through `answer_batch` (the serving path's coalescing)
//!    or per-request `answer`, and whether requests flow through the
//!    `reach_serve` worker pool or are evaluated directly;
//! 3. **Cross-shard composition** — the weighted frontier relay across
//!    epoch shards (and the sealed/delta boundary of a compacting live
//!    index) reproduces the monolithic in-memory walk bit for bit;
//! 4. **One snapshot per answer** — a live ranking racing an append
//!    equals the oracle's ranking before or after that append, never a
//!    mixture of the two.

mod common;

use common::{device_for, graph_params, manual, stream, BACKENDS, PAGE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use streach::prelude::*;

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
        let rg = ReachGraph::build_on(device_for(backend, PAGE), &dn, &mr, graph_params())
            .expect("graph builds");
        let grail = GrailDisk::build_on(device_for(backend, PAGE), &dn, 4, 0x5EED, 32)
            .expect("grail builds");
        let mut rng = StdRng::seed_from_u64(0xBAC0);
        for model in models() {
            for _ in 0..20 {
                let s = ObjectId(rng.gen_range(0..n as u32));
                let d = ObjectId(rng.gen_range(0..n as u32));
                let a = rng.gen_range(0..horizon);
                let iv = TimeInterval::new(a, rng.gen_range(a..horizon));
                let theta = [0.01, 0.2, 0.6][rng.gen_range(0..3usize)];
                let want = oracle.decay_reachable(s, d, iv, &model, theta);
                let decay = ReachRequest::decay(s, iv, d, theta, model);
                for index in [&rg as &dyn ReachIndex, &grail] {
                    let got = index.answer(&decay).expect("decay evaluates");
                    let got = got.ranking.first().map(|r| (r.weight, r.arrival));
                    assert_eq!(
                        got,
                        want,
                        "{backend}: {} {s:?}->{d:?} {iv} θ={theta}",
                        index.name()
                    );
                }

                let k = rng.gen_range(1..=n);
                for direction in [RankDirection::Reachable, RankDirection::Reaching] {
                    let (want, top_k) = match direction {
                        RankDirection::Reachable => (
                            oracle.top_k_reachable(s, iv, k, &model),
                            ReachRequest::top_k_reachable(s, iv, k, model),
                        ),
                        RankDirection::Reaching => (
                            oracle.top_k_reaching(s, iv, k, &model),
                            ReachRequest::top_k_reaching(s, iv, k, model),
                        ),
                    };
                    for index in [&rg as &dyn ReachIndex, &grail] {
                        let got = index.answer(&top_k).expect("top-k evaluates");
                        assert_eq!(
                            got.ranking,
                            want,
                            "{backend}: {} top-{k} {} from {s:?} {iv}",
                            index.name(),
                            direction.name()
                        );
                    }
                }
            }
        }
    }
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
    let contacts = stream(0x5E77, n, horizon, 120, 1);
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
    let contacts = stream(0xC0DE, n, horizon, 160, 1);
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

/// A reverse ranking scores one candidate source at a time. Each answer
/// must read one index state throughout: while another thread appends one
/// contact that moves the lowest- and the highest-numbered candidates, every
/// ranking equals the oracle's ranking before or after that contact.
#[test]
fn reaching_rankings_see_one_index_state_under_appends() {
    let c =
        |a: u32, b: u32, t: Time| Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(t, t));
    // Anchor 3. Before: 2 delivers at 8; 5 at 20; 0 reaches 5 at 2, so
    // 0 delivers at 20 too. The contact 2–5 at tick 5 lets 5 and 0
    // deliver through 2 at 8.
    let (anchor, n, model) = (ObjectId(3), 6, DecayModel::per_tick(0.9));
    let initial = [c(0, 5, 2), c(2, 3, 8), c(3, 5, 20), c(1, 4, 23)];
    let added = c(2, 5, 5);
    let window = TimeInterval::new(0, 23);
    let request = ReachRequest::top_k_reaching(anchor, window, n, model);
    let ranking_of = |contacts: &[Contact]| {
        let dn = DnGraph::from_contacts(n, 24, contacts);
        DecayOracle::new(&dn).top_k_reaching(anchor, window, n, &model)
    };
    let before = ranking_of(&initial);
    let after = ranking_of(&[&initial[..], &[added]].concat());
    assert_ne!(before, after, "the added contact must move the ranking");
    for round in 0..4 {
        let live = manual()
            .builder()
            .build_sharded(n)
            .expect("live index creates");
        live.append(initial[0]).expect("append accepted");
        live.seal(4).expect("seal").expect("seals an epoch");
        for &contact in &initial[1..] {
            live.append(contact).expect("append accepted");
        }
        assert_eq!(live.answer(&request).expect("ranks").ranking, before);
        let appended = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let appender = scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(2));
                live.append(added).expect("append accepted");
                appended.store(true, Ordering::Release);
            });
            // Rank until 20 rankings after the append; a panicked appender
            // ends the loop too, and the join below re-raises its panic.
            let mut since = 0;
            while since < 20 && (appended.load(Ordering::Acquire) || !appender.is_finished()) {
                since += usize::from(appended.load(Ordering::Acquire));
                let got = live.answer(&request).expect("ranks").ranking;
                assert!(
                    got == before || got == after,
                    "round {round}: a ranking mixed two index states: {got:?}"
                );
            }
            appender.join().expect("the appender thread panicked");
        });
        assert_eq!(live.answer(&request).expect("ranks").ranking, after);
    }
}
