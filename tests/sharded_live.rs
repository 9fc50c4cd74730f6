//! Tier-1 suite for the epoch-sharded live timeline (ISSUE 8 acceptance
//! criteria):
//!
//! 1. **Equivalence** — randomized interleavings of appends, seals, epoch
//!    merges, and queries are result-identical to the monolithic batch
//!    oracle over the accepted trace, on sim and file backends;
//! 2. **Cross-shard handoff** — query windows spanning three or more
//!    epoch boundaries, and windows straddling the sealed/delta frontier,
//!    return the exact monolithic answer *and* arrival tick;
//! 3. **IO exactness** — per-query counted IO under concurrent serving
//!    equals the single-threaded sharded walk, query for query.

mod common;

use common::{
    base_files, check_all_pairs, check_query, cleanup, manual, oracle_of, sharded_on, stream,
    BACKENDS, PAGE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use streach::prelude::*;

const HORIZON: Time = 48;

// ---------------------------------------------------------------------------
// Randomized interleavings (the shard-oracle gate).
// ---------------------------------------------------------------------------

/// One step of a sharded schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Append `(a, b)` over `[start, start + len]` — possibly late; lossy
    /// admission clamps at the top cut or drops, never errors.
    Append {
        a: u32,
        b: u32,
        start: Time,
        len: Time,
    },
    /// Seal the delta below `cut`, creating a new epoch shard (no-op when
    /// `cut` is at or below the current top cut).
    Seal { cut: Time },
    /// Coalesce two adjacent shards (no-op when fewer than two exist).
    Merge { at: usize },
    /// Evaluate `s ~[t1, t2]~> d` and check it against the oracle.
    Query { s: u32, d: u32, t1: Time, t2: Time },
}

fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    // Weighted choice by hand (the offline proptest shim has no
    // `prop_oneof!`): 0..=5 append, 6..=7 seal, 8 merge, else query.
    (0u32..12, 0..n, 0..n, 0..HORIZON, 0..HORIZON).prop_filter_map(
        "valid op",
        |(kind, x, y, t, u)| match kind {
            0..=5 => (x != y).then(|| Op::Append {
                a: x.min(y),
                b: x.max(y),
                start: t,
                len: (u % 4).min(HORIZON - 1 - t),
            }),
            6..=7 => Some(Op::Seal { cut: t }),
            8 => Some(Op::Merge { at: x as usize }),
            _ => (t <= u).then_some(Op::Query {
                s: x,
                d: y,
                t1: t,
                t2: u,
            }),
        },
    )
}

/// Drives one schedule on one backend and asserts every query plus a
/// final all-pairs sweep against the monolithic oracle.
fn run_schedule(backend: &str, n: usize, ops: &[Op]) {
    let (live, dir) = sharded_on(backend, manual(), n);
    drive(&live, ops, backend);
    check_all_pairs(&live, backend);
    cleanup(live, dir);
}

/// Applies `ops` to `live`, checking each query against the oracle.
fn drive(live: &ShardedLive, ops: &[Op], tag: &str) {
    let n = live.num_objects();
    let fold = |o: u32| o % n as u32;
    for op in ops {
        match *op {
            Op::Append { a, b, start, len } => {
                let (a, b) = (fold(a), fold(b));
                if a == b {
                    continue;
                }
                let c = Contact::new(
                    ObjectId(a.min(b)),
                    ObjectId(a.max(b)),
                    TimeInterval::new(start, start + len),
                );
                live.append(c).expect("lossy append never errors");
            }
            Op::Seal { cut } => {
                live.seal(cut).expect("seal succeeds");
            }
            Op::Merge { at } => {
                let count = live.shard_count();
                if count >= 2 {
                    let i = at % (count - 1);
                    live.merge_epochs(i, i + 1).expect("merge succeeds");
                }
            }
            Op::Query { s, d, t1, t2 } => {
                if live.now() == 0 {
                    continue;
                }
                let (s, d) = (fold(s), fold(d));
                let t1 = t1.min(live.now() - 1);
                let t2 = t2.max(t1);
                let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(t1, t2));
                check_query(live, &oracle_of(live), &q, tag);
            }
        }
    }
}

/// Drives one schedule on the file backend, drops the index, reopens it
/// from its epoch directory, shard devices and append log, and asserts
/// the reopened index has the same shard set and clock and still answers
/// every pair as the monolithic oracle does.
fn run_schedule_and_reopen(n: usize, ops: &[Op]) {
    let (live, dir) = sharded_on("file", manual(), n);
    let dir = dir.expect("the file backend has a scratch directory");
    drive(&live, ops, "file");
    live.sync().expect("durable");
    let before = (live.shard_spans(), live.watermark(), live.now());
    drop(live);

    let (reopened, recovery) = manual()
        .builder()
        .backend(StorageConfig::file(&dir, PAGE))
        .open_sharded()
        .expect("sharded index reopens");
    assert!(!recovery.log.torn_tail, "a clean drop leaves no torn tail");
    assert_eq!(
        (reopened.shard_spans(), reopened.watermark(), reopened.now()),
        before,
        "reopen restores the shard spans, watermark and clock"
    );
    check_all_pairs(&reopened, "file reopened");
    cleanup(reopened, Some(dir));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random append/seal/merge/query interleavings on the simulator are
    /// result-identical to the monolithic batch oracle.
    #[test]
    fn sim_schedules_match_the_monolithic_oracle(
        n in 3usize..6,
        ops in prop::collection::vec(op_strategy(5), 1..70),
    ) {
        run_schedule("sim", n.min(5), &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same gate on the file backend (real positioned IO, real epoch
    /// directory commits).
    #[test]
    fn file_schedules_match_the_monolithic_oracle(
        n in 3usize..6,
        ops in prop::collection::vec(op_strategy(5), 1..50),
    ) {
        run_schedule("file", n.min(5), &ops);
    }

    /// A file-backed index reopened after any schedule keeps its shard
    /// set and answers exactly as before it was dropped.
    #[test]
    fn file_schedules_reopen_to_the_same_answers(
        n in 3usize..6,
        ops in prop::collection::vec(op_strategy(5), 1..50),
    ) {
        run_schedule_and_reopen(n.min(5), &ops);
    }
}

// ---------------------------------------------------------------------------
// Deterministic cross-shard walks.
// ---------------------------------------------------------------------------

/// Windows spanning three or more epoch boundaries — and straddling the
/// delta — agree with the oracle on verdicts *and* arrival ticks, on both
/// backends.
#[test]
fn windows_spanning_three_epochs_and_the_delta_match_the_oracle() {
    for backend in BACKENDS {
        let n = 8u32;
        let (live, dir) = sharded_on(backend, manual(), n as usize);
        for c in stream(0xEB0C, n, 40, 120, 1) {
            live.append(c).expect("append accepted");
        }
        for cut in [10, 20, 30] {
            live.seal(cut).expect("seal succeeds");
        }
        assert_eq!(
            live.shard_spans(),
            vec![(0, 10), (10, 20), (20, 30)],
            "{backend}: three sealed epochs"
        );
        assert!(
            live.now() > 30,
            "{backend}: the delta should hold live ticks past the top cut"
        );
        let oracle = oracle_of(&live);
        let last = live.now() - 1;
        // Every window below crosses at least three shard legs; the first
        // two also straddle the sealed/delta frontier.
        let windows = [
            TimeInterval::new(0, last),
            TimeInterval::new(5, last),
            TimeInterval::new(2, 29),
        ];
        for s in 0..n {
            for d in 0..n {
                for iv in windows {
                    let q = Query::new(ObjectId(s), ObjectId(d), iv);
                    check_query(&live, &oracle, &q, backend);
                }
            }
        }
        cleanup(live, dir);
    }
}

/// Figure-1-style trace sealed into three epochs: relays that cross every
/// cut, and one that needs the delta after the sealed walk, report their
/// exact arrival tick, not only a verdict.
#[test]
fn sharded_walk_matches_the_oracle_across_three_cuts() {
    let c = |a: u32, b: u32, s: Time, e: Time| {
        Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
    };
    let q = |s: u32, d: u32| Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(0, 12));
    for backend in BACKENDS {
        let (live, dir) = sharded_on(backend, manual(), 5);
        live.append(c(0, 1, 0, 2)).expect("append accepted");
        live.append(c(1, 2, 1, 5)).expect("append accepted");
        live.seal(4).expect("seal").expect("seals epoch 0");
        live.append(c(2, 3, 4, 7)).expect("append accepted");
        live.append(c(0, 4, 6, 6)).expect("append accepted");
        live.seal(8).expect("seal").expect("seals epoch 1");
        live.append(c(3, 4, 8, 10)).expect("append accepted");
        live.seal(11).expect("seal").expect("seals epoch 2");
        live.append(c(0, 2, 11, 12)).expect("append accepted");
        assert_eq!(live.shard_spans(), vec![(0, 4), (4, 8), (8, 11)]);
        assert_eq!(live.watermark(), 11);
        check_all_pairs(&live, backend);
        // 0 meets 4 directly at 6, inside epoch 1.
        let r = live.evaluate(&q(0, 4)).expect("query");
        assert_eq!(r.outcome, QueryOutcome::reachable_at(6), "{backend}: 0→4");
        // 3 meets 4 only at 8, inside epoch 2.
        let r = live.evaluate(&q(3, 4)).expect("query");
        assert_eq!(r.outcome, QueryOutcome::reachable_at(8), "{backend}: 3→4");
        // 3→2 is sealed (epoch 1), 2→0 only in the delta at 11.
        let r = live.evaluate(&q(3, 0)).expect("query");
        assert_eq!(r.outcome, QueryOutcome::reachable_at(11), "{backend}: 3→0");
        cleanup(live, dir);
    }
}

/// Merging adjacent epochs changes the shard layout but not one answer:
/// after coalescing 4 shards down to 1, the all-pairs sweep still matches
/// the monolithic oracle exactly.
#[test]
fn merging_epochs_down_to_one_preserves_every_answer() {
    for backend in BACKENDS {
        let n = 7u32;
        let (live, dir) = sharded_on(backend, manual(), n as usize);
        for c in stream(0x3A6E, n, 44, 110, 1) {
            live.append(c).expect("append accepted");
        }
        for cut in [8, 16, 28, 38] {
            live.seal(cut).expect("seal succeeds");
        }
        assert_eq!(live.shard_count(), 4, "{backend}: four sealed epochs");
        check_all_pairs(&live, backend);
        // Coalesce middle, then front, then the remainder; each merge
        // commits one directory generation.
        let generation = live.generation();
        live.merge_epochs(1, 2).expect("merge middle");
        assert_eq!(live.shard_spans(), vec![(0, 8), (8, 28), (28, 38)]);
        assert_eq!(live.generation(), generation + 1, "{backend}");
        check_all_pairs(&live, backend);
        live.merge_epochs(0, 1).expect("merge front");
        live.merge_epochs(0, 1).expect("merge rest");
        assert_eq!(live.shard_spans(), vec![(0, 38)]);
        check_all_pairs(&live, backend);
        // Degenerate requests are no-ops, not errors.
        assert!(live.merge_epochs(0, 0).expect("no-op").is_none());
        assert!(live.merge_epochs(0, 5).expect("no-op").is_none());
        // The merges removed every superseded shard's device.
        if let Some(dir) = &dir {
            assert_eq!(base_files(dir), 1, "only the live shard's base remains");
        }
        cleanup(live, dir);
    }
}

// ---------------------------------------------------------------------------
// Cohorts: a point query is a cohort of one.
// ---------------------------------------------------------------------------

/// A seeded schedule: a roughly time-ordered append stream over `n`
/// objects, sealed at the current record's start about one record in
/// eight, with an adjacent merge about one record in twenty.
fn seal_merge_schedule(seed: u64, n: u32) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    for c in stream(seed, n, HORIZON, 90, 1) {
        let (start, end) = (c.interval.start, c.interval.end);
        ops.push(Op::Append {
            a: c.a.0,
            b: c.b.0,
            start,
            len: end - start,
        });
        if rng.gen_bool(0.125) {
            ops.push(Op::Seal { cut: start });
        }
        if rng.gen_bool(0.05) {
            ops.push(Op::Merge {
                at: rng.gen_range(0..8usize),
            });
        }
    }
    ops
}

/// Checks every source's cohorts against its point answers over windows
/// from each shard's start (and the watermark) to the last tick:
/// one-destination cohorts equal the point answer in outcome and counted
/// IO; the all-object cohort agrees on every verdict and on arrivals both
/// sides know; and a cohort of the destinations that arrive inside the
/// window's first sealed leg walks that leg alone. Returns how many such
/// one-leg cohorts it checked.
fn check_cohorts(live: &ShardedLive, tag: &str) -> usize {
    let n = live.num_objects() as u32;
    let last = live.now() - 1;
    let spans = live.shard_spans();
    let starts = spans
        .iter()
        .map(|s| s.0)
        .chain([live.watermark().min(last)]);
    let dests: Vec<ObjectId> = (0..n).map(ObjectId).collect();
    let obs = Obs::new(ObsConfig::default());
    let mut one_leg = 0;
    for t1 in starts {
        let window = TimeInterval::new(t1, last);
        for source in dests.iter().copied() {
            let at = format!("{tag}: o{} over {window}", source.0);
            let template = ReachRequest::reach(source, window, source);
            let point: Vec<Answer> = dests
                .iter()
                .map(|&d| {
                    let request = ReachRequest::reach(source, window, d);
                    live.answer(&request).expect("point query")
                })
                .collect();
            let cost = |a: &Answer| {
                let s = &a.stats;
                (a.outcome, s.random_ios, s.seq_ios, s.visited)
            };
            for (&d, p) in dests.iter().zip(&point) {
                let alone = live.answer_batch(&template, &[d]).expect("cohort of one");
                assert_eq!(alone.len(), 1, "{at}");
                assert_eq!(cost(&alone[0]), cost(p), "{at}: cohort of o{} alone", d.0);
            }
            let cohort = live.answer_batch(&template, &dests).expect("cohort");
            for ((&d, p), c) in dests.iter().zip(&point).zip(&cohort) {
                assert_eq!(c.reachable(), p.reachable(), "{at}: o{} verdict", d.0);
                if let (Some(ct), Some(pt)) = (c.outcome.earliest, p.outcome.earliest) {
                    assert_eq!(ct, pt, "{at}: o{} arrival", d.0);
                }
            }
            // The first sealed leg ends at its shard's `hi`; the window
            // must reach past it for the early stop to show.
            let Some(&(_, hi)) = spans.iter().find(|s| s.0 <= t1 && t1 < s.1) else {
                continue;
            };
            let early: Vec<ObjectId> = dests
                .iter()
                .zip(&point)
                .filter(|(&d, p)| d != source && p.outcome.earliest.is_some_and(|t| t < hi))
                .map(|(&d, _)| d)
                .collect();
            if early.is_empty() || last < hi {
                continue;
            }
            let tracer = obs.tracer();
            live.answer_batch(&template.clone().with_trace(tracer.clone()), &early)
                .expect("early cohort");
            let legs = tracer
                .take_events()
                .iter()
                .filter(|e| e.name == "shard/leg")
                .count();
            assert_eq!(legs, 1, "{at}: {early:?} all arrive in the first leg");
            one_leg += 1;
        }
    }
    one_leg
}

/// `answer_batch` is the point walk for many destinations: over random
/// seal/merge schedules on both backends, a cohort of one costs exactly
/// its point query, a full cohort answers as its point queries do, and a
/// cohort stops after the first leg once all its destinations arrived.
#[test]
fn cohorts_answer_as_their_point_queries() {
    let mut one_leg = 0;
    for backend in BACKENDS {
        for seed in 0..4u64 {
            let (live, dir) = sharded_on(backend, manual(), 6);
            drive(&live, &seal_merge_schedule(0xC0_4027 + seed, 6), backend);
            let tag = format!("{backend} seed {seed} shards {:?}", live.shard_spans());
            one_leg += check_cohorts(&live, &tag);
            cleanup(live, dir);
        }
    }
    assert!(one_leg > 0, "no cohort arrived inside its first leg");
}

// ---------------------------------------------------------------------------
// IO exactness under concurrent serving.
// ---------------------------------------------------------------------------

/// Per-query counted IO through the serve layer's worker pool equals the
/// single-threaded sharded walk, query for query, on every backend: each
/// query reads the sealed shards through a private zeroed device handle,
/// so concurrency never bleeds IO across queries.
#[test]
fn serving_io_equals_the_single_threaded_sharded_walk() {
    for backend in BACKENDS {
        let n = 8usize;
        let (live, dir) = sharded_on(backend, manual(), n);
        for c in stream(0x0010_EAC7, n as u32, 40, 130, 1) {
            live.append(c).expect("append accepted");
        }
        for cut in [12, 24] {
            live.seal(cut).expect("seal succeeds");
        }
        let queries = WorkloadConfig {
            num_queries: 48,
            interval_len_min: 10,
            interval_len_max: 38,
        }
        .generate(n, live.now(), 0x5EED);

        // Single-threaded reference pass.
        let single: Vec<(u64, u64, u64)> = queries
            .iter()
            .map(|q| {
                let a = live.evaluate(q).expect("reference query");
                (a.stats.random_ios, a.stats.seq_ios, a.stats.visited)
            })
            .collect();

        // The same queries through the concurrent worker pool
        // (max_batch = 1 so every query is individually accounted).
        let server = Server::start(
            Arc::new(live) as Arc<dyn ReachIndex>,
            ServeConfig {
                workers: 4,
                queue_capacity: 256,
                max_batch: 1,
            },
        )
        .expect("server starts");
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| server.submit(ReachRequest::from(*q)).expect("submit"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let a = ticket.wait().expect("served query");
            assert_eq!(
                (a.stats.random_ios, a.stats.seq_ios, a.stats.visited),
                single[i],
                "{backend}: served IO for {} diverged from the single-threaded walk",
                queries[i]
            );
        }
        drop(server);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
