//! Property suite: random append/query/compaction schedules — auto-seals
//! and whole-history compactions interleaved, including
//! late, out-of-window, and self-contact records — are result-identical to
//! a batch-built oracle over the accepted trace (ISSUE 5 acceptance
//! criterion). The delta's own closure, `DeltaDn::propagate`, is checked
//! against the oracle directly on random multi-seed frontiers.

use proptest::prelude::*;
use reach_contact::Oracle;
use reach_core::{Contact, ObjectId, Query, ReachIndex, Time, TimeInterval};
use reach_graph::GraphParams;
use reach_live::{DeltaDn, LiveConfig, LiveError, ShardedLive};
use reach_storage::BuildBudget;

const HORIZON: Time = 48;

/// One step of a live schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Append `(a, b)` over `[start, start + len]` — possibly late or
    /// wholly out of the lateness window by the time it executes.
    Append {
        a: u32,
        b: u32,
        start: Time,
        len: Time,
    },
    /// Append a self-contact (must be rejected without corrupting state).
    SelfContact { o: u32, t: Time },
    /// Force a compaction.
    Compact,
    /// Evaluate `s ~[t1, t2]~> d` and check it against the oracle.
    Query { s: u32, d: u32, t1: Time, t2: Time },
}

fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    // Weighted choice by hand (the offline proptest shim has no
    // `prop_oneof!`): 0..=4 append, 5 self-contact, 6 compact, else query.
    (0u32..10, 0..n, 0..n, 0..HORIZON, 0..HORIZON).prop_filter_map(
        "valid op",
        |(kind, x, y, t, u)| match kind {
            0..=4 => (x != y).then(|| Op::Append {
                a: x.min(y),
                b: x.max(y),
                start: t,
                len: (u % 4).min(HORIZON - 1 - t),
            }),
            5 => Some(Op::SelfContact { o: x, t }),
            6 => Some(Op::Compact),
            _ => (t <= u).then_some(Op::Query {
                s: x,
                d: y,
                t1: t,
                t2: u,
            }),
        },
    )
}

fn live_index(n: usize, budget: usize) -> ShardedLive {
    LiveConfig::graph(
        GraphParams {
            partition_depth: 8,
            page_size: 256,
            ..GraphParams::default()
        },
        BuildBudget::bytes(budget),
    )
    .builder()
    .build_sharded(n)
    .expect("live index creates")
}

/// Ticks a random delta spans past its watermark.
const DELTA_SPAN: Time = 30;

/// A random delta: `(objects, watermark, contacts in insertion order)`.
/// Insertion order is random, so runs arrive out of order, and with 10–40
/// objects and up to 160 contacts of up to four ticks, active ticks hold
/// multi-pair components.
fn delta_strategy() -> impl Strategy<Value = (usize, Time, Vec<Contact>)> {
    (10usize..=40, 0 as Time..20).prop_flat_map(|(n, watermark)| {
        let contact = (0..n as u32, 1..n as u32, 0..DELTA_SPAN, 0 as Time..4).prop_map(
            move |(a, hop, start, len)| {
                let b = (a + hop) % n as u32;
                let start = watermark + start;
                Contact::new(
                    ObjectId(a),
                    ObjectId(b),
                    TimeInterval::new(start, start + len),
                )
            },
        );
        prop::collection::vec(contact, 0..160).prop_map(move |cs| (n, watermark, cs))
    })
}

/// Earliest-arrival ground truth for a seeded frontier: a seed `(o, t)`
/// holds from `t` on, and an object's arrival is the earliest over the
/// seeds of the oracle's single-source spread (one seed's spread never
/// depends on another's).
fn seeded_oracle(oracle: &Oracle, seeds: &[(ObjectId, Time)], until: Time) -> Vec<Option<Time>> {
    let mut when: Vec<Option<Time>> = vec![None; oracle.num_objects()];
    for &(o, t) in seeds {
        let reached = if t <= until {
            oracle.spread(o, TimeInterval::new(t, until), None).1
        } else {
            let mut only = vec![None; oracle.num_objects()];
            only[o.index()] = Some(t);
            only
        };
        for (slot, r) in when.iter_mut().zip(reached) {
            if let Some(r) = r {
                *slot = Some(slot.map_or(r, |w: Time| w.min(r)));
            }
        }
    }
    when
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `DeltaDn::propagate` returns the oracle's earliest arrival for every
    /// object, from multi-seed frontiers whose hold times fall before, at
    /// and after the watermark; with `stop_at` set, the destination's
    /// arrival still matches.
    #[test]
    fn delta_propagation_matches_the_oracle(
        (n, watermark, contacts) in delta_strategy(),
        raw_seeds in prop::collection::vec((0u32..40, 0 as Time..50), 1..6),
        until in 0 as Time..55,
        stop in 0u32..40,
    ) {
        let mut delta = DeltaDn::new(watermark);
        for &c in &contacts {
            delta.insert(c);
        }
        let oracle = Oracle::from_contacts(n, watermark + DELTA_SPAN + 4, &contacts);
        let seeds: Vec<(ObjectId, Time)> = raw_seeds
            .iter()
            .map(|&(o, t)| (ObjectId(o % n as u32), t))
            .collect();
        let want = seeded_oracle(&oracle, &seeds, until);
        let got = delta.propagate(n, &seeds, until, None);
        prop_assert_eq!(&got, &want, "seeds {:?} until {} (watermark {})", seeds, until, watermark);
        let d = ObjectId(stop % n as u32);
        let got = delta.propagate(n, &seeds, until, Some(d));
        prop_assert_eq!(
            got[d.index()], want[d.index()],
            "stop at {} from seeds {:?} until {}", d, seeds, until
        );
    }

    /// Every query in a random schedule answers exactly as the batch
    /// oracle over the records the live index accepted, and a final sweep
    /// over all pairs confirms nothing drifted.
    #[test]
    fn schedules_are_result_identical_to_the_batch_oracle(
        n in 3usize..6,
        ops in prop::collection::vec(op_strategy(5), 1..60),
        tiny_budget in any::<bool>(),
    ) {
        let n = n.min(5);
        // A tiny budget forces frequent auto-seals mid-schedule; a
        // large one keeps everything in the delta — both must agree.
        let live = live_index(n, if tiny_budget { 300 } else { 1 << 20 });
        // Ids are drawn from 0..5 and folded into the actual universe.
        let fold = |o: u32| o % n as u32;
        for op in &ops {
            match *op {
                Op::Append { a, b, start, len } => {
                    let (a, b) = (fold(a), fold(b));
                    if a == b {
                        continue;
                    }
                    let c = Contact::new(
                        ObjectId(a),
                        ObjectId(b),
                        TimeInterval::new(start, start + len),
                    );
                    // Lossy mode: late records clamp or drop, never error.
                    let outcome = live.append(c);
                    prop_assert!(outcome.is_ok(), "append {c:?}: {outcome:?}");
                }
                Op::SelfContact { o, t } => {
                    let o = fold(o);
                    let bad = Contact {
                        a: ObjectId(o),
                        b: ObjectId(o),
                        interval: TimeInterval::new(t, t),
                    };
                    prop_assert!(matches!(
                        live.append(bad),
                        Err(LiveError::SelfContact(_))
                    ));
                }
                Op::Compact => {
                    live.compact().expect("compaction succeeds");
                }
                Op::Query { s, d, t1, t2 } => {
                    if live.now() == 0 {
                        continue;
                    }
                    let (s, d) = (fold(s), fold(d));
                    let t1 = t1.min(live.now() - 1);
                    let t2 = t2.max(t1);
                    let accepted = live.replay_log().expect("log replays");
                    let oracle = Oracle::from_contacts(n, live.now(), &accepted);
                    let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(t1, t2));
                    let got = live.evaluate(&q).expect("live query evaluates");
                    let want = oracle.evaluate(&q);
                    prop_assert_eq!(
                        got.reachable(),
                        want.reachable,
                        "{} diverged (watermark {})", q, live.watermark()
                    );
                    if let (Some(gt), Some(wt)) = (got.outcome.earliest, want.earliest) {
                        prop_assert_eq!(gt, wt, "{} arrival", q);
                    }
                }
            }
        }
        // Final sweep: every pair, three interval shapes.
        if live.now() > 0 {
            let accepted = live.replay_log().expect("log replays");
            let oracle = Oracle::from_contacts(n, live.now(), &accepted);
            let last = live.now() - 1;
            let w = live.watermark();
            let intervals = [
                TimeInterval::new(0, last),
                TimeInterval::new(last / 2, last),
                // Hug the watermark so the frontier hand-off is exercised.
                TimeInterval::new(w.saturating_sub(1).min(last), last),
            ];
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    for iv in intervals {
                        let q = Query::new(ObjectId(s), ObjectId(d), iv);
                        let got = live.evaluate(&q).expect("sweep query");
                        let want = oracle.evaluate(&q);
                        prop_assert_eq!(
                            got.reachable(),
                            want.reachable,
                            "final sweep {} diverged (watermark {})", q, w
                        );
                    }
                }
            }
        }
    }
}
