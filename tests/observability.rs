//! Tier-1 suite for the observability layer (ISSUE 10 acceptance
//! criteria):
//!
//! 1. **Disabled means invisible** — with tracing off (or no tracer at
//!    all) every counted-IO figure is byte-identical to the traced run:
//!    observability may never move a perf-gate counter;
//! 2. **Span accounting closes** — with tracing on, the per-trace span IO
//!    sums equal the query's own [`IoStats`]-derived counters, for
//!    cross-shard reach queries, batched reach cohorts, and weighted decay
//!    queries, on sim and file backends;
//! 3. **Registry under concurrency** — a 4-worker serve pool feeding one
//!    [`Registry`] yields a consistent snapshot: histogram counts match
//!    the served totals and both output formats agree;
//! 4. **Flight recorder wraparound** — overfilling the ring keeps exactly
//!    the newest events in sequence order.

mod common;

use common::{cleanup, graph_params, manual, sharded_on, stream, BACKENDS, PAGE};
use std::path::PathBuf;
use std::sync::Arc;
use streach::prelude::*;

const HORIZON: Time = 48;

/// A sharded index over three sealed epochs plus a live delta tail, so
/// queries cross shard boundaries *and* the sealed/delta frontier.
fn sharded_fixture(backend: &str, n: u32) -> (ShardedLive, Option<PathBuf>) {
    let contacts = stream(0x0B5E, n, HORIZON, 160, 1);
    let (live, dir) = sharded_on(backend, manual(), n as usize);
    let chunk = contacts.len() / 4;
    for (i, &c) in contacts.iter().enumerate() {
        live.append(c).expect("lossy appends never error");
        if i + 1 == chunk || i + 1 == 2 * chunk || i + 1 == 3 * chunk {
            live.seal_now().expect("epoch seal");
        }
    }
    (live, dir)
}

/// The deterministic mixed workload: cross-shard reach requests plus
/// decay requests whose windows span every epoch cut.
fn workload(n: u32, now: Time) -> Vec<ReachRequest> {
    let model = DecayModel::per_transfer(0.7);
    let hi = now.saturating_sub(1).max(1);
    let mut out = Vec::new();
    for i in 0..24u32 {
        let s = ObjectId(i % n);
        let d = ObjectId((i * 5 + 2) % n);
        let lo = (i % 6) * (hi / 8);
        out.push(ReachRequest::reach(s, TimeInterval::new(lo, hi), d));
        if i % 3 == 0 {
            out.push(ReachRequest::decay(
                s,
                TimeInterval::new(lo / 2, hi),
                d,
                0.05,
                model,
            ));
        }
    }
    out
}

/// Criterion 1: counted IO is byte-identical with no tracer, with a
/// disabled bundle's tracer, and with tracing fully enabled.
#[test]
fn disabled_tracing_never_moves_a_counter() {
    for backend in BACKENDS {
        let (live, dir) = sharded_fixture(backend, 12);
        let requests = workload(12, live.now());

        let run = |mk: &dyn Fn() -> Tracer| -> Vec<(u64, u64, u64)> {
            requests
                .iter()
                .map(|r| {
                    let a = live
                        .answer(&r.clone().with_trace(mk()))
                        .expect("query answers");
                    (a.stats.random_ios, a.stats.seq_ios, a.stats.visited)
                })
                .collect()
        };

        let bare = run(&|| Tracer::off());
        let off_bundle = Obs::untraced();
        let disabled = run(&|| off_bundle.tracer());
        let on_bundle = Obs::new(ObsConfig::default());
        let enabled = run(&|| on_bundle.tracer());

        assert_eq!(
            bare, disabled,
            "{backend}: a disabled bundle's tracer changed counted IO"
        );
        assert_eq!(
            bare, enabled,
            "{backend}: enabled tracing changed counted IO"
        );
        assert!(
            on_bundle.recorder().expect("default records").recorded() > 0,
            "{backend}: the enabled run never recorded a span"
        );
        cleanup(live, dir);
    }
}

/// Criterion 2: per-trace span IO sums equal the answer's own counters
/// for cross-shard reach and decay queries, on every backend.
#[test]
fn span_io_sums_to_the_query_counters() {
    for backend in BACKENDS {
        let (live, dir) = sharded_fixture(backend, 12);
        let obs = Obs::new(ObsConfig::default());
        let mut multi_leg = 0u32;
        for r in workload(12, live.now()) {
            let tracer = obs.tracer();
            let a = live
                .answer(&r.clone().with_trace(tracer.clone()))
                .expect("query answers");
            let events = tracer.take_events();
            let (mut random, mut seq, mut visited) = (0u64, 0u64, 0u64);
            for ev in &events {
                random += ev.io.random_reads;
                seq += ev.io.seq_reads;
                visited += ev.visited;
            }
            assert_eq!(
                (random, seq, visited),
                (a.stats.random_ios, a.stats.seq_ios, a.stats.visited),
                "{backend}: span totals diverge from the answer for {}",
                r.trace_label()
            );
            let legs = events
                .iter()
                .filter(|ev| ev.name.starts_with("shard/"))
                .count();
            if legs > 1 {
                multi_leg += 1;
            }
        }
        assert!(
            multi_leg > 0,
            "{backend}: the workload never crossed a shard boundary — fixture too weak"
        );
        cleanup(live, dir);
    }
}

/// Criterion 2 (batched cohorts): a traced `Reach` cohort answered through
/// `answer_batch` records one `shard/leg` span per sealed leg of its
/// shared walk, and those spans sum to the cohort's answer IO.
#[test]
fn batched_cohort_leg_spans_sum_to_the_cohort_io() {
    for backend in BACKENDS {
        let (live, dir) = sharded_fixture(backend, 12);
        let obs = Obs::new(ObsConfig::default());
        let dests: Vec<ObjectId> = (0..12).map(ObjectId).collect();
        let hi = live.now() - 1;
        let mut multi_leg = 0u32;
        for s in 0..12u32 {
            let window = TimeInterval::new((s % 4) * (hi / 8), hi);
            let tracer = obs.tracer();
            let template =
                ReachRequest::reach(ObjectId(s), window, ObjectId(s)).with_trace(tracer.clone());
            let answers = live
                .answer_batch(&template, &dests)
                .expect("cohort answers");
            let events = tracer.take_events();
            let legs: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "shard/leg").collect();
            let spans = legs.iter().fold((0, 0, 0), |(r, q, v), e| {
                (r + e.io.random_reads, q + e.io.seq_reads, v + e.visited)
            });
            let answered = answers.iter().fold((0, 0, 0), |(r, q, v), a| {
                (
                    r + a.stats.random_ios,
                    q + a.stats.seq_ios,
                    v + a.stats.visited,
                )
            });
            assert_eq!(
                spans, answered,
                "{backend}: leg spans diverge from the cohort of o{s} over {window}"
            );
            if legs.len() > 1 {
                multi_leg += 1;
            }
        }
        assert!(
            multi_leg > 0,
            "{backend}: no cohort crossed a shard boundary — fixture too weak"
        );
        cleanup(live, dir);
    }
}

/// Criterion 2 (single-leg dispatch): the same identity holds through
/// `Serial`'s dispatch span for decay queries on a batch-built graph.
#[test]
fn serial_dispatch_span_carries_the_whole_query() {
    let contacts = stream(0x5E1A, 10, HORIZON, 120, 1);
    let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); HORIZON as usize];
    for c in &contacts {
        for t in c.interval.ticks() {
            per_tick[t as usize].push((c.a.0, c.b.0));
        }
    }
    let dn = DnGraph::build_from_ticks(10, HORIZON, |t| per_tick[t as usize].as_slice());
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let device = StorageConfig::sim(PAGE).create().expect("sim device");
    let graph = ReachGraph::build_on(device, &dn, &mr, graph_params()).expect("graph builds");
    let serial = Serial::new(graph);
    let obs = Obs::new(ObsConfig::default());
    for r in workload(10, HORIZON) {
        let tracer = obs.tracer();
        let a = serial
            .answer(&r.clone().with_trace(tracer.clone()))
            .expect("query answers");
        let events = tracer.take_events();
        assert_eq!(events.len(), 1, "Serial traces exactly one dispatch span");
        assert_eq!(
            (events[0].io.random_reads, events[0].io.seq_reads),
            (a.stats.random_ios, a.stats.seq_ios),
            "dispatch span diverges for {}",
            r.trace_label()
        );
    }
}

/// Criterion 3: one registry fed by a 4-worker pool stays consistent —
/// histogram counts equal the served total, and the exposition and JSON
/// snapshot agree with `ServeMetrics`.
#[test]
fn registry_snapshot_is_consistent_under_a_worker_pool() {
    let (live, dir) = sharded_fixture("sim", 12);
    let obs = Arc::new(Obs::new(ObsConfig::default()));
    let index: Arc<dyn ReachIndex> = Arc::new(live);
    let server = Server::start_observed(
        Arc::clone(&index),
        ServeConfig {
            workers: 4,
            queue_capacity: 128,
            max_batch: 1,
        },
        Arc::clone(&obs),
    )
    .expect("server starts");

    let requests = workload(12, 40);
    let total = 4 * requests.len();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (server, requests) = (&server, &requests);
            scope.spawn(move || {
                for r in requests {
                    server
                        .submit(r.clone())
                        .expect("submit accepted")
                        .wait()
                        .expect("query answers");
                }
            });
        }
    });

    let metrics = server.metrics();
    assert_eq!(metrics.completed, total as u64);
    server.publish_metrics(obs.registry());
    drop(server);

    let registry = obs.registry();
    for name in [
        "serve_normalized_io_x20",
        "serve_queue_wait_us",
        "serve_service_time_us",
    ] {
        assert_eq!(
            registry.histogram(name).count(),
            total as u64,
            "histogram {name} missed a served query"
        );
    }
    let text = registry.expose_text();
    assert!(text.contains(&format!("serve_completed {total}")));
    assert!(text.contains(&format!("serve_normalized_io_x20_count {total}")));
    let json = registry.snapshot_json();
    assert!(json.contains(&format!("\"serve_completed\": {total}")));
    assert!(json.contains(&format!("\"count\": {total}")));

    drop(index);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Criterion 4: overfilling the flight recorder keeps exactly the newest
/// `capacity()` events, in sequence order, with the lifetime count intact.
#[test]
fn flight_recorder_wraparound_keeps_the_newest_events() {
    let recorder = Arc::new(FlightRecorder::with_capacity(64));
    let tracer = Tracer::recorded(7, Arc::clone(&recorder));
    let total = 10 * recorder.capacity();
    for i in 0..total {
        let mut span = tracer.span("wrap");
        span.label_with(|| format!("event {i}"));
        span.finish();
    }
    assert_eq!(recorder.recorded(), total as u64);
    let dump = recorder.dump();
    assert_eq!(dump.len(), recorder.capacity());
    let labels: Vec<usize> = dump
        .iter()
        .map(|ev| {
            ev.label
                .strip_prefix("event ")
                .expect("wrap label")
                .parse()
                .expect("label index")
        })
        .collect();
    let newest: Vec<usize> = (total - recorder.capacity()..total).collect();
    assert_eq!(
        labels, newest,
        "the dump must be exactly the newest events in order"
    );
    assert!(recorder.bytes_recorded() > 0);
}
