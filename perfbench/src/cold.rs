//! `graph_cold` and `grid_cold`: the paper's two indexes answering
//! paper-style `Reach` queries with a cold pager on every query.
//!
//! Both are closed loops with one client on one thread: the driving thread
//! calls `ReachIndex::answer` and issues the next query when it returns. A
//! run makes a fixed number of rounds (see [`measured_rounds`]); a round
//! builds the index afresh and answers one fixed query set on it. Every
//! round does identical work, so the counted IO of a round never varies;
//! only wall-clock time does, and each timing is a best over the rounds.

use crate::data::{self, Rwp, PAGE_SIZE, THRESHOLD};
use crate::device::{Probe, TimedDevice};
use crate::layers::Layers;
use crate::report::Outcome;
use crate::stats::{best_of, measured_rounds, median, percentile, ReferenceLoop};
use crate::trace::TraceLog;
use reach_contact::{DnGraph, MultiRes, Oracle};
use reach_core::{Query, ReachIndex, ReachRequest, Serial};
use reach_graph::ReachGraph;
use reach_grid::{GridParams, ReachGrid};
use reach_obs::{SpanEvent, Tracer};
use reach_storage::{BlockDevice, SimDevice};
use reach_traj::TrajectoryStore;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Which index a cold workload builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// ReachGraph over the DN and its long-edge bundles.
    Graph,
    /// ReachGrid over the trajectories.
    Grid,
}

impl Kind {
    /// Dataset shape of the workload.
    pub fn dataset(self) -> Rwp {
        match self {
            Kind::Graph => Rwp {
                objects: 1000,
                horizon: 2000,
            },
            Kind::Grid => Rwp {
                objects: 100,
                horizon: 2000,
            },
        }
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Graph => "graph_cold",
            Kind::Grid => "grid_cold",
        }
    }

    /// About how long one untraced round takes on a quiet two-core
    /// machine, in seconds (sets how many rounds a run measures).
    fn round_s(self) -> f64 {
        match self {
            Kind::Graph => 2.0,
            Kind::Grid => 1.7,
        }
    }

    /// Builds per round. A grid build takes about ten milliseconds, so it
    /// repeats more.
    pub fn builds_per_round(self) -> usize {
        match self {
            Kind::Graph => 1,
            Kind::Grid => 5,
        }
    }

    /// Size of the fixed query set one round answers.
    pub fn queries_per_round(self) -> usize {
        match self {
            Kind::Graph => 3000,
            Kind::Grid => 1000,
        }
    }

    fn grid_params(data: Rwp) -> GridParams {
        GridParams {
            temporal: 20,
            cell_size: (data.env_side() / 10.0).max(64.0),
            threshold: THRESHOLD,
            page_size: PAGE_SIZE,
            ..GridParams::default()
        }
    }
}

/// A built index, its size on the device, and the seconds each phase of
/// its set-up took (graph: DN, long-edge bundles, ReachGraph; grid: one).
struct Built {
    index: Box<dyn ReachIndex>,
    bytes: u64,
    phase_s: Vec<f64>,
}

/// Builds the workload's index from `store`, opening set-up spans on
/// `tracer` and routing device traffic through `probe` when traced.
fn build(
    kind: Kind,
    store: &TrajectoryStore,
    tracer: &Tracer,
    probe: Option<&Arc<Probe>>,
) -> Built {
    let mut device: Box<dyn BlockDevice> = Box::new(SimDevice::new(PAGE_SIZE));
    if let Some(probe) = probe {
        device = Box::new(TimedDevice::new(device, Arc::clone(probe)));
    }
    let _setup = tracer.span("bench/setup");
    let mut phase_s = Vec::new();
    match kind {
        Kind::Graph => {
            let params = data::graph_params();
            let dn = phase(tracer, "contact/dn_build", &mut phase_s, || {
                DnGraph::build(store, THRESHOLD)
            });
            let mr = phase(tracer, "contact/multires_build", &mut phase_s, || {
                MultiRes::build(&dn, &params.levels)
            });
            let graph = phase(tracer, "graph/build", &mut phase_s, || {
                ReachGraph::build_on(device, &dn, &mr, params).expect("ReachGraph builds")
            });
            Built {
                bytes: graph.size_bytes(),
                index: Box::new(Serial::new(graph)),
                phase_s,
            }
        }
        Kind::Grid => {
            let grid = phase(tracer, "grid/build", &mut phase_s, || {
                ReachGrid::build_on(device, store, Kind::grid_params(kind.dataset()))
                    .expect("ReachGrid builds")
            });
            Built {
                bytes: grid.size_bytes(),
                index: Box::new(Serial::new(grid)),
                phase_s,
            }
        }
    }
}

/// Runs one set-up phase inside a span named `name`, pushing the seconds it
/// took to `phase_s`.
fn phase<T>(
    tracer: &Tracer,
    name: &'static str,
    phase_s: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let _span = tracer.span(name);
    let started = Instant::now();
    let out = f();
    phase_s.push(started.elapsed().as_secs_f64());
    out
}

/// One pass over the query set.
struct Round {
    wall_s: f64,
    latency_us: Vec<f64>,
    /// Per query: `Some(reachable)` or `None` on error.
    verdicts: Vec<Option<bool>>,
    norm_io: f64,
    visited: u64,
    examined: u64,
    /// Spans of every query, when traced (absorbed after the round so the
    /// timed loop only records).
    traces: Vec<Vec<SpanEvent>>,
    /// Per query, when traced: time in `storage/read` spans, µs.
    device_us: Vec<f64>,
}

fn run_round(
    index: &dyn ReachIndex,
    queries: &[Query],
    traced: Option<(&Arc<Probe>, u64)>,
) -> Round {
    let mut round = Round {
        wall_s: 0.0,
        latency_us: Vec::with_capacity(queries.len()),
        verdicts: Vec::with_capacity(queries.len()),
        norm_io: 0.0,
        visited: 0,
        examined: 0,
        traces: Vec::new(),
        device_us: Vec::new(),
    };
    let started = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let request = ReachRequest::reach(q.source, q.interval, q.dest);
        let t0 = Instant::now();
        let answer = match traced {
            None => index.answer(&request),
            Some((probe, first_id)) => {
                let tracer = Tracer::enabled(first_id + i as u64);
                probe.attach(tracer.clone());
                let answer = {
                    let _span = tracer.span("bench/answer");
                    index.answer(&request.with_trace(tracer.clone()))
                };
                probe.attach(Tracer::off());
                let events = tracer.take_events();
                let device_ns: u64 = events
                    .iter()
                    .filter(|e| e.name == "storage/read")
                    .map(|e| e.ticks())
                    .sum();
                round.device_us.push(device_ns as f64 / 1e3);
                round.traces.push(events);
                answer
            }
        };
        round.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match answer {
            Ok(a) => {
                round.norm_io += a.stats.normalized_io();
                round.visited += a.stats.visited;
                round.examined += a.stats.examined;
                round.verdicts.push(Some(a.reachable()));
            }
            Err(_) => round.verdicts.push(None),
        }
    }
    round.wall_s = started.elapsed().as_secs_f64();
    round
}

/// Runs `graph_cold` or `grid_cold`, measuring the rounds
/// [`measured_rounds`] gives for `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Instant::now();
    let data = kind.dataset();
    let store = data.generate(data::derive(data::DATASET_SEED, 1));
    let contacts =
        reach_contact::extract_contacts(&store, store.horizon_interval(), THRESHOLD).len() as f64;
    let queries = data::queries(
        kind.queries_per_round(),
        data.objects,
        data.horizon,
        data::derive(seed, 2),
    );
    let expected = expected_verdicts(&Oracle::build(&store, THRESHOLD), &queries);

    let mut out = Outcome::default();
    out.notes.push(format!(
        "dataset: RWP {} objects x {} ticks, {} contacts, {} queries per round, \
         page {} B, closed loop, 1 client, 1 thread",
        data.objects,
        data.horizon,
        contacts,
        queries.len(),
        PAGE_SIZE
    ));
    out.notes.push(format!(
        "inputs and oracle verdicts made in {:.2} s (untimed)",
        inputs.elapsed().as_secs_f64()
    ));
    let reference = ReferenceLoop::new();
    let reference_start = reference.time();

    // Every round builds the index afresh (set-up samples spread over the
    // whole run) and then answers the query set on it. A traced run
    // alternates untraced and traced rounds so the tracing overhead is
    // measured within one process; it makes half as many of each.
    let wanted = measured_rounds(if traced { seconds / 2.0 } else { seconds }, kind.round_s());
    let probe = traced.then(|| Arc::new(Probe::default()));
    let mut log = TraceLog::default();
    let mut pages_written = Vec::new();
    // Per untraced set-up of a measured round: seconds of each phase.
    let mut setup_phases: Vec<Vec<f64>> = Vec::new();
    let mut plain: Vec<Round> = Vec::new();
    let mut with_trace: Vec<Round> = Vec::new();
    let mut bytes = 0;
    let mut query_spans = 0u64;
    let mut next_trace_id = 1;
    let measured = Instant::now();
    loop {
        let done = if traced {
            with_trace.len()
        } else {
            plain.len()
        };
        if done >= wanted && measured.elapsed().as_secs_f64() >= seconds {
            break;
        }
        for probe in std::iter::once(None).chain(probe.as_ref().map(Some)) {
            let mut built = None;
            for _ in 0..kind.builds_per_round() {
                drop(built.take()); // free the previous index before the next build
                let tracer = match probe {
                    Some(_) => Tracer::enabled(next_trace_id),
                    None => Tracer::off(),
                };
                next_trace_id += 1;
                let written = probe.map_or(0, |p| p.pages_written.load(Ordering::Relaxed));
                let t0 = Instant::now();
                let b = build(kind, &store, &tracer, probe);
                out.setup_s.push(t0.elapsed().as_secs_f64());
                match probe {
                    None if plain.len() < wanted => setup_phases.push(b.phase_s.clone()),
                    None => {}
                    Some(p) => {
                        let now = p.pages_written.load(Ordering::Relaxed);
                        pages_written.push((now - written) as f64);
                        log.absorb(tracer.take_events());
                    }
                }
                built = Some(b);
            }
            let built = built.expect("at least one build per round");
            bytes = built.bytes;
            let mut r = run_round(
                built.index.as_ref(),
                &queries,
                probe.map(|p| (p, next_trace_id)),
            );
            match probe {
                None => plain.push(r),
                Some(_) => {
                    next_trace_id += queries.len() as u64;
                    for t in std::mem::take(&mut r.traces) {
                        query_spans += t.len() as u64;
                        log.absorb(t);
                    }
                    with_trace.push(r);
                }
            }
        }
    }
    for r in plain.iter().chain(&with_trace) {
        tally(r, &expected, &mut out);
    }
    out.reference_s = (reference_start, reference.time());

    let n = queries.len() as f64;
    for r in &plain {
        out.rounds.push(vec![
            ("queries_per_s", n / r.wall_s),
            ("query_p50_us", percentile(&r.latency_us, 50.0)),
            ("query_p99_us", percentile(&r.latency_us, 99.0)),
        ]);
    }
    out.notes.push(format!(
        "{} rounds of {} queries, the first {wanted} measured; {} set-up repetitions; \
         median round {} queries/s",
        plain.len(),
        queries.len(),
        out.setup_s.len(),
        median(&plain.iter().map(|r| n / r.wall_s).collect::<Vec<_>>())
    ));
    // Rounds past the fixed count only filled the requested seconds.
    plain.truncate(wanted);
    with_trace.truncate(wanted);

    // Each query's best latency over the rounds: interference from other
    // tenants of the machine only ever slows a query down, so the best of
    // many repetitions is the steadiest estimate of what the code costs.
    let best = best_of(plain.iter().map(|r| r.latency_us.as_slice()));
    let best_qps = |rs: &[Round]| {
        n / best_of(rs.iter().map(|r| r.latency_us.as_slice()))
            .iter()
            .sum::<f64>()
            * 1e6
    };
    let first = &plain[0];
    if !traced {
        // Likewise each set-up phase's best time, summed.
        let setup_s: f64 = best_of(setup_phases.iter().map(Vec::as_slice)).iter().sum();
        out.metric("setup_s", setup_s, "s");
        out.metric("queries_per_s", best_qps(&plain), "1/s");
        out.metric("query_p50_us", percentile(&best, 50.0), "us");
        out.metric("query_p99_us", percentile(&best, 99.0), "us");
        out.metric("norm_io_per_query", first.norm_io / n, "pages");
        out.metric("index_bytes_per_contact", bytes as f64 / contacts, "B");
        out.metric("ingest_contacts_per_s", contacts / setup_s, "1/s");
        out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        out.metric("verified_frac", out.verified_frac(), "ratio");
        return out;
    }

    // Per-layer numbers from the traced rounds, read (like the end-to-end
    // numbers) at each query's best traced round: its device time there,
    // and the rest of its answer time as the index's self time.
    let traced_queries = (with_trace.len() * queries.len()) as f64;
    let read = log.totals("storage/read");
    let (mut answer_us, mut device_us) = (0.0, 0.0);
    for q in 0..queries.len() {
        let best = with_trace
            .iter()
            .min_by(|a, b| a.latency_us[q].total_cmp(&b.latency_us[q]))
            .expect("at least one traced round");
        answer_us += best.latency_us[q] / n;
        device_us += best.device_us[q] / n;
    }
    let self_us = answer_us - device_us;
    let overhead = 1.0 - best_qps(&with_trace) / best_qps(&plain);
    out.notes.push(format!(
        "closure: traced answer {answer_us:.1} us = index self {self_us:.1} us + device \
         {device_us:.1} us; untraced {:.1} us = traced x (1 - overhead {overhead:.4})",
        best.iter().sum::<f64>() / n
    ));
    let setup_ms = |name: &str| {
        let t = log.totals(name);
        t.total_ns as f64 / 1e6 / t.count.max(1) as f64
    };
    let mut layers = Layers::default();
    match kind {
        Kind::Graph => {
            layers.set("contact.dn_build_ms", setup_ms("contact/dn_build"));
            layers.set(
                "contact.multires_build_ms",
                setup_ms("contact/multires_build"),
            );
            layers.set("graph.build_ms", setup_ms("graph/build"));
            layers.set("graph.build_pages_written", median(&pages_written));
            layers.set("graph.query_self_us", self_us);
            layers.set("graph.visited_per_query", first.visited as f64 / n);
        }
        Kind::Grid => {
            layers.set("grid.build_ms", setup_ms("grid/build"));
            layers.set("grid.query_self_us", self_us);
            layers.set("grid.visited_per_query", first.visited as f64 / n);
            layers.set("grid.examined_per_query", first.examined as f64 / n);
        }
    }
    layers.set(
        "storage.device_reads_per_query",
        read.count as f64 / traced_queries,
    );
    layers.set("storage.device_us_per_query", device_us);
    layers.set("storage.device_share", device_us / answer_us);
    layers.set("obs.trace_overhead_frac", overhead);
    layers.set("obs.spans_per_query", query_spans as f64 / traced_queries);
    layers.emit(&mut out);
    log.report(kind.name(), seed, &mut out);
    out
}

/// The oracle's verdict for every query, computed on both cores (untimed;
/// the brute-force simulation costs milliseconds per query).
fn expected_verdicts(oracle: &Oracle, queries: &[Query]) -> Vec<bool> {
    let (a, b) = queries.split_at(queries.len() / 2);
    let verdicts =
        |qs: &[Query]| -> Vec<bool> { qs.iter().map(|q| oracle.evaluate(q).reachable).collect() };
    std::thread::scope(|s| {
        let second = s.spawn(|| verdicts(b));
        let mut all = verdicts(a);
        all.extend(second.join().expect("oracle thread panicked"));
        all
    })
}

/// Counts a round's answers into `out`: attempted, failed, verified.
fn tally(r: &Round, expected: &[bool], out: &mut Outcome) {
    for (got, want) in r.verdicts.iter().zip(expected) {
        out.attempted += 1;
        match got {
            None => out.failed += 1,
            Some(v) if v == want => out.verified += 1,
            Some(_) => {}
        }
    }
}
