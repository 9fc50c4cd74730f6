//! `live_serve`: appends and served same-source bursts on one
//! epoch-sharded live index.
//!
//! The stream is the dataset's maximal contacts as a live feed reports
//! them: cut into one record per 16-tick period, in start order (see
//! [`data::reported_stream`]). A round starts a fresh `ShardedLive`
//! (ReachGraph shard bases, a bounded build budget so seals spill, lateness
//! 16, a per-shard page cache large enough for the working set) and appends
//! the first half of the stream: that is the set-up. The measured phase
//! alternates an append block with a burst of 8 same-source `Reach` queries
//! submitted through a `reach_serve::Server` with one worker; the driving
//! thread is the only client and waits for every ticket before the next
//! block (closed loop). Seals run inline inside `ShardedLive::append` once
//! the delta exceeds its budget, so they land at the same stream positions
//! on every round; no compaction thread exists, and at most the driving
//! thread and the worker are busy.
//!
//! Every burst window ends before the start of the next record still to be
//! appended, so no later append can change an answer: each verdict is final
//! and checked against an oracle over the generated maximal contacts. The
//! index must take the stream whole — no record dropped or clamped as late,
//! which the reporting period rules out — or the run fails.

use crate::data::{self, Draw, Rwp, PAGE_SIZE};
use crate::layers::Layers;
use crate::report::Outcome;
use crate::stats::{best_of, mean, measured_rounds, median, percentile, ReferenceLoop};
use crate::trace::TraceLog;
use reach_contact::Oracle;
use reach_core::{Contact, ObjectId, ReachIndex, ReachRequest, Time, TimeInterval};
use reach_live::{DeltaDn, LiveConfig, ShardedLive};
use reach_obs::{SpanEvent, Tracer};
use reach_serve::{ServeConfig, Server, SubmitError};
use reach_storage::{BuildBudget, StorageConfig};
use std::sync::Arc;
use std::time::Instant;

/// Dataset shape of the contact stream.
pub const DATASET: Rwp = Rwp {
    objects: 600,
    horizon: 2000,
};

/// Same-source queries per burst.
pub const BURST: usize = 8;

/// Bursts per round (each after one append block).
pub const BURSTS: usize = 1000;

/// Sealed epochs the whole stream is cut into, on average.
const EPOCHS: usize = 24;

/// Resident-byte bound of a seal's streaming build (small, so seals spill).
const BUILD_BUDGET: usize = 96 << 10;

/// Lateness slack in ticks: one reporting period of the stream.
const LATENESS: Time = data::REPORT_PERIOD;

/// Page-cache capacity per sealed shard, in pages (more than a shard
/// holds, so the cache keeps the whole working set).
const CACHE_PAGES: usize = 1 << 14;

/// Blocks the set-up appends are timed in (each block's best time over the
/// rounds counts).
const SETUP_BLOCKS: usize = 100;

/// About how long one untraced round takes on a quiet two-core machine, in
/// seconds (sets how many rounds a run measures).
const ROUND_S: f64 = 2.2;

/// One burst: appended after `block_end` stream records.
#[derive(Clone, Debug)]
struct Burst {
    block_end: usize,
    source: ObjectId,
    window: TimeInterval,
    dests: Vec<ObjectId>,
}

fn config(epoch_records: usize) -> LiveConfig {
    LiveConfig::graph(data::graph_params(), BuildBudget::bytes(BUILD_BUDGET))
        .with_delta_budget(epoch_records * DeltaDn::MAX_RECORD_RESIDENT_BYTES)
        .with_lateness(LATENESS)
}

/// The set-up length (half the stream) and the measured phase: block
/// boundaries and burst shapes. The stream ends with the last block.
fn plan(stream: &[Contact], seed: u64) -> (usize, Vec<Burst>) {
    let half = stream.len() / 2;
    let block = (stream.len() - half) / BURSTS;
    let mut draw = Draw::new(seed);
    let mut now: Time = 0;
    let mut appended = 0;
    let mut bursts = Vec::with_capacity(BURSTS);
    for k in 0..BURSTS {
        let block_end = half + (k + 1) * block;
        for c in &stream[appended..block_end] {
            now = now.max(c.interval.end + 1);
        }
        appended = block_end;
        // Final window: no record still to come starts at or before `end`.
        let next_start = stream.get(block_end).map_or(now, |c| c.interval.start);
        let end = next_start.min(now).saturating_sub(1);
        let source = draw.object(DATASET.objects);
        let mut dests = Vec::with_capacity(BURST);
        while dests.len() < BURST {
            let d = draw.object(DATASET.objects);
            if d != source && !dests.contains(&d) {
                dests.push(d);
            }
        }
        bursts.push(Burst {
            block_end,
            source,
            window: draw.window_ending(end),
            dests,
        });
    }
    (half, bursts)
}

/// What one round measured.
#[derive(Default)]
struct Round {
    /// Seconds each block of the set-up appends took.
    setup_block_s: Vec<f64>,
    seals: u64,
    seal_s: Vec<f64>,
    measured_appends: u64,
    /// Seconds each append block took.
    block_s: Vec<f64>,
    append_us: Vec<f64>,
    /// Seconds each burst took, submit of the first query to the last
    /// answer.
    burst_s: Vec<f64>,
    latency_us: Vec<f64>,
    /// Per burst: per destination `Some(reachable)`, or `None` on an error
    /// or refusal.
    verdicts: Vec<Vec<Option<bool>>>,
    norm_io: f64,
    legs: Vec<usize>,
    cache_hit_rate: f64,
    cache_evictions: u64,
    spill_pages: u64,
    spill_writes: u64,
    /// Records the index took, clamped, and dropped as late.
    appended: u64,
    clamped: u64,
    dropped_late: u64,
    serve: reach_serve::ServeMetrics,
    /// Spans of every served query, when traced.
    query_traces: Vec<Vec<SpanEvent>>,
    /// Spans of the per-burst probes and of the append stream, when traced.
    other_traces: Vec<Vec<SpanEvent>>,
}

fn append(live: &ShardedLive, c: Contact, tracer: &Tracer, round: &mut Round) -> f64 {
    let t0 = Instant::now();
    let outcome = {
        let _span = tracer.span("live/append");
        live.append(c)
            .expect("generated contacts are valid appends")
    };
    let s = t0.elapsed().as_secs_f64();
    if let Some(e) = outcome.compaction_error {
        panic!("inline seal failed: {e:?}");
    }
    if outcome.compacted {
        round.seals += 1;
        round.seal_s.push(s);
    }
    s
}

fn run_round(
    stream: &[Contact],
    half: usize,
    bursts: &[Burst],
    epoch_records: usize,
    traced: Option<u64>,
) -> Round {
    let mut round = Round::default();
    let live = Arc::new(
        config(epoch_records)
            .with_shared_cache(CACHE_PAGES)
            .builder()
            .build_sharded(DATASET.objects)
            .expect("sharded live index creates"),
    );
    let ingest = match traced {
        Some(id) => Tracer::enabled(id),
        None => Tracer::off(),
    };
    for block in stream[..half].chunks(half.div_ceil(SETUP_BLOCKS)) {
        let t0 = Instant::now();
        for &c in block {
            append(&live, c, &ingest, &mut round);
        }
        round.setup_block_s.push(t0.elapsed().as_secs_f64());
    }

    let server = Server::start(
        Arc::clone(&live) as Arc<dyn ReachIndex>,
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: BURST,
        },
    )
    .expect("server starts");
    let mut appended = half;
    for (k, b) in bursts.iter().enumerate() {
        let mut block_s = 0.0;
        for &c in &stream[appended..b.block_end] {
            let s = append(&live, c, &ingest, &mut round);
            block_s += s;
            round.append_us.push(s * 1e6);
        }
        round.block_s.push(block_s);
        round.measured_appends += (b.block_end - appended) as u64;
        appended = b.block_end;

        let tracers: Vec<Tracer> = (0..b.dests.len())
            .map(|i| match traced {
                Some(id) => Tracer::enabled(id + 1 + (k * BURST + i) as u64),
                None => Tracer::off(),
            })
            .collect();
        let burst_start = Instant::now();
        let mut pending = Vec::with_capacity(b.dests.len());
        for (&dest, tracer) in b.dests.iter().zip(&tracers) {
            let span = tracer.span("bench/query");
            let request = ReachRequest::reach(b.source, b.window, dest).with_trace(tracer.clone());
            pending.push((Instant::now(), server.submit(request), span));
        }
        let mut verdicts = Vec::with_capacity(pending.len());
        for (submitted, ticket, span) in pending {
            let answer = ticket
                .map_err(|e: SubmitError| e.to_string())
                .and_then(|t| t.wait().map_err(|e| e.to_string()));
            round
                .latency_us
                .push(submitted.elapsed().as_secs_f64() * 1e6);
            drop(span);
            verdicts.push(answer.ok().map(|a| {
                round.norm_io += a.stats.normalized_io();
                a.reachable()
            }));
        }
        round.burst_s.push(burst_start.elapsed().as_secs_f64());
        round.verdicts.push(verdicts);

        // Untimed: the walk's legs, and (traced) one point-query probe whose
        // `shard/leg` spans time the cross-shard relay.
        round.legs.push(legs_of(&live, b.window));
        if let Some(id) = traced {
            for t in &tracers {
                round.query_traces.push(t.take_events());
            }
            let probe = Tracer::enabled(id + 1_000_000 + k as u64);
            {
                let _span = probe.span("bench/probe");
                let request =
                    ReachRequest::reach(b.source, b.window, b.dests[0]).with_trace(probe.clone());
                live.answer(&request).expect("probe query answers");
            }
            round.other_traces.push(probe.take_events());
        }
    }
    round.serve = server.metrics();
    drop(server);
    if let Some(cache) = live.cache_stats() {
        round.cache_hit_rate = cache.hit_rate();
        round.cache_evictions = cache.evictions;
    }
    let stats = live.stats();
    round.spill_pages =
        stats.compaction_spill_io.total_reads() + stats.compaction_spill_io.total_writes();
    round.spill_writes = stats.compaction_spill_io.total_writes();
    (round.appended, round.clamped, round.dropped_late) =
        (stats.appended, stats.clamped, stats.dropped_late);
    if traced.is_some() {
        round.other_traces.push(ingest.take_events());
    }
    round
}

/// Legs the cross-shard walk of `window` takes: every sealed epoch it
/// overlaps, plus the delta when it reaches past the watermark.
fn legs_of(live: &ShardedLive, window: TimeInterval) -> usize {
    let sealed = live
        .shard_spans()
        .iter()
        .filter(|&&(lo, hi)| lo <= window.end && window.start < hi)
        .count();
    sealed + usize::from(window.end >= live.watermark())
}

/// Device bytes of the same index built on real files: the shard bases and
/// the append log after the whole stream. Seals are inline and
/// deterministic, so the file-backed twin seals exactly where the measured
/// simulator index did; untimed.
fn device_bytes(stream: &[Contact], epoch_records: usize) -> (u64, u64) {
    let dir = crate::run_dir().join(format!("live-twin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let live = config(epoch_records)
            .builder()
            .backend(StorageConfig::file(&dir, PAGE_SIZE))
            .build_sharded(DATASET.objects)
            .expect("file-backed twin creates");
        for &c in stream {
            live.append(c)
                .expect("generated contacts are valid appends");
        }
    }
    let (mut total, mut bases) = (0, 0);
    for entry in std::fs::read_dir(&dir)
        .expect("twin directory lists")
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().map_or(0, |m| m.len());
        // The epoch directory exists only on durable backends.
        if name.starts_with("shard-dir") {
            continue;
        }
        total += len;
        if name.starts_with("shard-base-") {
            bases += len;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (total, bases)
}

/// Runs `live_serve`, measuring the rounds [`measured_rounds`] gives for
/// `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let store = DATASET.generate(data::derive(data::DATASET_SEED, 1));
    let contacts =
        reach_contact::extract_contacts(&store, store.horizon_interval(), data::THRESHOLD);
    drop(store);
    let mut stream = data::reported_stream(&contacts, data::REPORT_PERIOD);
    let epoch_records = (stream.len() / EPOCHS).max(1);
    let (half, bursts) = plan(&stream, data::derive(seed, 3));
    stream.truncate(bursts.last().expect("at least one burst").block_end);

    let mut out = Outcome::default();
    out.notes.push(format!(
        "dataset: RWP {} objects x {} ticks, {} contacts reported as {} records ({} in \
         set-up), {} bursts of {} queries, epoch {} records, closed loop, 1 client, \
         1 serve worker, 2 threads",
        DATASET.objects,
        DATASET.horizon,
        contacts.len(),
        stream.len(),
        half,
        BURSTS,
        BURST,
        epoch_records
    ));
    let reference = ReferenceLoop::new();
    let reference_start = reference.time();

    // A traced run alternates untraced and traced rounds, half as many of
    // each.
    let wanted = measured_rounds(if traced { seconds / 2.0 } else { seconds }, ROUND_S);
    let mut plain: Vec<Round> = Vec::new();
    let mut with_trace: Vec<Round> = Vec::new();
    let measured = Instant::now();
    let mut next_id = 1u64;
    loop {
        let done = if traced {
            with_trace.len()
        } else {
            plain.len()
        };
        if done >= wanted && measured.elapsed().as_secs_f64() >= seconds {
            break;
        }
        plain.push(run_round(&stream, half, &bursts, epoch_records, None));
        if traced {
            with_trace.push(run_round(
                &stream,
                half,
                &bursts,
                epoch_records,
                Some(next_id),
            ));
            next_id += 10_000_000;
        }
    }

    // Verification (untimed): the index took every record as generated, and
    // each answer equals the oracle's over the maximal contacts.
    let checked = Instant::now();
    for r in plain.iter().chain(&with_trace) {
        if (r.appended, r.clamped, r.dropped_late) != (stream.len() as u64, 0, 0) {
            out.problems.push(format!(
                "the index took {} of {} records, clamped {}, dropped {} as late",
                r.appended,
                stream.len(),
                r.clamped,
                r.dropped_late
            ));
        }
    }
    let oracle = Oracle::from_events(
        DATASET.objects,
        data::events_by_tick(&contacts, DATASET.horizon),
    );
    let expected: Vec<Vec<bool>> = bursts
        .iter()
        .map(|b| {
            let reach = oracle.reachable_set(b.source, b.window);
            b.dests.iter().map(|d| reach.contains(d)).collect()
        })
        .collect();
    for r in plain.iter().chain(&with_trace) {
        for (got, want) in r.verdicts.iter().zip(&expected) {
            for (g, w) in got.iter().zip(want) {
                out.attempted += 1;
                match g {
                    None => out.failed += 1,
                    Some(v) if v == w => out.verified += 1,
                    Some(_) => {}
                }
            }
        }
    }
    out.notes.push(format!(
        "every round: {} records appended, {} clamped, {} dropped as late; \
         oracle check took {:.2} s (untimed)",
        plain[0].appended,
        plain[0].clamped,
        plain[0].dropped_late,
        checked.elapsed().as_secs_f64()
    ));

    let queries = (BURSTS * BURST) as f64;
    for r in &plain {
        out.setup_s.push(r.setup_block_s.iter().sum());
        out.rounds.push(vec![
            ("queries_per_s", queries / r.burst_s.iter().sum::<f64>()),
            (
                "ingest_contacts_per_s",
                r.measured_appends as f64 / r.block_s.iter().sum::<f64>(),
            ),
            ("query_p50_us", percentile(&r.latency_us, 50.0)),
            ("query_p99_us", percentile(&r.latency_us, 99.0)),
            ("norm_io_per_query", r.norm_io / queries),
            ("seals", r.seals as f64),
        ]);
    }
    out.reference_s = (reference_start, reference.time());
    out.notes.push(format!(
        "{} rounds, the first {wanted} measured, {} appends per round; median round {} \
         queries/s",
        plain.len(),
        stream.len(),
        median(&map(&plain, |r| queries / r.burst_s.iter().sum::<f64>()))
    ));
    // Rounds past the fixed count only filled the requested seconds.
    plain.truncate(wanted);
    with_trace.truncate(wanted);

    // Best over rounds of each set-up block, burst, append block and query:
    // every round replays the same appends and bursts, and interference
    // from other tenants of the machine only ever slows them down.
    let best_sum =
        |rs: &[Round], f: fn(&Round) -> &[f64]| -> f64 { best_of(rs.iter().map(f)).iter().sum() };
    let qps = |rs: &[Round]| queries / best_sum(rs, |r| &r.burst_s);
    let best_latency = best_of(plain.iter().map(|r| r.latency_us.as_slice()));

    if !traced {
        let (bytes, _) = device_bytes(&stream, epoch_records);
        let io: Vec<f64> = plain.iter().map(|r| r.norm_io / queries).collect();
        out.notes.push(format!(
            "norm_io_per_query spread over rounds: min {} max {}",
            io.iter().copied().fold(f64::INFINITY, f64::min),
            io.iter().copied().fold(0.0, f64::max)
        ));
        out.metric("setup_s", best_sum(&plain, |r| &r.setup_block_s), "s");
        out.metric("queries_per_s", qps(&plain), "1/s");
        out.metric("query_p50_us", percentile(&best_latency, 50.0), "us");
        out.metric("query_p99_us", percentile(&best_latency, 99.0), "us");
        out.metric("norm_io_per_query", median(&io), "pages");
        out.metric(
            "index_bytes_per_contact",
            bytes as f64 / stream.len() as f64,
            "B",
        );
        out.metric(
            "ingest_contacts_per_s",
            plain[0].measured_appends as f64 / best_sum(&plain, |r| &r.block_s),
            "1/s",
        );
        out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        out.metric("verified_frac", out.verified_frac(), "ratio");
        return out;
    }

    let mut log = TraceLog::default();
    let mut query_spans = 0u64;
    for r in &mut with_trace {
        for t in std::mem::take(&mut r.query_traces) {
            query_spans += t.len() as u64;
            log.absorb(t);
        }
        for t in std::mem::take(&mut r.other_traces) {
            log.absorb(t);
        }
    }
    let traced_queries = queries * with_trace.len() as f64;
    let (_, base_bytes) = device_bytes(&stream, epoch_records);
    // Counters from an untraced round: the traced rounds' probes go through
    // the same shard caches.
    let first = &plain[0];
    let append_us: Vec<f64> = with_trace
        .iter()
        .flat_map(|r| r.append_us.iter().copied())
        .collect();
    let seal_s: Vec<f64> = with_trace
        .iter()
        .flat_map(|r| r.seal_s.iter().copied())
        .collect();
    // Every query of a burst walks the same legs.
    let legs: Vec<f64> = first.legs.iter().map(|&l| l as f64).collect();
    let leg = log.totals("shard/leg");
    let serve =
        |f: fn(&reach_serve::ServeMetrics) -> f64| median(&map(&with_trace, |r| f(&r.serve)));

    let mut layers = Layers::default();
    layers.set("storage.cache_hit_rate", first.cache_hit_rate);
    layers.set("storage.cache_evictions", first.cache_evictions as f64);
    layers.set("storage.spill_pages", first.spill_pages as f64);
    layers.set("live.append_p50_us", percentile(&append_us, 50.0));
    layers.set("live.append_p99_us", percentile(&append_us, 99.0));
    layers.set("live.seals", first.seals as f64);
    layers.set("live.seal_ms", mean(&seal_s) * 1e3);
    layers.set(
        "live.seal_pages_written",
        (base_bytes as f64 / PAGE_SIZE as f64 + first.spill_writes as f64)
            / first.seals.max(1) as f64,
    );
    layers.set("live.legs_per_query", mean(&legs));
    layers.set(
        "live.leg_us",
        leg.total_ns as f64 / 1e3 / leg.count.max(1) as f64,
    );
    layers.set(
        "live.cross_epoch_frac",
        legs.iter().filter(|&&l| l > 1.0).count() as f64 / legs.len() as f64,
    );
    layers.set(
        "serve.queue_wait_p50_us",
        serve(|m| m.p50_queue_wait_us as f64),
    );
    layers.set(
        "serve.queue_wait_p99_us",
        serve(|m| m.p99_queue_wait_us as f64),
    );
    layers.set(
        "serve.service_p50_us",
        serve(|m| m.p50_service_time_us as f64),
    );
    layers.set(
        "serve.service_p99_us",
        serve(|m| m.p99_service_time_us as f64),
    );
    layers.set(
        "serve.batched_frac",
        serve(|m| m.batched as f64 / m.completed.max(1) as f64),
    );
    layers.set("serve.rejected", serve(|m| m.rejected as f64));
    layers.set(
        "obs.trace_overhead_frac",
        1.0 - qps(&with_trace) / qps(&plain),
    );
    layers.set("obs.spans_per_query", query_spans as f64 / traced_queries);
    layers.emit(&mut out);
    log.report("live_serve", seed, &mut out);
    out
}

fn map(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}
