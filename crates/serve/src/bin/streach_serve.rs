//! Serve a live reachability index from a synthetic contact stream.
//!
//! ```text
//! streach_serve [--backend=sim|file:DIR] [--workers=N]
//!               [--clients=N] [--queries=N] [--objects=N]
//!               [--contacts=N] [--queue=N] [--sharded=EPOCHS]
//!               [--cache=PAGES] [--metrics-out=PATH] [--metrics-json=PATH]
//!               [--trace=0|1] [--slow-reads=N]
//! ```
//!
//! The binary builds a `ShardedLive` on the chosen backend, ingests a
//! deterministic xorshift contact stream on the main thread, and serves a
//! query stream from `--clients` submitter threads through the
//! `reach_serve::Server` worker pool — appends, queries, and seals all
//! overlap, and queries hand their frontier across shard boundaries. By
//! default (`--sharded=0`) an append seals a new epoch shard inline
//! whenever it pushes the delta over its budget; `--sharded=EPOCHS`
//! instead seals one every `contacts / EPOCHS` appends. It exits with a
//! metrics table that shows the final shard layout.
//!
//! `--metrics-out=PATH` (and/or `--metrics-json=PATH`) runs the server
//! *observed*: per-query trace spans feed a flight recorder and slow-query
//! log (`--trace=0` keeps metrics but disables span tracing;
//! `--slow-reads=N` sets the slow-query read threshold), and at exit the
//! unified registry — serve counters and histograms, live-index gauges,
//! page-cache counters, shard layout gauges, and the observability
//! self-metrics — is written as a Prometheus-style text exposition
//! (`--metrics-out`) and/or a JSON snapshot (`--metrics-json`).

use reach_core::{ObjectId, ReachIndex, ReachRequest, Time, TimeInterval};
use reach_graph::GraphParams;
use reach_live::{LiveConfig, ShardedLive};
use reach_obs::{Obs, ObsConfig, SlowQueryPolicy};
use reach_serve::{ServeConfig, Server, SubmitError};
use reach_storage::{BuildBudget, CacheStats, StorageConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PAGE: usize = 512;

struct Args {
    backend: StorageConfig,
    backend_name: String,
    workers: usize,
    clients: usize,
    queries: u64,
    objects: usize,
    contacts: usize,
    queue: usize,
    sharded: usize,
    cache_pages: usize,
    metrics_out: Option<String>,
    metrics_json: Option<String>,
    trace: bool,
    slow_reads: u64,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        backend: StorageConfig::sim(PAGE),
        backend_name: "sim".into(),
        workers: 4,
        clients: 2,
        queries: 2000,
        objects: 64,
        contacts: 4000,
        queue: 256,
        sharded: 0,
        cache_pages: 256,
        metrics_out: None,
        metrics_json: None,
        trace: true,
        slow_reads: 1_000,
    };
    for arg in argv {
        let (key, value) = arg
            .split_once('=')
            .ok_or_else(|| format!("expected --key=value, got `{arg}`"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{key} wants a number, got `{value}`"))
        };
        match key {
            "--backend" => {
                args.backend_name = value.into();
                args.backend = if value == "sim" {
                    StorageConfig::sim(PAGE)
                } else if let Some(dir) = value.strip_prefix("file:") {
                    StorageConfig::file(dir, PAGE)
                } else {
                    return Err(format!("--backend wants sim or file:DIR, got `{value}`"));
                };
            }
            "--workers" => args.workers = number()? as usize,
            "--clients" => args.clients = number()?.max(1) as usize,
            "--queries" => args.queries = number()?,
            "--objects" => args.objects = number()?.max(2) as usize,
            "--contacts" => args.contacts = number()? as usize,
            "--queue" => args.queue = number()?.max(1) as usize,
            "--sharded" => args.sharded = number()? as usize,
            "--cache" => args.cache_pages = number()? as usize,
            "--metrics-out" => args.metrics_out = Some(value.into()),
            "--metrics-json" => args.metrics_json = Some(value.into()),
            "--trace" => args.trace = number()? != 0,
            "--slow-reads" => args.slow_reads = number()?,
            _ => return Err(format!("unknown flag `{key}`")),
        }
    }
    Ok(args)
}

/// Deterministic xorshift64* generator (no external dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn contact_stream(
    seed: u64,
    objects: usize,
    count: usize,
    horizon: Time,
) -> Vec<reach_core::Contact> {
    let mut rng = Rng(seed | 1);
    let n = objects as u64;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let a = rng.below(n) as u32;
        let mut b = rng.below(n) as u32;
        if a == b {
            b = (b + 1) % objects as u32;
        }
        let start = ((i as u64 * u64::from(horizon - 4)) / count as u64) as Time;
        let len = rng.below(3) as Time;
        out.push(reach_core::Contact::new(
            ObjectId(a),
            ObjectId(b),
            TimeInterval::new(start, (start + len).min(horizon - 1)),
        ));
    }
    out
}

/// The served index: inline seals on the delta budget by default, or
/// manual maintenance when `--sharded` sets the seal cadence itself.
fn build_index(args: &Args) -> Result<ShardedLive, reach_core::IndexError> {
    let config = LiveConfig::graph(
        GraphParams {
            partition_depth: 8,
            page_size: PAGE,
            ..GraphParams::default()
        },
        BuildBudget::bytes(1 << 20),
    )
    .with_delta_budget(64 << 10)
    .with_lateness(8)
    .with_shared_cache(args.cache_pages);
    let config = if args.sharded > 0 {
        config.manual_compaction()
    } else {
        config
    };
    config
        .builder()
        .backend(args.backend.clone())
        .build_sharded(args.objects)
}

/// Builds the observability bundle when `--metrics-out`/`--metrics-json`
/// asked for one: tracing per `--trace`, slow-query threshold per
/// `--slow-reads` (wall-clock threshold stays disabled so the run is
/// deterministic modulo scheduling).
fn build_obs(args: &Args) -> Option<Arc<Obs>> {
    if args.metrics_out.is_none() && args.metrics_json.is_none() {
        return None;
    }
    Some(Arc::new(Obs::new(ObsConfig {
        trace: args.trace,
        slow: SlowQueryPolicy {
            min_reads: args.slow_reads,
            ..SlowQueryPolicy::default()
        },
        ..ObsConfig::default()
    })))
}

fn start_server(
    index: Arc<dyn ReachIndex>,
    args: &Args,
    obs: Option<&Arc<Obs>>,
) -> Result<Server, reach_core::IndexError> {
    let config = ServeConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        max_batch: 64,
    };
    match obs {
        Some(obs) => Server::start_observed(index, config, Arc::clone(obs)),
        None => Server::start(index, config),
    }
}

/// Publishes the page-cache counters (if the index has a shared cache)
/// plus the recorder/slow-log self-metrics, then writes the exposition
/// and/or JSON snapshot files.
fn write_metrics(args: &Args, obs: &Obs, cache: Option<CacheStats>) {
    let registry = obs.registry();
    if let Some(c) = cache {
        registry.set_gauge("cache_hits", c.hits);
        registry.set_gauge("cache_misses", c.misses);
        registry.set_gauge("cache_prefetched", c.prefetched);
        registry.set_gauge("cache_prefetch_hits", c.prefetch_hits);
        registry.set_gauge("cache_evictions", c.evictions);
    }
    if let Some(recorder) = obs.recorder() {
        registry.set_gauge("obs_spans_recorded", recorder.recorded());
        registry.set_gauge("obs_recorder_bytes", recorder.bytes_recorded());
    }
    registry.set_gauge("obs_slow_queries", obs.slow_log().hits());
    if let Some(path) = &args.metrics_out {
        match std::fs::write(path, registry.expose_text()) {
            Ok(()) => println!("  metrics        exposition written to {path}"),
            Err(e) => eprintln!("streach_serve: writing {path} failed: {e}"),
        }
    }
    if let Some(path) = &args.metrics_json {
        match std::fs::write(path, registry.snapshot_json()) {
            Ok(()) => println!("  metrics        JSON snapshot written to {path}"),
            Err(e) => eprintln!("streach_serve: writing {path} failed: {e}"),
        }
    }
}

/// Runs the client submitter threads against the server while `ingest`
/// keeps appending on the calling thread; returns how many submissions
/// the clients shed at admission.
fn drive_clients<F: FnOnce()>(server: &Server, args: &Args, safe_horizon: Time, ingest: F) -> u64 {
    let submitted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let queries = args.queries;
    let objects = args.objects as u64;
    std::thread::scope(|scope| {
        for client in 0..args.clients {
            let (submitted, shed) = (&submitted, &shed);
            scope.spawn(move || {
                // Each iteration submits a same-source burst (one object
                // asking about many peers — the access pattern the serving
                // path's batching optimization exists for), then waits the
                // burst out.
                const BURST: u64 = 8;
                let mut rng = Rng(0x0dd5_eed5 ^ (client as u64 + 1));
                loop {
                    let k = submitted.fetch_add(BURST, Ordering::Relaxed);
                    if k >= queries {
                        break;
                    }
                    let take = BURST.min(queries - k);
                    let source = ObjectId(rng.below(objects) as u32);
                    let t1 = rng.below(u64::from(safe_horizon)) as Time;
                    let window = TimeInterval::new(t1, safe_horizon);
                    let mut tickets = Vec::with_capacity(take as usize);
                    for _ in 0..take {
                        let dest = ObjectId(rng.below(objects) as u32);
                        match server.submit(ReachRequest::reach(source, window, dest)) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(SubmitError::QueueFull { .. }) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(SubmitError::ShuttingDown) => return,
                        }
                    }
                    for ticket in tickets {
                        let _ = ticket.wait();
                    }
                }
            });
        }
        ingest();
    });
    shed.load(Ordering::Relaxed)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streach_serve: {e}");
            std::process::exit(2);
        }
    };
    let horizon: Time = 1 << 12;
    let index = match build_index(&args) {
        Ok(i) => Arc::new(i),
        Err(e) => {
            eprintln!("streach_serve: building the index failed: {e}");
            std::process::exit(1);
        }
    };
    let stream = contact_stream(0x5eed_cafe, args.objects, args.contacts, horizon);
    let epoch = (args.sharded > 0).then(|| (stream.len() / args.sharded).max(1));
    let append = |i: usize, c: reach_core::Contact| {
        index.append(c).expect("live append");
        if epoch.is_some_and(|k| (i + 1).is_multiple_of(k)) {
            index.seal_now().expect("epoch seal");
        }
    };

    // Warm up with a third of the stream (sealing epoch shards along the
    // way) so queries walk real sealed shards and pay real counted IO,
    // then serve while the rest of the stream appends and seals
    // concurrently.
    let warmup = stream.len() / 3;
    for (i, &c) in stream[..warmup].iter().enumerate() {
        append(i, c);
    }
    let obs = build_obs(&args);
    let server = start_server(
        Arc::clone(&index) as Arc<dyn ReachIndex>,
        &args,
        obs.as_ref(),
    )
    .expect("server starts");
    let safe_horizon = index.now().saturating_sub(1).max(1);
    let shed = drive_clients(&server, &args, safe_horizon, || {
        for (i, &c) in stream.iter().enumerate().skip(warmup) {
            append(i, c);
        }
    });
    if let Err(e) = index.seal_now() {
        eprintln!("streach_serve: final seal failed: {e}");
    }
    index.sync().expect("log sync");
    let live = index.metrics();
    let serve = server.metrics();
    let spans = index.shard_spans();
    if let Some(obs) = &obs {
        let registry = obs.registry();
        server.publish_metrics(registry);
        registry.set_gauge("live_compactions", live.compactions);
        registry.set_gauge("live_overlapped_queries", live.overlapped_queries);
        registry.set_gauge("live_delta_bytes", live.delta_bytes as u64);
        registry.set_gauge("live_watermark", u64::from(live.watermark));
        registry.set_gauge("live_now", u64::from(live.now));
        registry.set_gauge("shard_count", spans.len() as u64);
        registry.set_gauge("shard_generation", live.generation);
    }
    drop(server);

    println!(
        "streach_serve: {} workers, {} clients, queue {}, backend {}",
        args.workers, args.clients, args.queue, args.backend_name
    );
    println!(
        "  ingested       {} contacts -> watermark {} / horizon {} ({} seals, generation {})",
        args.contacts, live.watermark, live.now, live.compactions, live.generation
    );
    println!(
        "  shards         {} epochs: {}",
        spans.len(),
        spans
            .iter()
            .map(|(lo, hi)| format!("[{lo},{hi})"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  queries        {} completed, {} failed, {} rejected at admission, {} shed by clients",
        serve.completed, serve.failed, serve.rejected, shed
    );
    println!(
        "  batching       {} answers served off a shared frontier expansion",
        serve.batched
    );
    println!(
        "  overlap        {} queries completed while a seal was building",
        live.overlapped_queries
    );
    println!(
        "  normalized IO  p50 {:.2}, p99 {:.2} (random + seq/{})",
        serve.p50_normalized_io,
        serve.p99_normalized_io,
        reach_core::SEQ_PER_RANDOM
    );
    if let Some(obs) = &obs {
        write_metrics(&args, obs, index.cache_stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Args {
        parse_args(flags.iter().map(|f| f.to_string())).expect("flags parse")
    }

    /// `--sharded=0` is the default delta-budget mode, not one epoch.
    #[test]
    fn sharded_zero_keeps_delta_budget_seals() {
        assert_eq!(parse(&[]).sharded, 0);
        assert_eq!(parse(&["--sharded=0"]).sharded, 0);
        assert_eq!(parse(&["--sharded=4"]).sharded, 4);
        assert!(parse_args(["--sharded=x".to_string()]).is_err());
    }
}
