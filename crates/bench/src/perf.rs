//! The perf-regression gate: a deterministic IO-counter suite, its
//! machine-readable report, and the comparator CI runs on every PR.
//!
//! Wall-clock numbers are hostage to the runner; **counted IO is not**: the
//! device counters are a pure function of the code (backend equivalence
//! guarantees sim == file == mmap, and every seed is fixed), so a committed
//! baseline can be compared exactly. The pipeline:
//!
//! 1. [`quick_suite`] builds the three indexes plus a budgeted streaming
//!    build on small fixed datasets and records build-write, query-read,
//!    index-size, and spill counters;
//! 2. `bench_perf` (binary) writes the report as `BENCH_quick.json`;
//! 3. `bench_diff` (binary) compares a current report against the committed
//!    baseline with [`diff`] and fails the build on any counter that
//!    regresses beyond the tolerance.
//!
//! The JSON schema is deliberately flat — `{schema, tier, backend,
//! counters: {key: integer}}` — parsed by the no-dependency reader in this
//! module. Regenerate the baseline with
//! `cargo run --release -p reach_bench --bin bench_perf -- --out=BENCH_quick.json`
//! whenever a PR *intentionally* changes IO behavior, and say why in the PR.

use crate::datasets::DatasetSpec;
use crate::runner::{assert_same_pages, timed};
use reach_baselines::GrailDisk;
use reach_contact::{MultiRes, StreamedDn, DEFAULT_LEVELS};
use reach_core::{IndexError, Query, QueryResult, ReachIndex as _};
use reach_graph::{GraphParams, ReachGraph};
use reach_grid::{GridParams, ReachGrid};
use reach_mobility::WorkloadConfig;
use reach_storage::{BlockDevice, BuildBudget, IoStats, PageId, SimDevice};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Schema version of the report format.
pub const SCHEMA: u32 = 1;

/// A perf report: deterministic counters keyed by
/// `dataset/index/phase/metric`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerfReport {
    /// Format version ([`SCHEMA`]).
    pub schema: u32,
    /// Benchmark tier the suite ran at (`quick` / `full`).
    pub tier: String,
    /// Storage backend the counters were measured on.
    pub backend: String,
    /// The counters (BTreeMap: the JSON is byte-stable across runs).
    pub counters: BTreeMap<String, u64>,
}

impl PerfReport {
    /// Renders the report as pretty-printed JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"tier\": \"{}\",", self.tier);
        let _ = writeln!(out, "  \"backend\": \"{}\",", self.backend);
        let _ = writeln!(out, "  \"counters\": {{");
        let n = self.counters.len();
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(out, "    \"{k}\": {v}{comma}");
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a report written by [`PerfReport::to_json`] (tolerating any
    /// whitespace layout). Returns a description of the first syntax
    /// problem otherwise.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = JsonParser::new(text);
        let mut schema = None;
        let mut tier = None;
        let mut backend = None;
        let mut counters = BTreeMap::new();
        p.expect('{')?;
        loop {
            if p.peek_is('}') {
                break;
            }
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "schema" => schema = Some(p.integer()? as u32),
                "tier" => tier = Some(p.string()?),
                "backend" => backend = Some(p.string()?),
                "counters" => {
                    p.expect('{')?;
                    loop {
                        if p.peek_is('}') {
                            break;
                        }
                        let k = p.string()?;
                        p.expect(':')?;
                        let v = p.integer()?;
                        counters.insert(k, v);
                        if !p.comma_or_close('}')? {
                            break;
                        }
                    }
                    p.expect('}')?;
                }
                other => return Err(format!("unknown report field {other:?}")),
            }
            if !p.comma_or_close('}')? {
                break;
            }
        }
        p.expect('}')?;
        Ok(Self {
            schema: schema.ok_or("missing \"schema\"")?,
            tier: tier.ok_or("missing \"tier\"")?,
            backend: backend.ok_or("missing \"backend\"")?,
            counters,
        })
    }
}

/// Minimal recursive-descent reader for the report's JSON subset.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek_is(&mut self, c: char) -> bool {
        self.skip_ws();
        self.bytes.get(self.pos) == Some(&(c as u8))
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.pos))
        }
    }

    /// `,` → true (more elements); lookahead `close` → false; else error.
    fn comma_or_close(&mut self, close: char) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(&b) if b == close as u8 => Ok(false),
            _ => Err(format!("expected ',' or {close:?} at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                if s.contains('\\') {
                    return Err("escape sequences are not part of the report format".into());
                }
                self.pos += 1;
                return Ok(s.to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn integer(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected an integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .parse()
            .map_err(|e| format!("integer out of range: {e}"))
    }
}

/// Outcome of comparing a current report against a baseline.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Regressions and structural problems — any entry fails the gate.
    pub violations: Vec<String>,
    /// Counters that improved or appeared (informational).
    pub notes: Vec<String>,
    /// How many counters improved (typed, so reporters never re-parse the
    /// note strings).
    pub improved: usize,
    /// How many counters are new relative to the baseline.
    pub new_counters: usize,
}

impl DiffOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Parses a `--max-regress` value — a percentage with an optional `%`
/// (`"5%"`, `"0"`) — into a fraction. Non-finite and negative values are
/// rejected: a NaN tolerance would make every comparison in [`diff`] false
/// and silently pass any regression.
pub fn parse_max_regress(value: &str) -> Result<f64, String> {
    let pct: f64 = value
        .strip_suffix('%')
        .unwrap_or(value)
        .parse()
        .map_err(|_| format!("--max-regress expects a percentage, got {value:?}"))?;
    if !pct.is_finite() || pct < 0.0 {
        return Err(format!(
            "--max-regress must be a finite, non-negative percentage, got {value:?}"
        ));
    }
    Ok(pct / 100.0)
}

/// Compares `current` to `baseline`: any counter that grew by more than
/// `max_regress` (a fraction, e.g. `0.05`) is a violation, as is a counter
/// present in the baseline but missing from the current run, or a
/// tier/backend/schema mismatch. Shrunken counters and brand-new counters
/// are reported as notes.
pub fn diff(baseline: &PerfReport, current: &PerfReport, max_regress: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    if baseline.schema != current.schema {
        out.violations.push(format!(
            "schema mismatch: baseline {} vs current {}",
            baseline.schema, current.schema
        ));
    }
    if baseline.tier != current.tier || baseline.backend != current.backend {
        out.violations.push(format!(
            "suite mismatch: baseline {}/{} vs current {}/{} (counters are only comparable on the same tier and backend)",
            baseline.tier, baseline.backend, current.tier, current.backend
        ));
    }
    for (key, &base) in &baseline.counters {
        let Some(&cur) = current.counters.get(key) else {
            out.violations.push(format!(
                "{key}: present in baseline ({base}) but missing from the current run — regenerate the baseline if the suite changed intentionally"
            ));
            continue;
        };
        let limit = base as f64 * (1.0 + max_regress);
        if cur as f64 > limit {
            let pct = if base == 0 {
                f64::INFINITY
            } else {
                100.0 * (cur as f64 / base as f64 - 1.0)
            };
            out.violations.push(format!(
                "{key}: {base} → {cur} (+{pct:.1}%, tolerance {:.1}%)",
                100.0 * max_regress
            ));
        } else if cur < base {
            let pct = 100.0 * (1.0 - cur as f64 / base as f64);
            out.improved += 1;
            out.notes
                .push(format!("{key}: improved {base} → {cur} (-{pct:.1}%)"));
        }
    }
    for key in current.counters.keys() {
        if !baseline.counters.contains_key(key) {
            out.new_counters += 1;
            out.notes
                .push(format!("{key}: new counter (not in baseline)"));
        }
    }
    out
}

/// A device wrapper that accumulates counters across `reset_stats` calls,
/// so construction IO (which builders wipe before query accounting starts)
/// stays observable.
#[derive(Debug)]
struct CountingDevice {
    inner: Box<dyn BlockDevice>,
    accumulated: Arc<Mutex<IoStats>>,
}

impl CountingDevice {
    fn wrap(inner: Box<dyn BlockDevice>) -> (Box<dyn BlockDevice>, Arc<Mutex<IoStats>>) {
        let accumulated = Arc::new(Mutex::new(IoStats::default()));
        (
            Box::new(Self {
                inner,
                accumulated: Arc::clone(&accumulated),
            }),
            accumulated,
        )
    }
}

impl BlockDevice for CountingDevice {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn len_pages(&self) -> u64 {
        self.inner.len_pages()
    }

    fn allocate(&mut self, n: usize) -> Result<PageId, IndexError> {
        self.inner.allocate(n)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), IndexError> {
        self.inner.write_page(id, data)
    }

    fn read_page_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), IndexError> {
        self.inner.read_page_into(id, buf)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        let mut acc = self.accumulated.lock().expect("perf counter lock");
        *acc = *acc + self.inner.stats();
        self.inner.reset_stats();
    }

    fn break_sequence(&mut self) {
        self.inner.break_sequence();
    }

    fn note_cache_hit(&mut self) {
        self.inner.note_cache_hit();
    }

    fn note_prefetched(&mut self) {
        self.inner.note_prefetched();
    }

    fn note_prefetch_hit(&mut self) {
        self.inner.note_prefetch_hit();
    }

    fn shared_cache(&self) -> Option<std::sync::Arc<reach_storage::PageCache>> {
        self.inner.shared_cache()
    }

    fn sync(&mut self) -> Result<(), IndexError> {
        self.inner.sync()
    }
}

/// Page size of the perf suite's devices.
const PERF_PAGE: usize = 512;
/// Streaming-build budget: tight enough to force spills on the perf
/// dataset, so the spill counters stay live numbers the gate watches.
const PERF_BUDGET_BYTES: usize = 96 * 1024;
/// Shared-cache capacity of the warm serving tier (pages): big enough to
/// hold the perf base, so the repeat rounds measure pure cross-query reuse.
const WARM_CACHE_PAGES: usize = 4096;
/// Readahead window of the warm serving tier (pages).
const WARM_READAHEAD: usize = 8;
/// Times the warm tier repeats the query workload.
const WARM_ROUNDS: usize = 3;

fn perf_queries(spec: &DatasetSpec, n: usize) -> Vec<Query> {
    WorkloadConfig {
        num_queries: n,
        interval_len_min: 100,
        interval_len_max: 300,
    }
    .generate(spec.num_objects, spec.horizon, 0x9E9F)
}

fn record_batch(
    counters: &mut BTreeMap<String, u64>,
    prefix: &str,
    queries: &[Query],
    mut evaluate: impl FnMut(&Query) -> Result<QueryResult, IndexError>,
) {
    let mut random = 0u64;
    let mut seq = 0u64;
    let mut visited = 0u64;
    let mut reachable = 0u64;
    for q in queries {
        let r = evaluate(q).unwrap_or_else(|e| panic!("perf query {q} failed on {prefix}: {e}"));
        random += r.stats.random_ios;
        seq += r.stats.seq_ios;
        visited += r.stats.visited;
        reachable += u64::from(r.reachable());
    }
    counters.insert(format!("{prefix}/query/random_reads"), random);
    counters.insert(format!("{prefix}/query/seq_reads"), seq);
    counters.insert(format!("{prefix}/query/visited"), visited);
    counters.insert(format!("{prefix}/query/reachable"), reachable);
}

fn record_build(counters: &mut BTreeMap<String, u64>, prefix: &str, build_io: IoStats, pages: u64) {
    counters.insert(format!("{prefix}/build/seq_writes"), build_io.seq_writes);
    counters.insert(
        format!("{prefix}/build/random_writes"),
        build_io.random_writes,
    );
    counters.insert(format!("{prefix}/size_pages"), pages);
}

/// Runs the deterministic quick-tier counter suite on the simulator (the
/// paper's measurement model; backend equivalence makes the numbers valid
/// for every backend). Returns the report plus the wall-clock seconds the
/// suite took (informational only — never gated).
pub fn quick_suite() -> (PerfReport, f64) {
    let (report, elapsed) = timed(|| {
        let mut counters = BTreeMap::new();
        let spec = DatasetSpec::rwp("perf-rwp", 400, 1200, 11);
        let store = spec.generate();
        let queries = perf_queries(&spec, 80);

        // ReachGrid.
        let (device, build_io) = CountingDevice::wrap(Box::new(SimDevice::new(PERF_PAGE)));
        let grid = ReachGrid::build_on(
            device,
            &store,
            GridParams {
                temporal: 20,
                cell_size: spec.env_side() / 10.0,
                threshold: spec.threshold,
                page_size: PERF_PAGE,
                ..GridParams::default()
            },
        )
        .expect("perf grid builds");
        record_build(
            &mut counters,
            "rwp/grid",
            *build_io.lock().expect("perf counter lock"),
            grid.size_bytes() / PERF_PAGE as u64,
        );
        record_batch(&mut counters, "rwp/grid", &queries, |q| grid.evaluate(q));

        // ReachGraph (and the DN/multires it shares with GRAIL).
        let dn = spec.build_dn(&store);
        let mr = spec.build_multires(&dn);
        counters.insert("rwp/dn/vertices".into(), dn.size().vertices);
        counters.insert("rwp/dn/edges".into(), dn.size().edges);
        let params = GraphParams {
            partition_depth: 8,
            page_size: PERF_PAGE,
            ..GraphParams::default()
        };
        let (device, build_io) = CountingDevice::wrap(Box::new(SimDevice::new(PERF_PAGE)));
        let mut graph =
            ReachGraph::build_on(device, &dn, &mr, params.clone()).expect("perf graph builds");
        record_build(
            &mut counters,
            "rwp/graph",
            *build_io.lock().expect("perf counter lock"),
            graph.size_bytes() / PERF_PAGE as u64,
        );
        record_batch(&mut counters, "rwp/graph", &queries, |q| graph.evaluate(q));

        // Decay-weighted workloads on the same graph: point verdicts at a
        // fixed θ, then the top-k vs full-enumeration contrast the decay
        // experiment measures. The counters gate both the verdict mix and
        // the pruning advantage — the suite itself asserts top-k counted
        // reads stay strictly below ranking every object.
        // θ sits low enough that some perf-workload verdicts stay positive
        // under elapsed-time decay over the 100-300 tick windows, keeping
        // the verdict-mix counter a live number.
        let decay_model = reach_core::DecayModel::new(0.7, 0.99).expect("factors lie in (0, 1]");
        let (mut drandom, mut dseq, mut dreachable) = (0u64, 0u64, 0u64);
        for q in &queries {
            let (hit, stats) = graph
                .decay_reachable(q.source, q.dest, q.interval, &decay_model, 0.02)
                .unwrap_or_else(|e| panic!("perf decay query {q} failed: {e}"));
            drandom += stats.random_ios;
            dseq += stats.seq_ios;
            dreachable += u64::from(hit.is_some());
        }
        counters.insert("rwp/decay/point/random_reads".into(), drandom);
        counters.insert("rwp/decay/point/seq_reads".into(), dseq);
        counters.insert("rwp/decay/point/reachable".into(), dreachable);
        let (mut topk_reads, mut full_reads) = (0u64, 0u64);
        for q in queries.iter().take(20) {
            let (short, stats) = graph
                .top_k(
                    q.source,
                    q.interval,
                    5,
                    &decay_model,
                    reach_core::RankDirection::Reachable,
                )
                .unwrap_or_else(|e| panic!("perf top-k query failed: {e}"));
            topk_reads += stats.random_ios + stats.seq_ios;
            let (full, stats) = graph
                .top_k(
                    q.source,
                    q.interval,
                    store.num_objects(),
                    &decay_model,
                    reach_core::RankDirection::Reachable,
                )
                .unwrap_or_else(|e| panic!("perf full-enumeration query failed: {e}"));
            full_reads += stats.random_ios + stats.seq_ios;
            assert_eq!(
                short.as_slice(),
                &full[..5.min(full.len())],
                "perf top-k must be a prefix of the full ranking for {q}"
            );
        }
        assert!(
            topk_reads < full_reads,
            "top-k counted reads must stay strictly below full enumeration \
             ({topk_reads} !< {full_reads})"
        );
        counters.insert("rwp/decay/topk_read_pages".into(), topk_reads);
        counters.insert("rwp/decay/full_enum_read_pages".into(), full_reads);

        // Disk GRAIL.
        let (device, build_io) = CountingDevice::wrap(Box::new(SimDevice::new(PERF_PAGE)));
        let mut grail = GrailDisk::build_on(device, &dn, 5, 0xF1, 64).expect("perf grail builds");
        let grail_pages = {
            let dev = grail.device_mut();
            dev.len_pages()
        };
        record_build(
            &mut counters,
            "rwp/grail",
            *build_io.lock().expect("perf counter lock"),
            grail_pages,
        );
        record_batch(&mut counters, "rwp/grail", &queries, |q| grail.evaluate(q));

        // Memory-bounded streaming build: spill counters + peak resident
        // bytes, and a byte-identity check against the resident build.
        let contacts =
            reach_contact::extract_contacts(&store, store.horizon_interval(), spec.threshold);
        let mut sdn = StreamedDn::from_contacts(
            store.num_objects(),
            store.horizon(),
            &contacts,
            BuildBudget::bytes(PERF_BUDGET_BYTES),
            Box::new(SimDevice::new(PERF_PAGE)),
        );
        let mr_s = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
        let mut graph_s =
            ReachGraph::build_on(Box::new(SimDevice::new(PERF_PAGE)), &mut sdn, &mr_s, params)
                .expect("perf streaming graph builds");
        assert_same_pages(
            graph.device_mut(),
            graph_s.device_mut(),
            "perf streaming build",
        );
        let spill = sdn.spill_stats();
        counters.insert("rwp/stream/spilled_segments".into(), spill.spilled);
        counters.insert("rwp/stream/reloaded_segments".into(), spill.reloaded);
        counters.insert(
            "rwp/stream/spill_write_pages".into(),
            spill.io.total_writes(),
        );
        counters.insert("rwp/stream/spill_read_pages".into(), spill.io.total_reads());
        counters.insert(
            "rwp/stream/peak_resident_bytes".into(),
            spill.peak_resident_bytes,
        );

        // Live ingestion: the same contact set appended as a stream, with
        // forced mid-run compactions (each coalesces the timeline into one
        // whole-history shard), then a cross-boundary query batch. Counted
        // IO only — append-log writes, delta peak, compaction base-read
        // and spill traffic, and query reads that span the watermark.
        let live = reach_live::LiveConfig::graph(
            GraphParams {
                partition_depth: 8,
                page_size: PERF_PAGE,
                ..GraphParams::default()
            },
            BuildBudget::bytes(PERF_BUDGET_BYTES),
        )
        .manual_compaction()
        .builder()
        .build_sharded(store.num_objects())
        .expect("perf live index creates");
        // Deterministic three-chunk schedule with two seals: the second
        // compaction re-streams the first sealed base, so the base-read
        // counter gates real chain-extraction IO (one compaction would
        // leave it structurally zero), and the last chunk stays in the
        // delta so the query batch crosses the watermark.
        let (cut1, cut2) = (contacts.len() / 3, contacts.len() * 2 / 3);
        let feed = |live: &reach_live::ShardedLive, span: &[reach_core::Contact]| {
            for &c in span {
                let o = live.append(c).expect("perf append accepted");
                assert!(o.compaction_error.is_none(), "compaction must not fail");
            }
        };
        feed(&live, &contacts[..cut1]);
        live.compact().expect("perf compaction succeeds");
        feed(&live, &contacts[cut1..cut2]);
        live.compact().expect("perf recompaction succeeds");
        feed(&live, &contacts[cut2..]);
        let live_stats = live.stats();
        counters.insert("rwp/live/appended".into(), live_stats.appended);
        counters.insert(
            "rwp/live/clamped_or_dropped".into(),
            live_stats.clamped + live_stats.dropped_late,
        );
        counters.insert("rwp/live/log_pages".into(), live.log_pages());
        counters.insert(
            "rwp/live/append_write_pages".into(),
            live_stats.append_io.total_writes(),
        );
        counters.insert(
            "rwp/live/delta_peak_bytes".into(),
            live_stats.delta_peak_bytes,
        );
        counters.insert(
            "rwp/live/compaction_base_read_pages".into(),
            live_stats.compaction_read_io.total_reads(),
        );
        counters.insert(
            "rwp/live/compaction_spill_pages".into(),
            live_stats.compaction_spill_io.total_reads()
                + live_stats.compaction_spill_io.total_writes(),
        );
        record_batch(&mut counters, "rwp/live", &queries, |q| {
            live.evaluate_query(q)
        });

        // Serving: the same queries through the `ReachIndex` envelope the
        // serve layer dispatches on. Quiesced, per-query counted IO is a
        // pure function of (generation, query) — every reader gets a fresh
        // device handle and a cold per-query cache — so the totals gate
        // exactly, and they must match the direct totals above. A
        // same-source batch is counted too: one expansion's IO, however
        // many destinations ride it.
        let (mut random, mut seq, mut reachable) = (0u64, 0u64, 0u64);
        for q in &queries {
            let r = live
                .answer(&reach_core::ReachRequest::from(*q))
                .unwrap_or_else(|e| panic!("perf serve query {q} failed: {e}"));
            random += r.stats.random_ios;
            seq += r.stats.seq_ios;
            reachable += u64::from(r.reachable());
        }
        assert_eq!(
            (random, seq),
            (
                counters["rwp/live/query/random_reads"],
                counters["rwp/live/query/seq_reads"]
            ),
            "served query IO must equal the direct path's"
        );
        counters.insert("rwp/serve/query/random_reads".into(), random);
        counters.insert("rwp/serve/query/seq_reads".into(), seq);
        counters.insert("rwp/serve/query/reachable".into(), reachable);
        counters.insert("rwp/serve/epoch".into(), live.generation());
        let dests: Vec<reach_core::ObjectId> = (0..store.num_objects() as u32)
            .map(reach_core::ObjectId)
            .collect();
        let window = reach_core::TimeInterval::new(0, live.now() - 1);
        let answers = live
            .evaluate_batch(
                reach_core::ObjectId(0),
                window,
                &dests,
                &reach_obs::Tracer::off(),
            )
            .expect("perf serve batch evaluates");
        let batch_random: u64 = answers.iter().map(|a| a.stats.random_ios).sum();
        let batch_seq: u64 = answers.iter().map(|a| a.stats.seq_ios).sum();
        counters.insert("rwp/serve/batch/random_reads".into(), batch_random);
        counters.insert("rwp/serve/batch/seq_reads".into(), batch_seq);
        counters.insert(
            "rwp/serve/batch/reachable".into(),
            answers.iter().map(|a| u64::from(a.reachable())).sum(),
        );

        // Warm shared cache: the same stream and seal schedule through a
        // serving index whose shard hubs carry a shared PageCache with
        // readahead, then a *repeated* query workload on both indexes. The
        // cold index re-reads the base every round (fresh handle, cold
        // per-query pool); the warm one absorbs the repeats as cache hits.
        // Everything is single-threaded and the cache's sharding and LRU
        // are deterministic, so the warm counters gate exactly. The cold
        // tiers above never see a cache (default hubs carry none), so all
        // pre-existing counters are byte-identical.
        let warm = reach_live::LiveConfig::graph(
            GraphParams {
                partition_depth: 8,
                page_size: PERF_PAGE,
                ..GraphParams::default()
            },
            BuildBudget::bytes(PERF_BUDGET_BYTES),
        )
        .manual_compaction()
        .with_shared_cache(WARM_CACHE_PAGES)
        .with_readahead(WARM_READAHEAD)
        .builder()
        .build_sharded(store.num_objects())
        .expect("perf warm live index creates");
        feed(&warm, &contacts[..cut1]);
        warm.compact().expect("perf warm compaction succeeds");
        feed(&warm, &contacts[cut1..cut2]);
        warm.compact().expect("perf warm recompaction succeeds");
        feed(&warm, &contacts[cut2..]);
        let (mut cold_reads, mut warm_reads) = (0u64, 0u64);
        for _round in 0..WARM_ROUNDS {
            for q in &queries {
                let cold = live
                    .evaluate_query(q)
                    .unwrap_or_else(|e| panic!("perf cold query {q} failed: {e}"));
                let hot = warm
                    .evaluate_query(q)
                    .unwrap_or_else(|e| panic!("perf warm query {q} failed: {e}"));
                assert_eq!(
                    cold.reachable(),
                    hot.reachable(),
                    "warm cache changed the answer of {q}"
                );
                cold_reads += cold.stats.random_ios + cold.stats.seq_ios;
                warm_reads += hot.stats.random_ios + hot.stats.seq_ios;
            }
        }
        let cache = warm
            .cache_stats()
            .expect("warm serving index carries a cache");
        assert!(
            warm_reads * 100 <= cold_reads * 70,
            "warm shared cache must cut repeated-serve device reads by ≥30% \
             (cold {cold_reads}, warm {warm_reads})"
        );
        assert!(
            warm_reads + cache.total_hits() >= cold_reads,
            "cache hits must absorb the saved reads \
             (cold {cold_reads}, warm {warm_reads}, hits {})",
            cache.total_hits()
        );
        counters.insert("rwp/cache/hits".into(), cache.hits);
        counters.insert("rwp/cache/misses".into(), cache.misses);
        counters.insert("rwp/cache/prefetched".into(), cache.prefetched);
        counters.insert("rwp/cache/prefetch_hits".into(), cache.prefetch_hits);
        counters.insert("rwp/cache/evictions".into(), cache.evictions);
        counters.insert("rwp/cache/warm_read_pages".into(), warm_reads);
        counters.insert("rwp/cache/cold_read_pages".into(), cold_reads);

        // Epoch-sharded timeline: the same stream sealed into three
        // epochs plus a live delta. Two properties gate here. First,
        // sealing reads *zero* sealed-history pages — the delta alone
        // feeds the new shard, so seal cost scales with the epoch, not
        // the timeline (contrast rwp/live/compaction_base_read_pages,
        // which re-streams the whole base every compaction). Second,
        // cross-shard queries hand the arrival frontier between shard
        // readers with per-query exact counted IO: the serve layer's
        // worker pool must count identical IO to the single-threaded
        // walk below, query for query.
        let shard = reach_live::LiveConfig::graph(
            GraphParams {
                partition_depth: 8,
                page_size: PERF_PAGE,
                ..GraphParams::default()
            },
            BuildBudget::bytes(PERF_BUDGET_BYTES),
        )
        .manual_compaction()
        .builder()
        .build_sharded(store.num_objects())
        .expect("perf sharded index creates");
        let feed_sharded = |shard: &reach_live::ShardedLive, span: &[reach_core::Contact]| {
            for &c in span {
                shard.append(c).expect("perf sharded append accepted");
            }
        };
        feed_sharded(&shard, &contacts[..cut1]);
        shard.seal_now().expect("perf first seal succeeds");
        feed_sharded(&shard, &contacts[cut1..cut2]);
        shard.seal_now().expect("perf second seal succeeds");
        feed_sharded(&shard, &contacts[cut2..]);
        shard.seal_now().expect("perf third seal succeeds");
        let sealed = shard.stats().clone();
        assert_eq!(
            sealed.compaction_read_io.total_reads(),
            0,
            "sealing must never re-read sealed history"
        );
        counters.insert("rwp/shard/epochs".into(), shard.shard_count() as u64);
        counters.insert(
            "rwp/shard/seal_spill_pages".into(),
            sealed.compaction_spill_io.total_reads() + sealed.compaction_spill_io.total_writes(),
        );
        counters.insert("rwp/shard/delta_peak_bytes".into(), sealed.delta_peak_bytes);
        let (mut srandom, mut sseq, mut sreachable) = (0u64, 0u64, 0u64);
        for q in &queries {
            let r = shard
                .evaluate_query(q)
                .unwrap_or_else(|e| panic!("perf sharded query {q} failed: {e}"));
            srandom += r.stats.random_ios;
            sseq += r.stats.seq_ios;
            sreachable += u64::from(r.reachable());
        }
        counters.insert("rwp/shard/query/random_reads".into(), srandom);
        counters.insert("rwp/shard/query/seq_reads".into(), sseq);
        counters.insert("rwp/shard/query/reachable".into(), sreachable);
        // Coalescing two adjacent epochs reads exactly those two shards.
        shard.merge_epochs(0, 1).expect("perf merge succeeds");
        let merged = shard.stats().clone();
        counters.insert(
            "rwp/shard/merge_read_pages".into(),
            merged.compaction_read_io.total_reads(),
        );
        counters.insert(
            "rwp/shard/epochs_after_merge".into(),
            shard.shard_count() as u64,
        );
        // Single-threaded reference over the merged layout…
        let (mut mrandom, mut mseq) = (0u64, 0u64);
        for q in &queries {
            let r = shard
                .evaluate_query(q)
                .unwrap_or_else(|e| panic!("perf merged query {q} failed: {e}"));
            mrandom += r.stats.random_ios;
            mseq += r.stats.seq_ios;
        }
        // …then the same queries through the serve layer's worker pool:
        // concurrency must not change one counted read.
        let shard = std::sync::Arc::new(shard);
        let pool = reach_serve::Server::start(
            std::sync::Arc::clone(&shard) as std::sync::Arc<dyn reach_core::ReachIndex>,
            reach_serve::ServeConfig {
                workers: 4,
                queue_capacity: queries.len().max(1),
                max_batch: 1,
            },
        )
        .expect("perf shard server starts");
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| {
                pool.submit(reach_core::ReachRequest::from(*q))
                    .expect("perf shard submit accepted")
            })
            .collect();
        let (mut prandom, mut pseq) = (0u64, 0u64);
        for t in tickets {
            let r = t.wait().expect("perf shard served query");
            prandom += r.stats.random_ios;
            pseq += r.stats.seq_ios;
        }
        drop(pool);
        assert_eq!(
            (prandom, pseq),
            (mrandom, mseq),
            "sharded serve IO must equal the single-threaded sharded walk"
        );
        counters.insert("rwp/shard/serve/random_reads".into(), prandom);
        counters.insert("rwp/shard/serve/seq_reads".into(), pseq);

        // Observability: the same merged-layout workload traced end to
        // end. Tracing must not change one counted read (asserted here,
        // in the gate itself), per-trace span IO must sum to the query's
        // own counters, and the byproducts — span count, recorder bytes,
        // slow-query hits under a read-count threshold — are themselves
        // deterministic, so they gate too. (Wall-clock slow-query
        // thresholds stay disabled; they would make the gate flaky.)
        let obs = reach_obs::Obs::new(reach_obs::ObsConfig {
            slow: reach_obs::SlowQueryPolicy {
                min_reads: 64,
                ..reach_obs::SlowQueryPolicy::default()
            },
            ..reach_obs::ObsConfig::default()
        });
        let (mut trandom, mut tseq, mut spans) = (0u64, 0u64, 0u64);
        for q in &queries {
            let tracer = obs.tracer();
            let req = reach_core::ReachRequest::from(*q).with_trace(tracer.clone());
            let a = shard
                .answer(&req)
                .unwrap_or_else(|e| panic!("perf traced query {q} failed: {e}"));
            let events = tracer.take_events();
            let (mut erandom, mut eseq) = (0u64, 0u64);
            for ev in &events {
                erandom += ev.io.random_reads;
                eseq += ev.io.seq_reads;
            }
            assert_eq!(
                (erandom, eseq),
                (a.stats.random_ios, a.stats.seq_ios),
                "span IO must sum to the query's own counters for {q}"
            );
            spans += events.len() as u64;
            trandom += a.stats.random_ios;
            tseq += a.stats.seq_ios;
            obs.observe_query(
                tracer.trace_id(),
                &req.trace_label(),
                a.stats.random_ios + a.stats.seq_ios,
                0,
            );
        }
        assert_eq!(
            (trandom, tseq),
            (mrandom, mseq),
            "tracing must not change counted IO by a single page"
        );
        counters.insert("rwp/obs/spans".into(), spans);
        counters.insert(
            "rwp/obs/recorder_bytes".into(),
            obs.recorder()
                .expect("default config records")
                .bytes_recorded(),
        );
        counters.insert("rwp/obs/slow_queries".into(), obs.slow_log().hits());

        PerfReport {
            schema: SCHEMA,
            tier: "quick".into(),
            backend: "sim".into(),
            counters,
        }
    });
    (report, elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            schema: SCHEMA,
            tier: "quick".into(),
            backend: "sim".into(),
            counters: pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(&[("a/b/c", 0), ("x", 12345), ("y/z", u64::MAX)]);
        let parsed = PerfReport::parse(&r.to_json()).expect("own output parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn parser_tolerates_whitespace_and_rejects_junk() {
        let text = "  {\n\"schema\":1 , \"tier\" : \"quick\",\"backend\":\"sim\",\n \"counters\" : { \"k\" : 7 } }  ";
        let r = PerfReport::parse(text).expect("parses");
        assert_eq!(r.counters["k"], 7);
        assert!(PerfReport::parse("{").is_err());
        assert!(PerfReport::parse("{\"schema\": -1}").is_err());
        assert!(PerfReport::parse("{\"bogus\": 1}").is_err());
        assert!(PerfReport::parse("").is_err());
    }

    #[test]
    fn diff_passes_identical_reports() {
        let r = report(&[("a", 10), ("b", 0)]);
        let d = diff(&r, &r, 0.05);
        assert!(d.passed(), "{:?}", d.violations);
        assert!(d.notes.is_empty());
    }

    #[test]
    fn diff_fails_on_regression_beyond_tolerance() {
        let base = report(&[("a", 100)]);
        let ok = report(&[("a", 105)]);
        assert!(diff(&base, &ok, 0.05).passed(), "exactly 5% is tolerated");
        let bad = report(&[("a", 106)]);
        let d = diff(&base, &bad, 0.05);
        assert!(!d.passed());
        assert!(d.violations[0].contains("100 → 106"), "{}", d.violations[0]);
        // A zero baseline regresses on any growth.
        let zero = report(&[("a", 0)]);
        let grew = report(&[("a", 1)]);
        assert!(!diff(&zero, &grew, 0.05).passed());
    }

    #[test]
    fn max_regress_accepts_finite_non_negative_percentages_only() {
        assert_eq!(parse_max_regress("5%"), Ok(0.05));
        assert_eq!(parse_max_regress("0"), Ok(0.0));
        for bad in ["nan", "inf", "-1", "5x", ""] {
            assert!(parse_max_regress(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn improvements_are_reported_with_percentages() {
        let base = report(&[("a", 100)]);
        let cur = report(&[("a", 90)]);
        let d = diff(&base, &cur, 0.05);
        assert!(d.passed());
        assert!(d.notes[0].contains("improved 100 → 90"), "{}", d.notes[0]);
        assert!(d.notes[0].contains("-10.0%"), "{}", d.notes[0]);
        assert_eq!((d.improved, d.new_counters), (1, 0));
    }

    #[test]
    fn diff_flags_missing_counters_and_notes_new_ones() {
        let base = report(&[("a", 10), ("gone", 5)]);
        let cur = report(&[("a", 9), ("new", 1)]);
        let d = diff(&base, &cur, 0.05);
        assert_eq!(d.violations.len(), 1);
        assert!(d.violations[0].contains("gone"));
        assert_eq!(d.notes.len(), 2, "improvement + new counter");
        assert_eq!((d.improved, d.new_counters), (1, 1));
    }

    #[test]
    fn diff_rejects_mismatched_suites() {
        let base = report(&[]);
        let mut cur = report(&[]);
        cur.backend = "file".into();
        assert!(!diff(&base, &cur, 0.05).passed());
    }
}
