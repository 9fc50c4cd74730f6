//! Per-query trace spans: the [`Tracer`] handle carried through the
//! request envelope and the [`Span`] guards the stack opens around each
//! phase of evaluation.
//!
//! The design constraint is the repository's IO-accounting contract: the
//! paper's counted-IO numbers must be *byte-identical* whether tracing is
//! attached or not. A disabled [`Tracer`] is therefore a single `Option`
//! that is `None` — every operation on it (and on the [`Span`]s it mints)
//! is a no-op that never allocates, never takes a lock, and never touches
//! a device. An enabled tracer only *observes* counters the evaluation
//! already computes (the per-leg `IoStats` deltas the indexes sample
//! anyway), so attaching it cannot perturb them either.
//!
//! Spans form a tree per trace (one trace per query): the tracer keeps an
//! *ambient* parent — opening a span nests it under the innermost open
//! span on this trace, finishing it restores the parent. Traces are
//! single-threaded at any instant (a request is evaluated by exactly one
//! worker at a time), which is what makes the ambient scheme exact.

use crate::recorder::FlightRecorder;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonic tick source: nanoseconds since the first observation in this
/// process. Ticks are wall-clock-free (no epochs, no adjustments) and only
/// ever compared to each other.
pub fn now_ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Device-IO counters attributed to one span — the span-local slice of the
/// workspace's `IoStats` (defined here, dependency-free, so storage can
/// convert into it without a cycle).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IoDelta {
    /// Page reads that required a seek.
    pub random_reads: u64,
    /// Page reads that continued a consecutive scan.
    pub seq_reads: u64,
    /// Page writes that required a seek.
    pub random_writes: u64,
    /// Page writes that continued a consecutive scan.
    pub seq_writes: u64,
    /// Reads served from a cache without touching the device.
    pub cache_hits: u64,
}

impl IoDelta {
    /// Reads-only delta (the common span payload: queries never write).
    pub fn reads(random: u64, seq: u64) -> Self {
        Self {
            random_reads: random,
            seq_reads: seq,
            ..Self::default()
        }
    }

    /// Total device page reads.
    pub fn total_reads(&self) -> u64 {
        self.random_reads + self.seq_reads
    }

    /// Total device page writes.
    pub fn total_writes(&self) -> u64 {
        self.random_writes + self.seq_writes
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &IoDelta) -> IoDelta {
        IoDelta {
            random_reads: self.random_reads + other.random_reads,
            seq_reads: self.seq_reads + other.seq_reads,
            random_writes: self.random_writes + other.random_writes,
            seq_writes: self.seq_writes + other.seq_writes,
            cache_hits: self.cache_hits + other.cache_hits,
        }
    }
}

/// One finished span: a node of a query's trace tree.
#[derive(Clone, PartialEq, Debug)]
pub struct SpanEvent {
    /// The trace (query) this span belongs to.
    pub trace: u64,
    /// Span id, unique within the trace (1-based).
    pub span: u32,
    /// Parent span id; 0 for a root span.
    pub parent: u32,
    /// Static phase name (e.g. `serve/queue`, `shard/leg`).
    pub name: &'static str,
    /// Free-form detail (e.g. the epoch range of a shard leg). Empty when
    /// the phase needs none.
    pub label: String,
    /// Monotonic tick ([`now_ticks`]) the span opened.
    pub start: u64,
    /// Monotonic tick the span finished.
    pub end: u64,
    /// Device IO attributed to this span (exclusive of children).
    pub io: IoDelta,
    /// Vertices / cells the span visited (exclusive of children).
    pub visited: u64,
    /// Frontier seeds handed into this span (cross-shard legs record the
    /// `FrontierHandoff` seed count here).
    pub seeds: u64,
}

impl SpanEvent {
    /// Deterministic size estimate used by the flight recorder's byte
    /// accounting: the fixed footprint plus the label's heap bytes.
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<SpanEvent>() + self.label.len()) as u64
    }

    /// Wall time the span covered, in ticks (nanoseconds).
    pub fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// One-line rendering for flight-recorder dumps.
    pub fn render(&self) -> String {
        let mut s = format!(
            "trace={} span={} parent={} {}",
            self.trace, self.span, self.parent, self.name
        );
        if !self.label.is_empty() {
            s.push_str(&format!(" [{}]", self.label));
        }
        s.push_str(&format!(
            " ticks={} reads={}r+{}s writes={}r+{}s hits={}",
            self.ticks(),
            self.io.random_reads,
            self.io.seq_reads,
            self.io.random_writes,
            self.io.seq_writes,
            self.io.cache_hits,
        ));
        if self.seeds > 0 {
            s.push_str(&format!(" seeds={}", self.seeds));
        }
        if self.visited > 0 {
            s.push_str(&format!(" visited={}", self.visited));
        }
        s
    }
}

/// Shared state of one enabled trace.
#[derive(Debug)]
struct TraceCore {
    trace_id: u64,
    next_span: AtomicU32,
    /// Innermost open span id (0 = root level); the parent of the next
    /// span opened on this trace.
    ambient: AtomicU32,
    events: Mutex<Vec<SpanEvent>>,
    recorder: Option<Arc<FlightRecorder>>,
}

/// The per-query recorder handle carried inside the request envelope.
///
/// Cheap to clone (one `Arc` bump when enabled, nothing when disabled) and
/// cheap to ignore: the default tracer is *off* and every method on it is
/// a no-op. See the module docs for the accounting contract.
#[derive(Clone, Default, Debug)]
pub struct Tracer {
    core: Option<Arc<TraceCore>>,
}

impl Tracer {
    /// The disabled tracer: records nothing, allocates nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// An enabled tracer collecting spans in memory under `trace_id`.
    pub fn enabled(trace_id: u64) -> Self {
        Self::build(trace_id, None)
    }

    /// An enabled tracer that additionally mirrors every finished span
    /// into `recorder`.
    pub fn recorded(trace_id: u64, recorder: Arc<FlightRecorder>) -> Self {
        Self::build(trace_id, Some(recorder))
    }

    fn build(trace_id: u64, recorder: Option<Arc<FlightRecorder>>) -> Self {
        Self {
            core: Some(Arc::new(TraceCore {
                trace_id,
                next_span: AtomicU32::new(1),
                ambient: AtomicU32::new(0),
                events: Mutex::new(Vec::new()),
                recorder,
            })),
        }
    }

    /// Whether spans opened on this tracer record anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The trace id, 0 when disabled.
    pub fn trace_id(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.trace_id)
    }

    /// Opens a span named `name`, nested under the innermost open span.
    /// On a disabled tracer this is free and the returned span is inert.
    pub fn span(&self, name: &'static str) -> Span {
        match &self.core {
            None => Span::inert(name),
            Some(core) => {
                let id = core.next_span.fetch_add(1, Ordering::Relaxed);
                let parent = core.ambient.swap(id, Ordering::Relaxed);
                Span {
                    core: Some(Arc::clone(core)),
                    id,
                    parent,
                    name,
                    label: String::new(),
                    start: now_ticks(),
                    io: IoDelta::default(),
                    visited: 0,
                    seeds: 0,
                }
            }
        }
    }

    /// Every span finished on this trace so far, in finish order.
    pub fn events(&self) -> Vec<SpanEvent> {
        match &self.core {
            None => Vec::new(),
            Some(core) => core.events.lock().expect("trace events poisoned").clone(),
        }
    }

    /// Drains the finished spans, leaving the trace collecting afresh.
    pub fn take_events(&self) -> Vec<SpanEvent> {
        match &self.core {
            None => Vec::new(),
            Some(core) => std::mem::take(&mut core.events.lock().expect("trace events poisoned")),
        }
    }
}

/// An open span; finishing it (explicitly or by drop) records one
/// [`SpanEvent`]. Inert when minted by a disabled tracer.
#[derive(Debug)]
pub struct Span {
    core: Option<Arc<TraceCore>>,
    id: u32,
    parent: u32,
    name: &'static str,
    label: String,
    start: u64,
    io: IoDelta,
    visited: u64,
    seeds: u64,
}

impl Span {
    fn inert(name: &'static str) -> Self {
        Self {
            core: None,
            id: 0,
            parent: 0,
            name,
            label: String::new(),
            start: 0,
            io: IoDelta::default(),
            visited: 0,
            seeds: 0,
        }
    }

    /// Whether this span records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Attaches a free-form detail label (no-op when inert — the closure
    /// form avoids formatting cost on the disabled path).
    pub fn label_with(&mut self, f: impl FnOnce() -> String) {
        if self.core.is_some() {
            self.label = f();
        }
    }

    /// Adds a device-IO delta to this span's attribution.
    pub fn add_io(&mut self, delta: IoDelta) {
        if self.core.is_some() {
            self.io = self.io.merged(&delta);
        }
    }

    /// Adds visited-vertex work to this span's attribution.
    pub fn add_visited(&mut self, n: u64) {
        if self.core.is_some() {
            self.visited += n;
        }
    }

    /// Records how many frontier seeds entered this span (cross-shard leg
    /// handoff counts).
    pub fn set_seeds(&mut self, n: u64) {
        if self.core.is_some() {
            self.seeds = n;
        }
    }

    /// Finishes the span now (equivalent to dropping it, made explicit for
    /// call sites where the scope outlives the phase).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(core) = self.core.take() else {
            return;
        };
        // Restore the ambient parent for the next sibling. Structured
        // finish order makes this exact; a stale value only mis-parents
        // later spans, it never corrupts counters.
        core.ambient.store(self.parent, Ordering::Relaxed);
        let event = SpanEvent {
            trace: core.trace_id,
            span: self.id,
            parent: self.parent,
            name: self.name,
            label: std::mem::take(&mut self.label),
            start: self.start,
            end: now_ticks(),
            io: self.io,
            visited: self.visited,
            seeds: self.seeds,
        };
        if let Some(recorder) = &core.recorder {
            recorder.record(event.clone());
        }
        core.events
            .lock()
            .expect("trace events poisoned")
            .push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.is_enabled());
        assert_eq!(t.trace_id(), 0);
        let mut s = t.span("anything");
        s.add_io(IoDelta::reads(5, 3));
        s.set_seeds(9);
        s.label_with(|| unreachable!("label closure must not run when disabled"));
        s.finish();
        assert!(t.events().is_empty());
    }

    #[test]
    fn spans_nest_under_the_ambient_parent() {
        let t = Tracer::enabled(7);
        {
            let root = t.span("root");
            {
                let mut leg = t.span("leg");
                leg.add_io(IoDelta::reads(2, 40));
                leg.set_seeds(3);
            }
            {
                let mut leg = t.span("leg");
                leg.add_io(IoDelta::reads(1, 0));
                leg.label_with(|| "epoch [5,9)".into());
            }
            root.finish();
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        let root = events.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(root.parent, 0);
        let legs: Vec<_> = events.iter().filter(|e| e.name == "leg").collect();
        assert_eq!(legs.len(), 2);
        for leg in &legs {
            assert_eq!(leg.parent, root.span, "legs nest under the root");
            assert_eq!(leg.trace, 7);
        }
        assert_eq!(legs[0].seeds, 3);
        assert_eq!(legs[1].label, "epoch [5,9)");
        let total: u64 = legs.iter().map(|e| e.io.total_reads()).sum();
        assert_eq!(total, 43);
    }

    #[test]
    fn siblings_after_a_finished_child_re_parent_correctly() {
        let t = Tracer::enabled(1);
        let a = t.span("a");
        let b = t.span("b");
        drop(b);
        let c = t.span("c"); // sibling of b, child of a
        drop(c);
        drop(a);
        let events = t.events();
        let a_id = events.iter().find(|e| e.name == "a").unwrap().span;
        assert!(events
            .iter()
            .filter(|e| e.name != "a")
            .all(|e| e.parent == a_id));
    }

    #[test]
    fn take_events_drains() {
        let t = Tracer::enabled(3);
        t.span("x").finish();
        assert_eq!(t.take_events().len(), 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn ticks_are_monotonic() {
        let a = now_ticks();
        let b = now_ticks();
        assert!(b >= a);
    }

    #[test]
    fn render_mentions_the_counters() {
        let e = SpanEvent {
            trace: 4,
            span: 2,
            parent: 1,
            name: "shard/leg",
            label: "[0,8)".into(),
            start: 10,
            end: 30,
            io: IoDelta::reads(5, 20),
            visited: 11,
            seeds: 6,
        };
        let line = e.render();
        assert!(line.contains("shard/leg"), "{line}");
        assert!(line.contains("[0,8)"), "{line}");
        assert!(line.contains("reads=5r+20s"), "{line}");
        assert!(line.contains("seeds=6"), "{line}");
        assert!(line.contains("visited=11"), "{line}");
        assert!(e.approx_bytes() > e.label.len() as u64);
        assert_eq!(e.ticks(), 20);
    }
}
