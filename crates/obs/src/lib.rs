//! Structured observability for the reachability stack: per-query trace
//! spans, a unified metrics registry, and a flight recorder.
//!
//! The crate is deliberately **zero-dependency** (std only) so every layer
//! of the workspace — including `reach_core`, whose request envelope
//! carries the [`Tracer`] — can depend on it without a cycle.
//!
//! Three pieces, usable independently or bundled through [`Obs`]:
//!
//! * [`Tracer`] / [`Span`] ([`span`]): a per-query recorder handle carried
//!   through `ReachRequest`. Disabled by default and free when disabled;
//!   enabled, a query yields a span tree (serve admission → cohort →
//!   dispatch → per-shard leg) whose per-span [`IoDelta`]s sum to the
//!   query's `IoStats` totals.
//! * [`Registry`] ([`registry`]): named counters, gauges, and log-bucketed
//!   histograms (no floats on the recording path) with Prometheus-style
//!   text exposition and a JSON snapshot.
//! * [`FlightRecorder`] / [`SlowQueryLog`] ([`recorder`]): a lock-striped
//!   ring of recent span events plus a bounded log of threshold-crossing
//!   queries, dumped on demand or on worker panic.
//!
//! [`json`] is the workspace's one JSON writer (the registry snapshot, the
//! perf-gate report and `streach_exp --json` all render through it).
//!
//! The binding contract, asserted by the tier-1 `observability.rs` suite:
//! **attaching observability must not change the paper's counted-IO
//! numbers** — tracing only observes counters the evaluation computes
//! anyway.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod recorder;
pub mod registry;
pub mod span;

pub use recorder::{FlightRecorder, SlowQuery, SlowQueryLog, SlowQueryPolicy};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use span::{now_ticks, IoDelta, Span, SpanEvent, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for an [`Obs`] bundle.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Whether queries admitted through this bundle get an enabled tracer.
    pub trace: bool,
    /// Flight-recorder capacity in events (0 disables the recorder).
    pub recorder_capacity: usize,
    /// Slow-query admission thresholds.
    pub slow: SlowQueryPolicy,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            trace: true,
            recorder_capacity: 4096,
            slow: SlowQueryPolicy::default(),
        }
    }
}

/// The serving stack's observability bundle: a shared [`Registry`], an
/// optional [`FlightRecorder`], a [`SlowQueryLog`], and a tracer mint.
///
/// One `Obs` is shared (via `Arc`) between the serve pool, the exposition
/// writer, and whoever dumps the recorder.
#[derive(Debug)]
pub struct Obs {
    config: ObsConfig,
    registry: Registry,
    recorder: Option<Arc<FlightRecorder>>,
    slow: SlowQueryLog,
    next_trace: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new(ObsConfig::default())
    }
}

impl Obs {
    /// A bundle with the given configuration.
    pub fn new(config: ObsConfig) -> Self {
        Self {
            config,
            registry: Registry::new(),
            recorder: (config.recorder_capacity > 0)
                .then(|| Arc::new(FlightRecorder::with_capacity(config.recorder_capacity))),
            slow: SlowQueryLog::new(config.slow),
            next_trace: AtomicU64::new(1),
        }
    }

    /// A bundle whose tracer mint is disabled (metrics and slow-query log
    /// still active) — the configuration the perf gate runs under.
    pub fn untraced() -> Self {
        Self::new(ObsConfig {
            trace: false,
            ..ObsConfig::default()
        })
    }

    /// The configuration this bundle was built with.
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder, when one is configured.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The slow-query log.
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slow
    }

    /// Mints a tracer for one query: enabled (with a fresh trace id, wired
    /// to the flight recorder when present) if the bundle traces, otherwise
    /// [`Tracer::off`].
    pub fn tracer(&self) -> Tracer {
        if !self.config.trace {
            return Tracer::off();
        }
        let id = self.next_trace.fetch_add(1, Ordering::Relaxed);
        match &self.recorder {
            Some(rec) => Tracer::recorded(id, Arc::clone(rec)),
            None => Tracer::enabled(id),
        }
    }

    /// Offers one completed query to the slow-query log (see
    /// [`SlowQueryLog::observe`]).
    pub fn observe_query(&self, trace: u64, what: &str, reads: u64, ticks: u64) -> bool {
        self.slow.observe(trace, what, reads, ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bundle_mints_distinct_recorded_tracers() {
        let obs = Obs::default();
        let a = obs.tracer();
        let b = obs.tracer();
        assert!(a.is_enabled() && b.is_enabled());
        assert_ne!(a.trace_id(), b.trace_id());
        a.span("x").finish();
        let rec = obs.recorder().expect("default bundle has a recorder");
        assert_eq!(rec.recorded(), 1);
    }

    #[test]
    fn untraced_bundle_mints_disabled_tracers() {
        let obs = Obs::untraced();
        assert!(!obs.tracer().is_enabled());
        assert!(obs.recorder().is_some(), "recorder stays available");
    }

    #[test]
    fn zero_capacity_disables_the_recorder() {
        let obs = Obs::new(ObsConfig {
            recorder_capacity: 0,
            ..ObsConfig::default()
        });
        assert!(obs.recorder().is_none());
        let t = obs.tracer();
        assert!(t.is_enabled(), "tracing works without a recorder");
        t.span("x").finish();
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn observe_query_feeds_the_slow_log() {
        let obs = Obs::new(ObsConfig {
            slow: SlowQueryPolicy {
                min_reads: 10,
                min_ticks: u64::MAX,
                keep: 8,
            },
            ..ObsConfig::default()
        });
        assert!(!obs.observe_query(1, "q1", 9, 0));
        assert!(obs.observe_query(2, "q2", 10, 0));
        assert_eq!(obs.slow_log().hits(), 1);
    }
}
