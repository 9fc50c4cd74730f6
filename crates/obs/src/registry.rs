//! The unified metrics registry: named counters, gauges, and log-bucketed
//! histograms behind one concurrent handle, with Prometheus-style text
//! exposition and a JSON snapshot.
//!
//! Hot paths touch only atomics — a counter bump is one `fetch_add`, a
//! histogram observation is two. There are **no floats on the recording
//! path**: histograms take `u64` observations (callers fix-point their
//! quantities — the serve layer records normalized IO scaled ×20, which is
//! exact), and floats appear only at snapshot time.
//!
//! ## Histogram buckets and the percentile error bound
//!
//! Buckets are log-linear: values `0..=7` get exact unit buckets, and each
//! power-of-two decade `[2^m, 2^{m+1})` above that is split into 8 linear
//! sub-buckets. [`Histogram::quantile`] is nearest-rank over the bucket
//! *upper* bounds, so a reported percentile `p` satisfies
//! `v ≤ p < v · (1 + 1/8)` for the true rank value `v` — an overestimate
//! of at most 12.5 % (exact below 8). That bound is what lets the serve
//! metrics publish p50/p99 from a fixed array of atomics instead of an
//! unbounded sample vector.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-buckets per power-of-two decade (the percentile error bound is
/// `1/LINEAR_SUBDIVISIONS`).
const SUBS: u64 = 8;
/// Exact unit buckets for values below [`SUBS`].
const EXACT: usize = SUBS as usize;
/// Total bucket count: 8 exact + 61 decades × 8 sub-buckets.
const BUCKETS: usize = EXACT + 61 * SUBS as usize;

/// A monotonically increasing counter.
#[derive(Default, Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (non-negative; the workspace's gauges are all
/// counts and byte sizes).
#[derive(Default, Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed log-linear-bucketed histogram of `u64` observations (see the
/// module docs for the bucket scheme and error bound).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Bucket index of `v`.
    fn index(v: u64) -> usize {
        if v < SUBS {
            v as usize
        } else {
            let m = 63 - v.leading_zeros() as u64; // v in [2^m, 2^{m+1}), m >= 3
            let sub = (v >> (m - 3)) & (SUBS - 1);
            (EXACT as u64 + (m - 3) * SUBS + sub) as usize
        }
    }

    /// Inclusive upper bound of bucket `i` — what [`Histogram::quantile`]
    /// reports.
    fn bound(i: usize) -> u64 {
        if i < EXACT {
            i as u64
        } else {
            let d = (i - EXACT) as u64;
            let (m, sub) = (d / SUBS + 3, d % SUBS);
            let width = 1u64 << (m - 3);
            // Wrapping on purpose: the very top bucket's exclusive bound is
            // 2^64, so its inclusive bound wraps to exactly `u64::MAX`.
            (1u64 << m).wrapping_add((sub + 1) * width).wrapping_sub(1)
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the matching
    /// bucket's inclusive upper bound — an overestimate of at most 12.5 %
    /// (exact for values below 8). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bound(i);
            }
        }
        Self::bound(BUCKETS - 1)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending bound order — the exposition's `le` series.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then_some((Self::bound(i), n))
            })
            .collect()
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A concurrent registry of named metrics (see the module docs).
///
/// Registration takes a short lock; the returned `Arc` handles are then
/// lock-free to update. Names are free-form — exposition sanitizes them to
/// the Prometheus charset — but the convention in this workspace is
/// `family_metric` (e.g. `serve_completed`, `cache_hits`).
#[derive(Default, Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut m = self.metrics.lock().expect("registry poisoned");
        m.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, registered on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.entry(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registered on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.entry(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registered on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.entry(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Convenience: sets the gauge named `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    /// Convenience: adds `v` to the counter named `name`.
    pub fn add(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Prometheus-style text exposition: `# TYPE` lines plus samples, in
    /// sorted name order (byte-stable for identical metric values).
    /// Histograms expose cumulative `_bucket{le="…"}` series over the
    /// non-empty buckets, `_sum`, and `_count`.
    pub fn expose_text(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned").clone();
        let mut out = String::new();
        for (name, metric) in &metrics {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, n) in h.nonzero_buckets() {
                        cumulative += n;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"counters": {...}, "gauges": {...}, "histograms":
    /// {"name": {"count": n, "sum": s, "p50": v, "p99": v}}}`, sorted,
    /// integer-valued (percentiles are bucket bounds), and rendered by the
    /// [`crate::json`] writer.
    pub fn snapshot_json(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned").clone();
        let (mut counters, mut gauges, mut hists) = (Vec::new(), Vec::new(), Vec::new());
        for (name, metric) in &metrics {
            let name = sanitize(name);
            match metric {
                Metric::Counter(c) => counters.push((name, Json::Uint(c.get()))),
                Metric::Gauge(g) => gauges.push((name, Json::Uint(g.get()))),
                Metric::Histogram(h) => hists.push((
                    name,
                    Json::object([
                        ("count", Json::Uint(h.count())),
                        ("sum", Json::Uint(h.sum())),
                        ("p50", Json::Uint(h.quantile(0.50))),
                        ("p99", Json::Uint(h.quantile(0.99))),
                    ]),
                )),
            }
        }
        Json::object([
            ("counters", Json::Object(counters)),
            ("gauges", Json::Object(gauges)),
            ("histograms", Json::Object(hists)),
        ])
        .render()
    }
}

/// Maps a metric name onto the Prometheus charset (`[a-zA-Z0-9_:]`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        r.counter("hits").add(3);
        r.counter("hits").add(1);
        r.set_gauge("depth", 17);
        assert_eq!(r.counter("hits").get(), 4);
        assert_eq!(r.gauge("depth").get(), 17);
        assert_eq!(r.names(), vec!["depth".to_string(), "hits".to_string()]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_conflicts_are_rejected() {
        let r = Registry::new();
        r.counter("x").add(1);
        r.gauge("x");
    }

    #[test]
    fn histogram_buckets_are_exact_below_eight() {
        let h = Histogram::default();
        for v in 0..8 {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 28);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn quantile_error_is_bounded_by_an_eighth() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v * 20); // the serve layer's ×20 fix-point
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // True rank values: 50*20 = 1000 and 99*20 = 1980.
        assert!((1000..=1125).contains(&p50), "p50 bound = {p50}");
        assert!((1980..=2228).contains(&p99), "p99 bound = {p99}");
    }

    #[test]
    fn bucket_bound_covers_its_own_index() {
        for v in [0u64, 1, 7, 8, 9, 63, 64, 100, 1020, 65535, 1 << 40] {
            let i = Histogram::index(v);
            let b = Histogram::bound(i);
            assert!(b >= v, "bound({i}) = {b} < {v}");
            if v >= 8 {
                assert!(b < v + v / 8 + 1, "bound({i}) = {b} overshoots {v}");
            } else {
                assert_eq!(b, v);
            }
        }
    }

    #[test]
    fn exposition_is_sorted_and_parseable_shape() {
        let r = Registry::new();
        r.counter("serve_completed").add(9);
        r.set_gauge("serve/queue-depth", 2); // sanitized
        let h = r.histogram("serve_io_x20");
        h.record(40);
        h.record(41);
        let text = r.expose_text();
        assert!(text.contains("# TYPE serve_completed counter"), "{text}");
        assert!(text.contains("serve_completed 9"), "{text}");
        assert!(text.contains("serve_queue_depth 2"), "{text}");
        assert!(text.contains("# TYPE serve_io_x20 histogram"), "{text}");
        assert!(
            text.contains("serve_io_x20_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("serve_io_x20_sum 81"), "{text}");
        assert!(text.contains("serve_io_x20_count 2"), "{text}");
        // Cumulative le series never decreases.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative series decreased: {line}");
            last = v;
        }
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let r = Registry::new();
        r.counter("c").add(1);
        r.set_gauge("g", 2);
        r.histogram("h").record(5);
        r.histogram("serve/io-x20").record(40); // sanitized; p50/p99 are the bucket bound 43
        assert_eq!(
            r.snapshot_json(),
            "{\n  \"counters\": {\n    \"c\": 1\n  },\n  \"gauges\": {\n    \"g\": 2\n  },\n  \
             \"histograms\": {\n    \
             \"h\": {\n      \"count\": 1,\n      \"sum\": 5,\n      \"p50\": 5,\n      \"p99\": 5\n    },\n    \
             \"serve_io_x20\": {\n      \"count\": 1,\n      \"sum\": 40,\n      \"p50\": 43,\n      \"p99\": 43\n    }\n  \
             }\n}\n"
        );
    }

    #[test]
    fn concurrent_updates_add_up() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("n");
                    let h = r.histogram("h");
                    for i in 0..1000u64 {
                        c.add(1);
                        h.record(i % 64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("n").get(), 4000);
        assert_eq!(r.histogram("h").count(), 4000);
    }
}
