//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit, as `BENCHMARK.json` lists them (a unit test keeps the two equal).

use crate::report::Outcome;

/// End-to-end metrics: `(name, unit, better)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("norm_io_per_query", "pages", "lower"),
    ("index_bytes_per_contact", "B", "lower"),
    ("ingest_contacts_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("verified_frac", "ratio", "higher"),
];

/// Per-layer metrics: `(name, unit, better)`, reported by traced runs. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("contact.dn_build_ms", "ms", "lower"),
    ("contact.multires_build_ms", "ms", "lower"),
    ("graph.build_ms", "ms", "lower"),
    ("graph.build_pages_written", "pages", "lower"),
    ("graph.query_self_us", "us", "lower"),
    ("graph.visited_per_query", "count", "lower"),
    ("grid.build_ms", "ms", "lower"),
    ("grid.query_self_us", "us", "lower"),
    ("grid.visited_per_query", "count", "lower"),
    ("grid.examined_per_query", "count", "lower"),
    ("storage.device_reads_per_query", "pages", "lower"),
    ("storage.device_us_per_query", "us", "lower"),
    ("storage.device_share", "ratio", "lower"),
    ("storage.cache_hit_rate", "ratio", "higher"),
    ("storage.cache_evictions", "count", "lower"),
    ("storage.spill_pages", "pages", "lower"),
    ("live.append_p50_us", "us", "lower"),
    ("live.append_p99_us", "us", "lower"),
    ("live.seals", "count", "lower"),
    ("live.seal_ms", "ms", "lower"),
    ("live.seal_pages_written", "pages", "lower"),
    ("live.legs_per_query", "count", "lower"),
    ("live.leg_us", "us", "lower"),
    ("live.cross_epoch_frac", "ratio", "lower"),
    ("serve.queue_wait_p50_us", "us", "lower"),
    ("serve.queue_wait_p99_us", "us", "lower"),
    ("serve.service_p50_us", "us", "lower"),
    ("serve.service_p99_us", "us", "lower"),
    ("serve.batched_frac", "ratio", "higher"),
    ("serve.rejected", "count", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("obs.spans_per_query", "count", "lower"),
];

/// Per-layer values of one traced run, every catalogued metric starting
/// at 0.
#[derive(Debug)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Self {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl Layers {
    /// Sets a catalogued metric. Panics on a name missing from the
    /// catalogue (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"));
        self.values[i] = value;
    }

    /// Adds every per-layer metric, in catalogue order, to `out`.
    pub fn emit(&self, out: &mut Outcome) {
        for (&(name, unit, _), &v) in PER_LAYER.iter().zip(&self.values) {
            out.metric(name, v, unit);
        }
    }
}
