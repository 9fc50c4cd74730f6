//! The traced run's span log.
//!
//! Spans are `reach_obs` [`SpanEvent`]s: the benchmark opens its own spans
//! (`bench/*`, `contact/*`, `graph/build`, `grid/build`, `live/append`,
//! `storage/read`) on one [`reach_obs::Tracer`] per query or per set-up, and
//! the serving stack nests its own spans (`serve/*`, `index/dispatch`,
//! `shard/*`) under them when the tracer rides on a `ReachRequest`. Every
//! span carries its trace id (one per query), its own id, its parent, and
//! monotonic start and end ticks in nanoseconds.
//!
//! The log aggregates every trace into per-name totals and self times (a
//! span's duration minus the part of it its children cover) and keeps the
//! raw spans of the first [`KEPT_TRACES`] traces in memory until
//! [`TraceLog::report`] writes them out.

use crate::report::Outcome;
use reach_obs::SpanEvent;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;

/// Per-name totals over every absorbed trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Traces whose raw spans the span file keeps (the first ones absorbed).
pub const KEPT_TRACES: usize = 40;

/// Aggregated spans plus the raw spans of the first [`KEPT_TRACES`] traces.
#[derive(Debug, Default)]
pub struct TraceLog {
    by_name: BTreeMap<&'static str, NameTotals>,
    kept: Vec<SpanEvent>,
    kept_traces: usize,
}

impl TraceLog {
    /// Folds one trace (all spans sharing a trace id) into the totals.
    pub fn absorb(&mut self, events: Vec<SpanEvent>) {
        for (name, t) in totals(&events) {
            let acc = self.by_name.entry(name).or_default();
            acc.count += t.count;
            acc.total_ns += t.total_ns;
            acc.self_ns += t.self_ns;
        }
        if self.kept_traces < KEPT_TRACES && !events.is_empty() {
            self.kept_traces += 1;
            self.kept.extend(events);
        }
    }

    /// Totals of `name` (zero when no such span was seen).
    pub fn totals(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Adds one readable line per span name to `out` (how many, mean
    /// duration, mean self time) and writes the span file
    /// `trace-<workload>-<seed>.json` next to the benchmark sources.
    pub fn report(&self, workload: &str, seed: u64, out: &mut Outcome) {
        for (name, t) in &self.by_name {
            let per = |ns: u64| ns as f64 / 1e3 / t.count.max(1) as f64;
            out.notes.push(format!(
                "span {name:<24} {:>9} spans, mean {:>10.2} us, self {:>10.2} us",
                t.count,
                per(t.total_ns),
                per(t.self_ns)
            ));
        }
        let path = crate::run_dir().join(format!("trace-{workload}-{seed}.json"));
        match self.write_json(&path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.notes.push(format!("could not write spans: {e}")),
        }
    }

    /// Writes the kept spans and the per-name totals as one JSON document.
    fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"totals\": {{")?;
        let mut first = true;
        for (name, t) in &self.by_name {
            let sep = if std::mem::take(&mut first) { "" } else { "," };
            writeln!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(out, "}}, \"spans\": [")?;
        for (i, e) in self.kept.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            writeln!(
                out,
                "{sep}{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"label\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                e.trace,
                e.span,
                e.parent,
                e.name,
                escape(&e.label),
                e.start,
                e.end
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Per-name count, duration, and self time of one trace's spans.
fn totals(events: &[SpanEvent]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for e in events {
        if e.parent != 0 {
            children.entry(e.parent).or_default().push((e.start, e.end));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for e in events {
        let covered = children
            .get_mut(&e.span)
            .map_or(0, |c| union_within(c, e.start, e.end));
        let t = out.entry(e.name).or_default();
        t.count += 1;
        t.total_ns += e.ticks();
        t.self_ns += e.ticks().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_obs::Tracer;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(union_within(&mut spans, 0, 45), 25);
        let tracer = Tracer::enabled(7);
        {
            let _outer = tracer.span("bench/answer");
            let _inner = tracer.span("storage/read");
        }
        let mut log = TraceLog::default();
        log.absorb(tracer.take_events());
        let outer = log.totals("bench/answer");
        let inner = log.totals("storage/read");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }
}
