//! What a run prints: readable lines first, then the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Queries attempted (every round).
    pub attempted: u64,
    /// Queries that returned an error or were refused at admission.
    pub failed: u64,
    /// Answers equal to the oracle's.
    pub verified: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Per-round values, printed beside the median round.
    pub rounds: Vec<Vec<(&'static str, f64)>>,
    /// Seconds each set-up repetition took.
    pub setup_s: Vec<f64>,
    /// Seconds the reference loop took at the start and at the end.
    pub reference_s: (f64, f64),
    /// Free-form readable lines (dataset shape, closure checks).
    pub notes: Vec<String>,
    /// Checks other than answers that failed (records the index did not
    /// take as given); any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a metric. Panics on a non-finite value (a bug in this
    /// benchmark).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} measured {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Answers equal to the oracle's over queries attempted; errors and
    /// refusals count as misses.
    pub fn verified_frac(&self) -> f64 {
        self.verified as f64 / self.attempted.max(1) as f64
    }

    /// Whether every attempted query was answered and agreed with the
    /// oracle, and no other check failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.verified == self.attempted && self.problems.is_empty()
    }

    /// The readable lines, the per-round/noise record line, and the JSON
    /// result line, in print order.
    pub fn render(&self, workload: &str) -> Vec<String> {
        let mut lines: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        lines.extend(self.problems.iter().map(|p| format!("# FAILED: {p}")));
        for (i, round) in self.rounds.iter().enumerate() {
            let mut line = format!("round {i}:");
            for (k, v) in round {
                let _ = write!(line, " {k}={}", num(*v));
            }
            lines.push(line);
        }
        lines.push(format!("set-up repetitions (s): {}", list(&self.setup_s)));
        lines.push(format!(
            "reference loop: start {} s, end {} s (drift diagnostic only)",
            num(self.reference_s.0),
            num(self.reference_s.1)
        ));
        for m in &self.metrics {
            lines.push(format!(
                "{workload:<11} {:<32} {:>16} {}",
                m.name,
                num(m.value),
                m.unit
            ));
        }
        lines.push(self.record_json(workload));
        lines.push(self.result_json());
        lines
    }

    /// The noise record: per-round values and the reference loop, as JSON.
    pub fn record_json(&self, workload: &str) -> String {
        let rounds: Vec<String> = self
            .rounds
            .iter()
            .map(|r| {
                let fields: Vec<String> = r
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"rounds\": [{}], \"setup_s\": [{}], \
             \"reference_loop_s\": [{}, {}]}}",
            rounds.join(", "),
            list(&self.setup_s),
            num(self.reference_s.0),
            num(self.reference_s.1)
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives
/// (`null` for a non-finite value, which only a per-round record can hold).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| num(v))
        .collect::<Vec<_>>()
        .join(", ")
}
