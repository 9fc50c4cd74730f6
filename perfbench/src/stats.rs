//! Order statistics, process memory, and the drift reference loop.

use std::time::Instant;

/// Nearest-rank percentile (`p` in `0..=100`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The fewest rounds a run takes its best times over.
pub const MIN_ROUNDS: usize = 3;

/// How many rounds a run takes its best times over: a fixed count for a
/// given `seconds` (`round_s` is about how long one round takes on a quiet
/// two-core machine), so a change that makes a round cheaper or dearer
/// never changes how many samples each best is taken over. A run that
/// finishes them early goes on until `seconds` have passed; those further
/// rounds are checked and recorded, not measured.
pub fn measured_rounds(seconds: f64, round_s: f64) -> usize {
    ((seconds / round_s).round() as usize).max(MIN_ROUNDS)
}

/// Element-wise minimum over rows of equal length: for work repeated once
/// per round, the best time each item achieved.
pub fn best_of<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for row in rows {
        if best.is_empty() {
            best = row.to_vec();
        } else {
            assert_eq!(best.len(), row.len(), "rounds repeat the same work");
            for (b, &v) in best.iter_mut().zip(row) {
                *b = b.min(v);
            }
        }
    }
    best
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed memory-bound loop (a pointer chase over a 16 MB random cycle),
/// timed at the start and end of every run. A diagnostic of machine drift
/// only: no metric is ever scaled by it.
pub struct ReferenceLoop {
    next: Vec<u32>,
}

impl ReferenceLoop {
    const LEN: usize = 1 << 22;
    const STEPS: usize = 1 << 21;

    /// Builds the cycle (Sattolo's shuffle with a fixed seed; untimed).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..Self::LEN as u32).collect();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in (1..Self::LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % i as u64) as usize;
            next.swap(i, j);
        }
        Self { next }
    }

    /// Seconds one fixed-length chase takes.
    pub fn time(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        started.elapsed().as_secs_f64()
    }
}

impl Default for ReferenceLoop {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let rows = [vec![3.0, 1.0], vec![2.0, 5.0]];
        assert_eq!(best_of(rows.iter().map(Vec::as_slice)), vec![2.0, 1.0]);
    }
}
