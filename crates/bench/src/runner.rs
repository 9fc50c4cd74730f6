//! Query-batch execution and aggregation.
//!
//! The paper reports per-setting averages over 400 random queries (§6); the
//! runner executes a batch against any [`ReachIndex`] and aggregates the
//! paper's metrics (normalized IOs, CPU time) plus auxiliary counters.

use reach_core::{Query, ReachIndex, ReachRequest};
use reach_storage::BlockDevice;
use std::time::Duration;

/// Aggregate result of one query batch on one evaluator.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchResult {
    /// Queries executed.
    pub queries: usize,
    /// Fraction answered "reachable".
    pub reachable_frac: f64,
    /// Mean normalized IO per query (`random + seq/20`).
    pub mean_io: f64,
    /// Mean random IOs per query.
    pub mean_random: f64,
    /// Mean sequential IOs per query.
    pub mean_seq: f64,
    /// Mean CPU time per query.
    pub mean_cpu: Duration,
    /// Mean vertices/cells inspected per query.
    pub mean_visited: f64,
}

/// Runs `queries` against `index`, averaging the paper's metrics. Every
/// evaluator enters through the unified [`ReachRequest`] envelope — the
/// harness has no per-index dispatch.
pub fn run_batch(index: &dyn ReachIndex, queries: &[Query]) -> BatchResult {
    let mut total_io = 0.0;
    let mut total_rand = 0u64;
    let mut total_seq = 0u64;
    let mut total_cpu = Duration::ZERO;
    let mut total_visited = 0u64;
    let mut reachable = 0usize;
    for q in queries {
        let r = index
            .answer(&ReachRequest::from(*q))
            .unwrap_or_else(|e| panic!("query {q} failed on {}: {e}", index.name()));
        total_io += r.stats.normalized_io();
        total_rand += r.stats.random_ios;
        total_seq += r.stats.seq_ios;
        total_cpu += r.stats.cpu;
        total_visited += r.stats.visited;
        reachable += usize::from(r.reachable());
    }
    let n = queries.len().max(1) as f64;
    BatchResult {
        queries: queries.len(),
        reachable_frac: reachable as f64 / n,
        mean_io: total_io / n,
        mean_random: total_rand as f64 / n,
        mean_seq: total_seq as f64 / n,
        mean_cpu: total_cpu.div_f64(n),
        mean_visited: total_visited as f64 / n,
    }
}

/// Wall-clock timing of a construction step.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = std::time::Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Asserts two devices hold byte-identical pages — the build-equivalence
/// contract shared by the perf suite, `exp_trace --build-budget`, and the
/// tier-1 streaming suite. Resets both devices' counters afterwards (the
/// dump itself must not pollute IO accounting).
pub fn assert_same_pages(a: &mut dyn BlockDevice, b: &mut dyn BlockDevice, what: &str) {
    assert_eq!(a.page_size(), b.page_size(), "{what}: page size differs");
    assert_eq!(
        a.len_pages(),
        b.len_pages(),
        "{what}: device length differs"
    );
    let page_size = a.page_size();
    let (mut ba, mut bb) = (vec![0u8; page_size], vec![0u8; page_size]);
    for p in 0..a.len_pages() {
        a.read_page_into(p, &mut ba).expect("page in bounds");
        b.read_page_into(p, &mut bb).expect("page in bounds");
        assert_eq!(ba, bb, "{what}: page {p} differs between builds");
    }
    a.reset_stats();
    b.reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::{IndexError, ObjectId, QueryOutcome, QueryResult, QueryStats, TimeInterval};

    struct Fake;
    impl ReachIndex for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn evaluate(&self, q: &Query) -> Result<QueryResult, IndexError> {
            Ok(QueryResult {
                outcome: if q.source.0.is_multiple_of(2) {
                    QueryOutcome::reachable()
                } else {
                    QueryOutcome::UNREACHABLE
                },
                stats: QueryStats {
                    random_ios: 2,
                    seq_ios: 20,
                    visited: 5,
                    examined: 0,
                    cpu: Duration::from_micros(10),
                },
            })
        }
    }

    #[test]
    fn batch_averages() {
        let queries: Vec<Query> = (0..4)
            .map(|i| Query::new(ObjectId(i), ObjectId(i + 10), TimeInterval::new(0, 5)))
            .collect();
        let r = run_batch(&Fake, &queries);
        assert_eq!(r.queries, 4);
        assert!((r.reachable_frac - 0.5).abs() < 1e-12);
        assert!((r.mean_io - 3.0).abs() < 1e-12);
        assert!((r.mean_random - 2.0).abs() < 1e-12);
        assert!((r.mean_visited - 5.0).abs() < 1e-12);
        assert_eq!(r.mean_cpu, Duration::from_micros(10));
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
