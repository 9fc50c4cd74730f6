//! # reach-bench
//!
//! The experiment harness reproducing every table and figure of the paper's
//! evaluation (§6):
//!
//! * [`datasets`] — the scaled dataset presets (RWP / VN / VNR families),
//!   a run's settings ([`Run`]) and the live experiments' scratch index;
//! * [`runner`] — query-batch execution and metric aggregation;
//! * [`report`] — paper-style table rendering;
//! * [`experiments`] — one function per table/figure, plus ablations;
//! * [`perf`] — the deterministic IO-counter suite and `bench_diff`
//!   comparator behind the CI perf-regression gate.
//!
//! The `streach_exp` binary runs one experiment by name, or `all` of them
//! (`cargo run --release -p reach_bench --bin streach_exp -- fig14_15 --full`);
//! `bench_perf` and `bench_diff` are the perf gate's two halves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod runner;

pub use datasets::{
    middle, prefix_store, rwp_series, synthetic_trace, vn_series, vnr, Backend, DatasetSpec,
    Family, Run, Tier,
};
pub use report::{fbytes, fdur, fnum, Table};
pub use runner::{assert_same_pages, run_batch, timed, BatchResult};
