//! # reach-bench
//!
//! The experiment harness reproducing every table and figure of the paper's
//! evaluation (§6):
//!
//! * [`datasets`] — the scaled dataset presets (RWP / VN / VNR families);
//! * [`runner`] — query-batch execution and metric aggregation;
//! * [`report`] — paper-style table rendering;
//! * [`experiments`] — one function per table/figure, plus ablations;
//! * [`perf`] — the deterministic IO-counter suite and `bench_diff`
//!   comparator behind the CI perf-regression gate.
//!
//! Binaries under `src/bin/` run individual experiments
//! (`cargo run --release -p reach-bench --bin exp_fig14 -- --full`); the
//! `experiments` bench target runs the whole suite during `cargo bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod runner;

pub use datasets::{
    middle, prefix_store, rwp_series, synthetic_trace, vn_series, vnr, Backend, DatasetSpec,
    Family, Tier,
};
pub use report::{fbytes, fdur, fnum, Table};
pub use runner::{assert_same_pages, run_batch, timed, BatchResult};
