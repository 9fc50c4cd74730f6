//! A wall-clock benchmark of the streach indexes.
//!
//! Three workloads, each a closed loop with one client:
//!
//! * `graph_cold` — ReachGraph built from the DN and its long-edge bundles
//!   on a simulator device, answering paper-style `Reach` queries with a
//!   cold pager on every query ([`cold`]);
//! * `grid_cold` — ReachGrid on the same storage layer and query shape
//!   ([`cold`]);
//! * `live_serve` — an epoch-sharded live index taking appends while a
//!   one-worker `reach_serve::Server` answers same-source bursts ([`live`]).
//!
//! An untraced run reports the end-to-end metrics; a traced run (a separate
//! invocation) reports the per-layer metrics of [`layers::PER_LAYER`] from
//! spans the benchmark records around each public call.

pub mod cold;
pub mod data;
pub mod device;
pub mod layers;
pub mod live;
pub mod report;
pub mod stats;
pub mod trace;

use report::Outcome;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["graph_cold", "grid_cold", "live_serve"];

/// Runs one workload by name; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    Some(match workload {
        "graph_cold" => cold::run(cold::Kind::Graph, seed, seconds, traced),
        "grid_cold" => cold::run(cold::Kind::Grid, seed, seconds, traced),
        "live_serve" => live::run(seed, seconds, traced),
        _ => return None,
    })
}

/// Where runs leave span files and scratch devices (ignored by git).
pub fn run_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".run")
}
