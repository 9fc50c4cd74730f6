//! # reach-live
//!
//! Incremental contact appends for the reachability indexes: the paper's
//! structures (ReachGrid/ReachGraph, §4–5) are build-once, but real contact
//! feeds are append-streams. This crate turns the system into a
//! continuously ingesting service while keeping every sealed byte
//! identical to a batch build — the dynamic-insertion direction of Brito
//! et al. (*A Dynamic Data Structure for Temporal Reachability with
//! Unsorted Contact Insertions*, 2021; *Timed Transitive Closures on
//! Disk*, 2023; PAPERS.md), composed out of the workspace's existing
//! streaming machinery.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`log`] | [`AppendLog`] — durable, crash-recoverable record log on any [`BlockDevice`](reach_storage::BlockDevice) |
//! | [`delta`] | [`DeltaDn`] — mutable DN fragment over `[watermark, now)`, absorbing out-of-order appends |
//! | [`config`] | [`LiveConfig`] and the engine's errors, outcomes, and statistics |
//! | [`shard`] | [`ShardedLive`] — the live engine: a time-ordered sequence of sealed shards plus the delta, one build behind seal / merge / compact, cross-shard frontier handoff, failure-atomic epoch directory. Each shard holds its sealed ReachGraph image, reopened from its own footer on recovery; every leg calls the image's `&self` methods, which read through a cold per-query context |
//! | [`builder`] | [`LiveBuilder`] — the engine over any storage backend |
//!
//! ## The three guarantees
//!
//! 1. **Equivalence** — any interleaving of appends, queries, seals,
//!    merges, and compactions answers exactly as a batch rebuild over the
//!    accepted trace (tier-1 `tests/live_reach.rs` and
//!    `tests/sharded_live.rs`, plus the property suite's random
//!    schedules);
//! 2. **Byte-identity** — a compacted shard is byte-for-byte the index a
//!    from-scratch streaming build over the full log produces, on every
//!    storage backend;
//! 3. **Durability** — the epoch directory names the sealed shards and
//!    the append log holds every accepted record, so a crash recovers to
//!    the last committed shard set plus the log's tail, dropping at most
//!    the torn tail page that was never acknowledged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod base;
pub mod builder;
pub mod config;
pub mod delta;
pub mod log;
pub mod shard;

pub use builder::LiveBuilder;
pub use config::{
    AppendOutcome, CompactionStats, LiveConfig, LiveError, LiveMetrics, LiveStats, SourceReport,
};
pub use delta::DeltaDn;
pub use log::{AppendLog, LogRecovery};
pub use shard::{ShardRecovery, ShardedLive};
