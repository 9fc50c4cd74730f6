//! # reach-baselines
//!
//! The reachability baselines the paper compares against:
//!
//! * [`grail`] — GRAIL randomized interval labeling \[18\], memory-resident
//!   and disk-adopted (§6.4, Table 5);
//! * SPJ, the naïve full-scan join baseline, lives in `reach-grid` (it
//!   shares ReachGrid's physical layout, §6.1.2);
//! * E-DFS / E-BFS / B-BFS live in `reach-graph` (they share `HN`, §6.2.2).
//!
//! Both GRAIL variants implement the one index trait
//! [`ReachIndex`](reach_core::ReachIndex) with `&self`. [`GrailDisk`] is an
//! immutable image on a device hub: each query opens its own cold pager,
//! and decay, top-k and frontier queries read through a per-query
//! `HnSource` view that owns that pager, so one image serves many threads
//! and each answer counts exactly its single-threaded IO.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod grail;

pub use grail::{GrailDisk, GrailLabels, GrailMem};
