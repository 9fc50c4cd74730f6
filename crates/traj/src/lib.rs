//! # reach-traj
//!
//! Trajectory management for spatiotemporal contact datasets: the raw
//! per-tick movement data ([`Trajectory`], [`TrajectoryStore`]) and the
//! spatiotemporal joins (`R(w) ⋈_dT R(w)`, [`join`]) from which contact
//! networks are materialized (paper §3–4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod join;
pub mod store;
pub mod trajectory;

pub use join::{
    bipartite_pairs, cpa_distance_sq, proximity_pairs, sweep_join, window_self_join, SweepScratch,
    TickJoin,
};
pub use store::TrajectoryStore;
pub use trajectory::{Trajectory, TrajectorySegment};
