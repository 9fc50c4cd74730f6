//! # reach-core
//!
//! Core domain types for evaluating reachability queries over large
//! spatiotemporal contact datasets, as defined by Shirani-Mehr et al.,
//! *Efficient Reachability Query Evaluation in Large Spatiotemporal Contact
//! Datasets*, VLDB 2012.
//!
//! This crate is dependency-free and holds the vocabulary shared by every
//! other crate in the workspace:
//!
//! * [`Time`] / [`TimeInterval`] — discrete ticks and closed intervals;
//! * [`ObjectId`] / [`NodeId`] — dense identifiers;
//! * [`Point`] / [`Mbr`] / [`Environment`] — planar geometry in metres;
//! * [`Contact`] / [`ContactEvent`] — the atoms of a contact network;
//! * [`Query`] / [`QueryResult`] — reachability queries and their outcomes;
//! * [`UnionFind`] — per-snapshot connected components;
//! * [`FxHashMap`] — a fixed integer hasher for maps keyed by internal ids;
//! * [`ReachIndex`] — the one trait every index and baseline implements:
//!   a shared `&self` image that any number of threads query at once.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod contact;
pub mod decay;
pub mod error;
pub mod frontier;
pub mod geom;
pub mod hash;
pub mod ids;
pub mod query;
pub mod request;
pub mod time;
pub mod unionfind;

pub use contact::{Contact, ContactAccumulator, ContactEvent};
pub use decay::{DecayModel, RankDirection, Ranked};
pub use error::IndexError;
pub use frontier::{FrontierHandoff, WeightedFrontier};
pub use geom::{Coord, Environment, Mbr, Point};
pub use hash::{FxHashMap, FxHasher};
pub use ids::{NodeId, ObjectId};
pub use query::{admit_object, admit_window, Query, QueryOutcome, QueryResult, QueryStats};
pub use request::{attribute_stats, Answer, QueryKind, ReachIndex, ReachRequest, Serial};
pub use time::{Time, TimeInterval};
pub use unionfind::UnionFind;

/// The paper's IO normalization constant: one random access costs as much as
/// 20 sequential accesses (§6, citing Corral et al.).
pub const SEQ_PER_RANDOM: u64 = 20;
