//! # reach-graph
//!
//! The **ReachGraph** index (paper §5): precomputed multi-resolution
//! reachability over the reduced contact-network DAG, laid out on disk in
//! topological partitions, queried with bidirectional multi-resolution BFS
//! (BM-BFS, Algorithm 2).
//!
//! * [`GraphParams`] / [`TraversalKind`] — tuning and strategy selection;
//! * [`placement`] — depth-`d_p` topological partitioning (§5.1.3);
//! * [`ReachGraph`] — the disk-resident index, whose partition records
//!   decode into flat [`Partition`] tables. It is an immutable image that
//!   implements [`ReachIndex`](reach_core::ReachIndex) with `&self`: every
//!   query reads through its own cold [`GraphContext`] (a pager on a fresh
//!   device handle plus the partition buffer), so one image serves many
//!   threads and each answer counts exactly its single-threaded IO;
//! * [`Vertex`] — the borrowed vertex view every traversal reads;
//! * [`MemoryHn`] — the memory-resident variant (§6.4), also a shared
//!   `&self` index (each query walks a copy with its own scratch);
//! * [`traverse`] — E-DFS / E-BFS / B-BFS / BM-BFS over either backing;
//! * [`decay`] — decay-weighted and top-k ranked traversal
//!   (Strzheletska & Tsotras, PAPERS.md; contract in `QUERIES.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decay;
pub mod diskgraph;
pub mod memory;
pub mod params;
pub mod partition;
pub mod placement;
pub mod traverse;
pub mod vertex;

pub use decay::{decay_reachable, decay_states_seeded, top_k_reachable, top_k_reaching, DecayLeg};
pub use diskgraph::{GraphContext, ReachGraph};
pub use memory::MemoryHn;
pub use params::{GraphParams, TraversalKind};
pub use partition::Partition;
pub use placement::{partition, Partitioning};
pub use traverse::{reachable_set, reachable_set_seeded, TraversalStats};
pub use vertex::{HnSource, Vertex, VertexData};
