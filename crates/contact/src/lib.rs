//! # reach-contact
//!
//! Contact-network substrate: everything between raw contact data — joined
//! trajectories *or* ingested contact traces — and the two disk indexes.
//!
//! ## Crate map
//!
//! | module | paper § | contents |
//! |---|---|---|
//! | [`extract`] | §4 | spatiotemporal join → contact events / contacts |
//! | [`ingest`] | §3.1 (data model) | contact-trace loaders, format contract, trace writers, ReachGrid embedding |
//! | [`dag`] | §5.1.2 | the reduced contact-network DAG `DN`, built run-merged from ticks, streams, or contacts |
//! | [`dag_stream`] | §5.1.2 | [`StreamedDn`]: the same DAG staged in a budgeted spill pool, for builds larger than memory |
//! | [`multires`] | §5.1.2.2 | the multi-resolution long edges of `HN` |
//! | [`oracle`] | §3.2 (definition 3.4) | brute-force ground truth every index is tested against |
//! | [`stats`] | §6.2.1.1 | TEN-vs-DN reduction statistics |
//!
//! Two roads lead into the contact network:
//!
//! 1. **Trajectories** (the paper's §4 pipeline): a
//!    [`TrajectoryStore`](reach_traj::TrajectoryStore) is self-joined by
//!    [`extract`] and reduced by [`dag`];
//! 2. **Contact traces** (real datasets; see `DATAFORMATS.md`): [`ingest`]
//!    parses timestamped edge lists or interval records into a
//!    [`ContactTrace`], and [`DnGraph::from_contacts`] builds the identical
//!    DAG event-directly — no trajectories, no spatial join.
//!
//! Everything downstream (multi-resolution bundles, indexes, oracle) is
//! agnostic to which road was taken.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dag;
pub mod dag_stream;
pub mod extract;
pub mod ingest;
pub mod multires;
pub mod oracle;
pub mod stats;

pub use dag::{
    contact_sweep, ChainSweep, Csr, DnAccess, DnEventStream, DnGraph, DnNode, DnSink, GraphSize,
};
pub use dag_stream::StreamedDn;
pub use extract::{count_events, events_by_tick, extract_contacts, extract_events, EventCounts};
pub use ingest::{
    ContactSource, ContactTrace, EdgeListSource, ErrorMode, IngestError, IngestOptions,
    IntervalSource, TraceKind,
};
pub use multires::{hold_set_dn1, launch_boundary, MultiRes, DEFAULT_LEVELS};
pub use oracle::Oracle;
pub use stats::{reduction_stats, reduction_stats_for, ReductionStats};
