//! # streach — spatiotemporal contact-network reachability
//!
//! A complete Rust implementation of Shirani-Mehr, Banaei-Kashani & Shahabi,
//! *Efficient Reachability Query Evaluation in Large Spatiotemporal Contact
//! Datasets* (VLDB 2012): the **ReachGrid** and **ReachGraph** indexes, the
//! contact-network substrate they are built on, the baselines they are
//! evaluated against, and the paper's §7 extensions.
//!
//! This facade crate re-exports the public API of every workspace crate:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | ticks, intervals, geometry, contacts, queries, the one index trait [`ReachIndex`](core::ReachIndex) |
//! | [`storage`] | pluggable block devices (sim/file), pager, IO accounting |
//! | [`traj`] | trajectories and spatiotemporal joins |
//! | [`mobility`] | RWP / road-network / sparse-GPS generators, workloads |
//! | [`contact`] | contact extraction, trace ingestion, TEN→DN reduction, multi-resolution, oracle |
//! | [`grid`] | ReachGrid index + SPJ baseline |
//! | [`graph`] | ReachGraph index + E-DFS/E-BFS/B-BFS/BM-BFS |
//! | [`baselines`] | GRAIL (memory and disk) |
//! | [`live`] | continuous ingestion: append log, delta DN, one epoch-sharded live engine (seal / merge / compact) |
//! | [`ext`] | §7 extensions + decay workloads: uncertain contacts (U-ReachGraph), non-immediate contacts, decay-weighted / top-k reachability with its brute-force oracle |
//! | [`serve`] | query serving over any [`ReachIndex`](core::ReachIndex): bounded admission, worker pool, same-source batching, metrics |
//!
//! ## Storage backends
//!
//! Every index builds and queries identically on any
//! [`BlockDevice`](storage::BlockDevice); pick one with
//! [`StorageConfig`](storage::StorageConfig) (or hand a boxed device to the
//! `build_on` constructors directly):
//!
//! | backend | constructor | persists? | IO accounting | best for |
//! |---|---|---|---|---|
//! | [`SimDevice`](storage::SimDevice) | `StorageConfig::sim(page_size)` | no (memory) | yes | the paper's IO-count evaluation model |
//! | [`FileDevice`](storage::FileDevice) | `StorageConfig::file(path, page_size)` | yes (positioned file IO) | yes | persistence across runs, wall-clock benchmarks |
//!
//! The two backends share one accounting path, so a query costs *identical
//! counted IO* on both (asserted by `tests/backend_equivalence.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use streach::prelude::*;
//!
//! // A tiny random-waypoint world.
//! let store = RwpConfig {
//!     env: Environment::square(500.0),
//!     num_objects: 30,
//!     horizon: 400,
//!     ..RwpConfig::default()
//! }
//! .generate(7);
//!
//! // Build both indexes.
//! let grid = ReachGrid::build(
//!     &store,
//!     GridParams { cell_size: 100.0, threshold: 25.0, ..GridParams::default() },
//! )
//! .expect("grid construction succeeds");
//! let dn = DnGraph::build(&store, 25.0);
//! let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
//! let graph = ReachGraph::build(&dn, &mr, GraphParams::default())
//!     .expect("graph construction succeeds");
//!
//! // Both agree on every query. Each index is a shared `&self` image: a
//! // query opens its own cold read context, so the two answers below (or
//! // any number of concurrent ones) count exactly their lone IO.
//! let q = Query::new(ObjectId(0), ObjectId(5), TimeInterval::new(10, 300));
//! let a = grid.evaluate(&q).expect("grid query evaluates");
//! let b = graph.evaluate(&q).expect("graph query evaluates");
//! assert_eq!(a.reachable(), b.reachable());
//! ```
//!
//! ## Query kinds
//!
//! Every index answers typed [`ReachRequest`](core::ReachRequest)s through
//! one `answer` entry point: plain reachability, uncertain contacts,
//! non-immediate contacts, decay-weighted reachability, and top-k ranked
//! reachability. The full semantics contract — what counts as a transfer,
//! how ties break, which index covers which kind — is `QUERIES.md` at the
//! repository root. The decay kinds (Strzheletska & Tsotras, PAPERS.md)
//! weight each path by `per_transfer^h · per_tick^(e − t1)` and either
//! gate on a threshold or rank the best-weighted objects:
//!
//! ```
//! use streach::prelude::*;
//!
//! // The paper's Figure 1 network again: 0-1 meet at tick 0, then
//! // {1,2,3} form one contact component at tick 1.
//! let text = "\
//! #! streach-trace v1 kind=events ids=numeric num_objects=4 horizon=4 origin=0
//! 0 1 0
//! 1 3 1
//! 2 3 1
//! 0 1 2 2
//! 2 3 2
//! ";
//! let trace = ContactTrace::parse(text, &IngestOptions::default()).expect("well-formed");
//! let dn = trace.build_dn();
//! let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
//! let graph = ReachGraph::build(&dn, &mr, GraphParams::default())
//!     .expect("graph construction succeeds");
//!
//! // One transfer delivers to object 3 at tick 1: weight 0.5 under pure
//! // per-transfer decay — clears θ = 0.3, and the witness rides along.
//! let model = DecayModel::per_transfer(0.5);
//! let a = graph
//!     .answer(&ReachRequest::decay(
//!         ObjectId(0), TimeInterval::new(0, 1), ObjectId(3), 0.3, model,
//!     ))
//!     .expect("decay request evaluates");
//! assert!(a.reachable());
//! assert_eq!((a.ranking[0].weight, a.ranking[0].arrival), (0.5, 1));
//!
//! // Top-3 reachable from object 0: itself excluded, object 1 leads
//! // (zero transfers), objects 2 and 3 tie and break by id.
//! let a = graph
//!     .answer(&ReachRequest::top_k_reachable(
//!         ObjectId(0), TimeInterval::new(0, 1), 3, model,
//!     ))
//!     .expect("top-k request evaluates");
//! let ids: Vec<u32> = a.ranking.iter().map(|r| r.object.0).collect();
//! assert_eq!(ids, vec![1, 2, 3]);
//! ```
//!
//! ## Ingesting a real contact trace
//!
//! Real contact datasets arrive as timestamped edge lists, not trajectories
//! (see `DATAFORMATS.md` for the format contract). The loader normalizes
//! them into a [`ContactTrace`](contact::ingest::ContactTrace) and the DN is
//! built *event-directly* — no trajectories, no spatial join:
//!
//! ```
//! use streach::prelude::*;
//!
//! // The paper's Figure 1 network as an inline edge list (u v t [duration]).
//! let text = "\
//! #! streach-trace v1 kind=events ids=numeric num_objects=4 horizon=4 origin=0
//! 0 1 0
//! 1 3 1
//! 2 3 1
//! 0 1 2 2
//! 2 3 2
//! ";
//! let trace = ContactTrace::parse(text, &IngestOptions::default())
//!     .expect("well-formed trace");
//! assert_eq!(trace.contacts().len(), 4); // the paper's c1..c4
//!
//! // Event-direct DN → ReachGraph, and a reachability query: is o4 (id 3)
//! // reachable from o1 (id 0) during [0, 1]? (Yes — Figure 1's example.)
//! let dn = trace.build_dn();
//! let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
//! let graph = ReachGraph::build(&dn, &mr, GraphParams::default())
//!     .expect("graph construction succeeds");
//! let q = Query::new(ObjectId(0), ObjectId(3), TimeInterval::new(0, 1));
//! assert!(graph.evaluate(&q).expect("query evaluates").reachable());
//!
//! // The reverse direction is unreachable: contacts are temporally ordered.
//! let q = Query::new(ObjectId(3), ObjectId(0), TimeInterval::new(0, 1));
//! assert!(!graph.evaluate(&q).expect("query evaluates").reachable());
//! ```
//!
//! ## Persistent ReachGraph on a real file
//!
//! ```
//! use streach::prelude::*;
//!
//! let store = RwpConfig {
//!     env: Environment::square(300.0),
//!     num_objects: 10,
//!     horizon: 100,
//!     ..RwpConfig::default()
//! }
//! .generate(3);
//! let dn = DnGraph::build(&store, 25.0);
//! let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
//! let params = GraphParams { page_size: 512, ..GraphParams::default() };
//!
//! let mut path = std::env::temp_dir();
//! path.push(format!("streach-doc-{}.pages", std::process::id()));
//! let cfg = StorageConfig::file(&path, params.page_size);
//!
//! let q = Query::new(ObjectId(0), ObjectId(5), TimeInterval::new(0, 99));
//! let verdict = {
//!     // Build on a real file…
//!     let device = cfg.create().expect("file device creates");
//!     let graph = ReachGraph::build_on(device, &dn, &mr, params)
//!         .expect("graph builds on a file");
//!     graph.evaluate(&q).expect("query evaluates").reachable()
//! }; // …drop the index entirely…
//!
//! // …and reopen it from the file alone: same answers, honest IO stats.
//! let reopened = ReachGraph::open(cfg.open().expect("file device reopens"))
//!     .expect("graph reopens from its metadata footer");
//! let again = reopened.evaluate(&q).expect("query evaluates");
//! assert_eq!(again.reachable(), verdict);
//! # let _ = std::fs::remove_file(&path);
//! ```

//! ## Memory-bounded index construction
//!
//! Building an index no longer requires the whole reduced DAG in memory:
//! [`StreamedDn`](contact::StreamedDn) stages the DN in a spillable pool
//! capped by a [`BuildBudget`](storage::BuildBudget), and every index
//! builder accepts it through the [`DnAccess`](contact::DnAccess) trait —
//! producing byte-identical pages to the in-memory build:
//!
//! ```
//! use streach::prelude::*;
//!
//! let trace = ContactTrace::parse(
//!     "#! streach-trace ids=numeric num_objects=4 horizon=4 origin=0\n\
//!      0 1 0\n1 3 1\n2 3 1\n0 1 2 2\n2 3 2\n",
//!     &IngestOptions::default(),
//! )
//! .expect("well-formed trace");
//!
//! // Stage the DN under a 4 KiB budget, spilling to a scratch device…
//! let mut dn = StreamedDn::from_contacts(
//!     trace.num_objects(),
//!     trace.horizon(),
//!     trace.contacts(),
//!     BuildBudget::bytes(4 << 10),
//!     StorageConfig::sim(256).create().expect("scratch device"),
//! );
//! // …and build exactly as with an in-memory DnGraph.
//! let mr = MultiRes::build(&mut dn, &DEFAULT_LEVELS);
//! let params = GraphParams { page_size: 256, ..GraphParams::default() };
//! let graph = ReachGraph::build_on(
//!     StorageConfig::sim(256).create().expect("device"),
//!     &mut dn,
//!     &mr,
//!     params,
//! )
//! .expect("budgeted build succeeds");
//!
//! let q = Query::new(ObjectId(0), ObjectId(3), TimeInterval::new(0, 1));
//! assert!(graph.evaluate(&q).expect("query evaluates").reachable());
//! ```

//! ## Live ingestion: appending to a running index
//!
//! Contact feeds are append-streams, not files. A
//! [`ShardedLive`](live::ShardedLive) accepts out-of-order appends into a
//! mutable delta, keeps every record durable in an
//! [`AppendLog`](live::AppendLog), and answers queries that span the
//! sealed / live boundary. When the delta outgrows its budget an append
//! *seals* it into a new epoch shard — cost proportional to the epoch,
//! not the history — and [`compact`](live::ShardedLive::compact)
//! coalesces every shard plus the delta into one whole-history shard,
//! byte-identical to a batch rebuild over the full log:
//!
//! ```
//! use streach::prelude::*;
//!
//! let params = GraphParams { page_size: 256, ..GraphParams::default() };
//! // Knobs: .with_lateness(..), .strict(), .with_delta_budget(..), …
//! let live = LiveConfig::graph(params, BuildBudget::bytes(64 << 10))
//!     .builder() // storage: .backend(StorageConfig::file(dir, 256))
//!     .build_sharded(4 /* universe size */)
//!     .expect("live index creates");
//!
//! // The paper's Figure 1 contacts arrive as a stream (c1..c4)…
//! live.append(Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 0)))
//!     .expect("append accepted");
//! live.append(Contact::new(ObjectId(1), ObjectId(3), TimeInterval::new(1, 1)))
//!     .expect("append accepted");
//!
//! // …and are queryable immediately: o4 reachable from o1 during [0, 1].
//! let q = Query::new(ObjectId(0), ObjectId(3), TimeInterval::new(0, 1));
//! assert!(live.evaluate(&q).expect("query evaluates").reachable());
//!
//! // Seal what we have, then keep appending: the next query spans the
//! // watermark — the shard hands its arrival frontier at the cut to the
//! // delta, which continues from there.
//! live.compact().expect("compaction succeeds");
//! live.append(Contact::new(ObjectId(2), ObjectId(3), TimeInterval::new(2, 2)))
//!     .expect("append accepted");
//! let q = Query::new(ObjectId(0), ObjectId(2), TimeInterval::new(0, 2));
//! assert!(live.evaluate(&q).expect("query evaluates").reachable());
//! ```

//! ## Concurrent serving: shared queries, off-lock rebuilds
//!
//! The same [`ShardedLive`](live::ShardedLive) serves many threads at
//! once: every method takes `&self`, queries answer through the one
//! [`ReachIndex`](core::ReachIndex) trait (every index in the workspace
//! answers through it, each disk index on a private cold read context per
//! query), appends are write-locked, and a
//! rebuild — a [`seal`](live::ShardedLive::seal), an epoch merge, or a
//! [`compact`](live::ShardedLive::compact), explicit or inline in the
//! append that crossed the budget — builds off-lock and swaps in the new
//! shard without ever blocking readers. Per-query counted IO stays exact
//! under any interleaving because each query reads every shard through a
//! private [`SharedDevice`](storage::SharedDevice) handle:
//!
//! ```
//! use streach::prelude::*;
//! use std::sync::Arc;
//!
//! let params = GraphParams { page_size: 256, ..GraphParams::default() };
//! let live = LiveConfig::graph(params, BuildBudget::bytes(64 << 10))
//!     .builder()
//!     .build_sharded(4)
//!     .expect("live index creates");
//! live.append(Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 0)))
//!     .expect("append accepted");
//! live.append(Contact::new(ObjectId(1), ObjectId(3), TimeInterval::new(1, 1)))
//!     .expect("append accepted");
//! live.compact().expect("compaction succeeds");
//!
//! // Shared by Arc: any number of threads may query concurrently.
//! let shared: Arc<dyn ReachIndex> = Arc::new(live);
//! let handles: Vec<_> = (0..2)
//!     .map(|_| {
//!         let shared = Arc::clone(&shared);
//!         std::thread::spawn(move || {
//!             let window = TimeInterval::new(0, 1);
//!             let request = ReachRequest::reach(ObjectId(0), window, ObjectId(3));
//!             let a = shared.answer(&request).expect("query evaluates");
//!             assert!(a.reachable());
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().expect("reader thread");
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use reach_baselines as baselines;
pub use reach_contact as contact;
pub use reach_core as core;
pub use reach_ext as ext;
pub use reach_graph as graph;
pub use reach_grid as grid;
pub use reach_live as live;
pub use reach_mobility as mobility;
pub use reach_obs as obs;
pub use reach_serve as serve;
pub use reach_storage as storage;
pub use reach_traj as traj;

/// Everything needed to build and query the two indexes.
pub mod prelude {
    pub use reach_baselines::{GrailDisk, GrailMem};
    pub use reach_contact::{
        ContactSource, ContactTrace, DnAccess, DnEventStream, DnGraph, DnSink, EdgeListSource,
        ErrorMode, IngestError, IngestOptions, IntervalSource, MultiRes, Oracle, StreamedDn,
        TraceKind, DEFAULT_LEVELS,
    };
    pub use reach_core::{
        Answer, Contact, ContactEvent, DecayModel, Environment, IndexError, Mbr, ObjectId, Point,
        Query, QueryKind, QueryOutcome, QueryResult, RankDirection, Ranked, ReachIndex,
        ReachRequest, Serial, Time, TimeInterval,
    };
    pub use reach_ext::{DecayOracle, NonImmediateIndex, UReachGraph, UncertainOracle};
    pub use reach_graph::{GraphParams, MemoryHn, ReachGraph, TraversalKind};
    pub use reach_grid::{GridParams, ReachGrid, Spj};
    pub use reach_live::{
        AppendLog, CompactionStats, DeltaDn, LiveBuilder, LiveConfig, LiveError, LiveMetrics,
        LiveStats, LogRecovery, ShardRecovery, ShardedLive,
    };
    pub use reach_mobility::{RoadNetwork, RwpConfig, VehicleConfig, WorkloadConfig};
    pub use reach_obs::{
        FlightRecorder, Obs, ObsConfig, Registry, SlowQueryPolicy, SpanEvent, Tracer,
    };
    pub use reach_serve::{ServeConfig, ServeMetrics, Server, SubmitError, Ticket};
    pub use reach_storage::{
        BlockDevice, BuildBudget, CacheStats, DeviceDirectory, FileDevice, IoSampler, IoStats,
        PageCache, Pager, SharedDevice, SimDevice, SpillStats, StorageBackend, StorageConfig,
    };
    pub use reach_traj::{Trajectory, TrajectoryStore};
}
