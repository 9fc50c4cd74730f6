//! The live reachability index: sealed base + mutable delta + durable log,
//! stitched by a watermark and shared by reference across threads.
//!
//! ## Anatomy
//!
//! A [`LiveIndex`] partitions time at its **watermark** `W`:
//!
//! * `[0, W)` is served by a **sealed base** — an ordinary [`ReachGraph`]
//!   or [`GrailDisk`], built by the ordinary streaming builders, bytes
//!   indistinguishable from a batch build. The base is an immutable
//!   *epoch* whose pages sit behind a [`SharedDevice`] hub: every query
//!   clones a fresh device handle and a private reader over the shared
//!   pages, so readers never contend on a pager and — because each handle
//!   carries its own IO classification head — every query counts
//!   *exactly* the IO a lone reader would (the paper's sequential/random
//!   model is per-stream; see `reach_storage::shared`);
//! * `[W, now)` is served by the mutable [`DeltaDn`], which absorbs
//!   out-of-order appends within the bounded-lateness window. It sits
//!   under an `RwLock`: queries propagate under the read lock, appends
//!   insert under the write lock;
//! * every accepted record is first made durable in the [`AppendLog`], so
//!   base and delta are both derived, recoverable state.
//!
//! ## Cross-boundary queries
//!
//! A query `o_i ~[t1, t2]~> o_j` spanning the watermark is answered in two
//! legs: the base extracts the **earliest-arrival frontier** at the cut
//! (`reachable_set` over `[t1, W-1]` — every object holding the item before
//! the seal, with its exact arrival tick), and the delta continues exact
//! propagation from that frontier through `[W, t2]`. Holding persists
//! across the boundary by the paper's item model, so the composition is
//! exact: any interleaving of appends and queries answers precisely as a
//! batch rebuild over the full accepted trace would (tier-1
//! `tests/live_reach.rs` asserts this on random schedules).
//!
//! ## Watermark compaction
//!
//! When the delta outgrows its [`BuildBudget`] (or on demand), the index
//! **compacts**: the sealed base re-streams its DN as component-chain
//! events ([`reach_contact::ChainSweep`] — a lossless summary whose
//! per-tick connected components equal the original trace's, streamed with
//! `O(|O|)` resident state), the delta contributes its sealed head, and
//! the union flows tick by tick through the existing memory-bounded
//! builders ([`StreamedDn`] under the same budget) into a *new* sealed
//! base covering `[0, now - lateness)`. Because DN construction depends on
//! the event stream only through per-tick components, the result is
//! **byte-identical** to a from-scratch streaming build over the whole
//! log — compaction is rebuild, minus ever needing the raw trace again,
//! and without ever materializing the history in memory.
//!
//! Compaction runs on the calling thread — [`LiveIndex::compact`], or the
//! append that pushed the delta over budget — but off-lock: it snapshots
//! the delta's sealed head, rebuilds through its own private reader of the
//! old epoch, and commits by swapping in a new epoch under a brief write
//! lock. Queries and other appends keep flowing against the old epoch for
//! the whole build (`tests/concurrent_serve.rs` asserts this overlap).
//!
//! ## The reader protocol
//!
//! A query snapshots `(epoch, watermark, now)` under a brief read lock,
//! does all base IO off-lock on its private reader, then re-acquires the
//! read lock and **validates the epoch id** before touching the delta. A
//! commit swaps the epoch under the *write* lock, so an unchanged id
//! proves the watermark (and therefore the frontier cut) is still current;
//! a changed id retries against the new epoch (bounded: after a few
//! retries the query holds the read lock across the whole evaluation,
//! which no commit can interrupt). Sealed-only queries skip validation
//! entirely — ticks below a watermark are frozen forever.
//!
//! ## The admission barrier
//!
//! Appends race an in-flight build: a record landing *below* the build's
//! cut would be absent from the new base yet discarded from the delta at
//! commit — silently lost. A compaction therefore publishes its cut as
//! `pending_cut` in the same critical section that snapshots the sealed
//! head, and appends treat the *effective* watermark as
//! `max(watermark, pending_cut)`: late records are clamped or rejected
//! exactly as if the compaction had already committed. Every accepted
//! record is thus either in the snapshot or at ticks the delta keeps, and
//! any interleaving of appends, queries, and compactions answers exactly
//! as the batch oracle over the accepted trace.

use crate::delta::DeltaDn;
use crate::log::{AppendLog, LogRecovery};
use reach_baselines::GrailDisk;
use reach_contact::{ChainSweep, ContactSource, ErrorMode, IngestError, MultiRes, StreamedDn};
use reach_core::frontier::{CarryGroup, WeightedFrontier, WeightedSeed};
use reach_core::{
    Answer, Contact, DecayModel, IndexError, ObjectId, Query, QueryKind, QueryOutcome, QueryResult,
    QueryStats, RankDirection, Ranked, ReachIndex, ReachRequest, ReachabilityIndex, Time,
    TimeInterval,
};
use reach_graph::{DecayLeg, GraphParams, MemoryHn, ReachGraph};
use reach_storage::{
    BlockDevice, BuildBudget, CacheStats, DeviceDirectory, IoSampler, IoStats, PageCache,
    SharedDevice, SpillStats,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

/// Produces a fresh block device whenever the live index needs one (a
/// compaction scratch, a rebuilt base). Runtime-pluggable like everything
/// else storage: hand in a closure over `StorageConfig`, a temp-file
/// factory, or the bench harness's backend selector. `Send` so the
/// index, which compacts on whichever thread appends, can be shared
/// across threads.
pub type DeviceFactory = Box<dyn FnMut() -> Box<dyn BlockDevice> + Send>;

/// Which sealed index compaction builds over `[0, watermark)`.
#[derive(Clone, Debug)]
pub enum BaseKind {
    /// The paper's ReachGraph (BM-BFS at query time) — the intended
    /// production base.
    Graph(GraphParams),
    /// Disk-adopted GRAIL — the baseline base, mostly for comparisons.
    Grail(GrailConfig),
}

/// Parameters of a [`BaseKind::Grail`] base.
#[derive(Clone, Copy, Debug)]
pub struct GrailConfig {
    /// Label dimensions `d`.
    pub d: usize,
    /// Labeling seed.
    pub seed: u64,
    /// Device page size.
    pub page_size: usize,
    /// Query-time pager capacity.
    pub cache_pages: usize,
}

impl BaseKind {
    /// Page size the base's devices must have.
    pub fn page_size(&self) -> usize {
        match self {
            BaseKind::Graph(p) => p.page_size,
            BaseKind::Grail(g) => g.page_size,
        }
    }
}

/// Configuration of a [`LiveIndex`].
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// What to do with records older than the watermark: `Strict` rejects
    /// the append with [`LiveError::Late`]; `Lossy` clamps partially-late
    /// records to the watermark and drops wholly-late ones, counting both.
    pub mode: ErrorMode,
    /// The sealed index rebuilt at every compaction.
    pub base: BaseKind,
    /// Spill-pool budget of the streaming rebuild (the
    /// [`StreamedDn`] bound; independent of the delta trigger).
    pub budget: BuildBudget,
    /// Delta resident bytes that trigger a compaction (when `auto_compact`
    /// is set). Defaults to the build budget's bound — pass something
    /// smaller to compact more eagerly than the rebuild can spill.
    pub delta_budget: usize,
    /// Lateness slack in ticks: compaction seals to `now - lateness`
    /// (never regressing), keeping that much history mutable so bounded
    /// out-of-order arrivals keep landing in the window instead of being
    /// clamped. `0` seals everything.
    pub lateness: Time,
    /// Compact automatically — inline, on the appending thread — when the
    /// delta outgrows `delta_budget`.
    pub auto_compact: bool,
    /// Shared page-cache capacity (pages) for the sealed base's device hub.
    /// `0` (the default) keeps the paper's cold-cache measurement model;
    /// non-zero makes every epoch's hub carry a [`PageCache`], pooling
    /// residency across queries and serving threads.
    pub shared_cache_pages: usize,
    /// Readahead window (pages) the shared cache hands to its pagers; `0`
    /// disables prefetch. Only meaningful with `shared_cache_pages > 0`.
    pub readahead: usize,
}

impl LiveConfig {
    /// A ReachGraph-based config with the given params and budget,
    /// lossy lateness handling, and auto-compaction on.
    pub fn graph(params: GraphParams, budget: BuildBudget) -> Self {
        Self {
            mode: ErrorMode::Lossy,
            base: BaseKind::Graph(params),
            budget,
            delta_budget: budget.max_resident_bytes,
            lateness: 0,
            auto_compact: true,
            shared_cache_pages: 0,
            readahead: 0,
        }
    }

    /// A disk-GRAIL-based config (the baseline comparison).
    pub fn grail(grail: GrailConfig, budget: BuildBudget) -> Self {
        Self {
            mode: ErrorMode::Lossy,
            base: BaseKind::Grail(grail),
            budget,
            delta_budget: budget.max_resident_bytes,
            lateness: 0,
            auto_compact: true,
            shared_cache_pages: 0,
            readahead: 0,
        }
    }

    /// Returns the config with an explicit delta compaction trigger.
    pub fn with_delta_budget(mut self, bytes: usize) -> Self {
        self.delta_budget = bytes;
        self
    }

    /// Returns the config with a lateness slack (see [`LiveConfig::lateness`]).
    pub fn with_lateness(mut self, ticks: Time) -> Self {
        self.lateness = ticks;
        self
    }

    /// Returns the config with strict lateness handling.
    pub fn strict(mut self) -> Self {
        self.mode = ErrorMode::Strict;
        self
    }

    /// Returns the config with auto-compaction disabled (compaction only
    /// via [`LiveIndex::compact`]).
    pub fn manual_compaction(mut self) -> Self {
        self.auto_compact = false;
        self
    }

    /// Returns the config with a shared page cache of `pages` pages on
    /// every sealed epoch's device hub (see
    /// [`LiveConfig::shared_cache_pages`]).
    pub fn with_shared_cache(mut self, pages: usize) -> Self {
        self.shared_cache_pages = pages;
        self
    }

    /// Returns the config with a readahead window of `pages` pages (see
    /// [`LiveConfig::readahead`]).
    pub fn with_readahead(mut self, pages: usize) -> Self {
        self.readahead = pages;
        self
    }
}

/// Errors surfaced by live appends (queries keep the workspace-wide
/// [`IndexError`]).
#[derive(Clone, Debug, PartialEq)]
pub enum LiveError {
    /// A storage or index failure underneath the live machinery.
    Index(IndexError),
    /// A source record failed to parse or convert.
    Ingest(IngestError),
    /// An appended contact references an object outside the universe.
    UnknownObject(ObjectId),
    /// An appended contact joins an object to itself.
    SelfContact(ObjectId),
    /// A strict-mode append arrived (wholly or partly) below the watermark.
    Late {
        /// The offending record.
        record: Contact,
        /// The watermark it fell behind.
        watermark: Time,
    },
    /// An appended contact ends at `Time::MAX`, whose exclusive horizon
    /// (`end + 1`) is unrepresentable in tick space.
    HorizonOverflow {
        /// The offending record.
        record: Contact,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Index(e) => write!(f, "live index: {e}"),
            LiveError::Ingest(e) => write!(f, "live ingest: {e}"),
            LiveError::UnknownObject(o) => write!(f, "append references unknown object {o}"),
            LiveError::SelfContact(o) => write!(f, "append is a self-contact of {o}"),
            LiveError::Late { record, watermark } => write!(
                f,
                "record {record:?} arrived behind the watermark {watermark} (strict mode)"
            ),
            LiveError::HorizonOverflow { record } => write!(
                f,
                "record {record:?} ends at the maximum tick; its horizon is unrepresentable"
            ),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<IndexError> for LiveError {
    fn from(e: IndexError) -> Self {
        LiveError::Index(e)
    }
}

impl From<IngestError> for LiveError {
    fn from(e: IngestError) -> Self {
        LiveError::Ingest(e)
    }
}

/// What one [`LiveIndex::append`] did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppendOutcome {
    /// Whether the record (possibly clamped) was accepted and logged.
    pub logged: bool,
    /// Whether a partially-late record was clamped to the watermark.
    pub clamped: bool,
    /// Whether this append triggered an automatic compaction.
    pub compacted: bool,
    /// A failure of the *automatic compaction* that ran after the record
    /// was already durably logged and absorbed. Carried here instead of
    /// `Err` so the append's own success is never misreported: compaction
    /// is failure-atomic, the index stays consistent, and the caller can
    /// retry [`LiveIndex::compact`] at leisure — re-appending the record
    /// would duplicate it.
    pub compaction_error: Option<IndexError>,
}

/// Cumulative accounting of one live index's lifetime, with IO attributed
/// per phase through [`IoSampler`] — the numbers the perf gate's live
/// counters are built from.
#[derive(Clone, Debug, Default)]
pub struct LiveStats {
    /// Records accepted (and logged).
    pub appended: u64,
    /// Partially-late records clamped to the watermark (lossy mode).
    pub clamped: u64,
    /// Wholly-late records dropped (lossy mode).
    pub dropped_late: u64,
    /// Source records skipped for parse/convert errors (lossy mode).
    pub skipped: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// High-water mark of the delta's resident bytes.
    pub delta_peak_bytes: u64,
    /// Base-device IO spent re-streaming sealed bases, summed over every
    /// compaction.
    pub compaction_read_io: IoStats,
    /// Scratch-device IO of the budgeted rebuilds, summed over every
    /// compaction.
    pub compaction_spill_io: IoStats,
    /// Append-log device IO (durable page writes, recovery reads).
    pub append_io: IoStats,
    /// Queries evaluated.
    pub queries: u64,
    /// Work summed over all queries (base IO included).
    pub query: QueryStats,
    /// The most recent compaction, if any.
    pub last_compaction: Option<CompactionStats>,
}

/// Cost breakdown of one watermark compaction.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactionStats {
    /// The new watermark (== the horizon the rebuilt base covers).
    pub watermark: Time,
    /// Chain contacts re-streamed out of the previous base.
    pub base_chains: u64,
    /// Maximal contacts contributed by the delta.
    pub delta_contacts: u64,
    /// IO spent reading the previous base (chain extraction).
    pub base_read_io: IoStats,
    /// Scratch traffic of the budgeted streaming rebuild.
    pub spill: SpillStats,
    /// Wall-clock duration (informational; never gated).
    pub duration: Duration,
}

/// A private reader over one sealed base (or none yet): what every
/// query leg and every compaction's re-stream walks.
pub(crate) enum Base {
    /// No base yet: the watermark is 0 and the delta holds everything.
    None,
    /// A sealed ReachGraph over `[0, watermark)`.
    Graph(Box<ReachGraph>),
    /// A sealed disk GRAIL over `[0, watermark)`.
    Grail(Box<GrailDisk>),
}

impl Base {
    /// Evaluates a fully-sealed query (`t2 < watermark`). Panics on
    /// [`Base::None`]: a positive watermark implies a base.
    pub(crate) fn evaluate(&mut self, q: &Query) -> Result<QueryResult, IndexError> {
        match self {
            Base::None => unreachable!("watermark > 0 implies a base"),
            Base::Graph(g) => g.evaluate(q),
            Base::Grail(g) => g.evaluate(q),
        }
    }

    /// Earliest-arrival frontier of `source` over the sealed window (the
    /// spanning query's first leg). Panics on [`Base::None`].
    pub(crate) fn reachable_set(
        &mut self,
        source: ObjectId,
        window: TimeInterval,
    ) -> Result<(Vec<(ObjectId, Time)>, QueryStats), IndexError> {
        match self {
            Base::None => unreachable!("watermark > 0 implies a base"),
            Base::Graph(g) => g.reachable_set(source, window),
            Base::Grail(g) => g.reachable_set(source, window),
        }
    }

    /// Multi-seed frontier expansion — the cross-shard handoff leg, where
    /// the frontier arriving from an earlier epoch shard re-enters this
    /// base's window at each object's held arrival tick. Panics on
    /// [`Base::None`].
    pub(crate) fn reachable_set_from(
        &mut self,
        seeds: &[(ObjectId, Time)],
        window: TimeInterval,
    ) -> Result<(Vec<(ObjectId, Time)>, QueryStats), IndexError> {
        match self {
            Base::None => unreachable!("a sealed shard implies a base"),
            Base::Graph(g) => g.reachable_set_from(seeds, window),
            Base::Grail(g) => g.reachable_set_from(seeds, window),
        }
    }

    /// Decay-weighted sibling of [`Base::reachable_set_from`]: expands a
    /// weighted seed frontier (plus the previous leg's carry groups) over
    /// the sealed window and returns the leg's answer rows and
    /// continuation carry (see
    /// [`reach_core::frontier::WeightedFrontier`]). Panics on
    /// [`Base::None`].
    pub(crate) fn decay_states_from(
        &mut self,
        seeds: &[WeightedSeed],
        carry: &[CarryGroup],
        window: TimeInterval,
        origin: Time,
        model: &DecayModel,
        floor: f64,
    ) -> Result<(DecayLeg, QueryStats), IndexError> {
        match self {
            Base::None => unreachable!("a sealed window implies a base"),
            Base::Graph(g) => g.decay_states_from(seeds, carry, window, origin, model, floor),
            Base::Grail(g) => g.decay_states_from(seeds, carry, window, origin, model, floor),
        }
    }

    /// Syncs the base's device (the sharded seal's phase-1 durability
    /// point). A no-op for [`Base::None`].
    pub(crate) fn device_sync(&mut self) -> Result<(), IndexError> {
        match self {
            Base::None => Ok(()),
            Base::Graph(g) => g.device_mut().sync(),
            Base::Grail(g) => g.device_mut().sync(),
        }
    }

    /// Cumulative IO of the base's device handle.
    pub(crate) fn device_stats(&mut self) -> IoStats {
        match self {
            Base::None => IoStats::default(),
            Base::Graph(g) => g.device_mut().stats(),
            Base::Grail(g) => g.device_mut().stats(),
        }
    }
}

/// A sealed index paired with a handle on the shared device hub its pages
/// live behind — one [`LiveIndex`] epoch or one
/// [`ShardedLive`](crate::ShardedLive) shard. The stored instance is the
/// template readers are cloned from.
pub(crate) enum SealedBase {
    /// A sealed ReachGraph.
    Graph {
        index: Box<ReachGraph>,
        device: SharedDevice,
    },
    /// A sealed disk GRAIL.
    Grail {
        index: Box<GrailDisk>,
        device: SharedDevice,
    },
}

impl SealedBase {
    /// Wraps a freshly built base whose device is a handle on `hub`.
    /// Panics on [`Base::None`]: every build produces a base.
    pub(crate) fn new(base: Base, hub: SharedDevice) -> Self {
        match base {
            Base::None => unreachable!("a build always produces a base"),
            Base::Graph(index) => SealedBase::Graph { index, device: hub },
            Base::Grail(index) => SealedBase::Grail { index, device: hub },
        }
    }

    /// The shared device hub the pages live behind.
    pub(crate) fn hub(&self) -> &SharedDevice {
        match self {
            SealedBase::Graph { device, .. } | SealedBase::Grail { device, .. } => device,
        }
    }

    /// A private reader: fresh device handle (zeroed IO counters, no head
    /// position) + fresh pager, so per-query counters are exact no matter
    /// how many readers interleave. When the hub carries a shared
    /// [`PageCache`], the reader's pager attaches to it automatically and
    /// residency pools across every reader.
    pub(crate) fn reader(&self) -> Base {
        match self {
            SealedBase::Graph { index, device } => {
                Base::Graph(Box::new(index.reader(Box::new(device.clone()))))
            }
            SealedBase::Grail { index, device } => {
                Base::Grail(Box::new(index.reader(Box::new(device.clone()))))
            }
        }
    }
}

/// Everything fallible about one compaction: re-streams `old_base`'s DN as
/// component chains, merges the delta's sealed head, and flows the union
/// through the memory-bounded streaming builders into a new sealed base on
/// `device` (spilling to `scratch`). Touches **no** live state — the caller
/// commits (epoch swap + [`DeltaDn::discard_below`]) only on `Ok`, which
/// is what makes compaction failure-atomic.
pub(crate) fn build_sealed_base(
    old_base: &mut Base,
    sealed: &[Contact],
    num_objects: usize,
    new_watermark: Time,
    config: &LiveConfig,
    scratch: Box<dyn BlockDevice>,
    device: Box<dyn BlockDevice>,
) -> Result<(Base, CompactionStats), IndexError> {
    let started = Instant::now();
    let mut stats = CompactionStats {
        watermark: new_watermark,
        ..CompactionStats::default()
    };
    stats.delta_contacts = sealed.len() as u64;
    let budget = config.budget;
    let mut sdn = match old_base {
        Base::None => {
            StreamedDn::from_contacts(num_objects, new_watermark, sealed, budget, scratch)
        }
        Base::Graph(g) => {
            let mut sampler = IoSampler::starting_at(g.io_stats());
            let mut base_sweep = ChainSweep::new(&mut **g);
            let mut delta_sweep = reach_contact::contact_sweep(sealed);
            let sdn = StreamedDn::build(
                num_objects,
                new_watermark,
                |t, buf| {
                    base_sweep.emit(t, buf);
                    delta_sweep(t, buf);
                },
                budget,
                scratch,
            );
            stats.base_chains = base_sweep.chains();
            drop(base_sweep);
            stats.base_read_io = sampler.sample(g.io_stats());
            sdn
        }
        Base::Grail(g) => {
            // The GRAIL baseline reconstructs members from its timeline
            // region, which is O(DN) resident regardless — the materialized
            // path costs nothing extra here.
            let mut sampler = IoSampler::starting_at(g.device_mut().stats());
            let mut merged = g.chain_contacts()?;
            stats.base_chains = merged.len() as u64;
            stats.base_read_io = sampler.sample(g.device_mut().stats());
            merged.extend_from_slice(sealed);
            StreamedDn::from_contacts(num_objects, new_watermark, &merged, budget, scratch)
        }
    };
    let new_base = finish_base(config, device, &mut sdn)?;
    stats.spill = sdn.spill_stats();
    stats.duration = started.elapsed();
    Ok((new_base, stats))
}

/// Finishes a streamed DN into the configured base kind on `device` — the
/// tail of every compaction, seal, and epoch merge.
pub(crate) fn finish_base(
    config: &LiveConfig,
    device: Box<dyn BlockDevice>,
    sdn: &mut StreamedDn,
) -> Result<Base, IndexError> {
    assert_eq!(
        device.page_size(),
        config.base.page_size(),
        "device factory page size must match the configured base"
    );
    Ok(match &config.base {
        BaseKind::Graph(params) => {
            let mr = MultiRes::build(&mut *sdn, &params.levels);
            Base::Graph(Box::new(ReachGraph::build_on(
                device,
                sdn,
                &mr,
                params.clone(),
            )?))
        }
        BaseKind::Grail(cfg) => Base::Grail(Box::new(GrailDisk::build_on(
            device,
            sdn,
            cfg.d,
            cfg.seed,
            cfg.cache_pages,
        )?)),
    })
}

/// Composes the decay-weighted frontier of `source` across the sealed
/// base and the delta — the weighted sibling of the reader protocol's
/// three-leg split. The leg covering `t1` seeds the source at face
/// value; every later leg continues from the previous leg's
/// [`CarryGroup`]s, which preserve the transfers accumulated walking
/// run chains up to the cut and charge the boundary hop exactly when
/// the membership genuinely changed there. The composed answer rows
/// therefore equal a monolithic weighted walk over the full accepted
/// trace bit for bit (tier-1 `tests/decay_reach.rs` asserts this).
/// `floor` carries a point query's θ through every leg; ranked queries
/// pass `0.0`.
pub(crate) fn decay_frontier_at(
    base: &mut Base,
    delta: &DeltaDn,
    num_objects: usize,
    source: ObjectId,
    interval: TimeInterval,
    model: &DecayModel,
    floor: f64,
) -> Result<(WeightedFrontier, QueryStats), IndexError> {
    let horizon = delta.now();
    if source.index() >= num_objects {
        return Err(IndexError::UnknownObject(source));
    }
    if interval.start >= horizon {
        return Err(IndexError::IntervalOutOfRange {
            requested: interval,
            horizon,
        });
    }
    let t1 = interval.start;
    let t2 = interval.end.min(horizon - 1);
    let w = delta.watermark();
    let mut frontier = WeightedFrontier::seeded(source, t1);
    let mut stats = QueryStats::default();
    let mut pending = vec![(source, 0u32, t1)];
    if t1 < w {
        let span = TimeInterval::new(t1, t2.min(w - 1));
        let (leg, s) =
            base.decay_states_from(&pending, frontier.carry(), span, t1, model, floor)?;
        pending.clear();
        stats = stats.merged(&s);
        frontier.absorb(&leg.rows, span.end);
        frontier.set_carry(leg.carry);
    }
    if t2 >= w {
        decay_delta_leg(
            delta,
            num_objects,
            &pending,
            &mut frontier,
            t2,
            model,
            floor,
            &mut stats,
        )?;
    }
    Ok((frontier, stats))
}

/// Expands a weighted frontier through the delta's DN view over
/// `[watermark, t2]` — the final leg of every composed decay walk, shared
/// by the single-index and the sharded paths. `seeds` holds the original
/// source seed when the query starts inside the delta (and is empty
/// otherwise — continuation then comes from the frontier's carry). A
/// no-op when the delta is empty or the leg starts past its last contact
/// (silence after the final contact cannot deliver to anyone new, and
/// re-scored continuation echoes are dominated by the absorbed
/// originals; see [`DeltaDn::decay_graph`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decay_delta_leg(
    delta: &DeltaDn,
    num_objects: usize,
    seeds: &[WeightedSeed],
    frontier: &mut WeightedFrontier,
    t2: Time,
    model: &DecayModel,
    floor: f64,
    stats: &mut QueryStats,
) -> Result<(), IndexError> {
    let Some(bundle) = delta.decay_graph(num_objects) else {
        return Ok(());
    };
    let (dn, mr) = (&bundle.0, &bundle.1);
    let start = frontier.origin.max(delta.watermark());
    if start >= dn.horizon() || start > t2 {
        return Ok(());
    }
    let span = TimeInterval::new(start, t2.min(dn.horizon() - 1));
    let mut hn = MemoryHn::new(dn, mr);
    let (leg, ts) = reach_graph::decay_states_seeded(
        &mut hn,
        seeds,
        frontier.carry(),
        span,
        frontier.origin,
        model,
        floor,
    )?;
    stats.visited += ts.visited;
    stats.examined += ts.examined;
    frontier.absorb(&leg.rows, span.end);
    frontier.set_carry(leg.carry);
    Ok(())
}

/// Point decay query against a base/delta pair: `dest`'s best composed
/// weight and earliest maximum-weight delivery, if it clears `theta`.
pub(crate) fn decay_point_at(
    base: &mut Base,
    delta: &DeltaDn,
    num_objects: usize,
    q: &Query,
    theta: f64,
    model: &DecayModel,
) -> Result<Answer, IndexError> {
    let started = Instant::now();
    if q.dest.index() >= num_objects {
        return Err(IndexError::UnknownObject(q.dest));
    }
    let (frontier, mut stats) =
        decay_frontier_at(base, delta, num_objects, q.source, q.interval, model, theta)?;
    let hit = frontier
        .best_of(q.dest, model)
        .filter(|&(weight, _)| weight >= theta);
    stats.cpu = started.elapsed();
    Ok(Answer::decay(q.dest, hit, stats))
}

/// Top-k ranked decay query against a base/delta pair. The forward
/// direction ranks one composed frontier; the reverse direction composes
/// one forward frontier per candidate source (exact, and priced
/// accordingly — the sealed engines answer reverse rankings natively,
/// composite indexes trade IO for the cross-boundary exactness).
#[allow(clippy::too_many_arguments)]
pub(crate) fn top_k_at(
    base: &mut Base,
    delta: &DeltaDn,
    num_objects: usize,
    anchor: ObjectId,
    interval: TimeInterval,
    k: usize,
    model: &DecayModel,
    direction: RankDirection,
) -> Result<Answer, IndexError> {
    let started = Instant::now();
    match direction {
        RankDirection::Reachable => {
            let (frontier, mut stats) =
                decay_frontier_at(base, delta, num_objects, anchor, interval, model, 0.0)?;
            stats.cpu = started.elapsed();
            Ok(Answer::ranked(frontier.rank(model, k, anchor), stats))
        }
        RankDirection::Reaching => {
            if anchor.index() >= num_objects {
                return Err(IndexError::UnknownObject(anchor));
            }
            let mut stats = QueryStats::default();
            let mut best: Vec<Ranked> = Vec::new();
            for o in 0..num_objects as u32 {
                let source = ObjectId(o);
                if source == anchor {
                    continue;
                }
                let (frontier, s) =
                    decay_frontier_at(base, delta, num_objects, source, interval, model, 0.0)?;
                stats = stats.merged(&s);
                if let Some((weight, arrival)) = frontier.best_of(anchor, model) {
                    best.push(Ranked {
                        object: source,
                        weight,
                        arrival,
                    });
                }
            }
            best.sort_by(|a, b| {
                b.weight
                    .partial_cmp(&a.weight)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.arrival.cmp(&b.arrival))
                    .then_with(|| a.object.cmp(&b.object))
            });
            best.truncate(k);
            stats.cpu = started.elapsed();
            Ok(Answer::ranked(best, stats))
        }
    }
}

/// Maps a propagation arrival to a query outcome.
pub(crate) fn outcome_of(when: Option<Time>) -> QueryOutcome {
    match when {
        Some(t) => QueryOutcome::reachable_at(t),
        None => QueryOutcome::UNREACHABLE,
    }
}

/// Reads a same-source batch's verdicts out of one per-object arrival
/// array (both live engines' batching path). The expansion's IO rides on
/// the first answer: later destinations cost nothing extra, which is the
/// point of batching.
pub(crate) fn batch_answers(
    source: ObjectId,
    t1: Time,
    when: &[Option<Time>],
    dests: &[ObjectId],
    stats: QueryStats,
) -> Vec<Answer> {
    let mut first = true;
    dests
        .iter()
        .map(|&dest| {
            let outcome = if dest == source {
                QueryOutcome::reachable_at(t1)
            } else {
                outcome_of(when[dest.index()])
            };
            let stats = if std::mem::take(&mut first) {
                stats
            } else {
                QueryStats::default()
            };
            Answer::from(QueryResult { outcome, stats })
        })
        .collect()
}

/// The mutable tail both live engines keep under their state lock: the
/// delta, the durable log that feeds it, and the automatic-maintenance
/// backoff.
pub(crate) struct Tail {
    pub(crate) delta: DeltaDn,
    pub(crate) log: AppendLog,
    log_sampler: IoSampler,
    /// When a compaction (or seal) cannot bring the delta under budget —
    /// the backlog lives *inside* the lateness window — retrying on every
    /// append would rebuild per record. Automatic attempts are suppressed
    /// until the clock passes this tick: one full lateness window of
    /// progress.
    auto_resume_at: Time,
}

impl Tail {
    /// A tail over `delta` fed by `log`. Log IO spent so far (creation,
    /// recovery replay) is the caller's to account; later IO is sampled
    /// into [`LiveStats::append_io`] by [`Tail::admit`] and
    /// [`Tail::replay`].
    pub(crate) fn new(log: AppendLog, delta: DeltaDn) -> Self {
        Self {
            log_sampler: IoSampler::starting_at(log.io_stats()),
            delta,
            log,
            auto_resume_at: 0,
        }
    }

    /// Admits one record — the one admission path of both live engines,
    /// run under the caller's state write lock. Validates `c`, applies the
    /// lateness policy ([`LiveConfig::mode`]) against `barrier` (the
    /// watermark, or an in-flight compaction's cut), durably logs the
    /// accepted record before it touches the delta, and accounts it in
    /// `stats`. Returns the outcome so far plus the cut automatic
    /// maintenance should seal to, when this append pushed the delta over
    /// budget, the cut can advance, and the backoff window has passed; the
    /// caller runs that maintenance (compaction or seal) and then calls
    /// [`Tail::back_off_if_over`].
    pub(crate) fn admit(
        &mut self,
        c: Contact,
        barrier: Time,
        num_objects: usize,
        config: &LiveConfig,
        stats: &Mutex<LiveStats>,
    ) -> Result<(AppendOutcome, Option<Time>), LiveError> {
        if c.a == c.b {
            return Err(LiveError::SelfContact(c.a));
        }
        for o in [c.a, c.b] {
            if o.index() >= num_objects {
                return Err(LiveError::UnknownObject(o));
            }
        }
        if c.interval.end == Time::MAX {
            return Err(LiveError::HorizonOverflow { record: c });
        }
        let mut outcome = AppendOutcome::default();
        let accepted = if c.interval.start >= barrier {
            c
        } else {
            match config.mode {
                ErrorMode::Strict => {
                    return Err(LiveError::Late {
                        record: c,
                        watermark: barrier,
                    })
                }
                ErrorMode::Lossy if c.interval.end < barrier => {
                    lock_stats(stats).dropped_late += 1;
                    return Ok((outcome, None));
                }
                ErrorMode::Lossy => {
                    outcome.clamped = true;
                    Contact::new(c.a, c.b, TimeInterval::new(barrier, c.interval.end))
                }
            }
        };
        self.log.append(accepted)?;
        let log_io = self.log_sampler.sample(self.log.io_stats());
        self.delta.insert(accepted);
        outcome.logged = true;
        let bytes = self.delta.resident_bytes();
        {
            let mut s = lock_stats(stats);
            s.appended += 1;
            s.clamped += u64::from(outcome.clamped);
            s.append_io = s.append_io + log_io;
            s.delta_peak_bytes = s.delta_peak_bytes.max(bytes as u64);
        }
        let (w, now) = (self.delta.watermark(), self.delta.now());
        let cut = now.saturating_sub(config.lateness).max(w);
        let trigger = config.auto_compact
            && bytes > config.delta_budget
            && cut > w
            && now >= self.auto_resume_at;
        Ok((outcome, trigger.then_some(cut)))
    }

    /// Backs automatic maintenance off for one lateness window when the
    /// maintenance that just ran left the delta over budget.
    pub(crate) fn back_off_if_over(&mut self, config: &LiveConfig) {
        if self.delta.resident_bytes() > config.delta_budget {
            self.auto_resume_at = self.delta.now().saturating_add(config.lateness.max(1));
        }
    }

    /// Re-reads the full accepted record set from the log, accounting the
    /// read IO in `stats`.
    pub(crate) fn replay(&mut self, stats: &Mutex<LiveStats>) -> Result<Vec<Contact>, IndexError> {
        let records = self.log.replay();
        let io = self.log_sampler.sample(self.log.io_stats());
        let mut s = lock_stats(stats);
        s.append_io = s.append_io + io;
        records
    }
}

/// Locks a live engine's lifetime accounting.
pub(crate) fn lock_stats(stats: &Mutex<LiveStats>) -> MutexGuard<'_, LiveStats> {
    stats.lock().expect("live stats lock poisoned")
}

/// Retries of the optimistic reader protocol before a query pins the read
/// lock for its whole evaluation. Each retry means a compaction committed
/// mid-query, so in practice one retry is already rare.
const EPOCH_RETRIES: usize = 3;

/// An immutable sealed-base snapshot, swapped whole at each compaction
/// commit. Readers hold it by `Arc` and build private readers from it.
struct Epoch {
    /// Monotone id; the reader protocol's validation token.
    id: u64,
    /// `None` at watermark 0: no base yet.
    base: Option<SealedBase>,
}

impl Epoch {
    fn reader(&self) -> Base {
        self.base.as_ref().map_or(Base::None, SealedBase::reader)
    }

    fn cache(&self) -> Option<Arc<PageCache>> {
        self.base.as_ref()?.hub().cache().cloned()
    }
}

/// Everything the state lock protects: the mutable tail (appends must
/// decide, log, and insert atomically), the current epoch, and the
/// in-flight compaction's admission barrier.
struct LiveState {
    tail: Tail,
    epoch: Arc<Epoch>,
    /// The cut of an in-flight compaction, if any: the admission barrier
    /// appends clamp against (see the module docs).
    pending_cut: Option<Time>,
}

impl LiveState {
    /// What a query starts from: `(epoch, now, watermark)`.
    fn snapshot(&self) -> (Arc<Epoch>, Time, Time) {
        (
            Arc::clone(&self.epoch),
            self.tail.delta.now(),
            self.tail.delta.watermark(),
        )
    }
}

/// Point-in-time gauges of a live index.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveMetrics {
    /// Whether a compaction is building right now.
    pub compacting: bool,
    /// Compactions committed so far.
    pub compactions: u64,
    /// Current epoch id (0 = no compaction yet).
    pub epoch: u64,
    /// Queries that completed while a compaction was in flight.
    pub overlapped_queries: u64,
    /// The delta's resident bytes.
    pub delta_bytes: usize,
    /// The sealed boundary.
    pub watermark: Time,
    /// The live horizon.
    pub now: Time,
}

/// A continuously ingesting reachability index (see the module docs).
///
/// Shared by reference: every method takes `&self` ([`ReachIndex`] is
/// implemented natively), so one index serves many reader threads while
/// appends — and the compactions they trigger — run on others.
pub struct LiveIndex {
    num_objects: usize,
    config: LiveConfig,
    state: RwLock<LiveState>,
    /// The device factory every rebuild draws from; holding it is what
    /// makes compactions exclusive.
    devices: Mutex<DeviceFactory>,
    stats: Mutex<LiveStats>,
    /// True while a compaction is building.
    compacting: AtomicBool,
    /// Queries that completed while a compaction was in flight — the
    /// overlap gauge the concurrent suite asserts is non-zero.
    overlapped_queries: AtomicU64,
    /// Test hook: milliseconds a compaction sleeps between build and
    /// commit, widening the overlap window deterministically.
    pause_ms: AtomicU64,
}

impl LiveIndex {
    /// Creates an empty live index: the log goes to `log_device`, and
    /// `devices` supplies every device compaction needs (reached through
    /// [`LiveBuilder`](crate::LiveBuilder)).
    pub(crate) fn create(
        log_device: Box<dyn BlockDevice>,
        devices: DeviceFactory,
        num_objects: usize,
        config: LiveConfig,
    ) -> Result<Self, IndexError> {
        let log = AppendLog::create(log_device, num_objects)?;
        Ok(Self::assemble(log, DeltaDn::new(0), devices, config))
    }

    /// Recovers a live index from its append log alone: every surviving
    /// record is replayed and the recovered world is compacted into a fresh
    /// sealed base (base and delta are derived state; the log is the only
    /// thing that had to survive).
    pub(crate) fn open(
        log_device: Box<dyn BlockDevice>,
        devices: DeviceFactory,
        config: LiveConfig,
    ) -> Result<(Self, LogRecovery), IndexError> {
        let (log, records, recovery) = AppendLog::open(log_device)?;
        let mut delta = DeltaDn::new(0);
        for c in records {
            delta.insert(c);
        }
        let live = Self::assemble(log, delta, devices, config);
        live.compact()?;
        Ok((live, recovery))
    }

    fn assemble(
        log: AppendLog,
        delta: DeltaDn,
        devices: DeviceFactory,
        config: LiveConfig,
    ) -> Self {
        let stats = LiveStats {
            append_io: log.io_stats(),
            delta_peak_bytes: delta.resident_bytes() as u64,
            ..LiveStats::default()
        };
        Self {
            num_objects: log.num_objects(),
            config,
            state: RwLock::new(LiveState {
                tail: Tail::new(log, delta),
                epoch: Arc::new(Epoch { id: 0, base: None }),
                pending_cut: None,
            }),
            devices: Mutex::new(devices),
            stats: Mutex::new(stats),
            compacting: AtomicBool::new(false),
            overlapped_queries: AtomicU64::new(0),
            pause_ms: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, LiveState> {
        self.state.read().expect("live state lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, LiveState> {
        self.state.write().expect("live state lock poisoned")
    }

    /// Universe size.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// The sealed boundary: ticks `< watermark` live in the current epoch.
    pub fn watermark(&self) -> Time {
        self.read().tail.delta.watermark()
    }

    /// The live horizon (one past the newest accepted tick).
    pub fn now(&self) -> Time {
        self.read().tail.delta.now()
    }

    /// The delta's deterministic resident-byte estimate.
    pub fn delta_bytes(&self) -> usize {
        self.read().tail.delta.resident_bytes()
    }

    /// Records in the durable log.
    pub fn log_len(&self) -> u64 {
        self.read().tail.log.len()
    }

    /// Pages the durable log occupies.
    pub fn log_pages(&self) -> u64 {
        self.read().tail.log.pages()
    }

    /// Lifetime accounting (a copy: the live counters keep moving).
    pub fn stats(&self) -> LiveStats {
        lock_stats(&self.stats).clone()
    }

    /// Point-in-time gauges.
    pub fn metrics(&self) -> LiveMetrics {
        let (epoch, delta_bytes, watermark, now) = {
            let st = self.read();
            (
                st.epoch.id,
                st.tail.delta.resident_bytes(),
                st.tail.delta.watermark(),
                st.tail.delta.now(),
            )
        };
        LiveMetrics {
            compacting: self.compacting.load(Ordering::Acquire),
            compactions: lock_stats(&self.stats).compactions,
            epoch,
            overlapped_queries: self.overlapped_queries.load(Ordering::Relaxed),
            delta_bytes,
            watermark,
            now,
        }
    }

    /// Counters of the current epoch's shared page cache, or `None` when
    /// the config leaves the cache off (or no base has been built yet).
    /// Hits/misses/prefetch numbers aggregate over every reader of the
    /// epoch; the per-handle [`IoStats`] remain the per-query accounting
    /// surface.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let epoch = Arc::clone(&self.read().epoch);
        epoch.cache().map(|c| c.stats())
    }

    /// A fresh handle on the current sealed base's device, if a base
    /// exists (byte-identity testing).
    pub fn base_device(&self) -> Option<SharedDevice> {
        self.read().epoch.base.as_ref().map(|b| b.hub().clone())
    }

    /// Test hook: make every compaction sleep this long between build and
    /// commit, deterministically widening the window in which queries and
    /// appends overlap an in-flight compaction.
    #[doc(hidden)]
    pub fn set_compaction_pause_ms(&self, ms: u64) {
        self.pause_ms.store(ms, Ordering::Relaxed);
    }

    /// Advances the live clock to `to` without appending (silent ticks
    /// extend the queryable horizon).
    pub fn advance(&self, to: Time) {
        self.write().tail.delta.advance(to);
    }

    /// Flushes the log to durable storage.
    pub fn sync(&self) -> Result<(), IndexError> {
        self.write().tail.log.sync()
    }

    /// Re-reads the full accepted record set from the log (the batch
    /// rebuild input; what the equivalence tests compare against).
    pub fn replay_log(&self) -> Result<Vec<Contact>, IndexError> {
        self.write().tail.replay(&self.stats)
    }

    /// Appends one contact record; safe to call from any thread.
    ///
    /// Records whose every tick is `≥ watermark` are accepted in any
    /// arrival order. Older ticks hit the lateness policy
    /// ([`LiveConfig::mode`]): strict rejects with [`LiveError::Late`],
    /// lossy clamps a straddling record to the watermark (counting it) and
    /// drops a wholly-late one. While a compaction is building, its cut
    /// acts as the effective watermark (the admission barrier of the
    /// module docs). Accepted records are durably logged before they touch
    /// the delta. An append that pushes the delta over budget compacts
    /// inline, unless another compaction is already building.
    pub fn append(&self, c: Contact) -> Result<AppendOutcome, LiveError> {
        let (mut outcome, trigger) = {
            let mut st = self.write();
            let barrier = st.tail.delta.watermark().max(st.pending_cut.unwrap_or(0));
            st.tail
                .admit(c, barrier, self.num_objects, &self.config, &self.stats)?
        };
        if trigger.is_some() {
            let mut devices = match self.devices.try_lock() {
                Ok(devices) => devices,
                // The running build seals what this append added, or a
                // later over-budget append retries.
                Err(TryLockError::WouldBlock) => return Ok(outcome),
                Err(TryLockError::Poisoned(_)) => panic!("live compactor lock poisoned"),
            };
            // The record is already durable and queryable; a compaction
            // failure must not masquerade as an append failure (see
            // [`AppendOutcome::compaction_error`]).
            match self.compact_with(&mut devices) {
                Ok(done) => outcome.compacted = done.is_some(),
                Err(e) => outcome.compaction_error = Some(e),
            }
            self.write().tail.back_off_if_over(&self.config);
        }
        Ok(outcome)
    }

    /// Drains a [`ContactSource`] into the index — the ingestion layer's
    /// parsers (and any custom feed implementing the trait) plug into the
    /// live path unchanged. Records must use numeric labels; raw times are
    /// rebased/scaled by `origin` and `time_scale` exactly as pinned batch
    /// ingestion does. Parse and conversion failures follow
    /// [`LiveConfig::mode`] (strict aborts with the offending line, lossy
    /// counts and skips), as do late records.
    pub fn append_source<S: ContactSource>(
        &self,
        mut source: S,
        origin: u64,
        time_scale: u64,
    ) -> Result<SourceReport, LiveError> {
        if time_scale == 0 {
            return Err(LiveError::Ingest(IngestError::Inconsistent(
                "time_scale must be ≥ 1".into(),
            )));
        }
        let mut report = SourceReport::default();
        while let Some(r) = source.next_record() {
            match convert_record(r, origin, time_scale).and_then(|c| self.append(c)) {
                Ok(o) if o.logged => {
                    report.appended += 1;
                    report.clamped += u64::from(o.clamped);
                    report.compactions += u64::from(o.compacted);
                    if let Some(e) = o.compaction_error {
                        // The record itself landed; the failed maintenance
                        // still has to surface to the operator.
                        return Err(LiveError::Index(e));
                    }
                }
                Ok(_) => report.skipped += 1, // lossy-dropped late record
                // Storage failures always propagate; *record* problems
                // (parse, self-contact, unknown id, strict-late) follow the
                // configured error mode.
                Err(e @ LiveError::Index(_)) => return Err(e),
                Err(e) => match self.config.mode {
                    ErrorMode::Strict => return Err(e),
                    ErrorMode::Lossy => {
                        lock_stats(&self.stats).skipped += 1;
                        report.skipped += 1;
                    }
                },
            }
        }
        Ok(report)
    }

    /// Seals everything up to `now - lateness` into a fresh epoch on the
    /// calling thread, waiting out any compaction already building (see
    /// the module docs for the merge algebra and the admission barrier);
    /// the lateness window's tail stays mutable in the delta. Queries and
    /// appends proceed during the build. `None` when the watermark cannot
    /// advance; otherwise the compaction's cost breakdown.
    pub fn compact(&self) -> Result<Option<CompactionStats>, IndexError> {
        let mut devices = self.devices.lock().expect("live compactor lock poisoned");
        self.compact_with(&mut devices)
    }

    /// One compaction: admission barrier + snapshot under the write lock,
    /// the whole rebuild off-lock through a private epoch reader, then a
    /// failure-atomic commit that swaps the epoch and discards the sealed
    /// delta head. Holding `devices` makes it exclusive.
    fn compact_with(
        &self,
        devices: &mut DeviceFactory,
    ) -> Result<Option<CompactionStats>, IndexError> {
        let config = &self.config;
        // Phase 1: publish the cut and snapshot the sealed head atomically.
        let (epoch, sealed, cut) = {
            let mut st = self.write();
            let w = st.tail.delta.watermark();
            let cut = st.tail.delta.now().saturating_sub(config.lateness).max(w);
            if cut == 0 || cut == w {
                return Ok(None);
            }
            st.pending_cut = Some(cut);
            (Arc::clone(&st.epoch), st.tail.delta.sealed_head(cut), cut)
        };
        self.compacting.store(true, Ordering::Release);

        // Phase 2: build entirely off-lock. The old base is re-streamed
        // through a *private* reader, so queries proceed untouched for the
        // whole build. Each epoch gets a fresh hub (carrying a fresh shared
        // cache when one is configured).
        let built = (|| {
            let scratch = devices();
            let hub = DeviceDirectory::hub(devices(), config.shared_cache_pages, config.readahead);
            let (base, stats) = build_sealed_base(
                &mut epoch.reader(),
                &sealed,
                self.num_objects,
                cut,
                config,
                scratch,
                Box::new(hub.clone()),
            )?;
            Ok::<_, IndexError>((SealedBase::new(base, hub), stats))
        })();

        let pause = self.pause_ms.load(Ordering::Relaxed);
        if pause > 0 {
            std::thread::sleep(Duration::from_millis(pause));
        }

        // Phase 3: commit — the only point that changes reader-visible
        // state, and it is infallible. A failed build just withdraws the
        // barrier, keeping the old epoch and the full delta.
        let committed = {
            let mut st = self.write();
            st.pending_cut = None;
            built.map(|(base, stats)| {
                st.tail.delta.discard_below(cut);
                let next = Arc::new(Epoch {
                    id: st.epoch.id + 1,
                    base: Some(base),
                });
                (std::mem::replace(&mut st.epoch, next), stats)
            })
        };
        self.compacting.store(false, Ordering::Release);
        let (superseded, stats) = committed?;
        // The superseded epoch's pages can never be served again (the
        // reader protocol discards results from a stale epoch id);
        // dropping its cached residency frees the memory immediately even
        // while late readers still hold the old epoch's Arc.
        if let Some(cache) = superseded.cache() {
            cache.invalidate_all();
        }
        let mut s = lock_stats(&self.stats);
        s.compactions += 1;
        s.compaction_read_io = s.compaction_read_io + stats.base_read_io;
        s.compaction_spill_io = s.compaction_spill_io + stats.spill.io;
        s.last_compaction = Some(stats);
        Ok(Some(stats))
    }

    /// Runs `attempt` optimistically up to [`EPOCH_RETRIES`] times (each
    /// `None` means a commit moved the epoch mid-query), then once pinned
    /// — holding the read lock throughout, which no commit can interrupt.
    fn with_retries<T>(
        &self,
        mut attempt: impl FnMut(bool) -> Result<Option<T>, IndexError>,
    ) -> Result<T, IndexError> {
        for _ in 0..EPOCH_RETRIES {
            if let Some(done) = attempt(false)? {
                return Ok(done);
            }
        }
        Ok(attempt(true)?.expect("a pinned attempt always validates"))
    }

    /// The read lock for an attempt's delta leg: the pinned guard when the
    /// attempt holds one, else a fresh guard — valid only if no commit
    /// moved the epoch since the snapshot.
    fn validated<'a>(
        &'a self,
        pin: Option<RwLockReadGuard<'a, LiveState>>,
        epoch: &Epoch,
    ) -> Option<RwLockReadGuard<'a, LiveState>> {
        let st = pin.unwrap_or_else(|| self.read());
        (st.epoch.id == epoch.id).then_some(st)
    }

    /// One pass of the reader protocol (module docs): snapshot → base IO
    /// off-lock → validate the epoch under the read lock → delta
    /// propagation. `None` when a commit moved the epoch mid-query.
    fn reach_attempt(&self, q: &Query, pinned: bool) -> Result<Option<QueryResult>, IndexError> {
        let started = Instant::now();
        let n = self.num_objects;
        let pin = pinned.then(|| self.read());
        let (epoch, now, w) = match &pin {
            Some(st) => st.snapshot(),
            None => self.read().snapshot(),
        };
        for o in [q.source, q.dest] {
            if o.index() >= n {
                return Err(IndexError::UnknownObject(o));
            }
        }
        if q.interval.start >= now {
            return Err(IndexError::IntervalOutOfRange {
                requested: q.interval,
                horizon: now,
            });
        }
        let t1 = q.interval.start;
        let t2 = q.interval.end.min(now - 1);
        let mut result = if q.source == q.dest {
            QueryResult {
                outcome: QueryOutcome::reachable_at(t1),
                stats: QueryStats::default(),
            }
        } else if t2 < w {
            // Entirely sealed: ticks below the watermark are frozen, so the
            // snapshot's base answers exactly — no validation.
            epoch.reader().evaluate(q)?
        } else {
            // Spanning: the frontier at the cut comes off-lock; entirely
            // live: the source alone seeds the delta.
            let (frontier, stats) = if t1 < w {
                epoch
                    .reader()
                    .reachable_set(q.source, TimeInterval::new(t1, w - 1))?
            } else {
                (vec![(q.source, t1)], QueryStats::default())
            };
            let Some(st) = self.validated(pin, &epoch) else {
                return Ok(None);
            };
            let sealed_hit = frontier
                .binary_search_by_key(&q.dest, |&(o, _)| o)
                .ok()
                .map(|i| frontier[i].1);
            let outcome = match sealed_hit {
                Some(ea) => QueryOutcome::reachable_at(ea),
                None => {
                    let when = st.tail.delta.propagate(n, &frontier, t2, Some(q.dest));
                    outcome_of(when[q.dest.index()])
                }
            };
            QueryResult { outcome, stats }
        };
        result.stats.cpu = started.elapsed();
        Ok(Some(result))
    }

    /// The batch sibling of [`LiveIndex::reach_attempt`]: at most one
    /// frontier expansion and one delta propagation, every destination's
    /// verdict read out of the shared arrival array.
    fn batch_attempt(
        &self,
        source: ObjectId,
        window: TimeInterval,
        dests: &[ObjectId],
        pinned: bool,
    ) -> Result<Option<Vec<Answer>>, IndexError> {
        let started = Instant::now();
        let n = self.num_objects;
        let pin = pinned.then(|| self.read());
        let (epoch, now, w) = match &pin {
            Some(st) => st.snapshot(),
            None => self.read().snapshot(),
        };
        if window.start >= now {
            return Err(IndexError::IntervalOutOfRange {
                requested: window,
                horizon: now,
            });
        }
        let t1 = window.start;
        let t2 = window.end.min(now - 1);
        let (frontier, mut stats) = if t1 < w {
            epoch
                .reader()
                .reachable_set(source, TimeInterval::new(t1, t2.min(w - 1)))?
        } else {
            (vec![(source, t1)], QueryStats::default())
        };
        let mut when = if t2 < w {
            vec![None; n]
        } else {
            let Some(st) = self.validated(pin, &epoch) else {
                return Ok(None);
            };
            st.tail.delta.propagate(n, &frontier, t2, None)
        };
        // Sealed arrivals win: propagation seeds at the frontier times, but
        // keep the exact sealed earliest for objects reached below the cut.
        for &(o, ea) in &frontier {
            let slot = &mut when[o.index()];
            *slot = Some(slot.map_or(ea, |t| t.min(ea)));
        }
        stats.cpu = started.elapsed();
        Ok(Some(batch_answers(source, t1, &when, dests, stats)))
    }

    /// Lifetime accounting for answered queries, plus the overlap gauge.
    fn note_answered<'s>(&self, answered: impl IntoIterator<Item = &'s QueryStats>) {
        let mut count = 0;
        {
            let mut stats = lock_stats(&self.stats);
            for s in answered {
                stats.queries += 1;
                stats.query = stats.query.merged(s);
                count += 1;
            }
        }
        if self.compacting.load(Ordering::Acquire) {
            self.overlapped_queries.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Evaluates a time-respecting reachability query over the full live
    /// horizon `[0, now)`, routing across the watermark as needed; safe to
    /// call from many threads at once and never blocked by an in-flight
    /// build (see the module docs for the protocol). IO is attributed to
    /// the query via the sealed base's counters.
    pub fn evaluate_query(&self, q: &Query) -> Result<QueryResult, IndexError> {
        let result = self.with_retries(|pinned| self.reach_attempt(q, pinned))?;
        self.note_answered([&result.stats]);
        Ok(result)
    }

    /// Evaluates many same-source queries through **one** frontier
    /// expansion (the serving path's batching optimization): the sealed
    /// base is expanded once and the delta propagated once without a stop
    /// object, then every destination's verdict is read out of the shared
    /// arrival arrays. Reachability verdicts are identical to evaluating
    /// each query alone (earliest arrivals can be *more* precise: the
    /// expansion always carries arrival times, while some sealed bases
    /// answer point queries without one). The expansion's IO is attributed
    /// to the *first* answer — subsequent answers in the batch cost no
    /// additional IO, which is the point.
    pub fn evaluate_batch(
        &self,
        source: ObjectId,
        window: TimeInterval,
        dests: &[ObjectId],
    ) -> Result<Vec<Answer>, IndexError> {
        let n = self.num_objects;
        if source.index() >= n {
            return Err(IndexError::UnknownObject(source));
        }
        if let Some(&bad) = dests.iter().find(|d| d.index() >= n) {
            return Err(IndexError::UnknownObject(bad));
        }
        if dests.is_empty() {
            return Ok(Vec::new());
        }
        let answers =
            self.with_retries(|pinned| self.batch_attempt(source, window, dests, pinned))?;
        self.note_answered(answers.iter().map(|a| &a.stats));
        Ok(answers)
    }

    /// Evaluates a decay-family request with the read lock pinned for the
    /// whole walk (commits wait; other readers proceed), composing exactly
    /// like a lone reader — the weighted frontier's multi-leg handoff has
    /// no cheap mid-flight validation point, so correctness over
    /// concurrency for this (rarer) workload.
    fn pinned_answer(
        &self,
        eval: impl FnOnce(&mut Base, &DeltaDn) -> Result<Answer, IndexError>,
    ) -> Result<Answer, IndexError> {
        let answer = {
            let st = self.read();
            eval(&mut st.epoch.reader(), &st.tail.delta)?
        };
        self.note_answered([&answer.stats]);
        Ok(answer)
    }
}

impl ReachIndex for LiveIndex {
    fn name(&self) -> &'static str {
        "LiveIndex"
    }

    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        // One dispatch span attributing the answer's own stats: the index
        // evaluates in a single leg (epoch base + delta), so there are no
        // child legs to split the attribution across.
        let mut dispatch = request.trace.span("index/dispatch");
        dispatch.label_with(|| format!("{} {}", self.name(), request.trace_label()));
        let (q, n) = (&request.query, self.num_objects);
        let answer = match request.kind {
            QueryKind::Reach => self.evaluate_query(q).map(Answer::from),
            QueryKind::Decay { theta, model } => {
                self.pinned_answer(|base, delta| decay_point_at(base, delta, n, q, theta, &model))
            }
            QueryKind::TopK {
                k,
                model,
                direction,
            } => self.pinned_answer(|base, delta| {
                top_k_at(base, delta, n, q.source, q.interval, k, &model, direction)
            }),
            _ => Err(request.unsupported(self.name())),
        };
        if let Ok(a) = &answer {
            reach_core::attribute_stats(&mut dispatch, &a.stats);
        }
        answer
    }

    fn query_batch(
        &self,
        source: ObjectId,
        window: TimeInterval,
        dests: &[ObjectId],
    ) -> Result<Vec<Answer>, IndexError> {
        self.evaluate_batch(source, window, dests)
    }
}

/// Parses one raw source record into a tick-space contact.
fn convert_record(
    r: Result<reach_contact::ingest::RawRecord, IngestError>,
    origin: u64,
    time_scale: u64,
) -> Result<Contact, LiveError> {
    let rec = r.map_err(LiveError::Ingest)?;
    let id = |label: &str| -> Result<u32, LiveError> {
        label.parse::<u32>().map_err(|_| {
            LiveError::Ingest(IngestError::parse(
                rec.line,
                format!("id {label:?} is not numeric (live appends require numeric ids)"),
            ))
        })
    };
    let (a, b) = (id(&rec.u)?, id(&rec.v)?);
    if a == b {
        return Err(LiveError::SelfContact(ObjectId(a)));
    }
    if rec.start < origin {
        return Err(LiveError::Ingest(IngestError::parse(
            rec.line,
            format!("timestamp {} precedes the origin {origin}", rec.start),
        )));
    }
    let tick = |raw: u64| -> Result<Time, LiveError> {
        Time::try_from((raw - origin) / time_scale).map_err(|_| {
            LiveError::Ingest(IngestError::parse(
                rec.line,
                format!("timestamp {raw} overflows the tick range"),
            ))
        })
    };
    Ok(Contact::new(
        ObjectId(a),
        ObjectId(b),
        TimeInterval::new(tick(rec.start)?, tick(rec.end)?),
    ))
}

/// Outcome of one [`LiveIndex::append_source`] drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceReport {
    /// Records accepted and logged.
    pub appended: u64,
    /// Records skipped (parse errors, conversion errors, dropped-late).
    pub skipped: u64,
    /// Records clamped to the watermark.
    pub clamped: u64,
    /// Automatic compactions triggered while draining.
    pub compactions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_contact::Oracle;
    use reach_storage::SimDevice;

    const PAGE: usize = 256;
    const HORIZON: Time = 48;

    fn graph_config(budget: usize) -> LiveConfig {
        LiveConfig::graph(
            GraphParams {
                partition_depth: 8,
                page_size: PAGE,
                ..GraphParams::default()
            },
            BuildBudget::bytes(budget),
        )
    }

    fn live(config: LiveConfig, n: usize) -> LiveIndex {
        config
            .builder()
            .build_on(
                Box::new(SimDevice::new(PAGE)),
                Box::new(|| Box::new(SimDevice::new(PAGE))),
                n,
            )
            .expect("live index creates")
    }

    /// Deterministic xorshift contact stream over `n` objects, start times
    /// non-decreasing so lossy clamping never kicks in.
    fn stream(seed: u64, n: u32, count: usize) -> Vec<Contact> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let a = (next() % u64::from(n)) as u32;
            let mut b = (next() % u64::from(n)) as u32;
            if a == b {
                b = (b + 1) % n;
            }
            let start = (i as Time * (HORIZON - 4)) / count as Time;
            let len = (next() % 3) as Time;
            out.push(Contact::new(
                ObjectId(a),
                ObjectId(b),
                TimeInterval::new(start, (start + len).min(HORIZON - 1)),
            ));
        }
        out
    }

    fn oracle_of(n: usize, horizon: Time, contacts: &[Contact]) -> Oracle {
        let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); horizon as usize];
        for c in contacts {
            for t in c.interval.ticks() {
                per_tick[t as usize].push((c.a.0, c.b.0));
            }
        }
        Oracle::from_events(n, per_tick)
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(20), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sealed-only, spanning, and delta-only windows of a live index
    /// compacted twice mid-stream.
    fn compacted_twice(n: usize, seed: u64, count: usize) -> (LiveIndex, [TimeInterval; 4]) {
        let idx = live(graph_config(1 << 20).manual_compaction(), n);
        for (i, c) in stream(seed, n as u32, count).into_iter().enumerate() {
            idx.append(c).expect("append");
            if i == count / 3 || i == 2 * count / 3 {
                idx.compact().expect("compaction");
            }
        }
        let (last, w) = (idx.now() - 1, idx.watermark());
        assert!(w > 0, "compactions advanced the watermark");
        let windows = [
            TimeInterval::new(0, last),
            TimeInterval::new(w.saturating_sub(1), last),
            TimeInterval::new(w.min(last), last),
            TimeInterval::new(0, w - 1),
        ];
        (idx, windows)
    }

    /// Interleaving compactions with queries must answer exactly as the
    /// batch oracle over the accepted trace, and the optimistic reader
    /// protocol must count exactly the IO of the pinned evaluation.
    #[test]
    fn answers_and_io_match_the_single_threaded_path() {
        let n = 6;
        let (idx, windows) = compacted_twice(n, 0x5eed, 90);
        let oracle = oracle_of(n, idx.now(), &idx.replay_log().expect("log replays"));
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                for iv in windows {
                    let q = Query::new(ObjectId(s), ObjectId(d), iv);
                    let got = idx.evaluate_query(&q).expect("optimistic query");
                    let want = oracle.evaluate(&q);
                    assert_eq!(got.reachable(), want.reachable, "{q} outcome diverged");
                    if let (Some(g), Some(w)) = (got.outcome.earliest, want.earliest) {
                        assert_eq!(g, w, "{q} arrival diverged");
                    }
                    let pinned = idx
                        .reach_attempt(&q, true)
                        .expect("pinned query")
                        .expect("a pinned attempt validates");
                    assert_eq!(got.outcome, pinned.outcome, "{q} pinned outcome diverged");
                    assert_eq!(
                        (got.stats.random_ios, got.stats.seq_ios),
                        (pinned.stats.random_ios, pinned.stats.seq_ios),
                        "{q} counted IO diverged"
                    );
                }
            }
        }
    }

    /// The batch protocol's pinned fallback — what a query runs after
    /// commits keep landing mid-query — returns the optimistic path's
    /// verdicts and counted IO on sealed-only, delta-only, and spanning
    /// windows.
    #[test]
    fn pinned_batch_fallback_matches_the_optimistic_path() {
        let n = 6;
        let (idx, windows) = compacted_twice(n, 0xfa11, 80);
        let dests: Vec<ObjectId> = (0..n as u32).map(ObjectId).collect();
        for iv in windows {
            for src in 0..n as u32 {
                let source = ObjectId(src);
                let optimistic = idx.evaluate_batch(source, iv, &dests).expect("batch");
                let pinned = idx
                    .batch_attempt(source, iv, &dests, true)
                    .expect("pinned batch")
                    .expect("a pinned attempt validates");
                assert_eq!(optimistic.len(), pinned.len());
                for (d, (a, b)) in dests.iter().zip(optimistic.iter().zip(&pinned)) {
                    assert_eq!(a.outcome, b.outcome, "{source}→{d} over {iv} diverged");
                    assert_eq!(
                        (a.stats.random_ios, a.stats.seq_ios),
                        (b.stats.random_ios, b.stats.seq_ios),
                        "{source}→{d} over {iv}: counted IO diverged"
                    );
                }
            }
        }
    }

    /// While a compaction is building, its cut acts as the effective
    /// watermark for admission: a record straddling the cut is clamped *to
    /// the cut* (not the stale watermark), so nothing accepted mid-build is
    /// lost when `discard_below(cut)` commits.
    #[test]
    fn appends_during_a_build_respect_the_pending_cut() {
        let n = 4;
        let idx = live(graph_config(1 << 20).manual_compaction(), n);
        for c in stream(7, n as u32, 40) {
            idx.append(c).expect("append");
        }
        let now = idx.now();
        assert!(now > 4);
        idx.set_compaction_pause_ms(150);
        std::thread::scope(|scope| {
            let build = scope.spawn(|| idx.compact());
            wait_until("compaction starts", || idx.metrics().compacting);
            // The cut is `now` (lateness 0). A straddling record must clamp
            // to it even though the committed watermark is still 0.
            let straddling =
                Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, HORIZON - 1));
            let outcome = idx.append(straddling).expect("straddling append");
            assert!(outcome.logged && outcome.clamped);
            // A wholly-below-cut record is dropped outright.
            let late = Contact::new(ObjectId(2), ObjectId(3), TimeInterval::new(0, 1));
            let dropped = idx.append(late).expect("late append");
            assert!(!dropped.logged && !dropped.clamped);
            let done = build.join().expect("compaction thread");
            assert!(done.expect("compaction commits").is_some());
        });
        assert_eq!(idx.metrics().compactions, 1);
        assert_eq!(idx.watermark(), now);
        // The clamped record survived the commit: it reaches from the cut on.
        let q = Query::new(
            ObjectId(0),
            ObjectId(1),
            TimeInterval::new(now, HORIZON - 1),
        );
        assert!(idx.evaluate_query(&q).expect("query").reachable());
        // And the log agrees with what the index holds.
        let accepted = idx.replay_log().expect("log replays");
        assert!(accepted
            .iter()
            .any(|c| c.a == ObjectId(0) && c.b == ObjectId(1) && c.interval.start == now));
        let oracle = oracle_of(n, idx.now(), &accepted);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(0, HORIZON - 1));
                assert_eq!(
                    idx.evaluate_query(&q).expect("sweep").reachable(),
                    oracle.evaluate(&q).reachable,
                    "{q} diverged after mid-build appends"
                );
            }
        }
    }

    /// Queries keep being served while a compaction is mid-build on
    /// another thread, and the overlap gauge proves they interleaved.
    #[test]
    fn queries_are_not_blocked_by_a_background_compaction() {
        let n = 5;
        let idx = live(graph_config(1 << 20).manual_compaction(), n);
        for c in stream(11, n as u32, 60) {
            idx.append(c).expect("append");
        }
        idx.set_compaction_pause_ms(120);
        let q = Query::new(
            ObjectId(0),
            ObjectId(1),
            TimeInterval::new(0, idx.now() - 1),
        );
        std::thread::scope(|scope| {
            let build = scope.spawn(|| idx.compact());
            wait_until("compaction starts", || idx.metrics().compacting);
            let mut served = 0u64;
            while idx.metrics().compacting {
                idx.evaluate_query(&q).expect("query during build");
                served += 1;
            }
            assert!(served > 0, "no query completed during the build window");
            let done = build.join().expect("compaction thread");
            assert!(done.expect("compaction commits").is_some());
        });
        assert!(idx.metrics().overlapped_queries > 0);
        assert_eq!(idx.metrics().compactions, 1);
        assert!(idx.watermark() > 0);
    }

    /// Appending past the delta budget compacts inline: the append that
    /// crosses the budget returns with `compacted = true` and the
    /// watermark has already advanced when it does.
    #[test]
    fn over_budget_appends_compact_inline() {
        let n = 5;
        let idx = live(
            graph_config(1 << 20)
                .with_delta_budget(600)
                .with_lateness(2),
            n,
        );
        let mut compacted = false;
        for c in stream(23, n as u32, 80) {
            let before = idx.metrics().compactions;
            let outcome = idx.append(c).expect("append");
            assert!(outcome.compaction_error.is_none());
            assert_eq!(
                idx.metrics().compactions,
                before + u64::from(outcome.compacted),
                "a compacting append returns only after its commit"
            );
            compacted |= outcome.compacted;
        }
        assert!(compacted, "no append ever compacted");
        assert!(idx.watermark() > 0);
        // The answers still match the oracle over the accepted trace.
        let accepted = idx.replay_log().expect("log replays");
        let oracle = oracle_of(n, idx.now(), &accepted);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let q = Query::new(
                    ObjectId(s),
                    ObjectId(d),
                    TimeInterval::new(0, idx.now() - 1),
                );
                assert_eq!(
                    idx.evaluate_query(&q).expect("sweep").reachable(),
                    oracle.evaluate(&q).reachable,
                    "{q} diverged after inline compaction"
                );
            }
        }
    }

    /// A batch over every destination answers identically to the same
    /// queries evaluated one at a time, with the expansion's IO attributed
    /// to the first answer only.
    #[test]
    fn batches_answer_identically_to_single_queries() {
        let n = 6;
        let idx = live(graph_config(1 << 20).manual_compaction(), n);
        let contacts = stream(0xba7c4, n as u32, 70);
        for (i, c) in contacts.iter().enumerate() {
            idx.append(*c).expect("append");
            if i == 35 {
                idx.compact().expect("compaction");
            }
        }
        let w = idx.watermark();
        assert!(w > 0);
        let dests: Vec<ObjectId> = (0..n as u32).map(ObjectId).collect();
        // Spanning, sealed-only, and delta-only windows all batch exactly.
        let last = idx.now() - 1;
        let windows = [
            TimeInterval::new(0, last),
            TimeInterval::new(0, w - 1),
            TimeInterval::new(w.min(last), last),
        ];
        for iv in windows {
            for src in 0..n as u32 {
                let source = ObjectId(src);
                let batch = idx
                    .evaluate_batch(source, iv, &dests)
                    .expect("batch evaluates");
                assert_eq!(batch.len(), dests.len());
                for (d, got) in dests.iter().zip(&batch) {
                    let q = Query::new(source, *d, iv);
                    let want = idx.evaluate_query(&q).expect("single query");
                    assert_eq!(
                        got.outcome.reachable, want.outcome.reachable,
                        "{q} batch verdict diverged"
                    );
                    // The batch may know an arrival the point query does
                    // not (sealed bases answer without one); when both
                    // know it, they must agree.
                    if let (Some(g), Some(w)) = (got.outcome.earliest, want.outcome.earliest) {
                        assert_eq!(g, w, "{q} batch arrival diverged");
                    }
                    if want.outcome.earliest.is_some() {
                        assert!(got.outcome.earliest.is_some(), "{q} batch lost the arrival");
                    }
                }
                // All IO rides on the first answer.
                for (d, got) in dests.iter().zip(&batch).skip(1) {
                    assert_eq!(
                        (got.stats.random_ios, got.stats.seq_ios),
                        (0, 0),
                        "batch answer for {d:?} re-paid IO"
                    );
                }
            }
        }
        // Empty destination list short-circuits.
        assert!(idx
            .evaluate_batch(ObjectId(0), windows[0], &[])
            .expect("empty batch")
            .is_empty());
    }

    /// The `ReachIndex` implementation routes `Reach` requests to the
    /// reader protocol and rejects kinds the index does not speak.
    #[test]
    fn reach_index_dispatch() {
        let n = 4;
        let idx = live(graph_config(1 << 20).manual_compaction(), n);
        for c in stream(3, n as u32, 30) {
            idx.append(c).expect("append");
        }
        assert_eq!(idx.name(), "LiveIndex");
        let q = Query::new(
            ObjectId(0),
            ObjectId(1),
            TimeInterval::new(0, idx.now() - 1),
        );
        let via_trait = idx.answer(&ReachRequest::from(q)).expect("trait answer");
        let direct = idx.evaluate_query(&q).expect("direct answer");
        assert_eq!(via_trait.outcome, direct.outcome);
        let foreign = ReachRequest::from(q).with_kind(QueryKind::Uncertain { threshold: 0.5 });
        assert!(matches!(
            idx.answer(&foreign),
            Err(IndexError::Unsupported(_))
        ));
    }

    /// Strict mode refuses pre-cut records even while the cut is only
    /// pending (the admission barrier again, on the error path).
    #[test]
    fn strict_mode_rejects_below_the_pending_cut() {
        let n = 4;
        let idx = live(graph_config(1 << 20).manual_compaction().strict(), n);
        for c in stream(5, n as u32, 40) {
            idx.append(c).expect("append");
        }
        let now = idx.now();
        idx.set_compaction_pause_ms(150);
        std::thread::scope(|scope| {
            let build = scope.spawn(|| idx.compact());
            wait_until("compaction starts", || idx.metrics().compacting);
            let late = Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, HORIZON - 1));
            match idx.append(late) {
                Err(LiveError::Late { watermark, .. }) => assert_eq!(watermark, now),
                other => panic!("expected Late against the pending cut, got {other:?}"),
            }
            let done = build.join().expect("compaction thread");
            assert!(done.expect("compaction commits").is_some());
        });
        assert_eq!(idx.metrics().compactions, 1);
    }
}
