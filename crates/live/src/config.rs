//! The live engine's value types: what to build ([`LiveConfig`]), what
//! can go wrong ([`LiveError`]), and what it reports ([`AppendOutcome`],
//! [`LiveStats`], [`CompactionStats`], [`LiveMetrics`], [`SourceReport`]).

use reach_contact::{ErrorMode, IngestError};
use reach_core::{Contact, IndexError, ObjectId, QueryStats, Time};
use reach_graph::GraphParams;
use reach_storage::{BuildBudget, IoStats, SpillStats};
use std::time::Duration;

/// Configuration of a [`ShardedLive`](crate::ShardedLive).
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// What to do with records older than the watermark: `Strict` rejects
    /// the append with [`LiveError::Late`]; `Lossy` clamps partially-late
    /// records to the watermark and drops wholly-late ones, counting both.
    pub mode: ErrorMode,
    /// The ReachGraph every seal, merge, and compaction builds; its
    /// `page_size` is the page size of every device the engine opens.
    pub params: GraphParams,
    /// Spill-pool budget of the streaming builds (the
    /// [`StreamedDn`](reach_contact::StreamedDn) bound; independent of the
    /// delta trigger).
    pub budget: BuildBudget,
    /// Delta resident bytes that trigger a seal (when `auto_compact` is
    /// set). Defaults to the build budget's bound — pass something smaller
    /// to seal more eagerly than the build can spill.
    pub delta_budget: usize,
    /// Lateness slack in ticks: automatic seals and compactions stop at
    /// `now - lateness` (never regressing), keeping that much history
    /// mutable so bounded out-of-order arrivals keep landing in the window
    /// instead of being clamped. `0` seals everything.
    pub lateness: Time,
    /// Seal automatically — inline, on the appending thread — when the
    /// delta outgrows `delta_budget`.
    pub auto_compact: bool,
    /// Page-cache capacity (pages) for every sealed shard's device hub.
    /// `0` (the default) keeps the paper's cold-cache measurement model;
    /// non-zero makes every shard's hub carry a
    /// [`PageCache`](reach_storage::PageCache), pooling residency across
    /// queries and serving threads.
    pub shared_cache_pages: usize,
    /// Readahead window (pages) the shared cache hands to its pagers; `0`
    /// disables prefetch. Only meaningful with `shared_cache_pages > 0`.
    pub readahead: usize,
}

impl LiveConfig {
    /// A config sealing ReachGraph shards with the given params and
    /// budget, lossy lateness handling, and automatic seals on.
    pub fn graph(params: GraphParams, budget: BuildBudget) -> Self {
        Self {
            mode: ErrorMode::Lossy,
            params,
            budget,
            delta_budget: budget.max_resident_bytes,
            lateness: 0,
            auto_compact: true,
            shared_cache_pages: 0,
            readahead: 0,
        }
    }

    /// Returns the config with an explicit delta seal trigger.
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

    /// Returns the config with automatic seals disabled (maintenance only
    /// through explicit `seal`/`merge_epochs`/`compact` calls).
    pub fn manual_compaction(mut self) -> Self {
        self.auto_compact = false;
        self
    }

    /// Returns the config with a shared page cache of `pages` pages on
    /// every sealed shard's device hub (see
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

/// What one [`ShardedLive::append`](crate::ShardedLive::append) did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppendOutcome {
    /// Whether the record (possibly clamped) was accepted and logged.
    pub logged: bool,
    /// Whether a partially-late record was clamped to the watermark.
    pub clamped: bool,
    /// Whether this append triggered an automatic seal.
    pub compacted: bool,
    /// A failure of the *automatic seal* that ran after the record was
    /// already durably logged and absorbed. Carried here instead of `Err`
    /// so the append's own success is never misreported: sealing is
    /// failure-atomic, the index stays consistent, and the caller can
    /// retry the seal at leisure — re-appending the record would
    /// duplicate it.
    pub compaction_error: Option<IndexError>,
}

/// Cumulative accounting of one live index's lifetime, with IO attributed
/// per phase through [`IoSampler`](reach_storage::IoSampler) — the
/// numbers the perf gate's live counters are built from.
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
    /// Rebuilds committed: seals, epoch merges, and compactions.
    pub compactions: u64,
    /// High-water mark of the delta's resident bytes.
    pub delta_peak_bytes: u64,
    /// Shard-device IO spent re-streaming sealed shards, summed over every
    /// rebuild.
    pub compaction_read_io: IoStats,
    /// Scratch-device IO of the budgeted builds, summed over every
    /// rebuild.
    pub compaction_spill_io: IoStats,
    /// Append-log device IO (durable page writes, recovery reads).
    pub append_io: IoStats,
    /// Queries evaluated.
    pub queries: u64,
    /// Work summed over all queries (shard IO included).
    pub query: QueryStats,
    /// The most recent rebuild, if any.
    pub last_compaction: Option<CompactionStats>,
}

/// Cost breakdown of one rebuild (seal, merge, or compaction).
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactionStats {
    /// The end of the rebuilt shard (== its horizon; the new watermark
    /// when the rebuild sealed the delta head).
    pub watermark: Time,
    /// Chain contacts re-streamed out of the replaced shards.
    pub base_chains: u64,
    /// Maximal contacts contributed by the delta.
    pub delta_contacts: u64,
    /// IO spent reading the replaced shards (chain extraction).
    pub base_read_io: IoStats,
    /// Scratch traffic of the budgeted streaming build.
    pub spill: SpillStats,
    /// Wall-clock duration (informational; never gated).
    pub duration: Duration,
}

/// Point-in-time gauges of a live index.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveMetrics {
    /// Whether a rebuild is building right now.
    pub compacting: bool,
    /// Rebuilds committed so far.
    pub compactions: u64,
    /// Epoch-directory generation (bumped by every committed rebuild).
    pub generation: u64,
    /// Queries that completed while a rebuild was in flight.
    pub overlapped_queries: u64,
    /// The delta's resident bytes.
    pub delta_bytes: usize,
    /// The sealed boundary.
    pub watermark: Time,
    /// The live horizon.
    pub now: Time,
}

/// Outcome of one [`ShardedLive::append_source`](crate::ShardedLive::append_source)
/// drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceReport {
    /// Records accepted and logged.
    pub appended: u64,
    /// Records skipped (parse errors, conversion errors, dropped-late).
    pub skipped: u64,
    /// Records clamped to the watermark.
    pub clamped: u64,
    /// Automatic seals triggered while draining.
    pub compactions: u64,
}
