//! The live reachability index: a time-ordered sequence of sealed shards
//! plus a mutable delta, stitched by a watermark and shared by reference
//! across threads.
//!
//! ## Anatomy
//!
//! [`ShardedLive`] partitions time at cut ticks `0 = c_0 < c_1 < … < c_k`;
//! the newest cut is the **watermark** `W`:
//!
//! ```text
//!   shard 0        shard 1          shard k-1        delta
//!   [c_0, c_1)     [c_1, c_2)  …    [c_{k-1}, c_k)   [c_k, now)
//! ```
//!
//! * every sealed shard is an ordinary [`ReachGraph`] image, built by the
//!   ordinary streaming builders on its **own device** — bytes
//!   indistinguishable from a batch build over its span — and reopened
//!   from its own footer on recovery.
//!   The pages sit behind a [`SharedDevice`] hub, and every leg calls the
//!   image's `&self` methods, which read through a cold context on a fresh
//!   device handle: readers never contend on a pager and — because each
//!   handle carries its own IO classification head — every query counts
//!   *exactly* the IO a lone reader would (the paper's sequential/random
//!   model is per-stream; see `reach_storage::shared`);
//! * `[W, now)` is served by the mutable [`DeltaDn`], which absorbs
//!   out-of-order appends within the bounded-lateness window;
//! * every accepted record is first made durable in the [`AppendLog`], so
//!   shards and delta are both derived, recoverable state.
//!
//! Shard set and delta sit under one `RwLock`: a query holds the read
//! lock for its whole walk, an append takes the write lock to decide, log,
//! and insert atomically. Builds hold no lock at all (below), so queries
//! are never blocked by one.
//!
//! ## Cross-boundary queries
//!
//! Queries arrive through [`ReachIndex`] and are admitted against the live
//! horizon `now`. Every Reach query is one walk from one source to a
//! cohort of destinations: `answer_batch` passes its cohort, and a point
//! query (`evaluate`, `answer`) is a cohort of one. A destination equal to
//! the source needs no walk. A lone other destination whose window lies
//! inside one shard is that shard's own point query (BM-BFS). Otherwise
//! the walk crosses the shards in time order
//! carrying a [`FrontierHandoff`]: the per-object earliest-arrival
//! frontier leaves shard *i* at its cut and seeds shard *i+1*'s
//! multi-seed expansion ([`reachable_set_seeded`](reach_graph::reachable_set_seeded)),
//! each object re-entering at `max(arrival, epoch start)`. It stops after
//! the first leg at whose end every requested destination has arrived:
//! arrivals are chronological across legs, so later legs cannot move
//! them. Past the watermark, for destinations still missing, one delta
//! propagation continues exact from the frontier.
//! Holding persists across a cut by the paper's item model, and a contact
//! run split at a cut relaxes identically on both sides (the left
//! fragment ends at the clipped window end; the right fragment relaxes at
//! `end + 1` just as the unsplit run would), so the composition answers
//! **exactly** as a batch rebuild over the full accepted trace (tier-1
//! `tests/live_reach.rs` and `tests/sharded_live.rs` assert this on random
//! schedules). With a single seed `(source, t1)` the expansion is page
//! for page the single-source one, so a one-shard timeline pays exactly
//! the IO of a whole-base index.
//!
//! ## Rebuilds: seal, merge, compact
//!
//! One build serves all three maintenance operations: it re-streams a
//! range of sealed shards as component-chain events
//! ([`reach_contact::ChainSweep`] — a lossless summary whose per-tick
//! connected components equal the original trace's, streamed with
//! `O(|O|)` resident state), optionally merges the delta's sealed head,
//! and flows the union tick by tick through the memory-bounded builders
//! ([`StreamedDn`](reach_contact::StreamedDn) under the configured
//! budget) into **one** new shard:
//!
//! * [`ShardedLive::seal`] replaces no shard: the delta head alone feeds a
//!   new epoch, so seal cost is proportional to the epoch, never to the
//!   timeline's age (an append that pushes the delta over budget seals
//!   inline);
//! * [`ShardedLive::merge_epochs`] coalesces adjacent shards, no delta;
//! * [`ShardedLive::compact`] coalesces every shard plus the delta head
//!   up to `now - lateness` into one whole-history base — byte-identical
//!   to a from-scratch streaming build over the whole log, without ever
//!   needing the raw trace again.
//!
//! A build runs on the calling thread but off-lock: it publishes its plan
//! and snapshots its inputs under a brief write lock, builds through
//! private contexts of the replaced shards while queries and appends keep
//! flowing, and commits under another brief write lock. One maintenance
//! mutex keeps builds exclusive; an append that finds it taken leaves the
//! seal to the running build (`tests/concurrent_serve.rs` asserts queries
//! overlap a build).
//!
//! ## The admission barrier
//!
//! Appends race an in-flight build: a record landing *below* the build's
//! cut would be absent from the new shard yet discarded from the delta at
//! commit — silently lost. A build that seals the delta head therefore
//! publishes its cut as `pending_cut` in the same critical section that
//! snapshots the head, and appends treat the *effective* watermark as
//! `max(watermark, pending_cut)`: late records are clamped or rejected
//! exactly as if the build had already committed. Every accepted record
//! is thus either in the snapshot or at ticks the delta keeps.
//!
//! ## Failure-atomic commits
//!
//! On durable backends the shard set itself is a piece of state, recorded
//! in an append-only **epoch directory** (`shard-dir`): each rebuild
//! appends one checksummed generation record listing every shard's
//! `[lo, hi)` and device name; recovery replays the last valid record and
//! ignores a torn tail. Every rebuild commits in three phases —
//!
//! 1. build the new shard on a fresh device (`shard-base-{seq}`) and sync
//!    it;
//! 2. append the new generation record to the directory and sync it;
//! 3. swap the in-memory shard set and trim the delta (infallible).
//!
//! A crash before phase 2 leaves the previous generation (the new base is
//! an unreferenced orphan); a crash after phase 2 recovers the new
//! generation. There is no state in between. The engine carries no fault
//! hook to show it: `tests/failure_injection.rs` copies an index's files
//! before and after a rebuild, assembles on disk the files a crash before,
//! in the middle of (a torn record) and after the directory write would
//! leave, and reopens each. Superseded shard devices are removed, and their
//! caches dropped, after the commit; recovery removes every
//! `shard-base-{seq}` the recovered generation does not name, and every
//! `shard-scratch-{seq}`, so a crash leaks no device.

use crate::base::{build_base, decay_delta_leg, lock_stats, Tail};
use crate::config::{
    AppendOutcome, CompactionStats, LiveConfig, LiveError, LiveMetrics, LiveStats, SourceReport,
};
use crate::delta::DeltaDn;
use crate::log::{AppendLog, LogRecovery};
use reach_contact::ingest::{IngestError, RecordMap};
use reach_contact::{ContactSource, ErrorMode};
use reach_core::frontier::WeightedFrontier;
use reach_core::{
    admit_object, admit_window, attribute_stats, Answer, Contact, DecayModel, FrontierHandoff,
    IndexError, ObjectId, Query, QueryKind, QueryOutcome, QueryResult, QueryStats, RankDirection,
    Ranked, ReachIndex, ReachRequest, Time, TimeInterval,
};
use reach_graph::ReachGraph;
use reach_obs::Tracer;
use reach_storage::{BlockDevice, CacheStats, DeviceDirectory, SharedDevice};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

/// One sealed epoch: an immutable ReachGraph over `[lo, hi)` on its own
/// device hub.
struct Shard {
    /// Inclusive epoch start (== the previous shard's `hi`, or 0).
    lo: Time,
    /// Exclusive epoch end (== the base's horizon).
    hi: Time,
    /// Device-name suffix: the base lives on `shard-base-{seq}`.
    seq: u64,
    base: ReachGraph,
}

impl Shard {
    /// The shard's epoch-directory entry.
    fn entry(&self) -> (Time, Time, u64) {
        (self.lo, self.hi, self.seq)
    }
}

/// Everything the state lock protects: the shard sequence, the mutable
/// tail, and the in-flight build's admission barrier.
struct ShardState {
    shards: Vec<Arc<Shard>>,
    tail: Tail,
    generation: u64,
    /// The cut of an in-flight build that seals the delta head, if any:
    /// the admission barrier appends clamp against (see the module docs).
    pending_cut: Option<Time>,
}

/// What the maintenance mutex guards: the epoch directory and the device
/// sequence. Holding it is what makes builds exclusive.
struct Maintenance {
    dir: Option<EpochDirectory>,
    next_seq: u64,
}

/// The three rebuilds (see the module docs).
#[derive(Clone, Copy, Debug)]
enum Rebuild {
    /// A new shard from the delta's `[watermark, cut)` head.
    Seal(Time),
    /// Shards `i..=j` coalesced into one.
    Merge(usize, usize),
    /// Every shard plus the delta head up to `now - lateness`.
    Compact,
}

/// What [`ShardedLive::open`] recovered.
#[derive(Clone, Debug)]
pub struct ShardRecovery {
    /// The append log's own recovery report.
    pub log: LogRecovery,
    /// Sealed shards after recovery.
    pub shards: usize,
    /// The recovered sealed boundary (the top shard's `hi`).
    pub top_cut: Time,
}

/// The live index (see the module docs). Shared by reference: every
/// method takes `&self`, and queries go only through [`ReachIndex`]
/// (`evaluate`, `answer`, `answer_batch`), so one index serves many reader
/// threads while appends — and the rebuilds they trigger — run on others.
pub struct ShardedLive {
    num_objects: usize,
    config: LiveConfig,
    directory: DeviceDirectory,
    state: RwLock<ShardState>,
    maintenance: Mutex<Maintenance>,
    stats: Mutex<LiveStats>,
    /// True while a rebuild is building.
    building: AtomicBool,
    /// Queries that completed while a rebuild was in flight — the overlap
    /// gauge the concurrent suites assert is non-zero.
    overlapped_queries: AtomicU64,
    /// Test hook: milliseconds a rebuild sleeps between build and commit,
    /// widening the overlap window deterministically.
    pause_ms: AtomicU64,
}

impl std::fmt::Debug for ShardedLive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLive")
            .field("num_objects", &self.num_objects)
            .field("shards", &self.shard_spans())
            .finish_non_exhaustive()
    }
}

impl ShardedLive {
    /// Creates an empty index over `directory`'s devices: the append log
    /// goes to `shard-log`, the epoch directory (durable backends only) to
    /// `shard-dir`, and every sealed shard to its own `shard-base-{seq}`.
    pub fn create(
        directory: DeviceDirectory,
        num_objects: usize,
        config: LiveConfig,
    ) -> Result<Self, IndexError> {
        let log = AppendLog::create(directory.create("shard-log")?, num_objects)?;
        let dir = if directory.is_durable() {
            Some(EpochDirectory::create(directory.create("shard-dir")?))
        } else {
            None
        };
        let maintenance = Maintenance { dir, next_seq: 0 };
        Ok(Self::assemble(
            directory,
            config,
            log,
            DeltaDn::new(0),
            Vec::new(),
            0,
            maintenance,
        ))
    }

    /// Recovers an index from its durable devices: the epoch directory
    /// names the shard set, each shard's ReachGraph reopens from the
    /// metadata footer on its own device, and the log's tail (records at
    /// or above the top cut) replays into the delta.
    pub fn open(
        directory: DeviceDirectory,
        config: LiveConfig,
    ) -> Result<(Self, ShardRecovery), IndexError> {
        let (dir, records) = EpochDirectory::open(directory.open("shard-dir")?)?;
        let mut shards: Vec<Arc<Shard>> = Vec::new();
        for &(lo, hi, seq) in &records.shards {
            let device = directory.open(&format!("shard-base-{seq}"))?;
            let hub = DeviceDirectory::hub(device, config.shared_cache_pages, config.readahead);
            let base = ReachGraph::open(Box::new(hub))?;
            shards.push(Arc::new(Shard { lo, hi, seq, base }));
        }
        // A crash can leave shard devices no record names: a base built
        // but never committed, bases a commit superseded but had not yet
        // removed, and rebuild scratch. None can ever be served again.
        let named: Vec<String> = records
            .shards
            .iter()
            .map(|s| format!("shard-base-{}", s.2))
            .collect();
        for name in directory.names()? {
            let orphan = name.starts_with("shard-base-") && !named.contains(&name);
            if orphan || name.starts_with("shard-scratch-") {
                let _ = directory.remove(&name);
            }
        }
        let next_seq = records.shards.iter().map(|s| s.2 + 1).max().unwrap_or(0);
        let top_cut = shards.last().map_or(0, |s| s.hi);
        let (log, replayed, log_recovery) = AppendLog::open(directory.open("shard-log")?)?;
        let mut delta = DeltaDn::new(top_cut);
        for c in replayed {
            if c.interval.end < top_cut {
                continue; // wholly sealed into some shard already
            }
            let start = c.interval.start.max(top_cut);
            delta.insert(Contact::new(
                c.a,
                c.b,
                TimeInterval::new(start, c.interval.end),
            ));
        }
        let maintenance = Maintenance {
            dir: Some(dir),
            next_seq,
        };
        let live = Self::assemble(
            directory,
            config,
            log,
            delta,
            shards,
            records.generation,
            maintenance,
        );
        let recovery = ShardRecovery {
            log: log_recovery,
            shards: live.shard_count(),
            top_cut: live.watermark(),
        };
        Ok((live, recovery))
    }

    fn assemble(
        directory: DeviceDirectory,
        config: LiveConfig,
        log: AppendLog,
        delta: DeltaDn,
        shards: Vec<Arc<Shard>>,
        generation: u64,
        maintenance: Maintenance,
    ) -> Self {
        assert_eq!(
            directory.page_size(),
            config.params.page_size,
            "device directory page size must match the configured params"
        );
        let stats = LiveStats {
            append_io: log.io_stats(),
            delta_peak_bytes: delta.resident_bytes() as u64,
            ..LiveStats::default()
        };
        Self {
            num_objects: log.num_objects(),
            config,
            directory,
            state: RwLock::new(ShardState {
                shards,
                tail: Tail::new(log, delta),
                generation,
                pending_cut: None,
            }),
            maintenance: Mutex::new(maintenance),
            stats: Mutex::new(stats),
            building: AtomicBool::new(false),
            overlapped_queries: AtomicU64::new(0),
            pause_ms: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        self.state.read().expect("shard state lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardState> {
        self.state.write().expect("shard state lock poisoned")
    }

    fn maintenance(&self) -> MutexGuard<'_, Maintenance> {
        self.maintenance
            .lock()
            .expect("live maintenance lock poisoned")
    }

    /// Universe size.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// The sealed boundary (== the newest shard's `hi`; the delta starts
    /// here).
    pub fn watermark(&self) -> Time {
        self.read().tail.delta.watermark()
    }

    /// The live horizon (one past the newest accepted tick).
    pub fn now(&self) -> Time {
        self.read().tail.delta.now()
    }

    /// Pages the durable log occupies.
    pub fn log_pages(&self) -> u64 {
        self.read().tail.log.pages()
    }

    /// Sealed shard count.
    pub fn shard_count(&self) -> usize {
        self.read().shards.len()
    }

    /// The sealed epochs as `[lo, hi)` spans, in time order.
    pub fn shard_spans(&self) -> Vec<(Time, Time)> {
        self.read().shards.iter().map(|s| (s.lo, s.hi)).collect()
    }

    /// Directory generation (bumped by every committed rebuild).
    pub fn generation(&self) -> u64 {
        self.read().generation
    }

    /// A fresh handle on sealed shard `i`'s device hub, if it exists
    /// (byte-identity probes).
    pub fn shard_device(&self, i: usize) -> Option<SharedDevice> {
        self.read().shards.get(i).map(|s| s.base.hub().clone())
    }

    /// Summed counters of every sealed shard's page cache, or `None` when
    /// the config leaves the cache off (or nothing is sealed yet). Each
    /// shard caches its own device; the sum is what the serving stack's
    /// metrics exposition reports as `cache_*`.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let st = self.read();
        let mut any = false;
        let mut total = CacheStats::default();
        for shard in &st.shards {
            if let Some(cache) = shard.base.hub().cache() {
                let s = cache.stats();
                any = true;
                total.hits += s.hits;
                total.misses += s.misses;
                total.prefetched += s.prefetched;
                total.prefetch_hits += s.prefetch_hits;
                total.evictions += s.evictions;
            }
        }
        any.then_some(total)
    }

    /// Lifetime accounting (a copy: the live counters keep moving).
    pub fn stats(&self) -> LiveStats {
        lock_stats(&self.stats).clone()
    }

    /// Point-in-time gauges.
    pub fn metrics(&self) -> LiveMetrics {
        let st = self.read();
        LiveMetrics {
            compacting: self.building.load(Ordering::Acquire),
            compactions: lock_stats(&self.stats).compactions,
            generation: st.generation,
            overlapped_queries: self.overlapped_queries.load(Ordering::Relaxed),
            delta_bytes: st.tail.delta.resident_bytes(),
            watermark: st.tail.delta.watermark(),
            now: st.tail.delta.now(),
        }
    }

    /// Test hook: make every rebuild sleep this long between build and
    /// commit, deterministically widening the window in which queries and
    /// appends overlap an in-flight build.
    #[doc(hidden)]
    pub fn set_compaction_pause_ms(&self, ms: u64) {
        self.pause_ms.store(ms, Ordering::Relaxed);
    }

    /// Advances the live clock to `to` without appending (silent ticks
    /// extend the queryable horizon).
    pub fn advance(&self, to: Time) {
        self.write().tail.delta.advance(to);
    }

    /// Flushes the append log to durable storage.
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
    /// drops a wholly-late one. While a build seals the delta head, its
    /// cut acts as the effective watermark (the admission barrier of the
    /// module docs). Accepted records are durably logged before they touch
    /// the delta. An append that pushes the delta over budget seals a new
    /// epoch inline, unless another build is already running.
    pub fn append(&self, c: Contact) -> Result<AppendOutcome, LiveError> {
        let (mut outcome, trigger) = {
            let mut st = self.write();
            let barrier = st.tail.delta.watermark().max(st.pending_cut.unwrap_or(0));
            st.tail
                .admit(c, barrier, self.num_objects, &self.config, &self.stats)?
        };
        if let Some(cut) = trigger {
            let mut m = match self.maintenance.try_lock() {
                Ok(m) => m,
                // The running build seals what this append added, or a
                // later over-budget append retries.
                Err(TryLockError::WouldBlock) => return Ok(outcome),
                Err(TryLockError::Poisoned(_)) => panic!("live maintenance lock poisoned"),
            };
            // The record is already durable and queryable; a seal failure
            // must not masquerade as an append failure (see
            // [`AppendOutcome::compaction_error`]).
            match self.rebuild(&mut m, Rebuild::Seal(cut)) {
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
    /// rebased/scaled by `origin` and `time_scale` through the same
    /// [`RecordMap`] batch ingestion uses. Parse and conversion failures
    /// follow [`LiveConfig::mode`] (strict aborts with the offending line,
    /// lossy counts and skips), as do late records; a failed read of the
    /// source ([`IngestError::Io`]) ends the drain in both modes.
    pub fn append_source<S: ContactSource>(
        &self,
        mut source: S,
        origin: u64,
        time_scale: u64,
    ) -> Result<SourceReport, LiveError> {
        let map = RecordMap::new(origin, time_scale)?;
        let mut report = SourceReport::default();
        while let Some(r) = source.next_record() {
            let converted =
                r.and_then(|rec| map.numeric(rec.line, &rec.u, &rec.v, rec.start, rec.end));
            let contact = match converted {
                Ok((a, b, _)) if a == b => Err(LiveError::SelfContact(ObjectId(a))),
                Ok((a, b, iv)) => Ok(Contact::new(ObjectId(a), ObjectId(b), iv)),
                Err(e) => Err(LiveError::Ingest(e)),
            };
            match contact.and_then(|c| self.append(c)) {
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
                // Storage and source read failures always propagate;
                // *record* problems (parse, self-contact, unknown id,
                // strict-late) follow the configured error mode.
                Err(e @ (LiveError::Index(_) | LiveError::Ingest(IngestError::Io(_)))) => {
                    return Err(e)
                }
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

    /// Seals the delta's `[watermark, cut)` head into a **new epoch shard**
    /// (clamping `cut` to `now`). The build reads the delta's contacts
    /// alone, so seal cost is proportional to the epoch being sealed, not
    /// the timeline's age. Waits out any build already running; `None`
    /// when nothing would seal.
    pub fn seal(&self, cut: Time) -> Result<Option<CompactionStats>, IndexError> {
        self.rebuild(&mut self.maintenance(), Rebuild::Seal(cut))
    }

    /// Seals up to `now - lateness` (the automatic seal's cut).
    pub fn seal_now(&self) -> Result<Option<CompactionStats>, IndexError> {
        self.seal(self.now().saturating_sub(self.config.lateness))
    }

    /// Coalesces the adjacent sealed shards `i..=j` (indices into the
    /// current shard sequence) into **one** epoch covering their union.
    /// The shards' DNs re-stream as chain contacts — each silent outside
    /// its own `[lo, hi)`, so the concatenated sweep's per-tick components
    /// equal a monolithic build's. `None` for a degenerate range.
    pub fn merge_epochs(&self, i: usize, j: usize) -> Result<Option<CompactionStats>, IndexError> {
        self.rebuild(&mut self.maintenance(), Rebuild::Merge(i, j))
    }

    /// Coalesces every sealed shard plus the delta up to `now - lateness`
    /// into **one** shard — the whole-history base, byte-identical to a
    /// from-scratch streaming build over the log; the lateness window's
    /// tail stays mutable in the delta. Waits out any build already
    /// running; queries and appends proceed during the build. `None` when
    /// the watermark cannot advance and at most one shard exists.
    pub fn compact(&self) -> Result<Option<CompactionStats>, IndexError> {
        self.rebuild(&mut self.maintenance(), Rebuild::Compact)
    }

    /// One rebuild (see the module docs): plan, barrier, and snapshot
    /// under the write lock; the build and the directory commit off-lock;
    /// then the infallible swap under a brief write lock. Holding `m`
    /// makes it exclusive, so the shard set cannot move underneath it.
    fn rebuild(
        &self,
        m: &mut Maintenance,
        job: Rebuild,
    ) -> Result<Option<CompactionStats>, IndexError> {
        let (shards, range, cut, sealed, lo, generation) = {
            let mut st = self.write();
            let (w, now) = (st.tail.delta.watermark(), st.tail.delta.now());
            let count = st.shards.len();
            let (range, cut): (Range<usize>, Option<Time>) = match job {
                Rebuild::Seal(cut) => (count..count, Some(cut.min(now))),
                Rebuild::Merge(i, j) if i < j && j < count => (i..j + 1, None),
                Rebuild::Merge(..) => return Ok(None),
                Rebuild::Compact => (0..count, Some(now.saturating_sub(self.config.lateness))),
            };
            // A head cut that cannot advance the watermark seals nothing.
            let cut = cut.filter(|&c| c > w);
            if cut.is_none() && range.len() < 2 {
                return Ok(None);
            }
            st.pending_cut = cut;
            let sealed = cut.map_or_else(Vec::new, |c| st.tail.delta.sealed_head(c));
            let lo = st.shards.get(range.start).map_or(w, |s| s.lo);
            (st.shards.clone(), range, cut, sealed, lo, st.generation)
        };
        self.building.store(true, Ordering::Release);
        let hi = cut.unwrap_or_else(|| shards[range.end - 1].hi);
        let seq = m.next_seq;
        let built = self.build_shard(&shards[range.clone()], &sealed, lo, hi, seq);
        let pause = self.pause_ms.load(Ordering::Relaxed);
        if pause > 0 {
            std::thread::sleep(Duration::from_millis(pause));
        }
        let durable = built.and_then(|(shard, stats)| {
            m.next_seq = seq + 1;
            let entries: Vec<(Time, Time, u64)> = shards[..range.start]
                .iter()
                .map(|s| s.entry())
                .chain([shard.entry()])
                .chain(shards[range.end..].iter().map(|s| s.entry()))
                .collect();
            // Phase 2: once the record is durable, recovery sees the new
            // shard set.
            if let Some(dir) = m.dir.as_mut() {
                dir.commit(generation + 1, &entries)?;
            }
            Ok((shard, stats))
        });
        // The only reader-visible change, and it is infallible. A failed
        // build just withdraws the barrier, keeping the shards and the
        // full delta.
        let committed = {
            let mut st = self.write();
            st.pending_cut = None;
            durable.map(|(shard, stats)| {
                st.shards.splice(range.clone(), [Arc::new(shard)]);
                if let Some(cut) = cut {
                    st.tail.delta.discard_below(cut);
                }
                st.generation += 1;
                stats
            })
        };
        self.building.store(false, Ordering::Release);
        let stats = committed?;
        // Post-commit, so a failure here cannot tear the state: superseded
        // shards can never be served again, so their cached residency and
        // devices go.
        for old in &shards[range] {
            if let Some(cache) = old.base.hub().cache() {
                cache.invalidate_all();
            }
            let _ = self.directory.remove(&format!("shard-base-{}", old.seq));
        }
        let mut s = lock_stats(&self.stats);
        s.compactions += 1;
        s.compaction_read_io = s.compaction_read_io + stats.base_read_io;
        s.compaction_spill_io = s.compaction_spill_io + stats.spill.io;
        s.last_compaction = Some(stats);
        Ok(Some(stats))
    }

    /// Builds one shard over `[lo, hi)` from the `replaced` shards plus
    /// the sealed delta head on fresh devices, and syncs it (phase 1).
    fn build_shard(
        &self,
        replaced: &[Arc<Shard>],
        sealed: &[Contact],
        lo: Time,
        hi: Time,
        seq: u64,
    ) -> Result<(Shard, CompactionStats), IndexError> {
        let started = Instant::now();
        let scratch_name = format!("shard-scratch-{seq}");
        let built = (|| {
            let scratch = self.directory.create(&scratch_name)?;
            let device = self.directory.create(&format!("shard-base-{seq}"))?;
            let hub = DeviceDirectory::hub(
                device,
                self.config.shared_cache_pages,
                self.config.readahead,
            );
            let replaced: Vec<&ReachGraph> = replaced.iter().map(|s| &s.base).collect();
            let (mut base, mut stats) = build_base(
                &replaced,
                sealed,
                self.num_objects,
                hi,
                &self.config,
                scratch,
                Box::new(hub),
            )?;
            base.device_mut().sync()?;
            stats.duration = started.elapsed();
            Ok((Shard { lo, hi, seq, base }, stats))
        })();
        let _ = self.directory.remove(&scratch_name);
        built
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
        if self.building.load(Ordering::Acquire) {
            self.overlapped_queries.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// The one Reach walk: answers `source ~window~> d` for every `d` in
    /// `dests` over the live horizon `[0, now)`, one answer per
    /// destination in order; a point query is a cohort of one. Admission
    /// checks the source, each destination, then the window (`[]` for no
    /// destinations). A destination equal to the source arrives at `t1`
    /// for free. A lone other destination whose window lies inside one
    /// sealed epoch is that shard's own point query (BM-BFS); otherwise
    /// the cross-shard relay runs until every pending destination has
    /// arrived, and the delta finishes the walk for those still missing
    /// (see the module docs). Every sealed leg records a `shard/leg` span
    /// on `trace` carrying its seed count and counted IO, and the delta a
    /// `shard/delta` span, so span IO sums to the answers' totals. The
    /// walk's IO and CPU time ride on the first answer.
    fn walk(
        &self,
        source: ObjectId,
        window: TimeInterval,
        dests: &[ObjectId],
        trace: &Tracer,
    ) -> Result<Vec<Answer>, IndexError> {
        let started = Instant::now();
        for &o in std::iter::once(&source).chain(dests) {
            admit_object(o, self.num_objects)?;
        }
        if dests.is_empty() {
            return Ok(Vec::new());
        }
        let st = self.read();
        let window = admit_window(window, st.tail.delta.now())?;
        let (t1, t2) = (window.start, window.end);
        let pending: Vec<ObjectId> = dests.iter().copied().filter(|&d| d != source).collect();
        let mut outcomes = vec![QueryOutcome::reachable_at(t1); dests.len()];
        let mut settle = |outcome_of: &dyn Fn(ObjectId) -> QueryOutcome| {
            for (slot, &d) in outcomes.iter_mut().zip(dests) {
                if d != source {
                    *slot = outcome_of(d);
                }
            }
        };
        let mut stats = QueryStats::default();
        let inside = st.shards.iter().find(|s| s.lo <= t1 && t2 < s.hi);
        if let ([dest], Some(shard)) = (&pending[..], inside) {
            // Wholly inside one sealed epoch: the shard's own point query
            // (BM-BFS) answers alone.
            let mut leg_span = trace.span("shard/leg");
            leg_span.label_with(|| format!("epoch [{}, {})", shard.lo, shard.hi));
            leg_span.set_seeds(1);
            let result = shard.base.evaluate(&Query::new(source, *dest, window))?;
            attribute_stats(&mut leg_span, &result.stats);
            stats = result.stats;
            settle(&|_| result.outcome);
        } else if !pending.is_empty() {
            let w = st.tail.delta.watermark();
            let mut frontier = FrontierHandoff::seeded(source, t1);
            stats = relay(&st.shards, &mut frontier, t1, t2, &pending, trace)?;
            let missing = pending.iter().any(|&d| frontier.arrival_of(d).is_none());
            let when = (missing && t2 >= w).then(|| {
                // The in-memory delta counts no device IO: its span
                // carries the handoff seed count and timing only.
                let mut delta_span = trace.span("shard/delta");
                delta_span.label_with(|| format!("delta [{w}, {t2}]"));
                delta_span.set_seeds(frontier.seeds().len() as u64);
                let stop_at = match pending[..] {
                    [d] => Some(d),
                    _ => None,
                };
                st.tail
                    .delta
                    .propagate(self.num_objects, frontier.seeds(), t2, stop_at)
            });
            // Sealed arrivals win: they all precede the watermark.
            settle(
                &|d| match frontier.arrival_of(d).or_else(|| when.as_ref()?[d.index()]) {
                    Some(t) => QueryOutcome::reachable_at(t),
                    None => QueryOutcome::UNREACHABLE,
                },
            );
        }
        drop(st);
        stats.cpu = started.elapsed();
        let answers: Vec<Answer> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| {
                let stats = if i == 0 { stats } else { QueryStats::default() };
                Answer::from(QueryResult { outcome, stats })
            })
            .collect();
        self.note_answered(answers.iter().map(|a| &a.stats));
        Ok(answers)
    }

    /// Composes the decay-weighted frontier of `q.source` across the shard
    /// sequence and the delta — the weighted sibling of the boolean relay
    /// in [`ShardedLive::walk`] — after admitting `q` (so `q.dest` must be
    /// known too). The epoch covering `t1` seeds
    /// the source at face value; every later leg continues from the
    /// previous leg's carry groups, which preserve run-chain transfers up
    /// to the epoch cut and charge the boundary hop exactly when the
    /// membership genuinely changed there — so the composed weights equal
    /// a monolithic weighted walk bit for bit (tier-1
    /// `tests/decay_reach.rs`). `floor` carries a point query's θ across
    /// every leg; ranked queries pass `0.0`. Walks the state `st` the
    /// caller holds, so every frontier of one answer sees one snapshot.
    fn decay_frontier(
        &self,
        st: &ShardState,
        q: &Query,
        model: &DecayModel,
        floor: f64,
        trace: &Tracer,
    ) -> Result<(WeightedFrontier, QueryStats), IndexError> {
        let window = q.admit(self.num_objects, st.tail.delta.now())?;
        let (source, t1, t2) = (q.source, window.start, window.end);
        let w = st.tail.delta.watermark();
        let mut frontier = WeightedFrontier::seeded(source, t1);
        let mut stats = QueryStats::default();
        let mut pending = vec![(source, 0u32, t1)];
        for (shard, span) in legs(&st.shards, t1, t2) {
            let mut leg_span = trace.span("shard/decay-leg");
            leg_span.label_with(|| format!("epoch [{}, {})", shard.lo, shard.hi));
            leg_span.set_seeds((pending.len() + frontier.carry().len()) as u64);
            let (leg, s) =
                shard
                    .base
                    .decay_states_from(&pending, frontier.carry(), span, t1, model, floor)?;
            attribute_stats(&mut leg_span, &s);
            leg_span.finish();
            pending.clear();
            stats = stats.merged(&s);
            frontier.absorb(&leg.rows, span.end);
            frontier.set_carry(leg.carry);
        }
        if t2 >= w {
            let mut delta_span = trace.span("shard/delta");
            delta_span.label_with(|| format!("delta [{w}, {t2}]"));
            delta_span.set_seeds(pending.len() as u64);
            let before = stats;
            decay_delta_leg(
                &st.tail.delta,
                self.num_objects,
                &pending,
                &mut frontier,
                t2,
                model,
                floor,
                &mut stats,
            )?;
            if delta_span.is_enabled() {
                attribute_stats(
                    &mut delta_span,
                    &QueryStats {
                        random_ios: stats.random_ios - before.random_ios,
                        seq_ios: stats.seq_ios - before.seq_ios,
                        visited: stats.visited - before.visited,
                        ..QueryStats::default()
                    },
                );
            }
        }
        Ok((frontier, stats))
    }
}

/// The shards `[t1, t2]` overlaps, in time order, each paired with the
/// window clipped to its span.
fn legs(shards: &[Arc<Shard>], t1: Time, t2: Time) -> impl Iterator<Item = (&Shard, TimeInterval)> {
    shards
        .iter()
        .skip_while(move |s| s.hi <= t1)
        .take_while(move |s| s.lo <= t2)
        .map(move |s| (&**s, TimeInterval::new(t1.max(s.lo), t2.min(s.hi - 1))))
}

/// The cross-shard relay: expands `frontier` through every shard
/// `[t1, t2]` overlaps, one traced `shard/leg` per shard, and returns the
/// legs' summed stats. Stops after the first leg at whose end every
/// `pending` destination is on the frontier: arrivals are chronological
/// across the walk, so later legs cannot move them.
fn relay(
    shards: &[Arc<Shard>],
    frontier: &mut FrontierHandoff,
    t1: Time,
    t2: Time,
    pending: &[ObjectId],
    trace: &Tracer,
) -> Result<QueryStats, IndexError> {
    let mut stats = QueryStats::default();
    for (shard, span) in legs(shards, t1, t2) {
        let mut leg_span = trace.span("shard/leg");
        leg_span.label_with(|| format!("epoch [{}, {})", shard.lo, shard.hi));
        leg_span.set_seeds(frontier.seeds().len() as u64);
        let (leg, s) = shard.base.reachable_set_from(frontier.seeds(), span)?;
        attribute_stats(&mut leg_span, &s);
        leg_span.finish();
        stats = stats.merged(&s);
        frontier.absorb(&leg, span.end);
        if pending.iter().all(|&d| frontier.arrival_of(d).is_some()) {
            break;
        }
    }
    Ok(stats)
}

impl ReachIndex for ShardedLive {
    fn name(&self) -> &'static str {
        "ShardedLive"
    }

    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        let started = Instant::now();
        let q = &request.query;
        // The dispatch span is a pure container: its children (the per-leg
        // spans) carry the counted IO, so summing span IO over the whole
        // trace still equals the answer's totals exactly.
        let mut dispatch = request.trace.span("index/dispatch");
        dispatch.label_with(|| format!("{} {}", self.name(), request.trace_label()));
        let answer = match request.kind {
            QueryKind::Reach => {
                return Ok(self
                    .walk(q.source, q.interval, &[q.dest], &request.trace)?
                    .remove(0))
            }
            QueryKind::Decay { theta, model } => {
                let (frontier, mut stats) =
                    self.decay_frontier(&self.read(), q, &model, theta, &request.trace)?;
                let hit = frontier
                    .best_of(q.dest, &model)
                    .filter(|&(weight, _)| weight >= theta);
                stats.cpu = started.elapsed();
                Answer::decay(q.dest, hit, stats)
            }
            QueryKind::TopK {
                k,
                model,
                direction: RankDirection::Reachable,
            } => {
                // The dest is ignored: only the anchor is admitted.
                let anchored = Query::new(q.source, q.source, q.interval);
                let (frontier, mut stats) =
                    self.decay_frontier(&self.read(), &anchored, &model, 0.0, &request.trace)?;
                stats.cpu = started.elapsed();
                Answer::ranked(frontier.rank(&model, k, q.source), stats)
            }
            QueryKind::TopK {
                k,
                model,
                direction: RankDirection::Reaching,
            } => {
                // Reverse rankings compose one forward frontier per
                // candidate source — exact across every epoch boundary,
                // priced accordingly (see `QUERIES.md`). One read guard
                // spans every candidate, so one ranking sees one state.
                let anchor = q.source;
                let st = self.read();
                Query::new(anchor, anchor, q.interval)
                    .admit(self.num_objects, st.tail.delta.now())?;
                let mut stats = QueryStats::default();
                let mut best: Vec<Ranked> = Vec::new();
                for o in 0..self.num_objects as u32 {
                    let source = ObjectId(o);
                    if source == anchor {
                        continue;
                    }
                    let candidate = Query::new(source, anchor, q.interval);
                    let (frontier, s) =
                        self.decay_frontier(&st, &candidate, &model, 0.0, &request.trace)?;
                    stats = stats.merged(&s);
                    if let Some((weight, arrival)) = frontier.best_of(anchor, &model) {
                        best.push(Ranked {
                            object: source,
                            weight,
                            arrival,
                        });
                    }
                }
                drop(st);
                best.sort_by(Ranked::order);
                best.truncate(k);
                stats.cpu = started.elapsed();
                Answer::ranked(best, stats)
            }
            _ => return Err(request.unsupported(self.name())),
        };
        self.note_answered([&answer.stats]);
        Ok(answer)
    }

    fn evaluate(&self, q: &Query) -> Result<QueryResult, IndexError> {
        let a = self
            .walk(q.source, q.interval, &[q.dest], &Tracer::off())?
            .remove(0);
        Ok(QueryResult {
            outcome: a.outcome,
            stats: a.stats,
        })
    }

    /// `Reach` cohorts take the one cross-shard walk, traced on the
    /// template's tracer; its IO lands on the first answer. Other kinds
    /// answer per destination.
    fn answer_batch(
        &self,
        template: &ReachRequest,
        dests: &[ObjectId],
    ) -> Result<Vec<Answer>, IndexError> {
        let q = &template.query;
        if template.kind == QueryKind::Reach {
            return self.walk(q.source, q.interval, dests, &template.trace);
        }
        dests
            .iter()
            .map(|&dest| {
                let mut req = template.clone();
                req.query.dest = dest;
                self.answer(&req)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Epoch directory: append-only checksummed generation records.
// ---------------------------------------------------------------------------

const DIR_MAGIC: u32 = 0x5348_4452; // "SHDR"
/// Sanity bound on one generation record's payload (a shard list far
/// beyond anything a real directory holds).
const DIR_MAX_PAYLOAD: usize = 1 << 20;

/// The last valid generation the directory holds.
struct DirectoryRecords {
    generation: u64,
    shards: Vec<(Time, Time, u64)>,
}

/// Append-only generation log: each commit appends one page-aligned,
/// checksummed record listing the full shard set. Readers scan from page
/// 0 and keep the last record that validates; a torn tail (the crash
/// window of phase 2) simply ends the scan, so recovery lands on exactly
/// the pre- or post-commit shard set — never in between.
struct EpochDirectory {
    device: Box<dyn BlockDevice>,
    next_page: u64,
}

impl EpochDirectory {
    fn create(device: Box<dyn BlockDevice>) -> Self {
        Self {
            device,
            next_page: 0,
        }
    }

    /// Scans every record, returning the directory positioned to append
    /// after the last valid one, plus that record's content (empty shard
    /// set when the directory holds no valid record yet).
    fn open(mut device: Box<dyn BlockDevice>) -> Result<(Self, DirectoryRecords), IndexError> {
        let page_size = device.page_size();
        let mut page = 0u64;
        let mut next_page = 0u64;
        let mut last = DirectoryRecords {
            generation: 0,
            shards: Vec::new(),
        };
        let mut buf = vec![0u8; page_size];
        while page < device.len_pages() {
            device.read_page_into(page, &mut buf)?;
            let total_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
            if total_len == 0 || total_len > DIR_MAX_PAYLOAD {
                break;
            }
            let pages = (4 + total_len).div_ceil(page_size) as u64;
            if page + pages > device.len_pages() {
                break; // torn: the record's tail pages never made it
            }
            let mut record = Vec::with_capacity(4 + total_len);
            record.extend_from_slice(&buf);
            for p in page + 1..page + pages {
                device.read_page_into(p, &mut buf)?;
                record.extend_from_slice(&buf);
            }
            match decode_record(&record[4..4 + total_len]) {
                Some(parsed) => {
                    last = parsed;
                    page += pages;
                    next_page = page;
                }
                None => break, // torn or corrupt tail: previous record wins
            }
        }
        Ok((Self { device, next_page }, last))
    }

    fn encode(generation: u64, shards: &[(Time, Time, u64)]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 + shards.len() * 16 + 8);
        payload.extend_from_slice(&DIR_MAGIC.to_le_bytes());
        payload.extend_from_slice(&generation.to_le_bytes());
        payload.extend_from_slice(&(shards.len() as u32).to_le_bytes());
        for &(lo, hi, seq) in shards {
            payload.extend_from_slice(&lo.to_le_bytes());
            payload.extend_from_slice(&hi.to_le_bytes());
            payload.extend_from_slice(&seq.to_le_bytes());
        }
        let sum = fnv64(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        let mut record = Vec::with_capacity(4 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        record
    }

    fn write_pages(&mut self, record: &[u8]) -> Result<u64, IndexError> {
        let page_size = self.device.page_size();
        let pages = record.len().div_ceil(page_size) as u64;
        while self.device.len_pages() < self.next_page + pages {
            self.device.allocate(1)?;
        }
        for (i, chunk) in record.chunks(page_size).enumerate() {
            self.device.write_page(self.next_page + i as u64, chunk)?;
        }
        self.device.sync()?;
        Ok(pages)
    }

    /// Appends one generation record and syncs it (the phase-2 commit
    /// point: once this returns, recovery sees the new shard set).
    fn commit(&mut self, generation: u64, shards: &[(Time, Time, u64)]) -> Result<(), IndexError> {
        let record = Self::encode(generation, shards);
        let pages = self.write_pages(&record)?;
        self.next_page += pages;
        Ok(())
    }
}

fn decode_record(payload: &[u8]) -> Option<DirectoryRecords> {
    if payload.len() < 16 + 8 {
        return None;
    }
    let body = &payload[..payload.len() - 8];
    let sum = u64::from_le_bytes(payload[payload.len() - 8..].try_into().expect("8 bytes"));
    if fnv64(body) != sum {
        return None;
    }
    let magic = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    if magic != DIR_MAGIC {
        return None;
    }
    let generation = u64::from_le_bytes(body[4..12].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(body[12..16].try_into().expect("4 bytes")) as usize;
    if body.len() != 16 + count * 16 {
        return None;
    }
    let mut shards = Vec::with_capacity(count);
    for i in 0..count {
        let at = 16 + i * 16;
        let lo = Time::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
        let hi = Time::from_le_bytes(body[at + 4..at + 8].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(body[at + 8..at + 16].try_into().expect("8 bytes"));
        shards.push((lo, hi, seq));
    }
    Some(DirectoryRecords { generation, shards })
}

/// FNV-1a 64 — the directory's torn-record detector.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_contact::Oracle;
    use reach_graph::GraphParams;
    use reach_storage::BuildBudget;

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

    /// The manual-maintenance config most tests drive by hand.
    fn manual() -> LiveConfig {
        graph_config(1 << 20).manual_compaction()
    }

    fn sim(n: usize, config: LiveConfig) -> ShardedLive {
        ShardedLive::create(DeviceDirectory::sim(PAGE), n, config).expect("creates")
    }

    fn c(a: u32, b: u32, s: Time, e: Time) -> Contact {
        Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
    }

    fn q(s: u32, d: u32, a: Time, b: Time) -> Query {
        Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b))
    }

    /// The epoch directory's scan keeps the last valid record and ignores
    /// a torn tail.
    #[test]
    fn epoch_directory_survives_a_torn_tail() {
        let root = std::env::temp_dir().join(format!("streach-shard-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let d = DeviceDirectory::file(&root, PAGE);
        {
            let mut dir = EpochDirectory::create(d.create("dir").unwrap());
            dir.commit(1, &[(0, 4, 0)]).unwrap();
            dir.commit(2, &[(0, 4, 0), (4, 9, 1)]).unwrap();
            // A crash mid-append: the length prefix and half the payload,
            // the checksum missing, and the append position not advanced.
            let mut torn = EpochDirectory::encode(3, &[(0, 4, 0), (4, 9, 1), (9, 20, 2)]);
            torn.truncate(4 + (torn.len() - 4) / 2);
            dir.write_pages(&torn).unwrap();
        }
        let (mut dir, records) = EpochDirectory::open(d.open("dir").unwrap()).unwrap();
        assert_eq!(records.generation, 2, "torn record must not win");
        assert_eq!(records.shards, vec![(0, 4, 0), (4, 9, 1)]);
        // Appending after recovery overwrites the torn tail…
        dir.commit(3, &[(0, 9, 2)]).unwrap();
        drop(dir);
        let (_, records) = EpochDirectory::open(d.open("dir").unwrap()).unwrap();
        assert_eq!(records.generation, 3);
        assert_eq!(records.shards, vec![(0, 9, 2)]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Figure 1 of the paper, appended live with a compaction mid-stream:
    /// answers must match the oracle's worked example before and after.
    #[test]
    fn figure_1_live_with_mid_stream_compaction() {
        let live = sim(4, manual());
        live.append(c(0, 1, 0, 0)).unwrap();
        live.append(c(1, 3, 1, 1)).unwrap();
        // o4 reachable from o1 during [0,1] — answered from the delta alone.
        let r = live.evaluate(&q(0, 3, 0, 1)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(1));
        assert!(!live.evaluate(&q(3, 0, 0, 1)).unwrap().reachable());

        live.compact().unwrap().expect("something to seal");
        assert_eq!(live.watermark(), 2);
        live.append(c(2, 3, 1, 2)).unwrap(); // lossy: clamped to [2, 2]
        live.append(c(0, 1, 2, 3)).unwrap();
        // The full Figure 1 answers, now spanning the watermark.
        let r = live.evaluate(&q(3, 0, 1, 3)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(2));
        assert!(live.evaluate(&q(0, 1, 2, 3)).unwrap().reachable());
        assert_eq!(live.stats().clamped, 1);
    }

    #[test]
    fn lossy_mode_clamps_and_drops_late_records() {
        let live = sim(4, manual());
        live.append(c(0, 1, 0, 4)).unwrap();
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 5);
        // Wholly late: dropped.
        let o = live.append(c(2, 3, 1, 3)).unwrap();
        assert!(!o.logged);
        // Straddling: clamped to the watermark.
        let o = live.append(c(2, 3, 3, 8)).unwrap();
        assert!(o.logged && o.clamped);
        assert_eq!(live.stats().clamped, 1);
        assert_eq!(live.stats().dropped_late, 1);
        let accepted = live.replay_log().unwrap();
        assert_eq!(accepted[1], c(2, 3, 5, 8), "log stores the clamped form");
    }

    #[test]
    fn strict_mode_rejects_late_records() {
        let live = sim(4, manual().strict());
        live.append(c(0, 1, 0, 4)).unwrap();
        live.compact().unwrap().unwrap();
        let err = live.append(c(2, 3, 1, 3)).unwrap_err();
        assert!(matches!(err, LiveError::Late { watermark: 5, .. }), "{err}");
        let err = live.append(c(2, 3, 3, 8)).unwrap_err();
        assert!(matches!(err, LiveError::Late { .. }), "{err}");
    }

    #[test]
    fn appends_validate_the_universe() {
        let live = sim(3, graph_config(1 << 20));
        assert!(matches!(
            live.append(c(0, 7, 0, 1)),
            Err(LiveError::UnknownObject(ObjectId(7)))
        ));
        let bad = Contact {
            a: ObjectId(1),
            b: ObjectId(1),
            interval: TimeInterval::new(0, 0),
        };
        assert!(matches!(
            live.append(bad),
            Err(LiveError::SelfContact(ObjectId(1)))
        ));
        // A record ending at Time::MAX has no representable horizon.
        assert!(matches!(
            live.append(c(0, 1, 5, Time::MAX)),
            Err(LiveError::HorizonOverflow { .. })
        ));
        assert!(
            live.replay_log().unwrap().is_empty(),
            "rejected records are never logged"
        );
    }

    #[test]
    fn lateness_slack_keeps_a_mutable_tail() {
        let live = sim(4, manual().with_lateness(5));
        live.append(c(0, 1, 0, 9)).unwrap();
        live.compact().unwrap().unwrap();
        // now = 10, lateness 5 → the seal stops at tick 5.
        assert_eq!(live.watermark(), 5);
        // A record inside the slack window lands unclamped…
        let o = live.append(c(2, 3, 6, 7)).unwrap();
        assert!(o.logged && !o.clamped);
        assert_eq!(live.stats().clamped, 0);
        // …and queries across the split contact stay exact.
        let r = live.evaluate(&q(0, 1, 0, 9)).unwrap();
        assert!(r.reachable());
        let r = live.evaluate(&q(2, 3, 6, 7)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(6));
        // Compacting again advances the watermark by what `now` allows.
        live.compact().unwrap();
        assert_eq!(live.watermark(), 5, "now=10 still caps the seal at 5");
        live.advance(20);
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 15);
    }

    /// A backlog living entirely inside the lateness window must neither
    /// grow the delta via guaranteed-no-op seals nor rebuild on every
    /// append: the auto trigger backs off until the clock rolls one
    /// window forward.
    #[test]
    fn auto_compaction_backs_off_inside_the_lateness_window() {
        let live = sim(
            6,
            graph_config(1 << 20)
                .with_delta_budget(200) // far below the window's backlog
                .with_lateness(40),
        );
        // A dense burst within one 40-tick window: the candidate watermark
        // cannot advance, so no seal may fire at all.
        for t in 0..30u32 {
            live.append(c(t % 5, 5, t, t)).unwrap();
        }
        assert_eq!(live.stats().compactions, 0, "no-op seals must not run");
        // As the clock rolls windows forward, seals happen — but bounded
        // by window progress, not once per append.
        for t in 30..400u32 {
            live.append(c(t % 5, 5, t, t)).unwrap();
        }
        let compactions = live.stats().compactions;
        assert!(compactions >= 1, "progress must eventually seal");
        assert!(
            compactions <= 400 / 40 + 1,
            "at most ~one seal per lateness window, got {compactions}"
        );
        // Equivalence still holds under the backoff.
        let accepted = live.replay_log().unwrap();
        let oracle = Oracle::from_contacts(6, live.now(), &accepted);
        for s in 0..6u32 {
            let query = q(s, (s + 1) % 6, 0, live.now() - 1);
            assert_eq!(
                live.evaluate(&query).unwrap().reachable(),
                oracle.evaluate(&query).reachable,
                "{query} diverged under backoff"
            );
        }
    }

    #[test]
    fn silent_advance_extends_the_horizon() {
        let live = sim(3, graph_config(1 << 20));
        live.append(c(0, 1, 0, 0)).unwrap();
        assert_eq!(live.now(), 1);
        live.advance(10);
        assert_eq!(live.now(), 10);
        // The extended horizon is queryable; nothing new is reachable.
        let r = live.evaluate(&q(0, 2, 0, 9)).unwrap();
        assert!(!r.reachable());
        // And compaction seals the silent ticks too.
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 10);
        assert!(live.evaluate(&q(0, 1, 0, 9)).unwrap().reachable());
    }

    #[test]
    fn append_io_is_sampled_separately_from_queries() {
        let live = sim(4, graph_config(1 << 20));
        live.append(c(0, 1, 0, 3)).unwrap();
        live.append(c(1, 2, 5, 6)).unwrap();
        let append_io = live.stats().append_io;
        assert!(append_io.total_writes() >= 2, "durable writes counted");
        live.evaluate(&q(0, 2, 0, 6)).unwrap();
        assert_eq!(
            live.stats().append_io,
            append_io,
            "queries must not leak into append IO"
        );
        assert_eq!(live.stats().queries, 1);
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

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(20), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sealed-only, spanning, and delta-only windows of an index compacted
    /// twice mid-stream (so one whole-history shard plus a delta).
    fn compacted_twice(n: usize, seed: u64, count: usize) -> (ShardedLive, [TimeInterval; 4]) {
        let idx = sim(n, manual());
        for (i, c) in stream(seed, n as u32, count).into_iter().enumerate() {
            idx.append(c).expect("append");
            if i == count / 3 || i == 2 * count / 3 {
                idx.compact().expect("compaction");
            }
        }
        assert_eq!(idx.shard_count(), 1, "compaction coalesces to one shard");
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
    /// batch oracle over the accepted trace, and the one-shard walk must
    /// count exactly the IO of the whole-base two-leg evaluation: the
    /// shard's point query when sealed-only, its single-source frontier
    /// expansion up to the cut when spanning, nothing when delta-only.
    #[test]
    fn answers_and_io_match_the_single_threaded_path() {
        let n = 6;
        let (idx, windows) = compacted_twice(n, 0x5eed, 90);
        let oracle = Oracle::from_contacts(n, idx.now(), &idx.replay_log().expect("log replays"));
        let w = idx.watermark();
        let shard = Arc::clone(&idx.read().shards[0]);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                for iv in windows {
                    let q = Query::new(ObjectId(s), ObjectId(d), iv);
                    let got = idx.evaluate(&q).expect("query");
                    let want = oracle.evaluate(&q);
                    assert_eq!(got.reachable(), want.reachable, "{q} outcome diverged");
                    if let (Some(g), Some(w)) = (got.outcome.earliest, want.earliest) {
                        assert_eq!(g, w, "{q} arrival diverged");
                    }
                    let whole = if s == d || iv.start >= w {
                        QueryStats::default()
                    } else if iv.end < w {
                        shard.base.evaluate(&q).expect("point query").stats
                    } else {
                        let cut = TimeInterval::new(iv.start, w - 1);
                        shard.base.reachable_set(q.source, cut).expect("frontier").1
                    };
                    assert_eq!(
                        (got.stats.random_ios, got.stats.seq_ios),
                        (whole.random_ios, whole.seq_ios),
                        "{q} counted IO diverged"
                    );
                }
            }
        }
    }

    /// Runs one of the three rebuilds (what the pending-cut tests drive
    /// on a helper thread).
    fn rebuild_op(idx: &ShardedLive, op: &str) -> Result<Option<CompactionStats>, IndexError> {
        match op {
            "compact" => idx.compact(),
            "seal" => idx.seal_now(),
            _ => idx.merge_epochs(0, 1),
        }
    }

    /// Two sealed epochs plus a delta: every rebuild has work. Returns the
    /// index and the admission barrier `op`'s build publishes — its cut
    /// (`now`, lateness 0) when it seals the delta head, the unmoved
    /// watermark for a merge.
    fn two_epochs_and_a_delta(
        n: usize,
        seed: u64,
        op: &str,
        config: LiveConfig,
    ) -> (ShardedLive, Time) {
        let idx = sim(n, config);
        let records = stream(seed, n as u32, 40);
        for (i, &c) in records.iter().enumerate() {
            idx.append(c).expect("append");
            if i == 13 || i == 26 {
                // Cut at the next record's start: starts never decrease,
                // so nothing later falls behind the watermark.
                let cut = records[i + 1].interval.start;
                idx.seal(cut).expect("seal").expect("sealed an epoch");
            }
        }
        assert_eq!(idx.shard_count(), 2);
        let barrier = if op == "merge" {
            idx.watermark()
        } else {
            idx.now()
        };
        assert!(
            barrier > 1,
            "a record over [0, 1] must fall behind the barrier"
        );
        (idx, barrier)
    }

    /// While a build is running, its cut acts as the effective watermark
    /// for admission: a record straddling the cut is clamped *to the cut*
    /// (not the stale watermark), so nothing accepted mid-build is lost
    /// when `discard_below(cut)` commits — for compaction, seal, and
    /// merge alike (a merge leaves the delta alone, so its barrier is the
    /// watermark itself). Queries answer while the build runs.
    #[test]
    fn appends_during_a_build_respect_the_pending_cut() {
        let n = 4;
        for op in ["compact", "seal", "merge"] {
            let (idx, barrier) = two_epochs_and_a_delta(n, 7, op, manual());
            let before = idx.metrics().compactions;
            let probe = q(0, 1, 0, idx.now() - 1);
            idx.set_compaction_pause_ms(150);
            std::thread::scope(|scope| {
                let build = scope.spawn(|| rebuild_op(&idx, op));
                wait_until("the build starts", || idx.metrics().compacting);
                // A straddling record must clamp to the barrier even though
                // the committed watermark may still be older.
                let straddling = c(0, 1, 0, HORIZON - 1);
                let outcome = idx.append(straddling).expect("straddling append");
                assert!(outcome.logged && outcome.clamped, "{op}");
                // A wholly-below-barrier record is dropped outright.
                let dropped = idx.append(c(2, 3, 0, 1)).expect("late append");
                assert!(!dropped.logged && !dropped.clamped, "{op}");
                idx.evaluate(&probe).expect("query during the build");
                let done = build.join().expect("build thread");
                assert!(done.expect("build commits").is_some(), "{op}");
            });
            assert!(idx.metrics().overlapped_queries > 0, "{op}: no overlap");
            assert_eq!(idx.metrics().compactions, before + 1, "{op}");
            assert_eq!(idx.watermark(), barrier, "{op}");
            // The clamped record survived the commit: it reaches from the
            // barrier on.
            let reach = q(0, 1, barrier, HORIZON - 1);
            assert!(idx.evaluate(&reach).expect("query").reachable(), "{op}");
            // And the log agrees with what the index holds.
            let accepted = idx.replay_log().expect("log replays");
            assert!(accepted
                .iter()
                .any(|c| c.a == ObjectId(0) && c.b == ObjectId(1) && c.interval.start == barrier));
            let oracle = Oracle::from_contacts(n, idx.now(), &accepted);
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    let sweep = q(s, d, 0, HORIZON - 1);
                    assert_eq!(
                        idx.evaluate(&sweep).expect("sweep").reachable(),
                        oracle.evaluate(&sweep).reachable,
                        "{op}: {sweep} diverged after mid-build appends"
                    );
                }
            }
        }
    }

    /// Appending past the delta budget seals inline: the append that
    /// crosses the budget returns with `compacted = true` and the
    /// watermark has already advanced when it does.
    #[test]
    fn over_budget_appends_compact_inline() {
        let n = 5;
        let idx = sim(
            n,
            graph_config(1 << 20)
                .with_delta_budget(600)
                .with_lateness(2),
        );
        let mut compacted = false;
        for c in stream(23, n as u32, 80) {
            let before = idx.metrics().compactions;
            let outcome = idx.append(c).expect("append");
            assert!(outcome.compaction_error.is_none());
            assert_eq!(
                idx.metrics().compactions,
                before + u64::from(outcome.compacted),
                "a sealing append returns only after its commit"
            );
            compacted |= outcome.compacted;
        }
        assert!(compacted, "no append ever sealed");
        assert!(idx.watermark() > 0);
        // The answers still match the oracle over the accepted trace.
        let accepted = idx.replay_log().expect("log replays");
        let oracle = Oracle::from_contacts(n, idx.now(), &accepted);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let sweep = q(s, d, 0, idx.now() - 1);
                assert_eq!(
                    idx.evaluate(&sweep).expect("sweep").reachable(),
                    oracle.evaluate(&sweep).reachable,
                    "{sweep} diverged after inline seals"
                );
            }
        }
    }

    /// A batch over every destination answers identically to the same
    /// queries evaluated one at a time, with the expansion's IO attributed
    /// to the first answer only: on a world sealed twice by hand and on a
    /// random stream compacted mid-way.
    #[test]
    fn batches_answer_identically_to_single_queries() {
        // Epochs [0, 4) and [4, 8), then a delta.
        let two_seals = sim(5, manual());
        two_seals.append(c(0, 1, 0, 2)).unwrap();
        two_seals.append(c(1, 2, 1, 5)).unwrap();
        two_seals.seal(4).unwrap().unwrap();
        two_seals.append(c(2, 3, 4, 7)).unwrap();
        two_seals.seal(8).unwrap().unwrap();
        two_seals.append(c(3, 4, 8, 9)).unwrap();
        let compacted = sim(6, manual());
        for (i, c) in stream(0xba7c4, 6, 70).iter().enumerate() {
            compacted.append(*c).expect("append");
            if i == 35 {
                compacted.compact().expect("compaction");
            }
        }
        for idx in [&two_seals, &compacted] {
            let n = idx.num_objects();
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
                        .answer_batch(&ReachRequest::reach(source, iv, source), &dests)
                        .expect("batch evaluates");
                    assert_eq!(batch.len(), dests.len());
                    for (d, got) in dests.iter().zip(&batch) {
                        let single = Query::new(source, *d, iv);
                        let want = idx.evaluate(&single).expect("single query");
                        assert_eq!(
                            got.outcome.reachable, want.outcome.reachable,
                            "{single} batch verdict diverged"
                        );
                        // The batch may know an arrival the point query does
                        // not (sealed bases answer without one); when both
                        // know it, they must agree.
                        if let (Some(g), Some(w)) = (got.outcome.earliest, want.outcome.earliest) {
                            assert_eq!(g, w, "{single} batch arrival diverged");
                        }
                        if want.outcome.earliest.is_some() {
                            assert!(
                                got.outcome.earliest.is_some(),
                                "{single} batch lost the arrival"
                            );
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
            let template = ReachRequest::reach(ObjectId(0), windows[0], ObjectId(0));
            assert!(idx
                .answer_batch(&template, &[])
                .expect("empty batch")
                .is_empty());
        }
    }

    /// The `ReachIndex` implementation routes `Reach` requests to the
    /// shard walk and rejects kinds the index does not speak.
    #[test]
    fn reach_index_dispatch() {
        let n = 4;
        let idx = sim(n, manual());
        for c in stream(3, n as u32, 30) {
            idx.append(c).expect("append");
        }
        assert_eq!(idx.name(), "ShardedLive");
        let query = q(0, 1, 0, idx.now() - 1);
        let via_trait = idx
            .answer(&ReachRequest::from(query))
            .expect("trait answer");
        let direct = idx.evaluate(&query).expect("direct answer");
        assert_eq!(via_trait.outcome, direct.outcome);
        let foreign = ReachRequest::from(query).with_kind(QueryKind::Uncertain { threshold: 0.5 });
        assert!(matches!(
            idx.answer(&foreign),
            Err(IndexError::Unsupported(_))
        ));
    }

    /// Strict mode refuses pre-barrier records even while the cut is only
    /// pending (the admission barrier again, on the error path), for all
    /// three rebuilds; queries answer while each build runs.
    #[test]
    fn strict_mode_rejects_below_the_pending_cut() {
        let n = 4;
        for op in ["compact", "seal", "merge"] {
            let (idx, barrier) = two_epochs_and_a_delta(n, 5, op, manual().strict());
            let before = idx.metrics().compactions;
            let probe = q(0, 1, 0, idx.now() - 1);
            idx.set_compaction_pause_ms(150);
            std::thread::scope(|scope| {
                let build = scope.spawn(|| rebuild_op(&idx, op));
                wait_until("the build starts", || idx.metrics().compacting);
                match idx.append(c(0, 1, 0, HORIZON - 1)) {
                    Err(LiveError::Late { watermark, .. }) => {
                        assert_eq!(watermark, barrier, "{op}")
                    }
                    other => panic!("{op}: expected Late against the barrier, got {other:?}"),
                }
                idx.evaluate(&probe).expect("query during the build");
                let done = build.join().expect("build thread");
                assert!(done.expect("build commits").is_some(), "{op}");
            });
            assert!(idx.metrics().overlapped_queries > 0, "{op}: no overlap");
            assert_eq!(idx.metrics().compactions, before + 1, "{op}");
        }
    }
}
