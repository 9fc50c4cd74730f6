//! Epoch-sharded live timeline: the history as a *sequence* of sealed
//! shards instead of one monolithic base.
//!
//! [`LiveIndex`](crate::LiveIndex) keeps exactly one sealed base covering
//! `[0, watermark)`; every compaction re-streams the whole history through
//! the builders, so seal cost grows with the *age* of the timeline.
//! [`ShardedLive`] partitions the sealed range into epochs at cut ticks
//! `0 = c_0 < c_1 < … < c_k`:
//!
//! ```text
//!   shard 0        shard 1          shard k-1        delta
//!   [c_0, c_1)     [c_1, c_2)  …    [c_{k-1}, c_k)   [c_k, now)
//! ```
//!
//! Each sealed shard is an independent ReachGraph (or disk-GRAIL) base on
//! its **own device** behind its own
//! [`SharedDevice`](reach_storage::SharedDevice) hub. Sealing the delta
//! builds a *new* epoch from the delta's contacts alone — cost
//! proportional to the epoch, not the history — and an explicit
//! [`ShardedLive::merge_epochs`] coalesces adjacent shards when the
//! directory grows long.
//!
//! ## Cross-shard frontier handoff
//!
//! A query spanning epochs walks the shards in time order carrying a
//! [`FrontierHandoff`]: the per-object earliest-arrival frontier leaves
//! shard *i* at its cut and seeds shard *i+1*'s multi-seed expansion
//! ([`reachable_set_seeded`](reach_graph::reachable_set_seeded)), each
//! object re-entering at `max(arrival, epoch start)` — exactly the
//! base→delta handoff the single-base index performs at its watermark,
//! applied at every cut. Because a contact run split at a cut relaxes
//! identically on both sides (the left fragment ends at the clipped window
//! end; the right fragment relaxes at `end + 1` just as the unsplit run
//! would), the composition answers **exactly** as a monolithic base built
//! over the full sealed range — the shard-oracle property suite
//! (`tests/sharded_live.rs`) asserts this on random interleavings.
//!
//! ## Failure-atomic sealing
//!
//! On durable backends the shard set itself is a piece of state, recorded
//! in an append-only **epoch directory** (`shard-dir`): each seal/merge
//! appends one checksummed generation record listing every shard's
//! `[lo, hi)` and device name; recovery replays the last valid record and
//! ignores a torn tail. Both mutations commit in three phases —
//!
//! 1. build the new shard base on fresh devices and sync it;
//! 2. append the new generation record to the directory and sync it;
//! 3. swap the in-memory shard set (infallible).
//!
//! A crash before phase 2 leaves the previous generation (the new base is
//! an unreferenced orphan, truncated on reuse); a crash after phase 2
//! recovers the new generation. There is no state in between, which
//! `tests/failure_injection.rs` drives through [`ShardedLive::inject_crash`].

use crate::delta::DeltaDn;
use crate::index::{
    batch_answers, build_sealed_base, decay_delta_leg, finish_base, lock_stats, outcome_of,
    AppendOutcome, Base, BaseKind, CompactionStats, LiveConfig, LiveError, LiveStats, SealedBase,
    Tail,
};
use crate::log::{AppendLog, LogRecovery};
use reach_contact::{ChainSweep, StreamedDn};
use reach_core::attribute_stats;
use reach_core::frontier::WeightedFrontier;
use reach_core::{
    Answer, Contact, DecayModel, FrontierHandoff, IndexError, ObjectId, Query, QueryKind,
    QueryOutcome, QueryResult, QueryStats, RankDirection, Ranked, ReachIndex, ReachRequest, Time,
    TimeInterval,
};
use reach_graph::ReachGraph;
use reach_obs::Tracer;
use reach_storage::{BlockDevice, DeviceDirectory};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// One sealed epoch: an immutable base over `[lo, hi)` on its own device.
struct Shard {
    /// Inclusive epoch start (== the previous shard's `hi`, or 0).
    lo: Time,
    /// Exclusive epoch end (== the base's horizon).
    hi: Time,
    /// Device-name suffix: the base lives on `shard-base-{seq}`.
    seq: u64,
    base: SealedBase,
}

/// Everything the state lock protects: the shard directory and the
/// mutable tail (appends must decide, log, and insert atomically; seals
/// swap the shard set).
struct ShardState {
    shards: Arc<Vec<Arc<Shard>>>,
    tail: Tail,
    dir: Option<EpochDirectory>,
    generation: u64,
    next_seq: u64,
}

/// Where [`ShardedLive::inject_crash`] kills the next seal/merge — between
/// the three commit phases, mimicking a process death at that exact point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardCrashPoint {
    /// After the new shard base is built and synced, before the epoch
    /// directory records it: recovery must see the *previous* shard set.
    BeforeDirectory,
    /// Mid-append of the directory record (a torn, checksum-failing tail):
    /// recovery must ignore it and see the *previous* shard set.
    TornDirectory,
    /// After the directory record is durable, before the in-memory swap:
    /// recovery must see the *new* shard set.
    AfterDirectory,
}

/// What [`ShardedLive::open`] recovered.
#[derive(Clone, Debug)]
pub struct ShardRecovery {
    /// The append log's own recovery report.
    pub log: LogRecovery,
    /// Sealed shards restored from the epoch directory.
    pub shards: usize,
    /// The restored sealed boundary (the top shard's `hi`).
    pub top_cut: Time,
}

/// The epoch-sharded live index (see the module docs). All methods take
/// `&self`; the state lock admits concurrent readers, so it implements
/// [`ReachIndex`] natively and plugs straight into the serving layer.
pub struct ShardedLive {
    num_objects: usize,
    config: LiveConfig,
    directory: DeviceDirectory,
    state: RwLock<ShardState>,
    stats: Mutex<LiveStats>,
    crash: Mutex<Option<ShardCrashPoint>>,
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
    /// Creates an empty sharded index over `directory`'s devices: the
    /// append log goes to `shard-log`, the epoch directory (durable
    /// backends only) to `shard-dir`, and every sealed shard to its own
    /// `shard-base-{seq}`.
    pub fn create(
        directory: DeviceDirectory,
        num_objects: usize,
        config: LiveConfig,
    ) -> Result<Self, IndexError> {
        assert_eq!(
            directory.page_size(),
            config.base.page_size(),
            "device directory page size must match the configured base"
        );
        let log = AppendLog::create(directory.create("shard-log", true)?, num_objects)?;
        let dir = if directory.is_durable() {
            Some(EpochDirectory::create(directory.create("shard-dir", true)?))
        } else {
            None
        };
        let stats = LiveStats {
            append_io: log.io_stats(),
            ..LiveStats::default()
        };
        Ok(Self {
            num_objects,
            config,
            directory,
            state: RwLock::new(ShardState {
                shards: Arc::new(Vec::new()),
                tail: Tail::new(log, DeltaDn::new(0)),
                dir,
                generation: 0,
                next_seq: 0,
            }),
            stats: Mutex::new(stats),
            crash: Mutex::new(None),
        })
    }

    /// Recovers a sharded index from its durable devices: the epoch
    /// directory names the shard set, each shard's base reopens from its
    /// own device, and the log's tail (records at or above the top cut)
    /// replays into the delta. Only ReachGraph bases carry the reopenable
    /// metadata footer; a GRAIL config is rejected.
    pub fn open(
        directory: DeviceDirectory,
        config: LiveConfig,
    ) -> Result<(Self, ShardRecovery), IndexError> {
        assert_eq!(
            directory.page_size(),
            config.base.page_size(),
            "device directory page size must match the configured base"
        );
        if !matches!(config.base, BaseKind::Graph(_)) {
            return Err(IndexError::Unsupported(
                "sharded recovery needs reopenable bases; only ReachGraph carries the \
                 metadata footer"
                    .into(),
            ));
        }
        let (dir, records) = EpochDirectory::open(directory.open("shard-dir", true)?)?;
        let mut shards: Vec<Arc<Shard>> = Vec::with_capacity(records.shards.len());
        let mut next_seq = 0u64;
        for &(lo, hi, seq) in &records.shards {
            let device = directory.open(&format!("shard-base-{seq}"), false)?;
            let hub = DeviceDirectory::hub(device, config.shared_cache_pages, config.readahead);
            let index = ReachGraph::open(Box::new(hub.clone()))?;
            shards.push(Arc::new(Shard {
                lo,
                hi,
                seq,
                base: SealedBase::new(Base::Graph(Box::new(index)), hub),
            }));
            next_seq = next_seq.max(seq + 1);
        }
        let top_cut = shards.last().map_or(0, |s| s.hi);
        let (log, replayed, log_recovery) = AppendLog::open(directory.open("shard-log", true)?)?;
        let num_objects = log.num_objects();
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
        let stats = LiveStats {
            append_io: log.io_stats(),
            delta_peak_bytes: delta.resident_bytes() as u64,
            ..LiveStats::default()
        };
        let recovery = ShardRecovery {
            log: log_recovery,
            shards: shards.len(),
            top_cut,
        };
        let live = Self {
            num_objects,
            config,
            directory,
            state: RwLock::new(ShardState {
                shards: Arc::new(shards),
                tail: Tail::new(log, delta),
                dir: Some(dir),
                generation: records.generation,
                next_seq,
            }),
            stats: Mutex::new(stats),
            crash: Mutex::new(None),
        };
        Ok((live, recovery))
    }

    fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        self.state.read().expect("shard state lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardState> {
        self.state.write().expect("shard state lock poisoned")
    }

    fn stats_mut(&self) -> MutexGuard<'_, LiveStats> {
        lock_stats(&self.stats)
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

    /// The delta's deterministic resident-byte estimate.
    pub fn delta_bytes(&self) -> usize {
        self.read().tail.delta.resident_bytes()
    }

    /// Records in the durable log.
    pub fn log_len(&self) -> u64 {
        self.read().tail.log.len()
    }

    /// Sealed shard count.
    pub fn shard_count(&self) -> usize {
        self.read().shards.len()
    }

    /// The sealed epochs as `[lo, hi)` spans, in time order.
    pub fn shard_spans(&self) -> Vec<(Time, Time)> {
        self.read().shards.iter().map(|s| (s.lo, s.hi)).collect()
    }

    /// Directory generation (bumped by every committed seal/merge).
    pub fn generation(&self) -> u64 {
        self.read().generation
    }

    /// Summed counters of every sealed shard's page cache, or `None` when
    /// the config leaves the cache off (or nothing is sealed yet). Each
    /// epoch shard caches its own device; the sum is what the serving
    /// stack's metrics exposition reports as `cache_*`.
    pub fn cache_stats(&self) -> Option<reach_storage::CacheStats> {
        let st = self.read();
        let mut any = false;
        let mut total = reach_storage::CacheStats::default();
        for shard in st.shards.iter() {
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

    /// Lifetime accounting (same shape as the single-base index's).
    pub fn stats(&self) -> LiveStats {
        self.stats_mut().clone()
    }

    /// Arms the fault-injection hook: the **next** seal or merge dies at
    /// `point` (its devices left exactly as a process kill would leave
    /// them) and surfaces the injected error. Testing only.
    pub fn inject_crash(&self, point: ShardCrashPoint) {
        *self.crash.lock().expect("crash hook lock poisoned") = Some(point);
    }

    fn crash_fires(&self, point: ShardCrashPoint) -> bool {
        let mut hook = self.crash.lock().expect("crash hook lock poisoned");
        if *hook == Some(point) {
            *hook = None;
            return true;
        }
        false
    }

    /// Advances the live clock without appending.
    pub fn advance(&self, to: Time) {
        self.write().tail.delta.advance(to);
    }

    /// Flushes the append log to durable storage.
    pub fn sync(&self) -> Result<(), IndexError> {
        self.write().tail.log.sync()
    }

    /// Re-reads the full accepted record set from the log (what the
    /// equivalence tests rebuild their oracle from).
    pub fn replay_log(&self) -> Result<Vec<Contact>, IndexError> {
        self.write().tail.replay(&self.stats)
    }

    /// Appends one contact record — the single-base index's admission path
    /// (strict rejects late records, lossy clamps/drops them at the
    /// watermark), durably logged before it touches the delta. An append
    /// that pushes the delta over budget seals a new epoch inline.
    pub fn append(&self, c: Contact) -> Result<AppendOutcome, LiveError> {
        let mut st = self.write();
        let barrier = st.tail.delta.watermark();
        let (mut outcome, trigger) =
            st.tail
                .admit(c, barrier, self.num_objects, &self.config, &self.stats)?;
        if let Some(cut) = trigger {
            match self.seal_locked(&mut st, cut) {
                Ok(done) => outcome.compacted = done.is_some(),
                Err(e) => outcome.compaction_error = Some(e),
            }
            st.tail.back_off_if_over(&self.config);
        }
        Ok(outcome)
    }

    /// Seals the delta's `[watermark, cut)` head into a **new epoch shard**
    /// (clamping `cut` to `now`). Unlike the single-base compaction this
    /// never re-streams history: the build reads the delta's contacts
    /// alone, so seal cost is proportional to the epoch being sealed, not
    /// the timeline's age. Returns `None` when nothing would seal.
    pub fn seal(&self, cut: Time) -> Result<Option<CompactionStats>, IndexError> {
        let mut st = self.write();
        self.seal_locked(&mut st, cut)
    }

    /// Seals up to `now - lateness` (the auto-trigger's cut).
    pub fn seal_now(&self) -> Result<Option<CompactionStats>, IndexError> {
        let mut st = self.write();
        let cut = st
            .tail
            .delta
            .now()
            .saturating_sub(self.config.lateness)
            .max(st.tail.delta.watermark());
        self.seal_locked(&mut st, cut)
    }

    fn seal_locked(
        &self,
        st: &mut ShardState,
        cut: Time,
    ) -> Result<Option<CompactionStats>, IndexError> {
        let started = Instant::now();
        let cut = cut.min(st.tail.delta.now());
        let lo = st.tail.delta.watermark();
        if cut == 0 || cut <= lo {
            return Ok(None);
        }
        // Phase 1: build the new epoch's base on fresh devices and sync
        // it. Input is the delta's sealed head only — no history restream.
        let sealed = st.tail.delta.sealed_head(cut);
        let seq = st.next_seq;
        let scratch_name = format!("shard-scratch-{seq}");
        let built = (|| {
            let scratch = self.directory.create(&scratch_name, false)?;
            let device = self.directory.create(&format!("shard-base-{seq}"), false)?;
            let hub = DeviceDirectory::hub(
                device,
                self.config.shared_cache_pages,
                self.config.readahead,
            );
            let (mut base, mut stats) = build_sealed_base(
                &mut Base::None,
                &sealed,
                self.num_objects,
                cut,
                &self.config,
                scratch,
                Box::new(hub.clone()),
            )?;
            base.device_sync()?;
            stats.duration = started.elapsed();
            let base = SealedBase::new(base, hub);
            Ok::<_, IndexError>((
                Shard {
                    lo,
                    hi: cut,
                    seq,
                    base,
                },
                stats,
            ))
        })();
        let _ = self.directory.remove(&scratch_name);
        let (shard, stats) = built?;
        st.next_seq = seq + 1;

        // Phase 2: make the new shard set durable in the epoch directory.
        let mut spans: Vec<(Time, Time, u64)> =
            st.shards.iter().map(|s| (s.lo, s.hi, s.seq)).collect();
        spans.push((lo, cut, seq));
        self.commit_directory(st, &spans)?;

        // Phase 3: infallible in-memory swap.
        let mut shards = st.shards.as_ref().clone();
        shards.push(Arc::new(shard));
        st.shards = Arc::new(shards);
        st.tail.delta.discard_below(cut);
        st.generation += 1;
        {
            let mut s = self.stats_mut();
            s.compactions += 1;
            s.compaction_spill_io = s.compaction_spill_io + stats.spill.io;
            s.last_compaction = Some(stats);
        }
        Ok(Some(stats))
    }

    /// Coalesces the adjacent sealed shards `i..=j` (indices into the
    /// current shard sequence) into **one** epoch covering their union.
    /// The shards' DNs re-stream as chain contacts — each silent outside
    /// its own `[lo, hi)`, so the concatenated sweep's per-tick components
    /// equal a monolithic build's — and the merged base commits under the
    /// same three-phase protocol as a seal. The superseded shard devices
    /// are removed after the commit.
    pub fn merge_epochs(&self, i: usize, j: usize) -> Result<Option<CompactionStats>, IndexError> {
        let started = Instant::now();
        let mut st = self.write();
        let st = &mut *st;
        if i >= j || j >= st.shards.len() {
            return Ok(None);
        }
        let lo = st.shards[i].lo;
        let hi = st.shards[j].hi;
        let seq = st.next_seq;
        let scratch_name = format!("shard-scratch-{seq}");

        // Phase 1: re-stream the merged range into one base and sync it.
        let built = (|| {
            let scratch = self.directory.create(&scratch_name, false)?;
            let device = self.directory.create(&format!("shard-base-{seq}"), false)?;
            let hub = DeviceDirectory::hub(
                device,
                self.config.shared_cache_pages,
                self.config.readahead,
            );
            let mut stats = CompactionStats {
                watermark: hi,
                ..CompactionStats::default()
            };
            let budget = self.config.budget;
            let mut readers: Vec<Base> = st.shards[i..=j].iter().map(|s| s.base.reader()).collect();
            let mut sdn = match &self.config.base {
                BaseKind::Graph(_) => {
                    let mut sweeps: Vec<ChainSweep<&mut ReachGraph>> = readers
                        .iter_mut()
                        .map(|b| match b {
                            Base::Graph(g) => ChainSweep::new(&mut **g),
                            _ => unreachable!("graph config builds graph shards"),
                        })
                        .collect();
                    let sdn = StreamedDn::build(
                        self.num_objects,
                        hi,
                        |t, buf| {
                            for s in sweeps.iter_mut() {
                                s.emit(t, buf);
                            }
                        },
                        budget,
                        scratch,
                    );
                    stats.base_chains = sweeps.iter().map(|s| s.chains()).sum();
                    sdn
                }
                BaseKind::Grail(_) => {
                    let mut merged = Vec::new();
                    for b in readers.iter_mut() {
                        match b {
                            Base::Grail(g) => merged.extend(g.chain_contacts()?),
                            _ => unreachable!("grail config builds grail shards"),
                        }
                    }
                    stats.base_chains = merged.len() as u64;
                    StreamedDn::from_contacts(self.num_objects, hi, &merged, budget, scratch)
                }
            };
            for b in readers.iter_mut() {
                stats.base_read_io = stats.base_read_io + b.device_stats();
            }
            let mut base = finish_base(&self.config, Box::new(hub.clone()), &mut sdn)?;
            stats.spill = sdn.spill_stats();
            base.device_sync()?;
            stats.duration = started.elapsed();
            let base = SealedBase::new(base, hub);
            Ok::<_, IndexError>((Shard { lo, hi, seq, base }, stats))
        })();
        let _ = self.directory.remove(&scratch_name);
        let (shard, stats) = built?;
        st.next_seq = seq + 1;

        // Phase 2: durable directory record for the coalesced shard set.
        let mut spans: Vec<(Time, Time, u64)> = Vec::with_capacity(st.shards.len() - (j - i));
        spans.extend(st.shards[..i].iter().map(|s| (s.lo, s.hi, s.seq)));
        spans.push((lo, hi, seq));
        spans.extend(st.shards[j + 1..].iter().map(|s| (s.lo, s.hi, s.seq)));
        self.commit_directory(st, &spans)?;

        // Phase 3: infallible swap; then garbage-collect the superseded
        // devices (post-commit, so a failure here cannot tear the state).
        let superseded: Vec<u64> = st.shards[i..=j].iter().map(|s| s.seq).collect();
        let mut shards: Vec<Arc<Shard>> = Vec::with_capacity(st.shards.len() - (j - i));
        shards.extend(st.shards[..i].iter().cloned());
        shards.push(Arc::new(shard));
        shards.extend(st.shards[j + 1..].iter().cloned());
        st.shards = Arc::new(shards);
        st.generation += 1;
        for seq in superseded {
            let _ = self.directory.remove(&format!("shard-base-{seq}"));
        }
        {
            let mut s = self.stats_mut();
            s.compactions += 1;
            s.compaction_read_io = s.compaction_read_io + stats.base_read_io;
            s.compaction_spill_io = s.compaction_spill_io + stats.spill.io;
            s.last_compaction = Some(stats);
        }
        Ok(Some(stats))
    }

    /// Appends the generation record (phase 2), honouring the injected
    /// crash points around and inside the directory write.
    fn commit_directory(
        &self,
        st: &mut ShardState,
        spans: &[(Time, Time, u64)],
    ) -> Result<(), IndexError> {
        if self.crash_fires(ShardCrashPoint::BeforeDirectory) {
            return Err(IndexError::Io(
                "injected crash before the directory record".into(),
            ));
        }
        if let Some(dir) = st.dir.as_mut() {
            if self.crash_fires(ShardCrashPoint::TornDirectory) {
                dir.commit_torn(st.generation + 1, spans)?;
                return Err(IndexError::Io(
                    "injected crash mid-directory-record (torn tail)".into(),
                ));
            }
            dir.commit(st.generation + 1, spans)?;
        } else if self.crash_fires(ShardCrashPoint::TornDirectory) {
            return Err(IndexError::Io(
                "injected crash mid-directory-record (torn tail)".into(),
            ));
        }
        if self.crash_fires(ShardCrashPoint::AfterDirectory) {
            return Err(IndexError::Io(
                "injected crash after the directory record".into(),
            ));
        }
        Ok(())
    }

    /// Evaluates one reachability query across the shard sequence and the
    /// delta via frontier handoff (see the module docs).
    pub fn evaluate_query(&self, q: &Query) -> Result<QueryResult, IndexError> {
        self.evaluate_query_traced(q, &Tracer::off())
    }

    /// [`ShardedLive::evaluate_query`] with per-leg trace spans: every
    /// sealed-epoch leg records a `shard/leg` span carrying its handoff
    /// seed count and the leg's counted IO, and the delta tail records a
    /// `shard/delta` span. Leg spans partition the query's `QueryStats`
    /// exactly (each span observes the same per-leg stats the walk merges),
    /// so summing span IO reproduces the answer's totals.
    pub fn evaluate_query_traced(
        &self,
        q: &Query,
        trace: &Tracer,
    ) -> Result<QueryResult, IndexError> {
        let started = Instant::now();
        let st = self.read();
        let now = st.tail.delta.now();
        for o in [q.source, q.dest] {
            if o.index() >= self.num_objects {
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
        } else if let Some(shard) = st.shards.iter().find(|s| s.lo <= t1 && t2 < s.hi) {
            // Wholly inside one sealed epoch: the shard's own point query
            // (BM-BFS on a graph base) answers alone.
            let mut leg_span = trace.span("shard/leg");
            leg_span.label_with(|| format!("epoch [{}, {})", shard.lo, shard.hi));
            leg_span.set_seeds(1);
            let mut base = shard.base.reader();
            let result = base.evaluate(q)?;
            attribute_stats(&mut leg_span, &result.stats);
            result
        } else {
            let w = st.tail.delta.watermark();
            let mut stats = QueryStats::default();
            let mut frontier = FrontierHandoff::seeded(q.source, t1);
            let mut sealed_hit = None;
            for shard in st.shards.iter() {
                if shard.hi <= t1 {
                    continue;
                }
                if shard.lo > t2 {
                    break;
                }
                let span = TimeInterval::new(t1.max(shard.lo), t2.min(shard.hi - 1));
                let mut leg_span = trace.span("shard/leg");
                leg_span.label_with(|| format!("epoch [{}, {})", shard.lo, shard.hi));
                leg_span.set_seeds(frontier.seeds().len() as u64);
                let mut base = shard.base.reader();
                let (leg, s) = base.reachable_set_from(frontier.seeds(), span)?;
                attribute_stats(&mut leg_span, &s);
                leg_span.finish();
                stats = stats.merged(&s);
                frontier.absorb(&leg, span.end);
                if let Some(ea) = frontier.arrival_of(q.dest) {
                    // Arrivals are chronological across the walk: the
                    // first epoch that reaches the destination holds its
                    // earliest arrival.
                    sealed_hit = Some(ea);
                    break;
                }
            }
            let outcome = match sealed_hit {
                Some(ea) => QueryOutcome::reachable_at(ea),
                None if t2 >= w => {
                    // The in-memory delta counts no device IO: its span
                    // carries the handoff seed count and timing only.
                    let mut delta_span = trace.span("shard/delta");
                    delta_span.label_with(|| format!("delta [{w}, {t2}]"));
                    delta_span.set_seeds(frontier.seeds().len() as u64);
                    let when = st.tail.delta.propagate(
                        self.num_objects,
                        frontier.seeds(),
                        t2,
                        Some(q.dest),
                    );
                    outcome_of(when[q.dest.index()])
                }
                None => outcome_of(None),
            };
            QueryResult { outcome, stats }
        };
        drop(st);
        result.stats.cpu = started.elapsed();
        let mut stats = self.stats_mut();
        stats.queries += 1;
        stats.query = stats.query.merged(&result.stats);
        Ok(result)
    }

    /// Composes the decay-weighted frontier of `source` across the shard
    /// sequence and the delta — the weighted sibling of the boolean relay
    /// in [`ShardedLive::evaluate_query`]. The epoch covering `t1` seeds
    /// the source at face value; every later leg continues from the
    /// previous leg's carry groups, which preserve run-chain transfers up
    /// to the epoch cut and charge the boundary hop exactly when the
    /// membership genuinely changed there — so the composed weights equal
    /// a monolithic weighted walk bit for bit (tier-1
    /// `tests/decay_reach.rs`). `floor` carries a point query's θ across
    /// every leg; ranked queries pass `0.0`.
    fn decay_frontier(
        &self,
        source: ObjectId,
        interval: TimeInterval,
        model: &DecayModel,
        floor: f64,
        trace: &Tracer,
    ) -> Result<(WeightedFrontier, QueryStats), IndexError> {
        let st = self.read();
        let now = st.tail.delta.now();
        if source.index() >= self.num_objects {
            return Err(IndexError::UnknownObject(source));
        }
        if interval.start >= now {
            return Err(IndexError::IntervalOutOfRange {
                requested: interval,
                horizon: now,
            });
        }
        let t1 = interval.start;
        let t2 = interval.end.min(now - 1);
        let w = st.tail.delta.watermark();
        let mut frontier = WeightedFrontier::seeded(source, t1);
        let mut stats = QueryStats::default();
        let mut pending = vec![(source, 0u32, t1)];
        for shard in st.shards.iter() {
            if shard.hi <= t1 {
                continue;
            }
            if shard.lo > t2 {
                break;
            }
            let span = TimeInterval::new(t1.max(shard.lo), t2.min(shard.hi - 1));
            let mut leg_span = trace.span("shard/decay-leg");
            leg_span.label_with(|| format!("epoch [{}, {})", shard.lo, shard.hi));
            leg_span.set_seeds((pending.len() + frontier.carry().len()) as u64);
            let mut base = shard.base.reader();
            let (leg, s) =
                base.decay_states_from(&pending, frontier.carry(), span, t1, model, floor)?;
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

    /// Evaluates many same-source queries through **one** cross-shard walk
    /// and at most one delta propagation — the serving path's batching
    /// optimization, with the walk's IO attributed to the first answer.
    pub fn evaluate_batch(
        &self,
        source: ObjectId,
        window: TimeInterval,
        dests: &[ObjectId],
    ) -> Result<Vec<Answer>, IndexError> {
        let started = Instant::now();
        if source.index() >= self.num_objects {
            return Err(IndexError::UnknownObject(source));
        }
        if let Some(&bad) = dests.iter().find(|d| d.index() >= self.num_objects) {
            return Err(IndexError::UnknownObject(bad));
        }
        if dests.is_empty() {
            return Ok(Vec::new());
        }
        let st = self.read();
        let now = st.tail.delta.now();
        if window.start >= now {
            return Err(IndexError::IntervalOutOfRange {
                requested: window,
                horizon: now,
            });
        }
        let t1 = window.start;
        let t2 = window.end.min(now - 1);
        let w = st.tail.delta.watermark();
        let mut stats = QueryStats::default();
        let mut frontier = FrontierHandoff::seeded(source, t1);
        for shard in st.shards.iter() {
            if shard.hi <= t1 {
                continue;
            }
            if shard.lo > t2 {
                break;
            }
            let span = TimeInterval::new(t1.max(shard.lo), t2.min(shard.hi - 1));
            let mut base = shard.base.reader();
            let (leg, s) = base.reachable_set_from(frontier.seeds(), span)?;
            stats = stats.merged(&s);
            frontier.absorb(&leg, span.end);
        }
        let mut when = if t2 >= w {
            st.tail
                .delta
                .propagate(self.num_objects, frontier.seeds(), t2, None)
        } else {
            vec![None; self.num_objects]
        };
        for &(o, ea) in frontier.seeds() {
            let slot = &mut when[o.index()];
            *slot = Some(slot.map_or(ea, |t: Time| t.min(ea)));
        }
        drop(st);
        stats.cpu = started.elapsed();
        let answers = batch_answers(source, t1, &when, dests, stats);
        let mut s = self.stats_mut();
        s.queries += answers.len() as u64;
        for a in &answers {
            s.query = s.query.merged(&a.stats);
        }
        Ok(answers)
    }
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
                return self
                    .evaluate_query_traced(q, &request.trace)
                    .map(Answer::from)
            }
            QueryKind::Decay { theta, model } => {
                if q.dest.index() >= self.num_objects {
                    return Err(IndexError::UnknownObject(q.dest));
                }
                let (frontier, mut stats) =
                    self.decay_frontier(q.source, q.interval, &model, theta, &request.trace)?;
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
                let (frontier, mut stats) =
                    self.decay_frontier(q.source, q.interval, &model, 0.0, &request.trace)?;
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
                // priced accordingly (see `QUERIES.md`).
                let anchor = q.source;
                if anchor.index() >= self.num_objects {
                    return Err(IndexError::UnknownObject(anchor));
                }
                let mut stats = QueryStats::default();
                let mut best: Vec<Ranked> = Vec::new();
                for o in 0..self.num_objects as u32 {
                    let source = ObjectId(o);
                    if source == anchor {
                        continue;
                    }
                    let (frontier, s) =
                        self.decay_frontier(source, q.interval, &model, 0.0, &request.trace)?;
                    stats = stats.merged(&s);
                    if let Some((weight, arrival)) = frontier.best_of(anchor, &model) {
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
                Answer::ranked(best, stats)
            }
            _ => return Err(request.unsupported(self.name())),
        };
        let mut s = self.stats_mut();
        s.queries += 1;
        s.query = s.query.merged(&answer.stats);
        Ok(answer)
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

    /// Writes a deliberately torn record — the length prefix and roughly
    /// half the payload, checksum missing — and does **not** advance the
    /// append position, mimicking a crash mid-append. Testing only.
    fn commit_torn(
        &mut self,
        generation: u64,
        shards: &[(Time, Time, u64)],
    ) -> Result<(), IndexError> {
        let mut record = Self::encode(generation, shards);
        let keep = 4 + (record.len() - 4) / 2;
        record.truncate(keep);
        self.write_pages(&record)?;
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
    use crate::index::GrailConfig;
    use reach_contact::Oracle;
    use reach_graph::GraphParams;
    use reach_storage::BuildBudget;

    const PAGE: usize = 256;

    fn graph_config(budget: usize) -> LiveConfig {
        LiveConfig::graph(
            GraphParams {
                partition_depth: 8,
                page_size: PAGE,
                ..GraphParams::default()
            },
            BuildBudget::bytes(budget),
        )
        .manual_compaction()
    }

    fn c(a: u32, b: u32, s: Time, e: Time) -> Contact {
        Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
    }

    fn q(s: u32, d: u32, a: Time, b: Time) -> Query {
        Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b))
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

    fn check_all_pairs(live: &ShardedLive, n: usize, tag: &str) {
        let contacts = live.replay_log().expect("replay");
        let oracle = oracle_of(n, live.now(), &contacts);
        let now = live.now();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                for &(a, b) in &[(0, now - 1), (2, now - 1), (0, 5), (3, 9.min(now - 1))] {
                    if a > b {
                        continue;
                    }
                    let query = q(s, d, a, b);
                    let got = live.evaluate_query(&query).expect("query");
                    let want = oracle.evaluate(&query);
                    assert_eq!(
                        got.reachable(),
                        want.reachable,
                        "{tag}: {query} diverged (shards {:?})",
                        live.shard_spans()
                    );
                    if let (Some(g), Some(w)) = (got.outcome.earliest, want.earliest) {
                        assert_eq!(g, w, "{tag}: {query} arrival");
                    }
                }
            }
        }
    }

    /// Figure-1-style trace sealed into three epochs: every window —
    /// inside one shard, spanning cuts, straddling the delta — answers
    /// exactly as the batch oracle.
    #[test]
    fn sharded_walk_matches_the_oracle_across_three_cuts() {
        let n = 5usize;
        let live = ShardedLive::create(DeviceDirectory::sim(PAGE), n, graph_config(1 << 20))
            .expect("creates");
        live.append(c(0, 1, 0, 2)).unwrap();
        live.append(c(1, 2, 1, 5)).unwrap();
        live.seal(4).unwrap().expect("seals epoch 0");
        live.append(c(2, 3, 4, 7)).unwrap();
        live.append(c(0, 4, 6, 6)).unwrap();
        live.seal(8).unwrap().expect("seals epoch 1");
        live.append(c(3, 4, 8, 10)).unwrap();
        live.seal(11).unwrap().expect("seals epoch 2");
        live.append(c(0, 2, 11, 12)).unwrap();
        assert_eq!(live.shard_spans(), vec![(0, 4), (4, 8), (8, 11)]);
        assert_eq!(live.watermark(), 11);
        check_all_pairs(&live, n, "three cuts");
        // A chain crossing every boundary: 0→1 (epoch 0), →2, →3 (epoch 1),
        // →4 (epoch 2), with exact arrival.
        let r = live.evaluate_query(&q(0, 4, 0, 12)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(6));
        let r = live.evaluate_query(&q(3, 4, 0, 12)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(8), "3→4 only at 8");
        // …and a path that needs the delta leg after the full walk.
        let r = live.evaluate_query(&q(3, 0, 0, 12)).unwrap();
        assert_eq!(
            r.outcome,
            QueryOutcome::reachable_at(11),
            "3→2 sealed, 2→0 in the delta"
        );
    }

    /// Coalescing adjacent epochs must not change a single answer, and the
    /// shard directory must shrink.
    #[test]
    fn merge_epochs_preserves_every_answer() {
        let n = 5usize;
        let live = ShardedLive::create(DeviceDirectory::sim(PAGE), n, graph_config(1 << 20))
            .expect("creates");
        live.append(c(0, 1, 0, 2)).unwrap();
        live.append(c(1, 2, 1, 5)).unwrap();
        live.seal(4).unwrap().unwrap();
        live.append(c(2, 3, 4, 7)).unwrap();
        live.seal(8).unwrap().unwrap();
        live.append(c(3, 4, 8, 10)).unwrap();
        live.seal(11).unwrap().unwrap();
        live.append(c(0, 2, 11, 12)).unwrap();
        assert_eq!(live.shard_count(), 3);
        let gen = live.generation();
        live.merge_epochs(0, 1).unwrap().expect("merges");
        assert_eq!(live.shard_spans(), vec![(0, 8), (8, 11)]);
        assert_eq!(live.generation(), gen + 1);
        check_all_pairs(&live, n, "after merge(0,1)");
        live.merge_epochs(0, 1).unwrap().expect("merges again");
        assert_eq!(live.shard_spans(), vec![(0, 11)]);
        check_all_pairs(&live, n, "after full merge");
        // Degenerate requests are no-ops, not errors.
        assert!(live.merge_epochs(0, 0).unwrap().is_none());
        assert!(live.merge_epochs(0, 5).unwrap().is_none());
    }

    /// GRAIL shards hand the frontier across cuts exactly like graph shards.
    #[test]
    fn grail_shards_answer_cross_epoch_queries() {
        let n = 5usize;
        let config = LiveConfig::grail(
            GrailConfig {
                d: 3,
                seed: 0xF1,
                page_size: PAGE,
                cache_pages: 16,
            },
            BuildBudget::bytes(1 << 20),
        )
        .manual_compaction();
        let live = ShardedLive::create(DeviceDirectory::sim(PAGE), n, config).expect("creates");
        live.append(c(0, 1, 0, 2)).unwrap();
        live.append(c(1, 2, 4, 5)).unwrap();
        live.seal(6).unwrap().unwrap();
        live.append(c(2, 3, 7, 7)).unwrap();
        live.seal(8).unwrap().unwrap();
        live.append(c(3, 4, 9, 9)).unwrap();
        let r = live.evaluate_query(&q(0, 4, 0, 9)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(9));
        assert!(!live.evaluate_query(&q(4, 0, 0, 9)).unwrap().reachable());
        live.merge_epochs(0, 1)
            .unwrap()
            .expect("grail shards merge");
        let r = live.evaluate_query(&q(0, 4, 0, 9)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(9));
    }

    /// Batch answers equal per-query answers, with IO on the first answer
    /// only.
    #[test]
    fn batches_match_single_queries() {
        let n = 5usize;
        let live = ShardedLive::create(DeviceDirectory::sim(PAGE), n, graph_config(1 << 20))
            .expect("creates");
        live.append(c(0, 1, 0, 2)).unwrap();
        live.append(c(1, 2, 1, 5)).unwrap();
        live.seal(4).unwrap().unwrap();
        live.append(c(2, 3, 4, 7)).unwrap();
        live.seal(8).unwrap().unwrap();
        live.append(c(3, 4, 8, 9)).unwrap();
        let dests: Vec<ObjectId> = (0..n as u32).map(ObjectId).collect();
        let window = TimeInterval::new(0, 9);
        let batch = live.evaluate_batch(ObjectId(0), window, &dests).unwrap();
        for (i, answer) in batch.iter().enumerate() {
            let single = live
                .evaluate_query(&q(0, i as u32, 0, 9))
                .expect("single query");
            assert_eq!(
                answer.reachable(),
                single.reachable(),
                "dest {i} diverged from the single-query path"
            );
            if i > 0 {
                assert_eq!(answer.stats.random_ios + answer.stats.seq_ios, 0);
            }
        }
    }

    /// File-backed round trip: seal twice, drop everything, reopen from
    /// the epoch directory + per-shard devices + log tail.
    #[test]
    fn file_backed_recovery_restores_the_shard_set() {
        let root = std::env::temp_dir().join(format!("streach-shard-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let directory = DeviceDirectory::file(&root, PAGE);
        let n = 5usize;
        {
            let live =
                ShardedLive::create(directory.clone(), n, graph_config(1 << 20)).expect("creates");
            live.append(c(0, 1, 0, 2)).unwrap();
            live.append(c(1, 2, 1, 5)).unwrap();
            live.seal(4).unwrap().unwrap();
            live.append(c(2, 3, 4, 7)).unwrap();
            live.seal(8).unwrap().unwrap();
            live.append(c(3, 4, 8, 10)).unwrap();
            live.sync().unwrap();
        } // crash: every in-memory structure evaporates
        let (live, recovery) =
            ShardedLive::open(directory, graph_config(1 << 20)).expect("reopens");
        assert_eq!(recovery.shards, 2);
        assert_eq!(recovery.top_cut, 8);
        assert_eq!(live.shard_spans(), vec![(0, 4), (4, 8)]);
        assert_eq!(live.watermark(), 8);
        check_all_pairs(&live, n, "after recovery");
        // The recovered index keeps working: another epoch seals on top.
        live.append(c(0, 4, 11, 11)).unwrap();
        live.seal(12).unwrap().unwrap();
        assert_eq!(live.shard_spans(), vec![(0, 4), (4, 8), (8, 12)]);
        check_all_pairs(&live, n, "sealed after recovery");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The epoch directory's scan keeps the last valid record and ignores
    /// a torn tail.
    #[test]
    fn epoch_directory_survives_a_torn_tail() {
        let root = std::env::temp_dir().join(format!("streach-shard-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let d = DeviceDirectory::file(&root, PAGE);
        {
            let mut dir = EpochDirectory::create(d.create("dir", true).unwrap());
            dir.commit(1, &[(0, 4, 0)]).unwrap();
            dir.commit(2, &[(0, 4, 0), (4, 9, 1)]).unwrap();
            dir.commit_torn(3, &[(0, 4, 0), (4, 9, 1), (9, 20, 2)])
                .unwrap();
        }
        let (mut dir, records) = EpochDirectory::open(d.open("dir", true).unwrap()).unwrap();
        assert_eq!(records.generation, 2, "torn record must not win");
        assert_eq!(records.shards, vec![(0, 4, 0), (4, 9, 1)]);
        // Appending after recovery overwrites the torn tail…
        dir.commit(3, &[(0, 9, 2)]).unwrap();
        drop(dir);
        let (_, records) = EpochDirectory::open(d.open("dir", true).unwrap()).unwrap();
        assert_eq!(records.generation, 3);
        assert_eq!(records.shards, vec![(0, 9, 2)]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Lossy/strict admission at the sharded watermark mirrors the
    /// single-base index.
    #[test]
    fn admission_clamps_at_the_top_cut() {
        let n = 4usize;
        let live = ShardedLive::create(DeviceDirectory::sim(PAGE), n, graph_config(1 << 20))
            .expect("creates");
        live.append(c(0, 1, 0, 4)).unwrap();
        live.seal(5).unwrap().unwrap();
        let o = live.append(c(2, 3, 1, 3)).unwrap();
        assert!(!o.logged, "wholly late records drop");
        let o = live.append(c(2, 3, 3, 8)).unwrap();
        assert!(o.logged && o.clamped, "straddlers clamp to the cut");
        assert_eq!(live.stats().dropped_late, 1);
        assert_eq!(live.stats().clamped, 1);
    }
}
