//! The machinery under the live engine: sealed base images, the one build
//! every seal, merge, and compaction runs, and the admission tail (delta +
//! durable log) appends go through.

use crate::config::{AppendOutcome, BaseKind, CompactionStats, LiveConfig, LiveError, LiveStats};
use crate::delta::DeltaDn;
use crate::log::AppendLog;
use reach_baselines::GrailDisk;
use reach_contact::{ChainSweep, ErrorMode, IngestError, MultiRes, StreamedDn};
use reach_core::frontier::{CarryGroup, WeightedFrontier, WeightedSeed};
use reach_core::{
    Answer, Contact, DecayModel, IndexError, ObjectId, Query, QueryOutcome, QueryResult,
    QueryStats, ReachIndex, Time, TimeInterval,
};
use reach_graph::{DecayLeg, GraphContext, MemoryHn, ReachGraph};
use reach_storage::{BlockDevice, IoSampler, SharedDevice};
use std::sync::{Mutex, MutexGuard};

/// One sealed base: an immutable index image over the shard's own device
/// hub. Every query leg and every rebuild's re-stream reads it through a
/// private cold context, so readers never contend on a pager and each
/// counts exactly the IO a lone reader would.
pub(crate) enum Base {
    /// A sealed ReachGraph.
    Graph(ReachGraph),
    /// A sealed disk GRAIL.
    Grail(GrailDisk),
}

impl Base {
    /// Evaluates a query whose window lies inside this base.
    pub(crate) fn evaluate(&self, q: &Query) -> Result<QueryResult, IndexError> {
        match self {
            Base::Graph(g) => g.evaluate(q),
            Base::Grail(g) => g.evaluate(q),
        }
    }

    /// Multi-seed frontier expansion — one leg of the cross-shard relay,
    /// where the frontier arriving from earlier shards re-enters this
    /// base's window at each object's held arrival tick.
    pub(crate) fn reachable_set_from(
        &self,
        seeds: &[(ObjectId, Time)],
        window: TimeInterval,
    ) -> Result<(Vec<(ObjectId, Time)>, QueryStats), IndexError> {
        match self {
            Base::Graph(g) => g.reachable_set_from(seeds, window),
            Base::Grail(g) => g.reachable_set_from(seeds, window),
        }
    }

    /// Decay-weighted sibling of [`Base::reachable_set_from`]: expands a
    /// weighted seed frontier (plus the previous leg's carry groups) over
    /// the window and returns the leg's answer rows and continuation carry
    /// (see [`reach_core::frontier::WeightedFrontier`]).
    pub(crate) fn decay_states_from(
        &self,
        seeds: &[WeightedSeed],
        carry: &[CarryGroup],
        window: TimeInterval,
        origin: Time,
        model: &DecayModel,
        floor: f64,
    ) -> Result<(DecayLeg, QueryStats), IndexError> {
        match self {
            Base::Graph(g) => g.decay_states_from(seeds, carry, window, origin, model, floor),
            Base::Grail(g) => g.decay_states_from(seeds, carry, window, origin, model, floor),
        }
    }

    /// The shared device hub the base's pages live behind.
    pub(crate) fn hub(&self) -> &SharedDevice {
        match self {
            Base::Graph(g) => g.hub(),
            Base::Grail(g) => g.hub(),
        }
    }

    /// Syncs the base's device (a rebuild's durability point).
    pub(crate) fn device_sync(&mut self) -> Result<(), IndexError> {
        match self {
            Base::Graph(g) => g.device_mut().sync(),
            Base::Grail(g) => g.device_mut().sync(),
        }
    }
}

/// The one build behind every seal, merge, and compaction: re-streams the
/// `replaced` bases (in time order) as component chains, merges the
/// delta's sealed head, and flows the union through the memory-bounded
/// streaming builders into a new base over `[0, horizon)` on `device`
/// (spilling to `scratch`).
///
/// With no replaced base the head alone feeds the build
/// ([`StreamedDn::from_contacts`]). Otherwise a graph base streams every
/// replaced base's [`ChainSweep`] tick by tick beside the head's contact
/// sweep (a lossless summary: per-tick components equal the original
/// trace's, each shard silent outside its own span), and a GRAIL base
/// materializes its chain contacts. Because DN construction depends on
/// the event stream only through per-tick components, the result is
/// byte-identical to a from-scratch build over the same records. Touches
/// **no** live state — the caller commits only on `Ok`, which is what
/// makes every rebuild failure-atomic.
pub(crate) fn build_base(
    replaced: &[&Base],
    sealed: &[Contact],
    num_objects: usize,
    horizon: Time,
    config: &LiveConfig,
    scratch: Box<dyn BlockDevice>,
    device: Box<dyn BlockDevice>,
) -> Result<(Base, CompactionStats), IndexError> {
    let mut stats = CompactionStats {
        watermark: horizon,
        delta_contacts: sealed.len() as u64,
        ..CompactionStats::default()
    };
    let budget = config.budget;
    let mut sdn = if replaced.is_empty() {
        StreamedDn::from_contacts(num_objects, horizon, sealed, budget, scratch)
    } else {
        match &config.base {
            BaseKind::Graph(_) => {
                let mut contexts: Vec<GraphContext<'_>> = replaced
                    .iter()
                    .map(|b| match b {
                        Base::Graph(g) => g.context(),
                        Base::Grail(_) => unreachable!("graph config builds graph shards"),
                    })
                    .collect();
                let mut sweeps: Vec<ChainSweep<&mut GraphContext<'_>>> =
                    contexts.iter_mut().map(ChainSweep::new).collect();
                let mut delta_sweep = reach_contact::contact_sweep(sealed);
                let sdn = StreamedDn::build(
                    num_objects,
                    horizon,
                    |t, buf| {
                        for s in sweeps.iter_mut() {
                            s.emit(t, buf);
                        }
                        delta_sweep(t, buf);
                    },
                    budget,
                    scratch,
                );
                stats.base_chains = sweeps.iter().map(|s| s.chains()).sum();
                drop(sweeps);
                for cx in &contexts {
                    stats.base_read_io = stats.base_read_io + cx.io_stats();
                }
                sdn
            }
            BaseKind::Grail(_) => {
                // The GRAIL baseline reconstructs members from its timeline
                // region, which is O(DN) resident regardless — the
                // materialized path costs nothing extra here.
                let mut merged = Vec::new();
                for b in replaced {
                    match b {
                        Base::Grail(g) => {
                            let (chains, io) = g.chain_contacts()?;
                            merged.extend(chains);
                            stats.base_read_io = stats.base_read_io + io;
                        }
                        Base::Graph(_) => unreachable!("grail config builds grail shards"),
                    }
                }
                stats.base_chains = merged.len() as u64;
                merged.extend_from_slice(sealed);
                StreamedDn::from_contacts(num_objects, horizon, &merged, budget, scratch)
            }
        }
    };
    let base = finish_base(config, device, &mut sdn)?;
    stats.spill = sdn.spill_stats();
    Ok((base, stats))
}

/// Finishes a streamed DN into the configured base kind on `device`.
fn finish_base(
    config: &LiveConfig,
    device: Box<dyn BlockDevice>,
    sdn: &mut StreamedDn,
) -> Result<Base, IndexError> {
    assert_eq!(
        device.page_size(),
        config.base.page_size(),
        "device page size must match the configured base"
    );
    Ok(match &config.base {
        BaseKind::Graph(params) => {
            let mr = MultiRes::build(&mut *sdn, &params.levels);
            Base::Graph(ReachGraph::build_on(device, sdn, &mr, params.clone())?)
        }
        BaseKind::Grail(cfg) => Base::Grail(GrailDisk::build_on(
            device,
            sdn,
            cfg.d,
            cfg.seed,
            cfg.cache_pages,
        )?),
    })
}

/// Expands a weighted frontier through the delta's DN view over
/// `[watermark, t2]` — the final leg of every composed decay walk. `seeds`
/// holds the original source seed when the query starts inside the delta
/// (and is empty otherwise — continuation then comes from the frontier's
/// carry). A no-op when the delta is empty or the leg starts past its
/// last contact (silence after the final contact cannot deliver to anyone
/// new, and re-scored continuation echoes are dominated by the absorbed
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
    let (leg, ts) = reach_graph::decay_states_seeded(
        &mut MemoryHn::new(dn, mr),
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

/// Maps a propagation arrival to a query outcome.
pub(crate) fn outcome_of(when: Option<Time>) -> QueryOutcome {
    match when {
        Some(t) => QueryOutcome::reachable_at(t),
        None => QueryOutcome::UNREACHABLE,
    }
}

/// Reads a same-source batch's verdicts out of one per-object arrival
/// array. The expansion's IO rides on the first answer: later
/// destinations cost nothing extra, which is the point of batching.
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

/// The mutable tail the engine keeps under its state lock: the delta, the
/// durable log that feeds it, and the automatic-maintenance backoff.
pub(crate) struct Tail {
    pub(crate) delta: DeltaDn,
    pub(crate) log: AppendLog,
    log_sampler: IoSampler,
    /// When a seal cannot bring the delta under budget — the backlog lives
    /// *inside* the lateness window — retrying on every append would
    /// rebuild per record. Automatic attempts are suppressed until the
    /// clock passes this tick: one full lateness window of progress.
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

    /// Admits one record, under the caller's state write lock. Validates
    /// `c`, applies the lateness policy ([`LiveConfig::mode`]) against
    /// `barrier` (the watermark, or an in-flight build's cut), durably
    /// logs the accepted record before it touches the delta, and accounts
    /// it in `stats`. Returns the outcome so far plus the cut an automatic
    /// seal should seal to, when this append pushed the delta over budget,
    /// the cut can advance, and the backoff window has passed; the caller
    /// runs that seal and then calls [`Tail::back_off_if_over`].
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
    /// seal that just ran left the delta over budget.
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

/// Locks the engine's lifetime accounting.
pub(crate) fn lock_stats(stats: &Mutex<LiveStats>) -> MutexGuard<'_, LiveStats> {
    stats.lock().expect("live stats lock poisoned")
}

/// Parses one raw source record into a tick-space contact.
pub(crate) fn convert_record(
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
