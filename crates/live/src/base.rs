//! The machinery under the live engine: the one build every seal, merge,
//! and compaction runs, and the admission tail (delta + durable log)
//! appends go through.

use crate::config::{AppendOutcome, CompactionStats, LiveConfig, LiveError, LiveStats};
use crate::delta::DeltaDn;
use crate::log::AppendLog;
use reach_contact::{ChainSweep, ErrorMode, MultiRes, StreamedDn};
use reach_core::frontier::{WeightedFrontier, WeightedSeed};
use reach_core::{Contact, DecayModel, IndexError, QueryStats, Time, TimeInterval};
use reach_graph::{GraphContext, MemoryHn, ReachGraph};
use reach_storage::{BlockDevice, IoSampler};
use std::sync::{Mutex, MutexGuard};

/// The one build behind every seal, merge, and compaction: re-streams the
/// `replaced` bases (in time order) as component chains, merges the
/// delta's sealed head, and flows the union through the memory-bounded
/// streaming builders into a new ReachGraph over `[0, horizon)` on
/// `device` (spilling to `scratch`).
///
/// With no replaced base the head alone feeds the build
/// ([`StreamedDn::from_contacts`]). Otherwise every replaced base's
/// [`ChainSweep`] streams tick by tick beside the head's contact sweep (a
/// lossless summary: per-tick components equal the original trace's, each
/// shard silent outside its own span). Because DN construction depends on
/// the event stream only through per-tick components, the result is
/// byte-identical to a from-scratch build over the same records. Each
/// replaced base is read through a private cold context, so the rebuild
/// never contends with queries on a pager. Touches **no** live state —
/// the caller commits only on `Ok`, which is what makes every rebuild
/// failure-atomic.
pub(crate) fn build_base(
    replaced: &[&ReachGraph],
    sealed: &[Contact],
    num_objects: usize,
    horizon: Time,
    config: &LiveConfig,
    scratch: Box<dyn BlockDevice>,
    device: Box<dyn BlockDevice>,
) -> Result<(ReachGraph, CompactionStats), IndexError> {
    let mut stats = CompactionStats {
        watermark: horizon,
        delta_contacts: sealed.len() as u64,
        ..CompactionStats::default()
    };
    let budget = config.budget;
    let mut sdn = if replaced.is_empty() {
        StreamedDn::from_contacts(num_objects, horizon, sealed, budget, scratch)
    } else {
        let mut contexts: Vec<GraphContext<'_>> = replaced.iter().map(|g| g.context()).collect();
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
    };
    let mr = MultiRes::build(&mut sdn, &config.params.levels);
    let base = ReachGraph::build_on(device, &mut sdn, &mr, config.params.clone())?;
    stats.spill = sdn.spill_stats();
    Ok((base, stats))
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
