//! Query serving over any [`ReachIndex`]: a bounded admission queue, a
//! worker pool, same-source batching, and live metrics.
//!
//! The live index (`reach_live::ShardedLive`) makes *query evaluation*
//! thread-safe; this crate adds the *service* around it — the
//! part of the ISSUE that turns a shared index into something a request
//! stream can hit:
//!
//! * **Admission control** — [`Server::submit`] enqueues onto a bounded
//!   queue and rejects immediately with [`SubmitError::QueueFull`] once
//!   the queue is at capacity. Backpressure is the caller's problem by
//!   design: a latency-bound service sheds load instead of buffering it.
//! * **Worker pool** — `workers` threads drain the queue concurrently.
//!   The index is held as `Arc<dyn ReachIndex>`, so anything behind the
//!   one index trait serves unmodified: the live index and every
//!   build-once index alike. A build-once disk index answers each query on
//!   its own cold read context, so the workers serve it in parallel and
//!   each answer counts exactly its single-threaded IO.
//! * **Same-source batching** — when a worker dequeues a plain
//!   reachability or decay-weighted job it also drains every queued job
//!   with the same source, window, and kind and answers them through one
//!   [`ReachIndex::answer_batch`] call: on the live index one frontier
//!   expansion serves a whole `Reach` cohort. The expansion's IO lands on the
//!   first answer; the rest ride free (mirroring the contract of the
//!   underlying batch path). Top-k jobs never coalesce — each ranks the
//!   whole frontier already, so there is nothing to share per-destination.
//!   The semantics of every query kind are specified in the repository's
//!   `QUERIES.md`.
//! * **Metrics** — [`Server::metrics`] snapshots queue depth, in-flight
//!   and completed counts, rejections, batched answers, and p50/p99
//!   normalized IO per query (the paper's `random + seq/20` metric).
//!
//! Shutdown is graceful: dropping the [`Server`] stops admissions, lets
//! the workers drain what was already accepted, and joins them — no
//! accepted ticket is ever abandoned.
//!
//! The `streach_serve` binary (this crate's `src/bin`) wires the loop to
//! a live index fed by a synthetic contact stream; see README "Serving".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use reach_core::{
    Answer, IndexError, ObjectId, QueryKind, ReachIndex, ReachRequest, TimeInterval, SEQ_PER_RANDOM,
};
use reach_obs::{now_ticks, Histogram, Obs, Registry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};

/// Service knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue (minimum 1).
    pub workers: usize,
    /// Jobs the queue holds before [`Server::submit`] rejects.
    pub queue_capacity: usize,
    /// Most queries one [`ReachIndex::answer_batch`] call may coalesce.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            max_batch: 64,
        }
    }
}

/// Why [`Server::submit`] refused a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity; retry later or shed the query.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "serve queue full ({capacity} jobs)")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for IndexError {
    fn from(e: SubmitError) -> Self {
        IndexError::Io(e.to_string())
    }
}

/// A pending answer: returned by [`Server::submit`], redeemed with
/// [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Answer, IndexError>>,
}

impl Ticket {
    /// Blocks until the worker pool answers. Accepted tickets are always
    /// answered, even across shutdown (drain-then-join).
    pub fn wait(self) -> Result<Answer, IndexError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(IndexError::Io("serve worker dropped the reply".into())))
    }
}

/// One queued request plus its reply channel.
struct Job {
    request: ReachRequest,
    reply: mpsc::Sender<Result<Answer, IndexError>>,
    /// Admission tick ([`now_ticks`]), source of the queue-wait histogram.
    submitted: u64,
    /// Open `serve/queue` span covering admission-to-claim; dropped (and
    /// thereby recorded) the moment a worker claims the job. `None` on an
    /// untraced request.
    queue_span: Option<reach_obs::Span>,
}

/// Queue state behind the admission lock.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    index: Arc<dyn ReachIndex>,
    config: ServeConfig,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    in_flight: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    batched: AtomicU64,
    /// Normalized IO of every completed answer, recorded fixed-point as
    /// `random * 20 + seq` (exact, no floats on the hot path); source for
    /// the percentile gauges.
    io_hist: Arc<Histogram>,
    /// Microseconds each job waited in the queue before a worker claimed
    /// it (wall clock — excluded from the deterministic perf gate).
    queue_wait: Arc<Histogram>,
    /// Microseconds each job spent being evaluated (wall clock — excluded
    /// from the deterministic perf gate).
    service_time: Arc<Histogram>,
    /// Observability bundle, when started through
    /// [`Server::start_observed`]: mints per-query tracers and receives
    /// slow-query reports.
    obs: Option<Arc<Obs>>,
}

impl Shared {
    fn queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().expect("serve queue poisoned")
    }

    /// Delivers one claimed job's result: counts it, feeds the wall-clock
    /// histograms and (when observed) the slow-query log, lowers the
    /// in-flight gauge, and only then replies — so a caller whose `wait`
    /// has returned never sees its own job still in flight.
    fn deliver(&self, job: Job, result: Result<Answer, IndexError>, claim: u64, done: u64) {
        let served_ns = done.saturating_sub(claim);
        match &result {
            Ok(a) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.io_hist
                    .record(a.stats.random_ios * SEQ_PER_RANDOM + a.stats.seq_ios);
            }
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.queue_wait
            .record(claim.saturating_sub(job.submitted) / 1_000);
        self.service_time.record(served_ns / 1_000);
        if let (Some(obs), Ok(a)) = (&self.obs, &result) {
            obs.observe_query(
                job.request.trace.trace_id(),
                &job.request.trace_label(),
                a.stats.random_ios + a.stats.seq_ios,
                served_ns,
            );
        }
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        let _ = job.reply.send(result);
    }
}

/// Point-in-time service gauges (see [`Server::metrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeMetrics {
    /// Jobs admitted but not yet claimed by a worker.
    pub queue_depth: usize,
    /// Jobs a worker is evaluating right now.
    pub in_flight: u64,
    /// Answers delivered successfully.
    pub completed: u64,
    /// Requests that evaluated to an error.
    pub failed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Answers served off another query's frontier expansion.
    pub batched: u64,
    /// Median normalized IO per completed query. Computed by nearest rank
    /// over the shared log-bucketed histogram: the reported value is the
    /// matching bucket's inclusive upper bound, an overestimate of the
    /// true rank value by at most 12.5 % (exact below 0.4 normalized IO).
    pub p50_normalized_io: f64,
    /// 99th-percentile normalized IO per completed query (same nearest-
    /// rank bound as [`ServeMetrics::p50_normalized_io`]).
    pub p99_normalized_io: f64,
    /// Median queue wait in microseconds (wall clock, admission to claim).
    pub p50_queue_wait_us: u64,
    /// 99th-percentile queue wait in microseconds.
    pub p99_queue_wait_us: u64,
    /// Median service time in microseconds (wall clock, claim to reply).
    pub p50_service_time_us: u64,
    /// 99th-percentile service time in microseconds.
    pub p99_service_time_us: u64,
}

/// A query service over any [`ReachIndex`] (see the module docs).
///
/// Dropping the server stops admissions, drains the accepted backlog, and
/// joins the workers.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("index", &self.shared.index.name())
            .field("workers", &self.workers.len())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl Server {
    /// Starts `config.workers` threads serving `index`.
    pub fn start(index: Arc<dyn ReachIndex>, config: ServeConfig) -> Result<Self, IndexError> {
        Self::launch(index, config, None)
    }

    /// Starts an *observed* server: per-query tracers are minted from
    /// `obs` at admission (when its config traces), the shared histograms
    /// register under `serve_*` in its registry, completed jobs feed its
    /// slow-query log, and a worker panic dumps its flight recorder to
    /// stderr before the panic propagates.
    pub fn start_observed(
        index: Arc<dyn ReachIndex>,
        config: ServeConfig,
        obs: Arc<Obs>,
    ) -> Result<Self, IndexError> {
        Self::launch(index, config, Some(obs))
    }

    fn launch(
        index: Arc<dyn ReachIndex>,
        config: ServeConfig,
        obs: Option<Arc<Obs>>,
    ) -> Result<Self, IndexError> {
        // When observed, the histograms live in the registry (so the
        // exposition sees them); otherwise they are private to the server.
        let (io_hist, queue_wait, service_time) = match &obs {
            Some(obs) => {
                let r = obs.registry();
                (
                    r.histogram("serve_normalized_io_x20"),
                    r.histogram("serve_queue_wait_us"),
                    r.histogram("serve_service_time_us"),
                )
            }
            None => Default::default(),
        };
        let shared = Arc::new(Shared {
            index,
            config,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            io_hist,
            queue_wait,
            service_time,
            obs,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("streach-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| IndexError::Io(format!("spawn serve worker: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shared, workers })
    }

    /// The index being served.
    pub fn index(&self) -> &Arc<dyn ReachIndex> {
        &self.shared.index
    }

    /// Admits one request, or rejects it if the queue is full. The
    /// returned [`Ticket`] blocks until a worker answers.
    pub fn submit(&self, mut request: ReachRequest) -> Result<Ticket, SubmitError> {
        // An observed server traces every admitted query that did not
        // arrive with a tracer of its own.
        if let Some(obs) = &self.shared.obs {
            if !request.trace.is_enabled() {
                request.trace = obs.tracer();
            }
        }
        let mut q = self.shared.queue();
        if q.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if q.jobs.len() >= self.shared.config.queue_capacity {
            drop(q);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                capacity: self.shared.config.queue_capacity,
            });
        }
        let (tx, rx) = mpsc::channel();
        let queue_span = request.trace.is_enabled().then(|| {
            let mut s = request.trace.span("serve/queue");
            s.label_with(|| request.trace_label());
            s
        });
        q.jobs.push_back(Job {
            request,
            reply: tx,
            submitted: now_ticks(),
            queue_span,
        });
        drop(q);
        self.shared.work_ready.notify_one();
        Ok(Ticket { rx })
    }

    /// Submits a plain reachability query and waits for its answer
    /// (admission failures surface as [`IndexError::Io`]).
    pub fn query(
        &self,
        source: ObjectId,
        window: TimeInterval,
        dest: ObjectId,
    ) -> Result<Answer, IndexError> {
        self.submit(ReachRequest::reach(source, window, dest))?
            .wait()
    }

    /// Snapshots the service gauges. Percentiles are nearest-rank reads of
    /// the shared log-bucketed histograms (see the [`ServeMetrics`] field
    /// docs for the error bound); zero until something completes.
    pub fn metrics(&self) -> ServeMetrics {
        let queue_depth = self.shared.queue().jobs.len();
        let io = &self.shared.io_hist;
        ServeMetrics {
            queue_depth,
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            batched: self.shared.batched.load(Ordering::Relaxed),
            p50_normalized_io: io.quantile(0.50) as f64 / SEQ_PER_RANDOM as f64,
            p99_normalized_io: io.quantile(0.99) as f64 / SEQ_PER_RANDOM as f64,
            p50_queue_wait_us: self.shared.queue_wait.quantile(0.50),
            p99_queue_wait_us: self.shared.queue_wait.quantile(0.99),
            p50_service_time_us: self.shared.service_time.quantile(0.50),
            p99_service_time_us: self.shared.service_time.quantile(0.99),
        }
    }

    /// Publishes the current service gauges into `registry` under
    /// `serve_*` names (the histograms are already registered there when
    /// the server was started observed — this adds the scalar gauges the
    /// exposition and JSON snapshot read).
    pub fn publish_metrics(&self, registry: &Registry) {
        let m = self.metrics();
        registry.set_gauge("serve_queue_depth", m.queue_depth as u64);
        registry.set_gauge("serve_in_flight", m.in_flight);
        registry.set_gauge("serve_completed", m.completed);
        registry.set_gauge("serve_failed", m.failed);
        registry.set_gauge("serve_rejected", m.rejected);
        registry.set_gauge("serve_batched", m.batched);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.queue().shutdown = true;
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims jobs until shutdown *and* an empty queue (accepted jobs are
/// always served). Each claim may pull a same-source cohort along.
fn worker_loop(shared: &Shared) {
    // If this worker panics, dump the flight recorder before unwinding:
    // the recent span events are exactly the context the panic destroys.
    struct PanicDump<'a>(&'a Shared);
    impl Drop for PanicDump<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Some(rec) = self.0.obs.as_ref().and_then(|o| o.recorder()) {
                    eprintln!(
                        "streach serve worker panicked; flight recorder follows\n{}",
                        rec.dump_text()
                    );
                }
            }
        }
    }
    let _dump = PanicDump(shared);
    loop {
        let (mut job, mut cohort) = {
            let mut q = shared.queue();
            let job = loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_ready.wait(q).expect("serve queue poisoned");
            };
            let cohort = drain_cohort(&mut q, &job, shared.config.max_batch);
            (job, cohort)
        };
        // Claiming ends every queue-wait span: admission-to-claim is what
        // the queue-wait histogram measures.
        let claim = now_ticks();
        drop(job.queue_span.take());
        for j in cohort.iter_mut() {
            drop(j.queue_span.take());
        }
        shared
            .in_flight
            .fetch_add(1 + cohort.len() as u64, Ordering::Relaxed);
        if cohort.is_empty() {
            let result = {
                let mut serve_span = job.request.trace.span("serve/serve");
                serve_span.label_with(|| job.request.trace_label());
                shared.index.answer(&job.request)
            };
            shared.deliver(job, result, claim, now_ticks());
        } else {
            serve_batch(shared, job, cohort, claim);
        }
    }
}

/// Whether `kind` is a per-destination verdict a batch call can coalesce.
/// Top-k ranks the whole frontier per job, so cohorting it shares nothing.
fn batchable(kind: &QueryKind) -> bool {
    matches!(kind, QueryKind::Reach | QueryKind::Decay { .. })
}

/// Removes every queued batchable job sharing `job`'s source, window, and
/// kind (up to `max_batch` total), preserving queue order for the rest.
fn drain_cohort(q: &mut QueueState, job: &Job, max_batch: usize) -> Vec<Job> {
    let mut cohort = Vec::new();
    if !batchable(&job.request.kind) {
        return cohort;
    }
    let (source, window) = (job.request.query.source, job.request.query.interval);
    let mut i = 0;
    while i < q.jobs.len() && 1 + cohort.len() < max_batch {
        let r = &q.jobs[i].request;
        if r.kind == job.request.kind && r.query.source == source && r.query.interval == window {
            cohort.push(q.jobs.remove(i).expect("index checked above"));
        } else {
            i += 1;
        }
    }
    cohort
}

/// Answers a same-source cohort through one [`ReachIndex::answer_batch`]
/// call on the leader's request.
///
/// The leader's trace records a `serve/cohort` span carrying the cohort
/// size as its seed count; the batch call records its own spans under it
/// on the same tracer (on the live index: one `shard/leg` span per sealed
/// leg of a `Reach` cohort's shared walk, whose IO lands on the first
/// answer).
fn serve_batch(shared: &Shared, job: Job, cohort: Vec<Job>, claim: u64) {
    let template = job.request.clone();
    let mut cohort_span = template.trace.span("serve/cohort");
    cohort_span.set_seeds(1 + cohort.len() as u64);
    cohort_span.label_with(|| format!("{} x{}", template.trace_label(), 1 + cohort.len()));
    let jobs: Vec<Job> = std::iter::once(job).chain(cohort).collect();
    let dests: Vec<ObjectId> = jobs.iter().map(|j| j.request.query.dest).collect();
    let batch = shared.index.answer_batch(&template, &dests);
    cohort_span.finish();
    let done = now_ticks();
    match batch {
        Ok(answers) => {
            debug_assert_eq!(answers.len(), jobs.len());
            shared
                .batched
                .fetch_add(jobs.len() as u64 - 1, Ordering::Relaxed);
            for (j, a) in jobs.into_iter().zip(answers) {
                shared.deliver(j, Ok(a), claim, done);
            }
        }
        Err(e) => {
            // A cohort-wide failure (e.g. the window slid past the
            // horizon) reports to every member.
            for j in jobs {
                shared.deliver(j, Err(e.clone()), claim, done);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::{IndexError, Query, QueryOutcome, QueryResult, QueryStats};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// Reachable iff `source < dest`; counts point and batch calls and can
    /// hold every worker at a gate to make queueing deterministic.
    #[derive(Debug, Default)]
    struct Probe {
        point_calls: AtomicU64,
        batch_calls: AtomicU64,
        entered: AtomicU64,
        gate: AtomicBool,
    }

    impl Probe {
        fn verdict(q: &Query) -> QueryResult {
            QueryResult {
                outcome: if q.source.0 < q.dest.0 {
                    QueryOutcome::reachable_at(q.interval.start)
                } else {
                    QueryOutcome::UNREACHABLE
                },
                stats: QueryStats {
                    random_ios: u64::from(q.dest.0),
                    ..QueryStats::default()
                },
            }
        }

        fn hold(&self) {
            while self.gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl ReachIndex for Probe {
        fn name(&self) -> &'static str {
            "Probe"
        }

        fn evaluate(&self, q: &Query) -> Result<QueryResult, IndexError> {
            Ok(Self::verdict(q))
        }

        fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
            if !batchable(&request.kind) {
                return Err(request.unsupported(self.name()));
            }
            self.entered.fetch_add(1, Ordering::Release);
            self.hold();
            self.point_calls.fetch_add(1, Ordering::Relaxed);
            self.evaluate(&request.query).map(Answer::from)
        }

        fn answer_batch(
            &self,
            template: &ReachRequest,
            dests: &[ObjectId],
        ) -> Result<Vec<Answer>, IndexError> {
            self.entered.fetch_add(1, Ordering::Release);
            self.hold();
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            let q = &template.query;
            Ok(dests
                .iter()
                .map(|&d| Answer::from(Self::verdict(&Query::new(q.source, d, q.interval))))
                .collect())
        }
    }

    fn server(probe: &Arc<Probe>, config: ServeConfig) -> Server {
        Server::start(Arc::clone(probe) as Arc<dyn ReachIndex>, config).expect("server starts")
    }

    #[test]
    fn answers_flow_through_the_pool() {
        let probe = Arc::new(Probe::default());
        let srv = server(&probe, ServeConfig::default());
        let w = TimeInterval::new(0, 9);
        let tickets: Vec<Ticket> = (0..8u32)
            .map(|d| {
                srv.submit(ReachRequest::reach(
                    ObjectId(0),
                    TimeInterval::new(d, d + 1),
                    ObjectId(d),
                ))
                .expect("admitted")
            })
            .collect();
        for (d, t) in tickets.into_iter().enumerate() {
            let a = t.wait().expect("answered");
            assert_eq!(a.reachable(), 0 < d as u32);
        }
        assert!(srv
            .query(ObjectId(1), w, ObjectId(3))
            .expect("query")
            .reachable());
        let m = srv.metrics();
        assert_eq!(m.completed, 9);
        assert_eq!(m.rejected, 0);
    }

    #[test]
    fn full_queue_rejects_at_admission() {
        let probe = Arc::new(Probe::default());
        probe.gate.store(true, Ordering::Release);
        let srv = server(
            &probe,
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                max_batch: 1,
            },
        );
        let w = TimeInterval::new(0, 5);
        // The gated worker claims one job; two more fill the queue; the
        // next admission must be refused without blocking.
        let mut tickets = Vec::new();
        let mut rejected = None;
        for d in 1..10u32 {
            match srv.submit(ReachRequest::reach(ObjectId(0), w, ObjectId(d))) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
            // Let the worker claim the first job so capacity is exact.
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rejected, Some(SubmitError::QueueFull { capacity: 2 }));
        assert!(srv.metrics().rejected >= 1);
        probe.gate.store(false, Ordering::Release);
        for t in tickets {
            t.wait().expect("gated jobs answered after release");
        }
    }

    #[test]
    fn same_source_jobs_coalesce_into_one_batch() {
        let probe = Arc::new(Probe::default());
        probe.gate.store(true, Ordering::Release);
        let srv = server(
            &probe,
            ServeConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 64,
            },
        );
        let w = TimeInterval::new(0, 9);
        // Plug the single worker: submit one foreign-source job and wait
        // until the worker is provably inside it, so the whole cohort
        // queues up behind the gate and must coalesce into one batch.
        let foreign = srv
            .submit(ReachRequest::reach(ObjectId(7), w, ObjectId(1)))
            .expect("admitted");
        while probe.entered.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let tickets: Vec<Ticket> = (1..6u32)
            .map(|d| {
                srv.submit(ReachRequest::reach(ObjectId(0), w, ObjectId(d)))
                    .expect("admitted")
            })
            .collect();
        probe.gate.store(false, Ordering::Release);
        for (i, t) in tickets.into_iter().enumerate() {
            let a = t.wait().expect("cohort answered");
            assert!(a.reachable(), "0 -> {} in cohort", i + 1);
        }
        assert!(!foreign.wait().expect("foreign answered").reachable());
        let m = srv.metrics();
        // The plug is a point call; the five-job cohort coalesces.
        assert_eq!(m.batched, 4, "batched = {}", m.batched);
        assert_eq!(probe.batch_calls.load(Ordering::Relaxed), 1);
        assert_eq!(m.completed, 6);
    }

    #[test]
    fn decay_jobs_coalesce_through_answer_batch() {
        let probe = Arc::new(Probe::default());
        probe.gate.store(true, Ordering::Release);
        let srv = server(
            &probe,
            ServeConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 64,
            },
        );
        let w = TimeInterval::new(0, 9);
        let model = reach_core::DecayModel::per_transfer(0.5);
        // Plug the single worker so the decay cohort queues behind the gate.
        let foreign = srv
            .submit(ReachRequest::reach(ObjectId(7), w, ObjectId(1)))
            .expect("admitted");
        while probe.entered.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let tickets: Vec<Ticket> = (1..6u32)
            .map(|d| {
                srv.submit(ReachRequest::decay(
                    ObjectId(0),
                    w,
                    ObjectId(d),
                    0.25,
                    model,
                ))
                .expect("admitted")
            })
            .collect();
        probe.gate.store(false, Ordering::Release);
        for (i, t) in tickets.into_iter().enumerate() {
            let a = t.wait().expect("cohort answered");
            assert!(a.reachable(), "0 -> {} in decay cohort", i + 1);
        }
        assert!(!foreign.wait().expect("foreign answered").reachable());
        let m = srv.metrics();
        assert_eq!(m.batched, 4, "batched = {}", m.batched);
        assert_eq!(probe.batch_calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn percentiles_track_completed_io() {
        let probe = Arc::new(Probe::default());
        let srv = server(
            &probe,
            ServeConfig {
                workers: 2,
                queue_capacity: 256,
                max_batch: 1,
            },
        );
        // random_ios == dest id, so the sample set is 1..=100.
        let tickets: Vec<Ticket> = (1..=100u32)
            .map(|d| {
                srv.submit(ReachRequest::reach(
                    ObjectId(0),
                    TimeInterval::new(d, d + 1),
                    ObjectId(d),
                ))
                .expect("admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("answered");
        }
        let m = srv.metrics();
        assert_eq!(m.completed, 100);
        assert!(
            (m.p50_normalized_io - 51.0).abs() <= 1.0,
            "p50 = {}",
            m.p50_normalized_io
        );
        assert!(m.p99_normalized_io >= 99.0, "p99 = {}", m.p99_normalized_io);
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let probe = Arc::new(Probe::default());
        probe.gate.store(true, Ordering::Release);
        let srv = server(
            &probe,
            ServeConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 1,
            },
        );
        let w = TimeInterval::new(0, 5);
        let tickets: Vec<Ticket> = (1..5u32)
            .map(|d| {
                srv.submit(ReachRequest::reach(ObjectId(0), w, ObjectId(d)))
                    .expect("admitted")
            })
            .collect();
        let probe2 = Arc::clone(&probe);
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            probe2.gate.store(false, Ordering::Release);
        });
        drop(srv); // blocks until the backlog drains
        release.join().expect("release thread");
        for t in tickets {
            t.wait().expect("accepted ticket answered across shutdown");
        }
    }

    #[test]
    fn observed_server_mints_tracers_and_feeds_the_registry() {
        let probe = Arc::new(Probe::default());
        let obs = Arc::new(reach_obs::Obs::default());
        let srv = Server::start_observed(
            Arc::clone(&probe) as Arc<dyn ReachIndex>,
            ServeConfig::default(),
            Arc::clone(&obs),
        )
        .expect("observed server starts");
        for d in 1..=20u32 {
            srv.query(ObjectId(0), TimeInterval::new(0, 9), ObjectId(d))
                .expect("answered");
        }
        // Minted tracers mirror finished spans into the flight recorder.
        let rec = obs.recorder().expect("default bundle has a recorder");
        assert!(rec.recorded() > 0, "serve spans reached the recorder");
        // The shared histograms live in the registry and saw every answer.
        let io = obs.registry().histogram("serve_normalized_io_x20");
        assert_eq!(io.count(), 20);
        assert_eq!(
            obs.registry().histogram("serve_service_time_us").count(),
            20
        );
        assert_eq!(obs.registry().histogram("serve_queue_wait_us").count(), 20);
        // Publishing makes the scalar gauges visible in the exposition.
        srv.publish_metrics(obs.registry());
        let text = obs.registry().expose_text();
        assert!(text.contains("serve_completed 20"), "{text}");
        assert!(text.contains("serve_normalized_io_x20_count 20"), "{text}");
    }

    #[test]
    fn caller_supplied_tracer_sees_the_serve_span_tree() {
        let probe = Arc::new(Probe::default());
        let srv = server(&probe, ServeConfig::default());
        let t = reach_obs::Tracer::enabled(99);
        let req = ReachRequest::reach(ObjectId(0), TimeInterval::new(0, 9), ObjectId(5))
            .with_trace(t.clone());
        srv.submit(req).expect("admitted").wait().expect("answered");
        let names: Vec<&str> = t.events().iter().map(|e| e.name).collect();
        assert!(names.contains(&"serve/queue"), "{names:?}");
        assert!(names.contains(&"serve/serve"), "{names:?}");
        let events = t.events();
        let queue = events.iter().find(|e| e.name == "serve/queue").unwrap();
        let serve = events.iter().find(|e| e.name == "serve/serve").unwrap();
        assert_eq!(queue.parent, 0, "queue span is a root");
        assert_eq!(serve.parent, 0, "serve span is a sibling, not a child");
        assert!(queue.label.contains("reach 0->5"), "{}", queue.label);
    }

    #[test]
    fn wall_clock_percentiles_populate_after_service() {
        let probe = Arc::new(Probe::default());
        let srv = server(&probe, ServeConfig::default());
        for d in 1..=10u32 {
            srv.query(ObjectId(0), TimeInterval::new(0, 9), ObjectId(d))
                .expect("answered");
        }
        let m = srv.metrics();
        // Wall-clock values are nondeterministic; only shape is asserted.
        assert!(m.p99_queue_wait_us >= m.p50_queue_wait_us);
        assert!(m.p99_service_time_us >= m.p50_service_time_us);
    }

    #[test]
    fn foreign_kinds_report_per_job() {
        let probe = Arc::new(Probe::default());
        let srv = server(&probe, ServeConfig::default());
        let req = ReachRequest::reach(ObjectId(0), TimeInterval::new(0, 1), ObjectId(1))
            .with_kind(QueryKind::NonImmediate);
        let err = srv
            .submit(req)
            .expect("admitted")
            .wait()
            .expect_err("kind unsupported");
        assert!(matches!(err, IndexError::Unsupported(_)), "{err}");
        assert_eq!(srv.metrics().failed, 1);
    }

    /// The gauge drops before the reply goes out: once every ticket of a
    /// round has returned from `wait` (a lone job, a four-job cohort and a
    /// failing job), nothing is in flight.
    #[test]
    fn nothing_is_in_flight_once_every_ticket_answered() {
        let probe = Arc::new(Probe::default());
        let srv = server(
            &probe,
            ServeConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 16,
            },
        );
        let w = TimeInterval::new(0, 9);
        for round in 0..200u64 {
            // Hold the worker inside a lone job while the cohort queues.
            probe.gate.store(true, Ordering::Release);
            let mut tickets = vec![srv
                .submit(ReachRequest::reach(ObjectId(7), w, ObjectId(1)))
                .expect("admitted")];
            while probe.entered.load(Ordering::Acquire) < 2 * round + 1 {
                std::thread::yield_now();
            }
            for d in 1..5u32 {
                let req = ReachRequest::reach(ObjectId(0), w, ObjectId(d));
                tickets.push(srv.submit(req).expect("admitted"));
            }
            let failing =
                ReachRequest::reach(ObjectId(0), w, ObjectId(1)).with_kind(QueryKind::NonImmediate);
            tickets.push(srv.submit(failing).expect("admitted"));
            probe.gate.store(false, Ordering::Release);
            for t in tickets {
                let _ = t.wait();
            }
            assert_eq!(srv.metrics().in_flight, 0, "round {round}");
        }
        let m = srv.metrics();
        assert_eq!((m.completed, m.failed, m.batched), (1000, 200, 600));
    }
}
