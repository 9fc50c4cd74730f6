//! The one query surface: typed requests and the one index trait, the
//! only way to query any index in the workspace.
//!
//! * [`ReachRequest`] / [`QueryKind`] — a typed request envelope. The
//!   kind field is `#[non_exhaustive]` on purpose: the decay and top-k
//!   variants (Strzheletska & Tsotras, PAPERS.md) joined after the
//!   boolean kinds without breaking the trait, and future kinds are
//!   expected to do the same. The full semantics contract for every
//!   kind lives in the repository's `QUERIES.md`.
//! * [`ReachIndex`] — the one index trait (`&self`, `Send + Sync`). An
//!   index is an immutable image; each query opens its own read context
//!   (for a disk index: a pager on a fresh device handle, started cold as
//!   the paper's §6 cost model charges it), so many threads query one
//!   index at once and each counts exactly the IO it would alone. The
//!   provided [`ReachIndex::answer`] routes [`QueryKind::Reach`] to
//!   [`ReachIndex::evaluate`] and rejects kinds the index does not speak;
//!   indexes with richer semantics (decay, the §7 extensions) override it.
//!   Every index admits a query through [`Query::admit`] before it walks.
use crate::decay::{DecayModel, RankDirection, Ranked};
use crate::error::IndexError;
use crate::ids::ObjectId;
use crate::query::{Query, QueryResult, QueryStats};
use crate::time::TimeInterval;
use reach_obs::{IoDelta, Tracer};

/// What a [`ReachRequest`] asks of the index, beyond the source /
/// destination / window triple.
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum QueryKind {
    /// Plain spatiotemporal reachability (paper §3.2): does a contact path
    /// exist inside the window?
    #[default]
    Reach,
    /// Probabilistic reachability over uncertain contacts (paper §7.1):
    /// reachable iff the best path probability is at least `threshold`.
    Uncertain {
        /// Minimum acceptable path probability in `[0, 1]`.
        threshold: f64,
    },
    /// Reachability over non-immediate (latent) transmissions (paper §7.2).
    NonImmediate,
    /// Decay-weighted reachability (Strzheletska & Tsotras, PAPERS.md):
    /// reachable iff the best path weight under `model` is at least
    /// `theta`.
    Decay {
        /// Minimum acceptable path weight in `(0, 1]`.
        theta: f64,
        /// The decay model weighting each path.
        model: DecayModel,
    },
    /// Top-k ranked decay reachability: the `k` objects with the highest
    /// best-path weight from (or to) the request's source. The request's
    /// `dest` field is ignored; [`Answer::ranking`] carries the result.
    TopK {
        /// How many objects to rank.
        k: usize,
        /// The decay model weighting each path.
        model: DecayModel,
        /// Forward (`reachable`) or reverse (`reaching`) ranking.
        direction: RankDirection,
    },
}

impl QueryKind {
    /// Short name for reports and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Reach => "reach",
            QueryKind::Uncertain { .. } => "uncertain",
            QueryKind::NonImmediate => "non-immediate",
            QueryKind::Decay { .. } => "decay",
            QueryKind::TopK { .. } => "top-k",
        }
    }
}

/// A typed reachability request: the classic query triple plus the
/// [`QueryKind`] describing which semantics to evaluate it under.
///
/// The envelope also carries the query's [`Tracer`] — disabled (and free)
/// by default, attached via [`ReachRequest::with_trace`]. Equality ignores
/// the tracer: two requests asking the same question are equal whether or
/// not one of them is being observed.
#[derive(Clone, Debug)]
pub struct ReachRequest {
    /// Source, destination, and window.
    pub query: Query,
    /// Evaluation semantics.
    pub kind: QueryKind,
    /// Per-query trace recorder; [`Tracer::off`] unless explicitly
    /// attached. Indexes open spans on it around each evaluation phase.
    pub trace: Tracer,
}

impl PartialEq for ReachRequest {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query && self.kind == other.kind
    }
}

/// What a request evaluates to: the boolean outcome-plus-cost shape every
/// kind reports (which is what lets one harness aggregate them), plus an
/// optional ranked list that only [`QueryKind::TopK`] requests populate.
#[derive(Clone, PartialEq, Debug)]
pub struct Answer {
    /// The boolean verdict and its arrival tick (for ranked kinds:
    /// whether the ranking is non-empty, with its best arrival).
    pub outcome: crate::query::QueryOutcome,
    /// IO and traversal cost of evaluating the request.
    pub stats: QueryStats,
    /// Ranked objects, best weight first. Empty for every non-ranked
    /// kind.
    pub ranking: Vec<Ranked>,
}

impl Answer {
    /// Whether the request's verdict is positive.
    pub fn reachable(&self) -> bool {
        self.outcome.reachable
    }

    /// A point decay verdict: reachable iff a weight cleared the
    /// threshold, with the single `(weight, arrival)` witness carried in
    /// the ranking so callers can read the weight back.
    pub fn decay(dest: ObjectId, hit: Option<(f64, crate::time::Time)>, stats: QueryStats) -> Self {
        Self::ranked(
            hit.map(|(weight, arrival)| Ranked {
                object: dest,
                weight,
                arrival,
            })
            .into_iter()
            .collect(),
            stats,
        )
    }

    /// A ranked answer: outcome derived from the list head.
    pub fn ranked(ranking: Vec<Ranked>, stats: QueryStats) -> Self {
        let outcome = match ranking.first() {
            Some(best) => crate::query::QueryOutcome::reachable_at(best.arrival),
            None => crate::query::QueryOutcome::UNREACHABLE,
        };
        Self {
            outcome,
            stats,
            ranking,
        }
    }
}

impl From<QueryResult> for Answer {
    fn from(r: QueryResult) -> Self {
        Self {
            outcome: r.outcome,
            stats: r.stats,
            ranking: Vec::new(),
        }
    }
}

impl ReachRequest {
    /// A plain reachability request.
    pub fn reach(source: ObjectId, window: TimeInterval, dest: ObjectId) -> Self {
        Self {
            query: Query::new(source, dest, window),
            kind: QueryKind::Reach,
            trace: Tracer::off(),
        }
    }

    /// A decay-weighted reachability request: is `dest` reachable from
    /// `source` inside `window` with best path weight ≥ `theta`?
    pub fn decay(
        source: ObjectId,
        window: TimeInterval,
        dest: ObjectId,
        theta: f64,
        model: DecayModel,
    ) -> Self {
        Self {
            query: Query::new(source, dest, window),
            kind: QueryKind::Decay { theta, model },
            trace: Tracer::off(),
        }
    }

    /// A forward top-k request: the `k` objects most reachable *from*
    /// `anchor` inside `window`, ranked by best path weight.
    pub fn top_k_reachable(
        anchor: ObjectId,
        window: TimeInterval,
        k: usize,
        model: DecayModel,
    ) -> Self {
        Self {
            query: Query::new(anchor, anchor, window),
            kind: QueryKind::TopK {
                k,
                model,
                direction: RankDirection::Reachable,
            },
            trace: Tracer::off(),
        }
    }

    /// A reverse top-k request: the `k` objects most strongly *reaching*
    /// `anchor` inside `window`, ranked by best path weight.
    pub fn top_k_reaching(
        anchor: ObjectId,
        window: TimeInterval,
        k: usize,
        model: DecayModel,
    ) -> Self {
        Self {
            query: Query::new(anchor, anchor, window),
            kind: QueryKind::TopK {
                k,
                model,
                direction: RankDirection::Reaching,
            },
            trace: Tracer::off(),
        }
    }

    /// The same triple under different semantics.
    pub fn with_kind(mut self, kind: QueryKind) -> Self {
        self.kind = kind;
        self
    }

    /// The same request, observed: spans opened during evaluation record
    /// into `trace`. Attaching a tracer never changes counted IO — it only
    /// observes the counters evaluation computes anyway.
    pub fn with_trace(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// This request's dispatch-span label (`kind source->dest`), built
    /// only when the trace is enabled.
    pub fn trace_label(&self) -> String {
        format!(
            "{} {}->{}",
            self.kind.name(),
            self.query.source.0,
            self.query.dest.0
        )
    }

    /// The error every index returns for a kind it does not implement.
    pub fn unsupported(&self, index: &str) -> IndexError {
        IndexError::Unsupported(format!(
            "{index} does not evaluate {} requests",
            self.kind.name()
        ))
    }
}

impl From<Query> for ReachRequest {
    fn from(query: Query) -> Self {
        Self {
            query,
            kind: QueryKind::Reach,
            trace: Tracer::off(),
        }
    }
}

/// The span-recording helper every index dispatch shares: converts a
/// [`QueryStats`] cost into the span's [`IoDelta`] + visited attribution.
/// Defined here (next to the trait) so each index records the *same*
/// counters its answer reports — which is what makes per-span IO sums
/// equal per-query totals by construction.
pub fn attribute_stats(span: &mut reach_obs::Span, stats: &QueryStats) {
    if span.is_enabled() {
        span.add_io(IoDelta::reads(stats.random_ios, stats.seq_ios));
        span.add_visited(stats.visited);
    }
}

/// The index trait: what the bench harness and a multi-threaded service
/// hold.
///
/// Implementations take `&self` and must be safe to call from many
/// threads at once. A disk index answers every query on a private, cold
/// read context, so concurrent answers count exactly the IO of the same
/// answers made one at a time.
pub trait ReachIndex: Send + Sync {
    /// Short name used in reports (e.g. `"ReachGrid"`, `"GRAIL(disk)"`).
    fn name(&self) -> &'static str;

    /// Evaluates one plain reachability query.
    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError>;

    /// Evaluates one typed request. The default routes
    /// [`QueryKind::Reach`] to [`ReachIndex::evaluate`] and rejects every
    /// other kind; indexes with richer semantics override it.
    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        match request.kind {
            QueryKind::Reach => self.evaluate(&request.query).map(Answer::from),
            _ => Err(request.unsupported(self.name())),
        }
    }

    /// Evaluates many requests sharing `template`'s source, window, kind
    /// and tracer, one per destination — the serving path's batch entry
    /// for every kind. The default loops over per-destination `answer`
    /// calls; indexes that can expand the source frontier once and read
    /// many verdicts out of it override it.
    fn answer_batch(
        &self,
        template: &ReachRequest,
        dests: &[ObjectId],
    ) -> Result<Vec<Answer>, IndexError> {
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

/// A pass-through wrapper that only adds an `index/dispatch` trace span
/// around [`ReachIndex::answer`]. Every index is shared `&self` now, so
/// there is nothing to serialize; the wall-clock benchmark still names
/// this type, and it goes in the next change scoped to that benchmark.
#[derive(Debug)]
pub struct Serial<T>(T);

impl<T: ReachIndex> Serial<T> {
    /// Wraps an index.
    pub fn new(inner: T) -> Self {
        Self(inner)
    }

    /// Unwraps the index.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T: ReachIndex> ReachIndex for Serial<T> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        self.0.evaluate(query)
    }

    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        let mut span = request.trace.span("index/dispatch");
        let answer = self.0.answer(request)?;
        if span.is_enabled() {
            span.label_with(|| format!("{} {}", self.name(), request.trace_label()));
            attribute_stats(&mut span, &answer.stats);
        }
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryOutcome, QueryStats};
    use crate::time::Time;

    /// Reachable iff source < dest; arrival at the window start.
    struct Ladder;
    impl ReachIndex for Ladder {
        fn name(&self) -> &'static str {
            "Ladder"
        }
        fn evaluate(&self, q: &Query) -> Result<QueryResult, IndexError> {
            Ok(QueryResult {
                outcome: if q.source.0 < q.dest.0 {
                    QueryOutcome::reachable_at(q.interval.start)
                } else {
                    QueryOutcome::UNREACHABLE
                },
                stats: QueryStats::default(),
            })
        }
    }

    #[test]
    fn provided_answer_routes_reach_to_evaluate() {
        let idx = Ladder;
        let req = ReachRequest::reach(ObjectId(0), TimeInterval::new(2, 9), ObjectId(3));
        let a = idx.answer(&req).expect("reach answers");
        assert_eq!(a.outcome, QueryOutcome::reachable_at(2));
    }

    #[test]
    fn provided_answer_rejects_foreign_kinds() {
        let idx = Ladder;
        let req = ReachRequest::reach(ObjectId(0), TimeInterval::new(0, 1), ObjectId(1))
            .with_kind(QueryKind::Uncertain { threshold: 0.5 });
        let err = idx.answer(&req).expect_err("kind not spoken");
        assert!(matches!(err, IndexError::Unsupported(_)), "{err}");
    }

    #[test]
    fn one_index_is_shared_across_threads() {
        let shared = std::sync::Arc::new(Serial::new(Ladder));
        assert_eq!(shared.name(), "Ladder");
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    let w = TimeInterval::new(0, 10);
                    for d in 1..20u32 {
                        let request = ReachRequest::reach(ObjectId(t), w, ObjectId(d));
                        let a = shared.answer(&request).unwrap();
                        assert_eq!(a.reachable(), t < d);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn batch_default_loops_per_destination() {
        let template = ReachRequest::reach(ObjectId(2), TimeInterval::new(0, 5), ObjectId(2));
        let answers = Ladder
            .answer_batch(&template, &[ObjectId(0), ObjectId(2), ObjectId(7)])
            .expect("batch answers");
        assert_eq!(
            answers.iter().map(|a| a.reachable()).collect::<Vec<_>>(),
            vec![false, false, true]
        );
    }

    #[test]
    fn trait_is_object_safe() {
        let indexes: Vec<Box<dyn ReachIndex>> =
            vec![Box::new(Ladder), Box::new(Serial::new(Ladder))];
        let q = Query::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 1));
        for index in &indexes {
            assert!(index.evaluate(&q).expect("evaluation succeeds").reachable());
            assert_eq!(index.name(), "Ladder");
        }
    }

    #[test]
    fn request_envelope_carries_kind_and_window() {
        let req = ReachRequest::reach(ObjectId(1), TimeInterval::new(3, 4), ObjectId(2));
        assert_eq!(req.kind, QueryKind::Reach);
        assert_eq!(ReachRequest::from(req.query), req);
        assert_eq!(QueryKind::NonImmediate.name(), "non-immediate");
        let _t: Time = req.query.interval.start;
    }
}
