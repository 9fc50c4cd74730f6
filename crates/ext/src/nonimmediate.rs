//! Non-immediate contacts (paper §7).
//!
//! A non-immediate contact from `o_i` to `o_j` occurs when `o_j`'s position
//! at `t'` is within `d_T` of `o_i`'s position at an *earlier* tick `t`
//! with `t' - t ≤ T_t` — the lifetime of the item outside a carrier (the
//! paper's example: a virus left in a bus infects a later passenger).
//! Contacts become *directed* (`o_i` at `t` → `o_j` at `t'`), so the
//! component-based reductions no longer apply; as the paper notes, the
//! machinery instead joins *replicated trajectories* — each position is
//! smeared over the following `T_t` ticks — and the propagation sweep works
//! on the resulting directed events. The join sorts the replicated points
//! by `x` and probes each receiver's `x` window
//! ([`reach_traj::bipartite_pairs`]), so it finds exactly the pairs
//! [`Point::within`] accepts.

use reach_core::{
    Answer, Coord, IndexError, ObjectId, Point, Query, QueryKind, QueryOutcome, QueryResult,
    QueryStats, ReachRequest, Time, TimeInterval,
};
use reach_traj::{bipartite_pairs, TrajectoryStore};

/// A directed non-immediate contact event: the item can pass from `from`
/// (who was at the meeting point at `emit`) to `to` (who is there at
/// `receive`), `emit ≤ receive ≤ emit + T_t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectedEvent {
    /// Tick the receiving object is at the contaminated location.
    pub receive: Time,
    /// Tick the emitting object was there.
    pub emit: Time,
    /// Emitting object.
    pub from: ObjectId,
    /// Receiving object.
    pub to: ObjectId,
}

/// The replicated-trajectory join: all directed events of `store` with
/// threshold `d_T` and item lifetime `lifetime` ticks. `lifetime = 0`
/// degenerates to the symmetric immediate-contact join.
///
/// Implementation: for every receive tick `t'`, the positions at `t'` are
/// joined against the *replicated* positions — every object's samples from
/// `t' - lifetime ..= t'` — which is exactly joining the replicated
/// trajectories of the paper. The join is [`bipartite_pairs`]: the
/// replicated points are sorted by `x` once per receive tick, and each
/// receiver binary-searches its `x` window, with the same exact `f64` prune
/// as the self-join's sort-and-sweep kernel.
pub fn replicated_join(
    store: &TrajectoryStore,
    threshold: Coord,
    lifetime: Time,
) -> Vec<DirectedEvent> {
    let mut out = Vec::new();
    let horizon = store.horizon();
    if horizon == 0 {
        return out;
    }
    let mut receivers: Vec<Point> = Vec::with_capacity(store.num_objects());
    let mut replicated: Vec<Point> = Vec::new();
    let mut tags: Vec<(u32, Time)> = Vec::new();
    let mut hits: Vec<(u32, u32, Time)> = Vec::new();
    for t_recv in 0..horizon {
        let lo = t_recv.saturating_sub(lifetime);
        // Replicated positions, tagged densely by (object, emit tick).
        receivers.clear();
        replicated.clear();
        tags.clear();
        for tr in store.iter() {
            receivers.push(tr.positions[t_recv as usize]);
            for t_emit in lo..=t_recv {
                replicated.push(tr.positions[t_emit as usize]);
                tags.push((tr.object.0, t_emit));
            }
        }
        hits.clear();
        bipartite_pairs(&receivers, &replicated, threshold, |o, tag| {
            let (src, t_emit) = tags[tag as usize];
            if src != o {
                hits.push((o, src, t_emit));
            }
        });
        // Keep only the earliest emit per (from, to) pair at this receive
        // tick: it dominates all later emits.
        hits.sort_unstable();
        hits.dedup_by_key(|h| (h.0, h.1));
        for &(o, src, t_emit) in &hits {
            out.push(DirectedEvent {
                receive: t_recv,
                emit: t_emit,
                from: ObjectId(src),
                to: ObjectId(o),
            });
        }
    }
    out.sort_by_key(|e| (e.receive, e.from, e.to));
    out
}

/// Reachability evaluator over directed non-immediate events.
pub struct NonImmediateIndex {
    /// Events grouped by receive tick.
    per_tick: Vec<Vec<DirectedEvent>>,
    num_objects: usize,
}

impl NonImmediateIndex {
    /// Builds the per-tick event index.
    pub fn new(num_objects: usize, horizon: Time, events: &[DirectedEvent]) -> Self {
        let mut per_tick = vec![Vec::new(); horizon as usize];
        for &ev in events {
            if ev.receive < horizon {
                per_tick[ev.receive as usize].push(ev);
            }
        }
        Self {
            per_tick,
            num_objects,
        }
    }

    /// Builds directly from a store (join + index).
    pub fn build(store: &TrajectoryStore, threshold: Coord, lifetime: Time) -> Self {
        let events = replicated_join(store, threshold, lifetime);
        Self::new(store.num_objects(), store.horizon(), &events)
    }

    /// Infection tick per object for an item initiated by `source` at
    /// `interval.start`, propagated over directed events inside `interval`.
    /// `None` = never infected. The emitting object must have held the item
    /// by the emit tick (and the emit tick must lie inside the interval).
    pub fn spread(&self, source: ObjectId, interval: TimeInterval) -> Vec<Option<Time>> {
        let mut when: Vec<Option<Time>> = vec![None; self.num_objects];
        if source.index() >= self.num_objects {
            return when;
        }
        when[source.index()] = Some(interval.start);
        for t in interval.ticks() {
            let Some(events) = self.per_tick.get(t as usize) else {
                break;
            };
            // Same-tick chains (receive and re-emit at the same tick) need a
            // fixpoint.
            loop {
                let mut changed = false;
                for ev in events {
                    if ev.emit < interval.start || when[ev.to.index()].is_some() {
                        continue;
                    }
                    if let Some(acquired) = when[ev.from.index()] {
                        if acquired <= ev.emit {
                            when[ev.to.index()] = Some(t);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        when
    }

    /// Reachability verdict plus earliest arrival.
    pub fn reachable(
        &self,
        source: ObjectId,
        dest: ObjectId,
        interval: TimeInterval,
    ) -> (bool, Option<Time>) {
        if source == dest {
            return (true, Some(interval.start));
        }
        let when = self.spread(source, interval);
        match when.get(dest.index()).copied().flatten() {
            Some(t) => (true, Some(t)),
            None => (false, None),
        }
    }
}

impl reach_core::ReachIndex for NonImmediateIndex {
    fn name(&self) -> &'static str {
        "NonImmediate"
    }

    /// Non-immediate propagation *is* this index's native reachability
    /// semantics, so both [`QueryKind::Reach`]
    /// and [`QueryKind::NonImmediate`]
    /// requests evaluate here.
    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        let started = std::time::Instant::now();
        let window = query.admit(self.num_objects, self.per_tick.len() as Time)?;
        let (ok, earliest) = self.reachable(query.source, query.dest, window);
        Ok(QueryResult {
            outcome: QueryOutcome {
                reachable: ok,
                earliest,
            },
            stats: QueryStats {
                cpu: started.elapsed(),
                ..QueryStats::default()
            },
        })
    }

    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        match request.kind {
            QueryKind::Reach | QueryKind::NonImmediate => {
                self.evaluate(&request.query).map(Answer::from)
            }
            _ => Err(request.unsupported(self.name())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_contact::Oracle;
    use reach_core::Environment;
    use reach_traj::Trajectory;

    fn store_from_rows(rows: Vec<Vec<(f32, f32)>>) -> TrajectoryStore {
        let env = Environment::square(1000.0);
        let trajs = rows
            .into_iter()
            .enumerate()
            .map(|(i, ps)| {
                Trajectory::new(
                    ObjectId(i as u32),
                    0,
                    ps.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
                )
            })
            .collect();
        TrajectoryStore::new(env, trajs).unwrap()
    }

    /// The paper's bus scenario: o0 is at the bus stop at t=0 then leaves;
    /// o1 arrives at the same spot at t=2 — they never meet.
    fn bus_store() -> TrajectoryStore {
        store_from_rows(vec![
            vec![(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (300.0, 0.0)],
            vec![(500.0, 0.0), (400.0, 0.0), (0.5, 0.0), (0.5, 0.0)],
        ])
    }

    #[test]
    fn zero_lifetime_matches_immediate_oracle() {
        // With T_t = 0, non-immediate reachability must equal the standard
        // contact-network semantics.
        let store = store_from_rows(vec![
            vec![(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)],
            vec![(1.0, 0.0), (50.0, 0.0), (20.5, 0.0), (90.0, 0.0)],
            vec![(200.0, 0.0), (200.0, 0.0), (200.0, 0.0), (31.0, 0.0)],
        ]);
        let idx = NonImmediateIndex::build(&store, 2.0, 0);
        let oracle = Oracle::build(&store, 2.0);
        for s in 0..3u32 {
            for d in 0..3u32 {
                let iv = TimeInterval::new(0, 3);
                let q = reach_core::Query::new(ObjectId(s), ObjectId(d), iv);
                assert_eq!(
                    idx.reachable(ObjectId(s), ObjectId(d), iv).0,
                    oracle.evaluate(&q).reachable,
                    "T_t=0 disagreement for {s}→{d}"
                );
            }
        }
    }

    #[test]
    fn bus_scenario_requires_lifetime() {
        let store = bus_store();
        let iv = TimeInterval::new(0, 3);
        // Without lifetime: never in contact.
        let strict = NonImmediateIndex::build(&store, 1.0, 0);
        assert!(!strict.reachable(ObjectId(0), ObjectId(1), iv).0);
        // With a 2-tick lifetime, o1 picks the item up at t=2 from o0's
        // t=0 position.
        let loose = NonImmediateIndex::build(&store, 1.0, 2);
        let (ok, when) = loose.reachable(ObjectId(0), ObjectId(1), iv);
        assert!(ok);
        assert_eq!(when, Some(2));
        // A 1-tick lifetime is too short (gap is 2 ticks).
        let short = NonImmediateIndex::build(&store, 1.0, 1);
        assert!(!short.reachable(ObjectId(0), ObjectId(1), iv).0);
    }

    #[test]
    fn non_immediate_contacts_are_directional() {
        let store = bus_store();
        let iv = TimeInterval::new(0, 3);
        let idx = NonImmediateIndex::build(&store, 1.0, 2);
        // o0 leaves something for o1, not vice versa: o0 is never at a spot
        // o1 occupied earlier.
        assert!(idx.reachable(ObjectId(0), ObjectId(1), iv).0);
        assert!(!idx.reachable(ObjectId(1), ObjectId(0), iv).0);
    }

    #[test]
    fn lifetime_monotonicity() {
        // Larger lifetimes can only add reachability.
        let store = bus_store();
        let iv = TimeInterval::new(0, 3);
        let mut reached_before = false;
        for lifetime in 0..=3u32 {
            let idx = NonImmediateIndex::build(&store, 1.0, lifetime);
            let now = idx.reachable(ObjectId(0), ObjectId(1), iv).0;
            assert!(
                now || !reached_before,
                "reachability lost at T_t={lifetime}"
            );
            reached_before = now;
        }
    }

    #[test]
    fn emit_must_lie_inside_the_query_interval() {
        let store = bus_store();
        // Interval starting at t=1: o0's contamination at t=0 precedes the
        // item's initiation, so o1 must not be infected.
        let idx = NonImmediateIndex::build(&store, 1.0, 2);
        let (ok, _) = idx.reachable(ObjectId(0), ObjectId(1), TimeInterval::new(1, 3));
        assert!(!ok, "emission before the item existed must not count");
    }

    #[test]
    fn replicated_join_event_shape() {
        let store = bus_store();
        let events = replicated_join(&store, 1.0, 2);
        assert!(events.iter().any(|e| e.from == ObjectId(0)
            && e.to == ObjectId(1)
            && e.receive == 2
            && e.emit == 0));
        for e in &events {
            assert!(e.emit <= e.receive);
            assert!(e.receive - e.emit <= 2);
            assert_ne!(e.from, e.to);
        }
    }

    #[test]
    fn chained_relay_through_time() {
        // o0 contaminates a spot at t=0; o1 picks it up at t=1, carries it
        // and drops it at a second spot at t=2; o2 collects at t=3.
        let store = store_from_rows(vec![
            vec![(0.0, 0.0), (50.0, 50.0), (50.0, 50.0), (50.0, 50.0)],
            vec![(20.0, 0.0), (0.4, 0.0), (10.0, 0.0), (70.0, 0.0)],
            vec![(90.0, 0.0), (90.0, 0.0), (90.0, 0.0), (10.2, 0.0)],
        ]);
        let idx = NonImmediateIndex::build(&store, 1.0, 1);
        let iv = TimeInterval::new(0, 3);
        let (ok, when) = idx.reachable(ObjectId(0), ObjectId(2), iv);
        assert!(ok, "two-stage non-immediate relay must succeed");
        assert_eq!(when, Some(3));
    }
}
