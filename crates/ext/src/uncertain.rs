//! Uncertain contact networks — U-ReachGraph (paper §7).
//!
//! Every contact transmits with a probability `p`; a contact path's
//! probability is the product of its contacts' probabilities, and `o_j` is
//! reachable from `o_i` during `Tp` iff a contact path of probability
//! ≥ `p_T` exists. As the paper prescribes, query processing switches from
//! BFS to *shortest-path style* search: a max-probability Dijkstra over the
//! time-respecting event structure. (Reduction step 1 is inapplicable under
//! uncertainty — members of one snapshot component are no longer
//! equivalently reachable — so the index is a per-object temporal adjacency
//! structure instead of a component DAG.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reach_core::{
    Answer, Coord, IndexError, ObjectId, Query, QueryKind, QueryOutcome, QueryResult, QueryStats,
    ReachRequest, Time, TimeInterval,
};
use reach_traj::TrajectoryStore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One uncertain contact event: `a` and `b` can exchange an item at tick
/// `t` with probability `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UncertainEvent {
    /// Event tick.
    pub t: Time,
    /// Smaller object id.
    pub a: ObjectId,
    /// Larger object id.
    pub b: ObjectId,
    /// Transmission probability in `(0, 1]`.
    pub p: f64,
}

/// Derives uncertain events from a trajectory store: proximity events get a
/// distance-dependent transmission probability
/// `p = p_max · (1 - dist/d_T)^γ` — the paper's "p depends on various
/// factors such as the distance between the individuals".
pub fn events_from_store(
    store: &TrajectoryStore,
    threshold: Coord,
    p_max: f64,
    gamma: f64,
) -> Vec<UncertainEvent> {
    let window = store.horizon_interval();
    reach_contact::extract_events(store, window, threshold)
        .into_iter()
        .map(|ev| {
            let pa = store.position(ev.a, ev.t).expect("event positions exist");
            let pb = store.position(ev.b, ev.t).expect("event positions exist");
            let frac = (pa.distance(&pb) / f64::from(threshold)).min(1.0);
            UncertainEvent {
                t: ev.t,
                a: ev.a,
                b: ev.b,
                p: (p_max * (1.0 - frac).powf(gamma)).clamp(1e-6, 1.0),
            }
        })
        .collect()
}

/// Assigns i.i.d. random probabilities in `[lo, hi]` to certain events
/// (useful for controlled experiments).
pub fn randomize_probabilities(
    events: &[(Time, u32, u32)],
    lo: f64,
    hi: f64,
    seed: u64,
) -> Vec<UncertainEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    events
        .iter()
        .map(|&(t, a, b)| UncertainEvent {
            t,
            a: ObjectId(a.min(b)),
            b: ObjectId(a.max(b)),
            p: rng.gen_range(lo..=hi),
        })
        .collect()
}

/// Ground truth: tick-forward fixpoint sweep computing, per object, the
/// best (maximum) contact-path probability of holding the item.
pub struct UncertainOracle {
    per_tick: Vec<Vec<(u32, u32, f64)>>,
    num_objects: usize,
}

impl UncertainOracle {
    /// Groups events per tick.
    pub fn new(num_objects: usize, horizon: Time, events: &[UncertainEvent]) -> Self {
        let mut per_tick = vec![Vec::new(); horizon as usize];
        for ev in events {
            if ev.t < horizon {
                per_tick[ev.t as usize].push((ev.a.0, ev.b.0, ev.p));
            }
        }
        Self {
            per_tick,
            num_objects,
        }
    }

    /// Best path probability per object for an item initiated by `source`
    /// at `interval.start`.
    pub fn best_probabilities(&self, source: ObjectId, interval: TimeInterval) -> Vec<f64> {
        let mut best = vec![0.0f64; self.num_objects];
        if source.index() >= self.num_objects {
            return best;
        }
        best[source.index()] = 1.0;
        for t in interval.ticks() {
            let Some(events) = self.per_tick.get(t as usize) else {
                break;
            };
            // Same-tick chains multiply through: iterate to fixpoint.
            loop {
                let mut changed = false;
                for &(a, b, p) in events {
                    let via_a = best[a as usize] * p;
                    if via_a > best[b as usize] {
                        best[b as usize] = via_a;
                        changed = true;
                    }
                    let via_b = best[b as usize] * p;
                    if via_b > best[a as usize] {
                        best[a as usize] = via_b;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        best
    }

    /// Probabilistic reachability verdict (`best path probability ≥ p_T`).
    pub fn reachable(
        &self,
        source: ObjectId,
        dest: ObjectId,
        interval: TimeInterval,
        p_threshold: f64,
    ) -> bool {
        self.best_probabilities(source, interval)[dest.index()] >= p_threshold
    }
}

/// U-ReachGraph: per-object temporal event adjacency + max-probability
/// Dijkstra with Pareto pruning and threshold-based early termination.
pub struct UReachGraph {
    /// Per object: `(tick, peer, probability)` ascending by tick.
    adjacency: Vec<Vec<(Time, u32, f64)>>,
    horizon: Time,
}

#[derive(Debug)]
struct State {
    prob: f64,
    object: u32,
    time: Time,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.prob == other.prob && self.object == other.object && self.time == other.time
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by probability; ties broken by earlier time.
        self.prob
            .partial_cmp(&other.prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.time.cmp(&self.time))
            .then_with(|| self.object.cmp(&other.object))
    }
}

impl UReachGraph {
    /// Builds the per-object adjacency index.
    pub fn build(num_objects: usize, horizon: Time, events: &[UncertainEvent]) -> Self {
        let mut adjacency: Vec<Vec<(Time, u32, f64)>> = vec![Vec::new(); num_objects];
        for ev in events {
            if ev.t < horizon {
                adjacency[ev.a.index()].push((ev.t, ev.b.0, ev.p));
                adjacency[ev.b.index()].push((ev.t, ev.a.0, ev.p));
            }
        }
        for adj in &mut adjacency {
            adj.sort_by_key(|&(t, peer, _)| (t, peer));
        }
        Self { adjacency, horizon }
    }

    /// Number of objects indexed.
    pub fn num_objects(&self) -> usize {
        self.adjacency.len()
    }

    /// Best contact-path probability from `source` to `dest` within
    /// `interval`, terminating early once `p_threshold` is met (returns the
    /// first qualifying probability in that case).
    ///
    /// A state `(o, t, q)` means "`o` can hold the item from tick `t` with
    /// path probability `q`"; states dominated by an earlier-or-equal
    /// acquisition with at-least-equal probability are pruned (Pareto
    /// frontier per object).
    pub fn best_probability(
        &self,
        source: ObjectId,
        dest: ObjectId,
        interval: TimeInterval,
        p_threshold: f64,
    ) -> f64 {
        let n = self.num_objects();
        let Ok(interval) = Query::new(source, dest, interval).admit(n, self.horizon) else {
            return 0.0;
        };
        if source == dest {
            return 1.0;
        }
        // Pareto frontier per object: (time, prob) pairs, time strictly
        // increasing ⇒ prob strictly increasing is NOT required; we keep
        // pairs where no other pair has time ≤ and prob ≥.
        let mut frontier: Vec<Vec<(Time, f64)>> = vec![Vec::new(); n];
        let mut best_dest = 0.0f64;
        let mut heap = BinaryHeap::new();
        frontier[source.index()].push((interval.start, 1.0));
        heap.push(State {
            prob: 1.0,
            object: source.0,
            time: interval.start,
        });
        while let Some(State { prob, object, time }) = heap.pop() {
            if prob < best_dest || prob < f64::MIN_POSITIVE {
                continue;
            }
            // Skip superseded states.
            if !frontier[object as usize]
                .iter()
                .any(|&(t, q)| t == time && q == prob)
            {
                continue;
            }
            let adj = &self.adjacency[object as usize];
            let from = adj.partition_point(|&(t, _, _)| t < time);
            for &(t, peer, p) in &adj[from..] {
                if t > interval.end {
                    break;
                }
                let q = prob * p;
                if q <= best_dest {
                    continue;
                }
                // Pareto check for (peer, t, q).
                let fr = &mut frontier[peer as usize];
                if fr.iter().any(|&(t0, q0)| t0 <= t && q0 >= q) {
                    continue;
                }
                fr.retain(|&(t0, q0)| !(t <= t0 && q >= q0));
                fr.push((t, q));
                if peer == dest.0 {
                    best_dest = best_dest.max(q);
                    if best_dest >= p_threshold {
                        return best_dest;
                    }
                }
                heap.push(State {
                    prob: q,
                    object: peer,
                    time: t,
                });
            }
        }
        best_dest
    }

    /// Probabilistic reachability verdict.
    pub fn reachable(
        &self,
        source: ObjectId,
        dest: ObjectId,
        interval: TimeInterval,
        p_threshold: f64,
    ) -> bool {
        self.best_probability(source, dest, interval, p_threshold) >= p_threshold
    }
}

impl reach_core::ReachIndex for UReachGraph {
    fn name(&self) -> &'static str {
        "U-ReachGraph"
    }

    /// Plain reachability has no meaning over uncertain contacts (a zero
    /// threshold would make every connected pair "reachable"); queries must
    /// arrive as [`QueryKind::Uncertain`]
    /// requests through [`ReachIndex::answer`](reach_core::ReachIndex::answer).
    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        Err(ReachRequest::from(*query)
            .unsupported("U-ReachGraph (plain reach; send QueryKind::Uncertain instead)"))
    }

    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        let QueryKind::Uncertain { threshold } = request.kind else {
            return Err(request.unsupported(self.name()));
        };
        if !(0.0..=1.0).contains(&threshold) {
            return Err(IndexError::Unsupported(format!(
                "probability threshold {threshold} outside [0, 1]"
            )));
        }
        let started = std::time::Instant::now();
        let q = &request.query;
        let window = q.admit(self.num_objects(), self.horizon)?;
        let outcome = if q.source == q.dest {
            QueryOutcome::reachable_at(window.start)
        } else {
            let p = self.best_probability(q.source, q.dest, window, threshold);
            if p >= threshold && p > 0.0 {
                QueryOutcome::reachable()
            } else {
                QueryOutcome::UNREACHABLE
            }
        };
        Ok(Answer::from(QueryResult {
            outcome,
            stats: QueryStats {
                cpu: started.elapsed(),
                ..QueryStats::default()
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Time, a: u32, b: u32, p: f64) -> UncertainEvent {
        UncertainEvent {
            t,
            a: ObjectId(a.min(b)),
            b: ObjectId(a.max(b)),
            p,
        }
    }

    #[test]
    fn chain_probability_multiplies() {
        let events = vec![ev(0, 0, 1, 0.8), ev(1, 1, 2, 0.5)];
        let g = UReachGraph::build(3, 4, &events);
        let iv = TimeInterval::new(0, 3);
        let p = g.best_probability(ObjectId(0), ObjectId(2), iv, 1.1);
        assert!((p - 0.4).abs() < 1e-12);
        assert!(g.reachable(ObjectId(0), ObjectId(2), iv, 0.4));
        assert!(!g.reachable(ObjectId(0), ObjectId(2), iv, 0.41));
    }

    #[test]
    fn chronology_respected_under_uncertainty() {
        // Late first hop cannot precede the early second hop.
        let events = vec![ev(2, 0, 1, 0.9), ev(1, 1, 2, 0.9)];
        let g = UReachGraph::build(3, 4, &events);
        let p = g.best_probability(ObjectId(0), ObjectId(2), TimeInterval::new(0, 3), 1.1);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn max_path_beats_shorter_lower_probability_path() {
        // Two routes 0→3: direct weak link (0.2) and a strong relay
        // (0.9 × 0.9 = 0.81).
        let events = vec![ev(0, 0, 3, 0.2), ev(1, 0, 1, 0.9), ev(2, 1, 3, 0.9)];
        let g = UReachGraph::build(4, 4, &events);
        let p = g.best_probability(ObjectId(0), ObjectId(3), TimeInterval::new(0, 3), 1.1);
        assert!((p - 0.81).abs() < 1e-12);
    }

    #[test]
    fn early_acquisition_with_lower_probability_can_still_win() {
        // Path A: acquire o1 at t=0 with p=0.3 → event at t=1 to dest (0.9).
        // Path B: acquire o1 at t=2 with p=0.95 — too late for the t=1 hop,
        // and no later hop exists. Pareto keeping both acquisitions matters.
        let events = vec![ev(0, 0, 1, 0.3), ev(1, 1, 3, 0.9), ev(2, 0, 1, 0.95)];
        let g = UReachGraph::build(4, 4, &events);
        let p = g.best_probability(ObjectId(0), ObjectId(3), TimeInterval::new(0, 3), 1.1);
        assert!((p - 0.27).abs() < 1e-12);
    }

    #[test]
    fn oracle_and_index_agree_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 6usize;
            let horizon = 30u32;
            let mut events = Vec::new();
            for t in 0..horizon {
                for a in 0..n as u32 {
                    for b in (a + 1)..n as u32 {
                        if rng.gen_bool(0.05) {
                            events.push(ev(t, a, b, rng.gen_range(0.1..=1.0)));
                        }
                    }
                }
            }
            let oracle = UncertainOracle::new(n, horizon, &events);
            let g = UReachGraph::build(n, horizon, &events);
            for s in 0..n as u32 {
                let iv = TimeInterval::new(0, horizon - 1);
                let best = oracle.best_probabilities(ObjectId(s), iv);
                for d in 0..n as u32 {
                    if s == d {
                        continue;
                    }
                    let got = g.best_probability(ObjectId(s), ObjectId(d), iv, f64::INFINITY);
                    assert!(
                        (got - best[d as usize]).abs() < 1e-9,
                        "seed {seed}: best prob {s}→{d}: index {got} vs oracle {}",
                        best[d as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn early_termination_on_threshold() {
        let events = vec![ev(0, 0, 1, 0.9), ev(1, 1, 2, 0.9)];
        let g = UReachGraph::build(3, 4, &events);
        // Threshold met by the first hop already: returns promptly with a
        // qualifying (not necessarily maximal) probability.
        let p = g.best_probability(ObjectId(0), ObjectId(1), TimeInterval::new(0, 3), 0.5);
        assert!(p >= 0.5);
    }

    #[test]
    fn events_from_store_scale_with_distance() {
        use reach_core::{Environment, Point};
        use reach_traj::Trajectory;
        let env = Environment::square(100.0);
        let trajs = vec![
            Trajectory::new(ObjectId(0), 0, vec![Point::new(0.0, 0.0); 2]),
            Trajectory::new(
                ObjectId(1),
                0,
                vec![Point::new(1.0, 0.0), Point::new(9.0, 0.0)],
            ),
        ];
        let store = TrajectoryStore::new(env, trajs).unwrap();
        let events = events_from_store(&store, 10.0, 1.0, 1.0);
        assert_eq!(events.len(), 2);
        // Closer contact at t=0 → higher probability than the t=1 contact.
        assert!(events[0].p > events[1].p);
    }

    #[test]
    fn randomized_probabilities_in_range() {
        let evs = randomize_probabilities(&[(0, 0, 1), (1, 1, 2)], 0.25, 0.75, 7);
        assert_eq!(evs.len(), 2);
        for e in &evs {
            assert!(e.p >= 0.25 && e.p <= 0.75);
        }
        // Deterministic per seed.
        assert_eq!(
            randomize_probabilities(&[(0, 0, 1)], 0.2, 0.8, 3)[0].p,
            randomize_probabilities(&[(0, 0, 1)], 0.2, 0.8, 3)[0].p
        );
    }

    #[test]
    fn threshold_one_requires_certain_path() {
        let events = vec![ev(0, 0, 1, 1.0), ev(1, 1, 2, 0.99)];
        let g = UReachGraph::build(3, 4, &events);
        let iv = TimeInterval::new(0, 3);
        assert!(g.reachable(ObjectId(0), ObjectId(1), iv, 1.0));
        assert!(!g.reachable(ObjectId(0), ObjectId(2), iv, 1.0));
    }
}
