//! Brute-force reachability ground truth (the paper's §3.2 reachability
//! definition, evaluated literally).
//!
//! Forward simulation of item propagation directly on per-tick contact
//! events — definition 3.4's "chain of temporally ordered contacts" by
//! construction: at every tick the infected set closes over the tick's
//! connected components (snapshot symmetry + transitivity, paper properties
//! 5.1/5.2). Quadratic-ish and memory-hungry — exists purely as the oracle
//! every index in the workspace is validated against.

use reach_core::{Contact, Coord, ObjectId, Query, QueryOutcome, Time, TimeInterval, UnionFind};
use reach_traj::TrajectoryStore;
use std::collections::HashMap;

/// Ground-truth evaluator over materialized per-tick contact events.
#[derive(Clone, Debug)]
pub struct Oracle {
    per_tick: Vec<Vec<(u32, u32)>>,
    num_objects: usize,
}

impl Oracle {
    /// Builds the oracle from a trajectory store.
    pub fn build(store: &TrajectoryStore, threshold: Coord) -> Self {
        Self {
            per_tick: crate::extract::events_by_tick(store, store.horizon_interval(), threshold),
            num_objects: store.num_objects(),
        }
    }

    /// Builds the oracle from raw per-tick events (tick `t` ↦
    /// `per_tick[t]`).
    pub fn from_events(num_objects: usize, per_tick: Vec<Vec<(u32, u32)>>) -> Self {
        Self {
            per_tick,
            num_objects,
        }
    }

    /// Builds the oracle from interval contacts over ticks `0..horizon`,
    /// expanding each contact tick by tick into the events it stands for.
    /// Shares no code with the DN builders' sweeps, so it stays an
    /// independent reference for them.
    ///
    /// # Panics
    ///
    /// Panics if a contact runs past `horizon`.
    pub fn from_contacts(num_objects: usize, horizon: Time, contacts: &[Contact]) -> Self {
        let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); horizon as usize];
        for c in contacts {
            for t in c.interval.ticks() {
                per_tick[t as usize].push((c.a.0, c.b.0));
            }
        }
        Self::from_events(num_objects, per_tick)
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Horizon covered by the recorded events.
    pub fn horizon(&self) -> Time {
        self.per_tick.len() as Time
    }

    /// Simulates propagation of an item initiated by `source` at
    /// `interval.start`. Returns the infected flags after `interval.end` and
    /// each object's infection tick. Stops early when `stop_at` gets
    /// infected.
    pub fn spread(
        &self,
        source: ObjectId,
        interval: TimeInterval,
        stop_at: Option<ObjectId>,
    ) -> (Vec<bool>, Vec<Option<Time>>) {
        let mut infected = vec![false; self.num_objects];
        let mut when: Vec<Option<Time>> = vec![None; self.num_objects];
        if source.index() >= self.num_objects {
            return (infected, when);
        }
        infected[source.index()] = true;
        when[source.index()] = Some(interval.start);
        if stop_at == Some(source) {
            return (infected, when);
        }
        let mut uf = UnionFind::new(self.num_objects);
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for t in interval.ticks() {
            let Some(pairs) = self.per_tick.get(t as usize) else {
                break; // beyond the recorded horizon nothing changes
            };
            if pairs.is_empty() {
                continue;
            }
            uf.reset();
            for &(a, b) in pairs {
                uf.union(a, b);
            }
            groups.clear();
            for &(a, b) in pairs {
                let ra = uf.find(a);
                groups.entry(ra).or_default().push(a);
                let rb = uf.find(b);
                debug_assert_eq!(ra, rb);
                groups.entry(rb).or_default().push(b);
            }
            for members in groups.values_mut() {
                members.sort_unstable();
                members.dedup();
                if members.iter().any(|&m| infected[m as usize]) {
                    for &m in members.iter() {
                        if !infected[m as usize] {
                            infected[m as usize] = true;
                            when[m as usize] = Some(t);
                            if stop_at == Some(ObjectId(m)) {
                                return (infected, when);
                            }
                        }
                    }
                }
            }
        }
        (infected, when)
    }

    /// Ground-truth answer for a reachability query.
    pub fn evaluate(&self, q: &Query) -> QueryOutcome {
        if q.source == q.dest {
            return QueryOutcome::reachable_at(q.interval.start);
        }
        let (_, when) = self.spread(q.source, q.interval, Some(q.dest));
        match when.get(q.dest.index()).copied().flatten() {
            Some(t) => QueryOutcome::reachable_at(t),
            None => QueryOutcome::UNREACHABLE,
        }
    }

    /// All objects reachable from `source` during `interval` (the batch
    /// primitive behind the paper's epidemiology / watch-list use cases).
    pub fn reachable_set(&self, source: ObjectId, interval: TimeInterval) -> Vec<ObjectId> {
        let (infected, _) = self.spread(source, interval, None);
        infected
            .iter()
            .enumerate()
            .filter(|(_, &i)| i)
            .map(|(i, _)| ObjectId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        // Figure 1 of the paper (objects o1..o4 as ids 0..3):
        // t=0: o1-o2; t=1: o2-o4, o3-o4; t=2: o1-o2, o3-o4; t=3: o1-o2.
        Oracle::from_events(
            4,
            vec![
                vec![(0, 1)],
                vec![(1, 3), (2, 3)],
                vec![(0, 1), (2, 3)],
                vec![(0, 1)],
            ],
        )
    }

    fn q(s: u32, d: u32, a: Time, b: Time) -> Query {
        Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b))
    }

    #[test]
    fn figure_1_reachability() {
        let o = oracle();
        // "o4 is reachable from o1 during [0,1]" (o1=0, o4=3).
        assert_eq!(o.evaluate(&q(0, 3, 0, 1)), QueryOutcome::reachable_at(1));
        // "o1 is NOT reachable from o4 during [0,1]".
        assert_eq!(o.evaluate(&q(3, 0, 0, 1)), QueryOutcome::UNREACHABLE);
        // o1 ~[2,3]~> o2 holds directly.
        assert!(o.evaluate(&q(0, 1, 2, 3)).reachable);
        // o4 reaches o1 during [1,3]: o4-o2 at t=1, o2-o1 at t=2.
        assert_eq!(o.evaluate(&q(3, 0, 1, 3)), QueryOutcome::reachable_at(2));
    }

    #[test]
    fn snapshot_closure_spreads_transitively_within_tick() {
        // Chain a-b, b-c, c-d in one tick: item crosses the whole chain.
        let o = Oracle::from_events(4, vec![vec![(0, 1), (1, 2), (2, 3)]]);
        let (inf, when) = o.spread(ObjectId(0), TimeInterval::new(0, 0), None);
        assert!(inf.iter().all(|&b| b));
        assert_eq!(when[3], Some(0));
    }

    #[test]
    fn item_persists_through_silent_gaps() {
        let o = Oracle::from_events(3, vec![vec![(0, 1)], vec![], vec![], vec![(1, 2)]]);
        assert_eq!(o.evaluate(&q(0, 2, 0, 3)), QueryOutcome::reachable_at(3));
        // But not if the window ends before the second contact.
        assert!(!o.evaluate(&q(0, 2, 0, 2)).reachable);
    }

    #[test]
    fn chronology_is_respected() {
        // Contact (1,2) happens before (0,1): no path 0→2.
        let o = Oracle::from_events(3, vec![vec![(1, 2)], vec![(0, 1)]]);
        assert!(!o.evaluate(&q(0, 2, 0, 1)).reachable);
        // Reverse direction works: 2→1 at t=0, then 1→0 at t=1.
        assert!(o.evaluate(&q(2, 0, 0, 1)).reachable);
    }

    #[test]
    fn self_query_is_trivially_reachable() {
        let o = oracle();
        assert_eq!(o.evaluate(&q(2, 2, 1, 3)), QueryOutcome::reachable_at(1));
    }

    #[test]
    fn interval_clipping_beyond_horizon() {
        let o = oracle();
        // Interval extends past the recorded horizon: must not panic, and
        // reachability equals that of the clipped interval.
        assert!(o.evaluate(&q(0, 3, 0, 100)).reachable);
    }

    #[test]
    fn reachable_set_matches_individual_queries() {
        let o = oracle();
        let set = o.reachable_set(ObjectId(0), TimeInterval::new(0, 3));
        for d in 0..4u32 {
            let individual = o.evaluate(&q(0, d, 0, 3)).reachable;
            assert_eq!(set.contains(&ObjectId(d)), individual, "object {d}");
        }
    }

    #[test]
    fn start_tick_matters() {
        let o = oracle();
        // o3 (id 2) reaches o2 (id 1) only via t=1 or t=2 contacts.
        assert!(o.evaluate(&q(2, 1, 1, 1)).reachable);
        assert!(!o.evaluate(&q(2, 1, 3, 3)).reachable);
    }
}
