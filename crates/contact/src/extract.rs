//! Contact extraction: from trajectories to contact events and contacts
//! (paper §4).
//!
//! A contact network is materialized by a spatiotemporal self-join of the
//! trajectory set: objects within the threshold `d_T` at a tick are in
//! contact. Events arrive in tick order, which both the TEN/DN builders and
//! the oracle consume directly. This is one of the two roads into the
//! contact network — the other is [`crate::ingest`], which loads the same
//! maximal [`Contact`]s from real trace files with no trajectories at all.

use reach_core::{Contact, ContactAccumulator, ContactEvent, Coord, Time, TimeInterval};
use reach_traj::{sweep_join, window_self_join, TrajectoryStore};

/// All instantaneous proximity events of `store` during `window`, in tick
/// order.
pub fn extract_events(
    store: &TrajectoryStore,
    window: TimeInterval,
    threshold: Coord,
) -> Vec<ContactEvent> {
    window_self_join(store, window, threshold)
}

/// Events grouped per tick: `result[t - window.start]` holds the pairs in
/// contact at tick `t` (normalized `a < b`). The dense layout is what the
/// per-tick component computation wants.
pub fn events_by_tick(
    store: &TrajectoryStore,
    window: TimeInterval,
    threshold: Coord,
) -> Vec<Vec<(u32, u32)>> {
    let Some(window_clipped) = window.intersect(&store.horizon_interval()) else {
        return Vec::new();
    };
    let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); window_clipped.len() as usize];
    sweep_join(store, window_clipped, threshold, |ev| {
        per_tick[(ev.t - window_clipped.start) as usize].push((ev.a.0, ev.b.0));
        true
    });
    per_tick
}

/// The contact network `C` of `store` during `window`: maximal-validity
/// [`Contact`]s, sorted by start tick (paper §3.1).
pub fn extract_contacts(
    store: &TrajectoryStore,
    window: TimeInterval,
    threshold: Coord,
) -> Vec<Contact> {
    let mut acc = ContactAccumulator::new();
    sweep_join(store, window, threshold, |ev| {
        acc.push(ev);
        true
    });
    acc.finish()
}

/// Summary counts of a dataset's instantaneous contact structure, reusable
/// by the TEN statistics and by dataset reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Total proximity events (pair × tick).
    pub events: u64,
    /// Distinct maximal contacts.
    pub contacts: u64,
    /// Ticks with at least one event.
    pub active_ticks: u64,
}

/// Counts events and contacts in one pass.
pub fn count_events(
    store: &TrajectoryStore,
    window: TimeInterval,
    threshold: Coord,
) -> EventCounts {
    let mut acc = ContactAccumulator::new();
    let mut events = 0u64;
    let mut last_tick: Option<Time> = None;
    let mut active_ticks = 0u64;
    sweep_join(store, window, threshold, |ev| {
        events += 1;
        if last_tick != Some(ev.t) {
            active_ticks += 1;
            last_tick = Some(ev.t);
        }
        acc.push(ev);
        true
    });
    EventCounts {
        events,
        contacts: acc.finish().len() as u64,
        active_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::{Environment, ObjectId, Point};
    use reach_traj::Trajectory;

    /// Two objects adjacent during ticks [1,2] of a 4-tick horizon; a third
    /// always far away.
    fn store() -> TrajectoryStore {
        let rows: Vec<Vec<(f32, f32)>> = vec![
            vec![(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)],
            vec![(500.0, 0.0), (10.5, 0.0), (20.5, 0.0), (300.0, 0.0)],
            vec![(900.0, 900.0); 4],
        ];
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
        TrajectoryStore::new(Environment::square(1000.0), trajs).unwrap()
    }

    #[test]
    fn contacts_have_maximal_intervals() {
        let s = store();
        let cs = extract_contacts(&s, TimeInterval::new(0, 3), 1.0);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].a, ObjectId(0));
        assert_eq!(cs[0].b, ObjectId(1));
        assert_eq!(cs[0].interval, TimeInterval::new(1, 2));
    }

    #[test]
    fn events_by_tick_dense_layout() {
        let s = store();
        let per = events_by_tick(&s, TimeInterval::new(0, 3), 1.0);
        assert_eq!(per.len(), 4);
        assert!(per[0].is_empty());
        assert_eq!(per[1], vec![(0, 1)]);
        assert_eq!(per[2], vec![(0, 1)]);
        assert!(per[3].is_empty());
    }

    #[test]
    fn events_by_tick_subwindow_offsets() {
        let s = store();
        let per = events_by_tick(&s, TimeInterval::new(2, 3), 1.0);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0], vec![(0, 1)]);
        assert!(per[1].is_empty());
    }

    #[test]
    fn counts_agree_with_lists() {
        let s = store();
        let c = count_events(&s, TimeInterval::new(0, 3), 1.0);
        assert_eq!(
            c,
            EventCounts {
                events: 2,
                contacts: 1,
                active_ticks: 2
            }
        );
    }

    #[test]
    fn window_outside_horizon_is_empty() {
        let s = store();
        assert!(events_by_tick(&s, TimeInterval::new(10, 20), 1.0).is_empty());
        assert!(extract_contacts(&s, TimeInterval::new(10, 20), 1.0).is_empty());
    }
}
