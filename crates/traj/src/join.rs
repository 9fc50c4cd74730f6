//! Spatiotemporal trajectory joins.
//!
//! The paper builds contact networks with a *window trajectory join*
//! `P ⋈_dT Q` (§4): all pairs of objects within `d_T` of each other during a
//! window, produced in time-sweep order so consumers can terminate early —
//! the join strategy of Arumugam & Jermaine's CPA join \[1\]. Our positions
//! are per-tick samples (the TEN model is per-instance anyway), so the sweep
//! advances tick by tick and finds each tick's pairs with a sort-and-sweep
//! kernel: the points are ordered by `x`, and each point is compared only
//! with the points after it whose `x` gap can still lie within `d_T`.
//!
//! The `x` order is carried from tick to tick in a [`SweepScratch`]. Objects
//! move a few metres per tick, so the carried order is nearly sorted and an
//! insertion pass restores it in about linear time; a pass that has to move
//! too many points hands over to a full sort, so a shuffled input costs
//! `O(n log n)`, never `O(n²)`.
//!
//! **The prune is exact.** [`Point::within`] accepts a pair iff
//! `dx² + dy² ≤ d²`, evaluated in `f64` on the widened `f32` coordinates.
//! The sweep stops scanning from a point as soon as `dx² > d²` in the same
//! `f64` arithmetic. Rounding is monotone, and adding the non-negative
//! `dy²` cannot round the sum below `dx²`, so `within` rejects every pair
//! the prune stops at; and since `dx` only grows along the `x` order, it
//! rejects every later pair too. A `NaN` gap (an infinity minus itself)
//! never prunes, so no pair is lost to it, and a point whose `x` is `NaN`
//! is skipped outright, as `within` never accepts it. The kernel therefore
//! returns exactly the pairs brute-force `within` returns, for any
//! coordinates, however far outside the environment. No integer cell
//! arithmetic is involved, so no coordinate can overflow it.

use crate::store::TrajectoryStore;
use reach_core::{ContactEvent, Coord, ObjectId, Point, Time, TimeInterval};

/// A point tagged with its index in the caller's point list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    p: Point,
    tag: u32,
}

/// Total order on `x` (`NaN`s at the ends), the sweep's sort key.
#[inline]
fn by_x(a: &Slot, b: &Slot) -> std::cmp::Ordering {
    a.p.x.total_cmp(&b.p.x)
}

/// Whether `a` and `b` (`a` before `b` in `x` order) are too far apart in
/// `x` alone for `b`, or any point after it, to lie within `√d2` of `a`.
#[inline]
fn beyond(a: Point, b: Point, d2: f64) -> bool {
    let dx = f64::from(b.x) - f64::from(a.x);
    dx * dx > d2
}

/// Reusable scratch of the sort-and-sweep proximity kernel: the points of
/// the last call, kept in ascending-`x` order and carried to the next call
/// as its starting order.
#[derive(Clone, Debug, Default)]
pub struct SweepScratch {
    slots: Vec<Slot>,
}

impl SweepScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `points` into the carried order (any permutation of
    /// `0..points.len()` is a valid start) and restores ascending `x`.
    fn load(&mut self, points: &[Point]) {
        if self.slots.len() == points.len() {
            for s in &mut self.slots {
                s.p = points[s.tag as usize];
            }
        } else {
            self.slots.clear();
            self.slots.extend(
                points
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| Slot { p, tag: k as u32 }),
            );
        }
        restore_order(&mut self.slots);
    }
}

/// Sorts `slots` by `x` with an insertion pass, which is linear on the
/// nearly sorted order carried from the previous tick; once the pass has
/// shifted more than a few slots per point it hands over to a full sort.
fn restore_order(slots: &mut [Slot]) {
    let budget = 8 * slots.len() + 64;
    let mut shifted = 0;
    for i in 1..slots.len() {
        let cur = slots[i];
        let mut j = i;
        while j > 0 && by_x(&slots[j - 1], &cur).is_gt() {
            slots[j] = slots[j - 1];
            j -= 1;
        }
        slots[j] = cur;
        shifted += i - j;
        if shifted > budget {
            slots.sort_unstable_by(by_x);
            return;
        }
    }
}

/// Emits every unordered pair `(i, j)` with `i < j` among `points` whose
/// distance is ≤ `threshold` ([`Point::within`]), in ascending order.
/// `points[k]` is tagged `k`. Pairs are pushed to `out` (cleared first);
/// `scratch` carries the `x` order between calls.
pub fn proximity_pairs(
    points: &[Point],
    threshold: Coord,
    scratch: &mut SweepScratch,
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    scratch.load(points);
    let d2 = f64::from(threshold) * f64::from(threshold);
    let slots = &scratch.slots;
    for (i, a) in slots.iter().enumerate() {
        if a.p.x.is_nan() {
            continue;
        }
        for b in &slots[i + 1..] {
            if beyond(a.p, b.p, d2) {
                break;
            }
            if a.p.within(&b.p, threshold) {
                out.push((a.tag.min(b.tag), a.tag.max(b.tag)));
            }
        }
    }
    out.sort_unstable();
}

/// Every `(i, j)` with `a[i]` within `threshold` of `b[j]`, the bipartite
/// form of [`proximity_pairs`]: `b` is sorted by `x` once, and each point of
/// `a` binary-searches the start of its `x` window and scans to its end.
/// Calls `hit(i, j)` in no particular order.
pub fn bipartite_pairs<F: FnMut(u32, u32)>(a: &[Point], b: &[Point], threshold: Coord, mut hit: F) {
    let mut sorted: Vec<Slot> = b
        .iter()
        .enumerate()
        .map(|(k, &p)| Slot { p, tag: k as u32 })
        .collect();
    sorted.sort_unstable_by(by_x);
    let d2 = f64::from(threshold) * f64::from(threshold);
    for (i, &p) in a.iter().enumerate() {
        if p.x.is_nan() {
            continue;
        }
        // The slots left of `p` that are `beyond` it, or `NaN`, form a
        // prefix: the gap only shrinks towards `p`, and `NaN`s sort first.
        let lo = sorted.partition_point(|s| {
            s.p.x.total_cmp(&p.x).is_lt() && (s.p.x.is_nan() || beyond(s.p, p, d2))
        });
        for s in &sorted[lo..] {
            if beyond(p, s.p, d2) {
                break;
            }
            if p.within(&s.p, threshold) {
                hit(i as u32, s.tag);
            }
        }
    }
}

/// The self-join one tick at a time, for consumers that pull ticks in
/// ascending order (the DN builder). Reuses one [`SweepScratch`] across
/// ticks, so consecutive ticks pay only the insertion pass.
#[derive(Debug)]
pub struct TickJoin<'a> {
    store: &'a TrajectoryStore,
    threshold: Coord,
    points: Vec<Point>,
    scratch: SweepScratch,
}

impl<'a> TickJoin<'a> {
    /// A join of `store` at contact threshold `threshold`.
    pub fn new(store: &'a TrajectoryStore, threshold: Coord) -> Self {
        Self {
            store,
            threshold,
            points: Vec::with_capacity(store.num_objects()),
            scratch: SweepScratch::new(),
        }
    }

    /// Fills `out` (cleared first) with the pairs `(a, b)`, `a < b`, in
    /// contact at tick `t`, in ascending order. `t` must lie inside the
    /// store's horizon.
    pub fn pairs_at(&mut self, t: Time, out: &mut Vec<(u32, u32)>) {
        self.points.clear();
        self.points
            .extend(self.store.iter().map(|tr| tr.positions[t as usize]));
        proximity_pairs(&self.points, self.threshold, &mut self.scratch, out);
    }
}

/// The window self-join `R(w) ⋈_dT R(w)` over a trajectory store: every
/// instantaneous proximity event inside `window`, in tick order.
///
/// This is the paper's materialization step for `C'` (§4), for callers that
/// need the events as a vector; [`sweep_join`] streams the same events and
/// supports the early termination the indexes rely on.
pub fn window_self_join(
    store: &TrajectoryStore,
    window: TimeInterval,
    threshold: Coord,
) -> Vec<ContactEvent> {
    let mut events = Vec::new();
    sweep_join(store, window, threshold, |ev| {
        events.push(ev);
        true
    });
    events
}

/// Time-sweeping self-join: calls `visit` for every proximity event in tick
/// order; `visit` returns `false` to terminate the sweep early (the paper's
/// "terminate whenever a new object … is discovered").
pub fn sweep_join<F: FnMut(ContactEvent) -> bool>(
    store: &TrajectoryStore,
    window: TimeInterval,
    threshold: Coord,
    mut visit: F,
) {
    let Some(window) = window.intersect(&store.horizon_interval()) else {
        return;
    };
    let mut join = TickJoin::new(store, threshold);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for t in window.ticks() {
        join.pairs_at(t, &mut pairs);
        for &(a, b) in pairs.iter() {
            let ev = ContactEvent::new(t, ObjectId(a), ObjectId(b));
            if !visit(ev) {
                return;
            }
        }
    }
}

/// Squared closest-point-of-approach distance between two objects moving
/// linearly across one tick: object 1 from `p1` with per-tick displacement
/// `v1`, object 2 from `p2` with `v2`. Returns the minimum squared distance
/// over the unit time step `[0, 1]`.
///
/// This is the primitive of the CPA join \[1\] that the paper adopts; the
/// discrete indexes only need sampled positions, but the non-immediate
/// extension and the generators use it to validate interpolation fidelity.
pub fn cpa_distance_sq(p1: Point, v1: (f64, f64), p2: Point, v2: (f64, f64)) -> f64 {
    let dx = f64::from(p1.x) - f64::from(p2.x);
    let dy = f64::from(p1.y) - f64::from(p2.y);
    let dvx = v1.0 - v2.0;
    let dvy = v1.1 - v2.1;
    let dv2 = dvx * dvx + dvy * dvy;
    // Relative motion is (dx + t·dvx, dy + t·dvy); minimize |·|² over [0,1].
    let t = if dv2 <= f64::EPSILON {
        0.0
    } else {
        (-(dx * dvx + dy * dvy) / dv2).clamp(0.0, 1.0)
    };
    let mx = dx + t * dvx;
    let my = dy + t * dvy;
    mx * mx + my * my
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::{Environment, Time};

    fn store_from_rows(rows: Vec<Vec<(f32, f32)>>) -> TrajectoryStore {
        // rows[i] = positions of object i over the horizon
        let env = Environment::square(1000.0);
        let trajs = rows
            .into_iter()
            .enumerate()
            .map(|(i, ps)| {
                crate::trajectory::Trajectory::new(
                    ObjectId(i as u32),
                    0,
                    ps.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
                )
            })
            .collect();
        TrajectoryStore::new(env, trajs).expect("valid")
    }

    #[test]
    fn proximity_pairs_basic() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),  // 5m from 0
            Point::new(50.0, 0.0), // far
        ];
        let mut out = Vec::new();
        proximity_pairs(&points, 5.0, &mut SweepScratch::new(), &mut out);
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn proximity_pairs_matches_brute_force() {
        // Deterministic lattice-with-jitter layout.
        let points: Vec<Point> = (0..60)
            .map(|i| {
                let x = (i % 8) as f32 * 7.3 + (i as f32 * 0.17).sin() * 3.0;
                let y = (i / 8) as f32 * 6.1 + (i as f32 * 0.29).cos() * 3.0;
                Point::new(x, y)
            })
            .collect();
        let d = 8.0f32;
        let mut out = Vec::new();
        proximity_pairs(&points, d, &mut SweepScratch::new(), &mut out);
        let mut brute = Vec::new();
        for i in 0..points.len() as u32 {
            for j in (i + 1)..points.len() as u32 {
                if points[i as usize].within(&points[j as usize], d) {
                    brute.push((i, j));
                }
            }
        }
        assert_eq!(out, brute);
    }

    #[test]
    fn window_join_replays_figure_1() {
        // Figure 1 of the paper: o1-o2 contact at t=0 and [2,3]; o2-o4 at
        // t=1; o3-o4 during [1,2]. Encode with 1-D positions, d_T = 1.
        // Build positions so exactly those pairs are within distance 1.
        let far = |k: f32| 100.0 * k;
        let rows = vec![
            // o0 unused filler object kept far away from everyone
            vec![
                (far(9.0), 0.0),
                (far(9.0), 0.0),
                (far(9.0), 0.0),
                (far(9.0), 0.0),
            ],
            // o1
            vec![(0.0, 0.0), (far(1.0), 0.0), (10.0, 0.0), (10.0, 0.0)],
            // o2: next to o1 at t=0, next to o4 at t=1, back to o1 at t∈[2,3]
            vec![(0.5, 0.0), (20.0, 0.0), (10.5, 0.0), (10.5, 0.0)],
            // o3: near o4 during [1,2] (1.0m from o4, 1.5m from o2 at t=1)
            vec![(far(2.0), 0.0), (21.5, 0.0), (40.0, 0.0), (far(2.0), 0.0)],
            // o4
            vec![(far(3.0), 0.0), (20.5, 0.0), (40.5, 0.0), (far(3.0), 0.0)],
        ];
        let store = store_from_rows(rows);
        let evs = window_self_join(&store, TimeInterval::new(0, 3), 1.0);
        let as_tuples: Vec<(Time, u32, u32)> = evs.iter().map(|e| (e.t, e.a.0, e.b.0)).collect();
        assert_eq!(
            as_tuples,
            vec![
                (0, 1, 2),
                (1, 2, 4),
                (1, 3, 4),
                (2, 1, 2),
                (2, 3, 4),
                (3, 1, 2)
            ]
        );
    }

    #[test]
    fn sweep_join_early_termination() {
        let rows = vec![
            vec![(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
            vec![(0.5, 0.0), (0.5, 0.0), (0.5, 0.0)],
        ];
        let store = store_from_rows(rows);
        let mut seen = 0;
        sweep_join(&store, TimeInterval::new(0, 2), 1.0, |_| {
            seen += 1;
            false // stop immediately
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn join_window_clipped_to_horizon() {
        let rows = vec![vec![(0.0, 0.0), (0.0, 0.0)], vec![(0.5, 0.0), (90.0, 0.0)]];
        let store = store_from_rows(rows);
        // Window exceeding the horizon must not panic.
        let evs = window_self_join(&store, TimeInterval::new(0, 100), 1.0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].t, 0);
        // A store with no objects has no events.
        let empty = TrajectoryStore::new(Environment::square(10.0), Vec::new()).expect("valid");
        assert!(window_self_join(&empty, TimeInterval::new(0, 5), 1.0).is_empty());
    }

    #[test]
    fn cpa_detects_midstep_approach() {
        // Two objects crossing: far apart at both endpoints, close at t=0.5.
        let p1 = Point::new(0.0, 0.0);
        let v1 = (10.0, 0.0);
        let p2 = Point::new(10.0, 1.0);
        let v2 = (-10.0, 0.0);
        let d2 = cpa_distance_sq(p1, v1, p2, v2);
        assert!((d2 - 1.0).abs() < 1e-9, "closest approach is 1m at t=0.5");
        // Sampled endpoints never get closer than sqrt(10² + 1).
        assert!(p1.distance(&p2) > 10.0);
    }

    #[test]
    fn cpa_stationary_pair() {
        let p1 = Point::new(0.0, 0.0);
        let p2 = Point::new(3.0, 4.0);
        let d2 = cpa_distance_sq(p1, (0.0, 0.0), p2, (0.0, 0.0));
        assert!((d2 - 25.0).abs() < 1e-9);
    }

    #[test]
    fn cpa_clamps_to_step() {
        // Objects diverging: the minimum over [0,1] is at t=0.
        let d2 = cpa_distance_sq(
            Point::new(0.0, 0.0),
            (-5.0, 0.0),
            Point::new(2.0, 0.0),
            (5.0, 0.0),
        );
        assert!((d2 - 4.0).abs() < 1e-9);
    }
}
