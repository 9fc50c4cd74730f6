//! The sort-and-sweep proximity kernel against brute-force all-pairs
//! [`Point::within`].
//!
//! The kernel prunes on the `x` gap alone, so every test here is built to
//! hit the prune's edge: pairs at exactly `d_T` and one ulp either side
//! (along `x`, along `y`, on the diagonal), coincident points, columns of
//! equal `x`, negative and far out-of-environment coordinates, `d_T = 0`,
//! tiny inputs, and one scratch reused across "ticks" whose carried `x`
//! order is nearly sorted (small moves) or useless (full shuffles).
//!
//! Runs are CI-deterministic: the case count is pinned here and the RNG seed
//! derives from the test name (override with `PROPTEST_SEED=<u64>`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use reach_core::{Environment, ObjectId, Point, TimeInterval};
use reach_traj::{
    bipartite_pairs, proximity_pairs, sweep_join, SweepScratch, Trajectory, TrajectoryStore,
};

fn brute_force(points: &[Point], d: f32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            if points[i].within(&points[j], d) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

fn kernel(points: &[Point], d: f32, scratch: &mut SweepScratch) -> Vec<(u32, u32)> {
    let mut out = vec![(7, 7)]; // stale content must be cleared
    proximity_pairs(points, d, scratch, &mut out);
    out
}

fn assert_kernel_exact(points: &[Point], d: f32, scratch: &mut SweepScratch) {
    assert_eq!(
        kernel(points, d, scratch),
        brute_force(points, d),
        "d = {d}, points = {points:?}"
    );
}

/// The next `f32` towards `+∞`.
fn up(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        x
    } else if x == 0.0 {
        f32::from_bits(1)
    } else if x > 0.0 {
        f32::from_bits(x.to_bits() + 1)
    } else {
        f32::from_bits(x.to_bits() - 1)
    }
}

/// The next `f32` towards `-∞`.
fn down(x: f32) -> f32 {
    -up(-x)
}

/// `a` plus partners at offset `(dx, dy)` from it with each coordinate
/// nudged by one ulp down, not at all, and up.
fn with_ulp_partners(a: Point, dx: f32, dy: f32) -> Vec<Point> {
    let mut points = vec![a];
    let (x, y) = (a.x + dx, a.y + dy);
    for px in [down(x), x, up(x)] {
        for py in [down(y), y, up(y)] {
            points.push(Point::new(px, py));
        }
    }
    points
}

/// Includes a negative threshold: `within` squares it, so the kernel must
/// too (a prune on the raw gap `dx > d` would drop every pair).
const THRESHOLDS: [f32; 8] = [0.0, 1e-3, 0.3, 1.0, 7.7, 25.0, 1000.0, -25.0];

#[test]
fn pairs_at_exactly_d_and_one_ulp_either_side() {
    let mut scratch = SweepScratch::new();
    for d in THRESHOLDS {
        let diag = d / std::f32::consts::SQRT_2;
        for a in [
            Point::new(0.0, 0.0),
            Point::new(-3.25, 17.5),
            Point::new(-1000.0, -1000.0),
            Point::new(4081.9, 123.4),
        ] {
            for (dx, dy) in [
                (d, 0.0),
                (-d, 0.0),
                (0.0, d),
                (0.0, -d),
                (diag, diag),
                (-diag, diag),
            ] {
                let points = with_ulp_partners(a, dx, dy);
                assert_kernel_exact(&points, d, &mut scratch);
                assert_kernel_exact(&points, d, &mut SweepScratch::new());
            }
        }
        // On an axis the boundary is exact: a partner exactly `|d|` away
        // (and representable) is a contact, one ulp further is not.
        let r = d.abs();
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(r, 0.0),
            Point::new(0.0, up(r)),
        ];
        assert_eq!(kernel(&pts, d, &mut scratch), vec![(0, 1)]);
    }
}

#[test]
fn coincident_points_and_equal_x_columns() {
    let mut scratch = SweepScratch::new();
    for d in THRESHOLDS {
        let mut points = Vec::new();
        for k in 0..6 {
            // Two columns of equal x, negative coordinates, a doubled point.
            points.push(Point::new(-5.0, -(k as f32) * d * 0.5));
            points.push(Point::new(-5.0 + d, -(k as f32) * d * 0.5));
        }
        points.push(points[3]);
        points.push(points[3]);
        assert_kernel_exact(&points, d, &mut scratch);
        points.reverse();
        assert_kernel_exact(&points, d, &mut scratch);
    }
    // d_T = 0: only coincident points are in contact, including ±0.
    let points = [
        Point::new(1.0, 1.0),
        Point::new(1.0, 1.0),
        Point::new(1.0, up(1.0)),
        Point::new(0.0, -0.0),
        Point::new(-0.0, 0.0),
    ];
    assert_eq!(kernel(&points, 0.0, &mut scratch), vec![(0, 1), (3, 4)]);
}

#[test]
fn tiny_inputs() {
    let mut scratch = SweepScratch::new();
    for d in THRESHOLDS {
        assert_kernel_exact(&[], d, &mut scratch);
        assert_kernel_exact(&[Point::new(2.0, 3.0)], d, &mut scratch);
        assert_kernel_exact(
            &[Point::new(2.0, 3.0), Point::new(2.0, 3.0)],
            d,
            &mut scratch,
        );
        assert_kernel_exact(
            &[Point::new(2.0, 3.0), Point::new(2.0 + d, 3.0)],
            d,
            &mut scratch,
        );
        assert_kernel_exact(
            &[Point::new(2.0 + d, 3.0), Point::new(2.0, up(3.0 + d))],
            d,
            &mut scratch,
        );
    }
}

/// Coordinates far outside any environment used to overflow the cell
/// arithmetic of the spatial hash the kernel replaced (`1e11 / 25` saturates
/// an `i32` cell index, and probing its neighbour overflowed). Debug builds
/// check integer overflow, so this runs in the default test profile.
#[test]
fn far_out_of_environment_coordinates_do_not_panic() {
    let d = 25.0;
    let points = [
        Point::new(1e11, 0.0),
        Point::new(-1e11, 0.0),
        Point::new(0.0, 1e11),
        Point::new(0.0, -1e11),
        Point::new(1e11, 1e11),
        Point::new(1e11 + 8192.0, 1e11),
        Point::new(-1e11, -1e11),
        Point::new(12.0, 10.0),
        Point::new(20.0, 10.0),
    ];
    let mut scratch = SweepScratch::new();
    assert_kernel_exact(&points, d, &mut scratch);
    assert_eq!(kernel(&points, d, &mut scratch), vec![(7, 8)]);

    // The same through a trajectory store, which does not validate
    // coordinates: the sweep over ticks must give the brute-force pairs.
    let rows: Vec<Vec<Point>> = points.iter().map(|&p| vec![p, p, p]).collect();
    let trajs = rows
        .into_iter()
        .enumerate()
        .map(|(i, ps)| Trajectory::new(ObjectId(i as u32), 0, ps))
        .collect();
    let store = TrajectoryStore::new(Environment::square(1000.0), trajs).expect("valid");
    let mut events = Vec::new();
    sweep_join(&store, TimeInterval::new(0, 2), d, |ev| {
        events.push((ev.t, ev.a.0, ev.b.0));
        true
    });
    assert_eq!(events, vec![(0, 7, 8), (1, 7, 8), (2, 7, 8)]);
}

/// Infinities and `NaN`s: `within` never accepts a `NaN` distance, but at
/// an infinite threshold it does accept infinite ones.
#[test]
fn non_finite_coordinates_match_within() {
    let points = [
        Point::new(f32::NAN, 0.0),
        Point::new(-f32::NAN, 0.0),
        Point::new(f32::INFINITY, 0.0),
        Point::new(f32::INFINITY, 0.0),
        Point::new(f32::NEG_INFINITY, 0.0),
        Point::new(f32::NEG_INFINITY, 0.0),
        Point::new(0.0, f32::NAN),
        Point::new(1.0, 0.0),
        Point::new(0.0, 0.0),
        Point::new(f32::MAX, 0.0),
        Point::new(f32::MIN, 0.0),
    ];
    let mut scratch = SweepScratch::new();
    for d in [0.0, 1.0, 25.0, f32::MAX, f32::INFINITY] {
        assert_kernel_exact(&points, d, &mut scratch);
        // Both ways round, so the NaNs and infinities sit on either side.
        let (a, b) = points.split_at(5);
        let want: Vec<(u32, u32)> = brute_force(&points, d)
            .into_iter()
            .filter(|&(i, j)| i < 5 && j >= 5)
            .collect();
        let mut got = Vec::new();
        bipartite_pairs(a, b, d, |i, j| got.push((i, j + 5)));
        got.sort_unstable();
        assert_eq!(got, want, "d = {d}");
        got.clear();
        bipartite_pairs(b, a, d, |j, i| got.push((i, j + 5)));
        got.sort_unstable();
        assert_eq!(got, want, "d = {d}");
    }
}

/// Random points: clusters at one of three scales, with a share of them
/// snapped to a coarse grid (equal-`x` columns, coincident points) and a
/// share placed exactly `d` (± an ulp) from an earlier point.
fn random_points(rng: &mut StdRng, n: usize, d: f32) -> Vec<Point> {
    let scale = [5.0f32, 60.0, 600.0][rng.gen_range(0..3usize)];
    let mut points: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = match rng.gen_range(0..10u32) {
            0..=4 => Point::new(rng.gen_range(-scale..scale), rng.gen_range(-scale..scale)),
            5 | 6 => Point::new(
                (rng.gen_range(-scale..scale) / 2.0).round() * 2.0,
                (rng.gen_range(-scale..scale) / 2.0).round() * 2.0,
            ),
            _ if points.is_empty() => Point::new(0.0, 0.0),
            7 => points[rng.gen_range(0..points.len())],
            _ => {
                let a = points[rng.gen_range(0..points.len())];
                let diag = d / std::f32::consts::SQRT_2;
                let (dx, dy) =
                    [(d, 0.0), (0.0, d), (diag, diag), (-d, 0.0)][rng.gen_range(0..4usize)];
                let nudge = |v: f32, k: u32| match k {
                    0 => down(v),
                    1 => v,
                    _ => up(v),
                };
                Point::new(
                    nudge(a.x + dx, rng.gen_range(0..3)),
                    nudge(a.y + dy, rng.gen_range(0..3)),
                )
            }
        };
        points.push(p);
    }
    points
}

fn random_threshold(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 => 25.0,
        2 => -rng.gen_range(0.0f32..40.0),
        _ => rng.gen_range(0.0f32..40.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_equals_brute_force(seed in any::<u64>(), n in 0usize..160) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_threshold(&mut rng);
        let points = random_points(&mut rng, n, d);
        prop_assert_eq!(
            kernel(&points, d, &mut SweepScratch::new()),
            brute_force(&points, d)
        );
    }

    /// One scratch across consecutive ticks: mostly small moves (the
    /// carried order stays nearly sorted), sometimes a full shuffle of the
    /// positions among the objects, sometimes a change in the point count.
    #[test]
    fn carried_order_across_ticks(seed in any::<u64>(), n in 1usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_threshold(&mut rng);
        let mut points = random_points(&mut rng, n, d);
        let mut scratch = SweepScratch::new();
        for _tick in 0..24 {
            match rng.gen_range(0..10u32) {
                0 => points.shuffle(&mut rng),
                1 => {
                    let len = rng.gen_range(0..n + 8);
                    points = random_points(&mut rng, len, d);
                }
                _ => {
                    for p in &mut points {
                        p.x += rng.gen_range(-9.0f32..9.0);
                        p.y += rng.gen_range(-9.0f32..9.0);
                    }
                }
            }
            prop_assert_eq!(kernel(&points, d, &mut scratch), brute_force(&points, d));
        }
    }

    #[test]
    fn bipartite_equals_brute_force(seed in any::<u64>(), n in 0usize..60, m in 0usize..90) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_threshold(&mut rng);
        let mut all = random_points(&mut rng, n + m, d);
        all.shuffle(&mut rng);
        let (a, b) = all.split_at(n);
        let mut got = Vec::new();
        bipartite_pairs(a, b, d, |i, j| got.push((i, j)));
        got.sort_unstable();
        let mut want = Vec::new();
        for (i, p) in a.iter().enumerate() {
            for (j, q) in b.iter().enumerate() {
                if p.within(q, d) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        prop_assert_eq!(got, want);
    }
}
