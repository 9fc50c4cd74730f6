//! Planar geometry: points, bounding rectangles and the environment.
//!
//! Coordinates are metres in a Cartesian plane. `f32` is deliberate: the
//! paper's environments are ≤ ~25 km across, where `f32` resolves below a
//! millimetre, and trajectory samples dominate dataset size.

use std::fmt;

/// Coordinate scalar (metres).
pub type Coord = f32;

/// A position in the environment.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in metres.
    pub x: Coord,
    /// Northing in metres.
    pub y: Coord,
}

impl Point {
    /// Creates a point at `(x, y)` metres.
    #[inline]
    pub fn new(x: Coord, y: Coord) -> Self {
        Self { x, y }
    }

    /// Squared Euclidean distance — use on hot paths to avoid the sqrt.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = f64::from(self.x) - f64::from(other.x);
        let dy = f64::from(self.y) - f64::from(other.y);
        dx * dx + dy * dy
    }

    /// Euclidean distance in metres.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Whether the two points are within `threshold` metres of each other —
    /// the paper's contact predicate (`dist ≤ d_T`).
    #[inline]
    pub fn within(&self, other: &Point, threshold: Coord) -> bool {
        self.distance_sq(other) <= f64::from(threshold) * f64::from(threshold)
    }

    /// Linear interpolation: `self` at `f = 0`, `other` at `f = 1`.
    #[inline]
    pub fn lerp(&self, other: &Point, f: f32) -> Point {
        Point {
            x: self.x + (other.x - self.x) * f,
            y: self.y + (other.y - self.y) * f,
        }
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// Axis-aligned minimum bounding rectangle.
///
/// ReachGrid query processing builds the MBR of each seed's trajectory
/// segment, inflates it by `d_T`, and probes the spatial grid with it
/// (paper §4.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Mbr {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Mbr {
    /// Empty rectangle ready for [`Mbr::expand`]; `min` starts above `max`.
    #[inline]
    pub fn empty() -> Self {
        Self {
            min: Point::new(Coord::INFINITY, Coord::INFINITY),
            max: Point::new(Coord::NEG_INFINITY, Coord::NEG_INFINITY),
        }
    }

    /// Bounding rectangle of an iterator of points (empty iterator yields
    /// [`Mbr::empty`]).
    pub fn of_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let mut mbr = Self::empty();
        for p in points {
            mbr.expand(p);
        }
        mbr
    }

    /// Whether no point was ever added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Grows the rectangle to cover `p`.
    #[inline]
    pub fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Rectangle inflated by `margin` metres on every side (the `d_T`
    /// inflation of seed MBRs in ReachGrid query processing).
    #[inline]
    pub fn inflate(&self, margin: Coord) -> Mbr {
        Mbr {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Whether `p` lies inside (borders inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Whether the two rectangles share any point (borders inclusive).
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }
}

/// The rectangular environment `E` in which objects move: `[0, width] ×
/// [0, height]` metres.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Environment {
    /// Extent along x, metres.
    pub width: Coord,
    /// Extent along y, metres.
    pub height: Coord,
}

impl Environment {
    /// Creates an environment of the given extent. Panics on non-positive
    /// dimensions.
    pub fn new(width: Coord, height: Coord) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "environment dimensions must be positive, got {width}×{height}"
        );
        Self { width, height }
    }

    /// Square environment of side `side` metres.
    pub fn square(side: Coord) -> Self {
        Self::new(side, side)
    }

    /// Whether `p` lies inside the environment.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        0.0 <= p.x && p.x <= self.width && 0.0 <= p.y && p.y <= self.height
    }

    /// Clamps `p` into the environment.
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point {
            x: p.x.clamp(0.0, self.width),
            y: p.y.clamp(0.0, self.height),
        }
    }

    /// The environment as an [`Mbr`].
    #[inline]
    pub fn mbr(&self) -> Mbr {
        Mbr {
            min: Point::new(0.0, 0.0),
            max: Point::new(self.width, self.height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_within() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-9);
        assert!(a.within(&b, 5.0)); // boundary counts as contact
        assert!(!a.within(&b, 4.999));
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 10.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let m = a.lerp(&b, 0.5);
        assert!((m.x - 5.0).abs() < 1e-6 && (m.y - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mbr_expand_covers_points() {
        let mbr = Mbr::of_points([
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(0.5, 9.0),
        ]);
        assert_eq!(mbr.min, Point::new(-2.0, 3.0));
        assert_eq!(mbr.max, Point::new(1.0, 9.0));
        assert!(mbr.contains(Point::new(0.0, 5.0)));
        assert!(!mbr.contains(Point::new(0.0, 2.0)));
    }

    #[test]
    fn empty_mbr_never_intersects() {
        let e = Mbr::empty();
        assert!(e.is_empty());
        let full = Mbr::of_points([Point::new(0.0, 0.0)]).inflate(100.0);
        assert!(!e.intersects(&full));
        assert!(!full.intersects(&e));
    }

    #[test]
    fn inflate_grows_all_sides() {
        let m = Mbr::of_points([Point::new(10.0, 10.0)]).inflate(2.0);
        assert_eq!(m.min, Point::new(8.0, 8.0));
        assert_eq!(m.max, Point::new(12.0, 12.0));
        assert!(m.intersects(&Mbr::of_points([Point::new(8.0, 12.0)])));
    }

    #[test]
    fn mbr_intersects_touching_edges() {
        let a = Mbr {
            min: Point::new(0.0, 0.0),
            max: Point::new(1.0, 1.0),
        };
        let b = Mbr {
            min: Point::new(1.0, 1.0),
            max: Point::new(2.0, 2.0),
        };
        assert!(a.intersects(&b));
    }

    #[test]
    fn environment_clamp_and_contains() {
        let env = Environment::square(100.0);
        assert!(env.contains(Point::new(0.0, 100.0)));
        assert!(!env.contains(Point::new(-0.1, 50.0)));
        let p = env.clamp(Point::new(-5.0, 120.0));
        assert_eq!(p, Point::new(0.0, 100.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn environment_rejects_zero_size() {
        let _ = Environment::new(0.0, 10.0);
    }
}
