//! Transfer-decay weighting for reachability paths.
//!
//! Strzheletska & Tsotras (*Reachability and Top-k Reachability Queries
//! with Transfer Decay*, PAPERS.md) generalize boolean reachability: each
//! hand-off along a contact chain multiplies the path weight by a decay
//! factor, and a query asks for the *best* (maximum) weight over all
//! paths rather than mere existence. [`DecayModel`] captures the two
//! decay variants the decay workloads support, and combines them:
//!
//! * **per-transfer** — every DN₁ edge traversed (one transfer between
//!   deviation-network nodes) multiplies the weight by `per_transfer`;
//! * **per-tick** — every elapsed tick between the query start `t1` and
//!   the tick the object first holds the item multiplies the weight by
//!   `per_tick`.
//!
//! A path that makes `h` transfers and delivers at tick `e` therefore has
//! weight `per_transfer^h * per_tick^(e - t1)`. Both factors live in
//! `(0, 1]`, so weights are monotone non-increasing along any path — the
//! property that makes a best-first (max-weight) Dijkstra expansion
//! settle each object exactly once and makes threshold pruning sound.
//! The full contract, including tie-breaking, is written out in the
//! repository's `QUERIES.md`.

use crate::time::Time;

/// A multiplicative decay model: per-transfer and per-elapsed-tick
/// factors, both in `(0, 1]`.
///
/// ```
/// use reach_core::decay::DecayModel;
/// let m = DecayModel::per_transfer(0.5);
/// // Two transfers, elapsed time ignored (per-tick factor is 1).
/// assert_eq!(m.weight(2, 10), 0.25);
/// let m = DecayModel::new(0.5, 0.9).unwrap();
/// assert!((m.weight(1, 2) - 0.5 * 0.81).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DecayModel {
    /// Weight multiplier applied per DN₁ edge traversed.
    pub per_transfer: f64,
    /// Weight multiplier applied per elapsed tick since the query start.
    pub per_tick: f64,
}

impl DecayModel {
    /// A model combining both factors. Returns `None` unless both lie in
    /// `(0, 1]` (a zero factor would make every weight vanish and a
    /// factor above one would break the monotonicity pruning relies on).
    pub fn new(per_transfer: f64, per_tick: f64) -> Option<Self> {
        let ok = |f: f64| f > 0.0 && f <= 1.0;
        (ok(per_transfer) && ok(per_tick)).then_some(Self {
            per_transfer,
            per_tick,
        })
    }

    /// Pure per-transfer decay (the paper's primary variant). Panics if
    /// `factor` is outside `(0, 1]`.
    pub fn per_transfer(factor: f64) -> Self {
        Self::new(factor, 1.0).expect("per-transfer factor must lie in (0, 1]")
    }

    /// Pure per-elapsed-time decay. Panics if `factor` is outside
    /// `(0, 1]`.
    pub fn per_tick(factor: f64) -> Self {
        Self::new(1.0, factor).expect("per-tick factor must lie in (0, 1]")
    }

    /// The weight of a path making `transfers` DN₁ hops that first
    /// delivers `elapsed` ticks after the query start.
    ///
    /// Computed as canonical `powi` products so every evaluator — the
    /// disk traversal, the cross-shard relay, and the brute-force oracle —
    /// produces bit-identical floats for the same `(transfers, elapsed)`
    /// pair.
    pub fn weight(&self, transfers: u32, elapsed: Time) -> f64 {
        let h = i32::try_from(transfers).unwrap_or(i32::MAX);
        let e = i32::try_from(elapsed).unwrap_or(i32::MAX);
        self.per_transfer.powi(h) * self.per_tick.powi(e)
    }
}

/// Which way a top-k ranking walks the deviation network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RankDirection {
    /// Rank the objects *reachable from* the anchor (forward expansion).
    Reachable,
    /// Rank the objects *reaching* the anchor (reverse expansion).
    Reaching,
}

impl RankDirection {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RankDirection::Reachable => "reachable",
            RankDirection::Reaching => "reaching",
        }
    }
}

/// One entry of a ranked decay answer: an object, the best path weight
/// that delivers to it, and the earliest tick achieving that weight.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Ranked {
    /// The ranked object.
    pub object: crate::ids::ObjectId,
    /// Best decay weight over all paths (in `(0, 1]`).
    pub weight: f64,
    /// Earliest arrival tick among maximum-weight paths.
    pub arrival: Time,
}

impl Ranked {
    /// The ranking order every engine sorts by: weight descending, then
    /// arrival ascending, then object id ascending.
    pub fn order(a: &Self, b: &Self) -> std::cmp::Ordering {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.arrival.cmp(&b.arrival))
            .then_with(|| a.object.cmp(&b.object))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate_the_open_unit_interval() {
        assert!(DecayModel::new(0.5, 0.9).is_some());
        assert!(DecayModel::new(1.0, 1.0).is_some());
        assert!(DecayModel::new(0.0, 0.9).is_none());
        assert!(DecayModel::new(0.5, 1.1).is_none());
        assert!(DecayModel::new(-0.5, 0.9).is_none());
        assert!(DecayModel::new(f64::NAN, 0.9).is_none());
    }

    #[test]
    fn weight_multiplies_both_factors() {
        let m = DecayModel::new(0.5, 0.5).unwrap();
        assert_eq!(m.weight(0, 0), 1.0);
        assert_eq!(m.weight(1, 0), 0.5);
        assert_eq!(m.weight(0, 1), 0.5);
        assert_eq!(m.weight(2, 1), 0.125);
    }

    #[test]
    fn pure_variants_ignore_the_other_dimension() {
        let t = DecayModel::per_transfer(0.25);
        assert_eq!(t.weight(1, 999), 0.25);
        let e = DecayModel::per_tick(0.25);
        assert_eq!(e.weight(999, 1), 0.25);
    }

    #[test]
    fn direction_names() {
        assert_eq!(RankDirection::Reachable.name(), "reachable");
        assert_eq!(RankDirection::Reaching.name(), "reaching");
    }
}
