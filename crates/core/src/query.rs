//! Reachability queries and their results.

use crate::error::IndexError;
use crate::ids::ObjectId;
use crate::time::{Time, TimeInterval};
use std::fmt;
use std::time::Duration;

/// A reachability query `q : o_i ~Tp~> o_j` (paper §3.2): does a contact path
/// exist from `source` to `dest` within the closed interval `interval`?
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Query {
    /// Query source `o_i` — the object that initiates the item at
    /// `interval.start`.
    pub source: ObjectId,
    /// Query destination `o_j`.
    pub dest: ObjectId,
    /// Query interval `Tp = [t1, t2]`.
    pub interval: TimeInterval,
}

impl Query {
    /// Creates a query. Source and destination may be equal (trivially
    /// reachable).
    pub fn new(source: ObjectId, dest: ObjectId, interval: TimeInterval) -> Self {
        Self {
            source,
            dest,
            interval,
        }
    }

    /// The admission check every index runs before it walks (`QUERIES.md`):
    /// the source, then the destination, must lie in the object universe
    /// `[0, num_objects)`, and the window must pass [`admit_window`]. Returns
    /// the window clipped to the horizon.
    pub fn admit(&self, num_objects: usize, horizon: Time) -> Result<TimeInterval, IndexError> {
        admit_object(self.source, num_objects)?;
        admit_object(self.dest, num_objects)?;
        admit_window(self.interval, horizon)
    }
}

/// `UnknownObject(o)` unless `o` lies in the object universe
/// `[0, num_objects)`: the object half of [`Query::admit`], which seeded
/// walks run per seed.
pub fn admit_object(o: ObjectId, num_objects: usize) -> Result<(), IndexError> {
    if o.index() < num_objects {
        Ok(())
    } else {
        Err(IndexError::UnknownObject(o))
    }
}

/// The window half of [`Query::admit`]: `IntervalOutOfRange` when `window`
/// starts at or past `horizon` (the indexed ticks are `[0, horizon)`),
/// otherwise `window` with its end clipped to `horizon - 1`.
pub fn admit_window(window: TimeInterval, horizon: Time) -> Result<TimeInterval, IndexError> {
    if window.start >= horizon {
        return Err(IndexError::IntervalOutOfRange {
            requested: window,
            horizon,
        });
    }
    Ok(TimeInterval::new(window.start, window.end.min(horizon - 1)))
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ~{}~> {}", self.source, self.interval, self.dest)
    }
}

/// The verdict of a reachability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryOutcome {
    /// Whether `dest` is reachable from `source` during the query interval.
    pub reachable: bool,
    /// When known, the earliest tick at which the destination holds the item
    /// (the end of the shortest witness prefix `T'p` — drives the paper's
    /// early-termination analysis). Indexes that cannot cheaply produce it
    /// (e.g. E-DFS over long edges) leave it `None`.
    pub earliest: Option<Time>,
}

impl QueryOutcome {
    /// An unreachable outcome.
    pub const UNREACHABLE: QueryOutcome = QueryOutcome {
        reachable: false,
        earliest: None,
    };

    /// A reachable outcome with a known earliest-arrival tick.
    pub fn reachable_at(t: Time) -> Self {
        QueryOutcome {
            reachable: true,
            earliest: Some(t),
        }
    }

    /// A reachable outcome without arrival information.
    pub fn reachable() -> Self {
        QueryOutcome {
            reachable: true,
            earliest: None,
        }
    }
}

/// Work counters gathered while evaluating one query.
///
/// IO counters mirror the paper's metric (§6): random page reads plus
/// sequential page reads, normalized at 20 sequential = 1 random.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct QueryStats {
    /// Page reads that required a seek (non-consecutive page id).
    pub random_ios: u64,
    /// Page reads that continued a consecutive scan.
    pub seq_ios: u64,
    /// Graph vertices / grid cells inspected.
    pub visited: u64,
    /// Object-position records or edges examined. ReachGrid counts one per
    /// distance test of a frontier seed against a non-seed object in that
    /// object's home cell (the cell its sample at the tick falls in); SPJ
    /// counts the contact pairs it materializes.
    pub examined: u64,
    /// Pure computation time (excluding simulated IO bookkeeping where the
    /// implementation can separate it).
    pub cpu: Duration,
}

impl QueryStats {
    /// The paper's normalized IO cost: `random + seq / 20`.
    pub fn normalized_io(&self) -> f64 {
        self.random_ios as f64 + self.seq_ios as f64 / crate::SEQ_PER_RANDOM as f64
    }

    /// Element-wise sum of two stat blocks.
    pub fn merged(&self, other: &QueryStats) -> QueryStats {
        QueryStats {
            random_ios: self.random_ios + other.random_ios,
            seq_ios: self.seq_ios + other.seq_ios,
            visited: self.visited + other.visited,
            examined: self.examined + other.examined,
            cpu: self.cpu + other.cpu,
        }
    }
}

/// Outcome plus cost of one evaluated query.
#[derive(Clone, Copy, Debug)]
pub struct QueryResult {
    /// Reachable / not reachable (+ earliest arrival when known).
    pub outcome: QueryOutcome,
    /// Work performed to produce the outcome.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Convenience accessor.
    pub fn reachable(&self) -> bool {
        self.outcome.reachable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_like_the_paper() {
        let q = Query::new(ObjectId(1), ObjectId(4), TimeInterval::new(0, 1));
        assert_eq!(format!("{q}"), "o1 ~[0, 1]~> o4");
    }

    #[test]
    fn admission_checks_source_then_dest_then_window() {
        let q = |s, d, a, b| Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
        let unknown = |o| Err(IndexError::UnknownObject(ObjectId(o)));
        assert_eq!(q(5, 7, 20, 30).admit(3, 10), unknown(5));
        assert_eq!(q(0, 7, 20, 30).admit(3, 10), unknown(7));
        assert_eq!(
            q(0, 2, 10, 30).admit(3, 10),
            Err(IndexError::IntervalOutOfRange {
                requested: TimeInterval::new(10, 30),
                horizon: 10
            })
        );
        assert_eq!(q(0, 2, 9, 30).admit(3, 10), Ok(TimeInterval::new(9, 9)));
        assert_eq!(q(1, 1, 2, 4).admit(3, 10), Ok(TimeInterval::new(2, 4)));
        assert!(admit_window(TimeInterval::instant(0), 0).is_err());
    }

    #[test]
    fn normalized_io_uses_20_to_1() {
        let s = QueryStats {
            random_ios: 3,
            seq_ios: 40,
            ..Default::default()
        };
        assert!((s.normalized_io() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merged_adds_fields() {
        let a = QueryStats {
            random_ios: 1,
            seq_ios: 2,
            visited: 3,
            examined: 4,
            cpu: Duration::from_millis(5),
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.random_ios, 2);
        assert_eq!(m.seq_ios, 4);
        assert_eq!(m.visited, 6);
        assert_eq!(m.examined, 8);
        assert_eq!(m.cpu, Duration::from_millis(10));
    }

    #[test]
    fn outcome_constructors() {
        let unreachable = QueryOutcome::UNREACHABLE;
        assert!(!unreachable.reachable);
        assert_eq!(QueryOutcome::reachable_at(7).earliest, Some(7));
        assert_eq!(QueryOutcome::reachable().earliest, None);
    }
}
