//! The earliest-arrival frontier handed across shard boundaries.
//!
//! An epoch-sharded timeline evaluates one query as a relay: each sealed
//! shard expands the frontier over its own clipped window and hands the
//! result to the next shard, exactly like the live system's base→delta
//! handoff at the watermark. [`FrontierHandoff`] is the exchanged value —
//! per-object earliest *hold* ticks, kept sorted by object id so the next
//! leg can seed from it and destinations can be probed by binary search.
//!
//! The merge rule is a per-object `min`: once an object holds the item at
//! tick `t`, a later leg can only confirm or improve that (arrivals are
//! monotone along the timeline), never lose it. A seed whose arrival
//! precedes a shard's window start "holds from the window start" — the same
//! semantics the delta applies to pre-watermark frontier seeds — so
//! composing shard legs in timeline order is exactly one monolithic
//! earliest-arrival expansion.

use crate::ids::ObjectId;
use crate::time::Time;

/// A per-object earliest-arrival frontier, sorted by object id (see the
/// module docs). `cut` records the exclusive tick up to which the frontier
/// has been expanded — the next leg's window starts there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierHandoff {
    /// One past the last tick the frontier accounts for.
    pub cut: Time,
    arrivals: Vec<(ObjectId, Time)>,
}

impl FrontierHandoff {
    /// The frontier at a query's start: the source alone, holding from
    /// `t1`.
    pub fn seeded(source: ObjectId, t1: Time) -> Self {
        Self {
            cut: t1,
            arrivals: vec![(source, t1)],
        }
    }

    /// The seeds the next leg expands from, sorted by object id.
    pub fn seeds(&self) -> &[(ObjectId, Time)] {
        &self.arrivals
    }

    /// Objects currently on the frontier.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the frontier is empty (it never is for a seeded query).
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The earliest hold tick of `o`, if it is on the frontier.
    pub fn arrival_of(&self, o: ObjectId) -> Option<Time> {
        self.arrivals
            .binary_search_by_key(&o, |&(id, _)| id)
            .ok()
            .map(|i| self.arrivals[i].1)
    }

    /// Absorbs one leg's expansion result (sorted by object id, as the
    /// `reachable_set` family returns): per-object `min` merge, advancing
    /// `cut` to one past the leg's window end.
    pub fn absorb(&mut self, leg: &[(ObjectId, Time)], leg_end: Time) {
        debug_assert!(leg.windows(2).all(|w| w[0].0 < w[1].0), "leg is sorted");
        let mut merged = Vec::with_capacity(self.arrivals.len() + leg.len());
        let (mut i, mut j) = (0, 0);
        while i < self.arrivals.len() && j < leg.len() {
            let (a, ta) = self.arrivals[i];
            let (b, tb) = leg[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    merged.push((a, ta));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((b, tb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((a, ta.min(tb)));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.arrivals[i..]);
        merged.extend_from_slice(&leg[j..]);
        self.arrivals = merged;
        self.cut = self.cut.max(leg_end.saturating_add(1));
    }
}

/// One state of a [`WeightedFrontier`]: an object holding the item after
/// `transfers` DN₁ hops, first delivered at tick `entry`.
///
/// An object may carry *several* states: with both per-transfer and
/// per-tick decay in play, fewer hops and earlier delivery are
/// incomparable goals, so legs keep the Pareto frontier of
/// `(transfers, entry)` pairs and the final weight is the per-state
/// maximum under the query's `DecayModel`.
pub type WeightedSeed = (ObjectId, u32, Time);

/// One cross-cut continuation group: a deviation-network node caught
/// *open* at a leg's cut (its run covers the last expanded tick), with
/// the node's member set and its Pareto `(transfers, entry)` states.
///
/// The carry is what makes the composed walk charge transfers exactly
/// like the monolithic one. The answer rows of a [`WeightedFrontier`]
/// keep each object's *best delivery* states, but an object that keeps
/// walking its own run chain toward the cut accumulates further DN₁
/// hops; re-seeding the next leg from the delivery states would teleport
/// it across those hops for free. A carry group instead hands over the
/// state of the node the object actually sits in at the cut. The member
/// set lets the next leg decide whether the run boundary *at* the cut is
/// genuine (membership changed — one more DN₁ hop is charged) or the
/// artificial split a seal introduces at a watermark or epoch boundary
/// (membership unchanged — the run continues and re-entry is free).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CarryGroup {
    /// The open node's member objects, strictly sorted — compared
    /// verbatim against the continuation node's members on the far side.
    pub members: Vec<u32>,
    /// The node's Pareto `(transfers, entry)` states, sorted.
    pub states: Vec<(u32, Time)>,
}

/// The decay-weighted frontier handed across shard boundaries: the
/// weighted sibling of [`FrontierHandoff`].
///
/// Where the boolean relay exchanges per-object earliest arrivals, the
/// decay relay exchanges two payloads: per-object Pareto
/// `(transfers, entry)` *answer rows* (enough to recompute any
/// [`crate::decay::DecayModel`] weight exactly on the far side) and the
/// [`CarryGroup`] continuation states the next leg seeds from, so
/// composing shard legs in timeline order reproduces the monolithic
/// weighted expansion bit for bit. `origin` pins the query's `t1`, which
/// elapsed-time decay measures from across every leg.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WeightedFrontier {
    /// The query start `t1` — the zero point of elapsed-time decay.
    pub origin: Time,
    /// One past the last tick the frontier accounts for.
    pub cut: Time,
    rows: Vec<WeightedSeed>,
    carry: Vec<CarryGroup>,
}

/// Whether state `a` dominates state `b`: no more transfers *and* no
/// later entry (equal states dominate each other).
fn dominates(a: (u32, Time), b: (u32, Time)) -> bool {
    a.0 <= b.0 && a.1 <= b.1
}

impl WeightedFrontier {
    /// The frontier at a query's start: the source alone, zero transfers,
    /// holding from `t1`.
    pub fn seeded(source: ObjectId, t1: Time) -> Self {
        Self {
            origin: t1,
            cut: t1,
            rows: vec![(source, 0, t1)],
            carry: Vec::new(),
        }
    }

    /// The absorbed answer states, sorted by object id (ties between
    /// states of one object in unspecified order). These are *delivery*
    /// states — legs continue from [`WeightedFrontier::carry`], never
    /// from here (see [`CarryGroup`]).
    pub fn seeds(&self) -> &[WeightedSeed] {
        &self.rows
    }

    /// The continuation groups the next leg seeds from: the state of
    /// every node caught open at the last expanded leg's cut.
    pub fn carry(&self) -> &[CarryGroup] {
        &self.carry
    }

    /// Replaces the continuation payload with the just-expanded leg's
    /// groups (the previous leg's carry is fully superseded: every object
    /// still alive reappears in the new groups).
    pub fn set_carry(&mut self, carry: Vec<CarryGroup>) {
        self.carry = carry;
    }

    /// Number of retained states (an object with an `n`-point Pareto set
    /// counts `n` times).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the frontier is empty (it never is for a seeded query).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The best weight of `o` under `model` and the earliest delivery tick
    /// achieving it — exactly what the monolithic engine's
    /// first-scoring-final rule reports, recomputed from the Pareto rows.
    pub fn best_of(&self, o: ObjectId, model: &crate::decay::DecayModel) -> Option<(f64, Time)> {
        let mut best: Option<(f64, Time)> = None;
        for &(id, h, e) in &self.rows {
            if id != o {
                continue;
            }
            let w = model.weight(h, e.saturating_sub(self.origin));
            let better = match best {
                Some((bw, be)) => w > bw || (w == bw && e < be),
                None => true,
            };
            if better {
                best = Some((w, e));
            }
        }
        best
    }

    /// Ranks every frontier object under `model` in
    /// [`Ranked::order`](crate::decay::Ranked::order), excluding `anchor`
    /// and truncating to `k`. This is the composed (cross-leg) form of a
    /// top-k answer; it matches the monolithic engine's ranking because
    /// both draw from the same per-object best states.
    pub fn rank(
        &self,
        model: &crate::decay::DecayModel,
        k: usize,
        anchor: ObjectId,
    ) -> Vec<crate::decay::Ranked> {
        let mut out: Vec<crate::decay::Ranked> = Vec::new();
        let mut i = 0;
        while i < self.rows.len() {
            let o = self.rows[i].0;
            let mut j = i;
            while j < self.rows.len() && self.rows[j].0 == o {
                j += 1;
            }
            if o != anchor {
                if let Some((weight, arrival)) = self.best_of(o, model) {
                    out.push(crate::decay::Ranked {
                        object: o,
                        weight,
                        arrival,
                    });
                }
            }
            i = j;
        }
        out.sort_by(crate::decay::Ranked::order);
        out.truncate(k);
        out
    }

    /// Absorbs one leg's expansion result (sorted by object id): keeps
    /// the union of old and new states per object, dropping dominated
    /// ones, and advances `cut` to one past the leg's window end.
    ///
    /// Retaining the *old* states matters: a later leg re-scores seeds it
    /// was handed with entries clamped to its own window start, and those
    /// clamped echoes are dominated by the originals this merge keeps.
    pub fn absorb(&mut self, leg: &[WeightedSeed], leg_end: Time) {
        debug_assert!(leg.windows(2).all(|w| w[0].0 <= w[1].0), "leg is sorted");
        let mut merged: Vec<WeightedSeed> = Vec::with_capacity(self.rows.len() + leg.len());
        merged.extend_from_slice(&self.rows);
        merged.extend_from_slice(leg);
        merged.sort_by_key(|&(id, h, e)| (id, h, e));
        // Per-object Pareto filter: after the sort, states of one object
        // arrive in (transfers, entry) order, so a state survives iff its
        // entry is strictly below every earlier survivor's.
        let mut out: Vec<WeightedSeed> = Vec::with_capacity(merged.len());
        for &(id, h, e) in &merged {
            match out.last() {
                Some(&(pid, ph, pe)) if pid == id && dominates((ph, pe), (h, e)) => {}
                _ => out.push((id, h, e)),
            }
        }
        self.rows = out;
        self.cut = self.cut.max(leg_end.saturating_add(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(id: u32) -> ObjectId {
        ObjectId(id)
    }

    #[test]
    fn seeded_frontier_holds_the_source() {
        let f = FrontierHandoff::seeded(o(3), 7);
        assert_eq!(f.len(), 1);
        assert_eq!(f.arrival_of(o(3)), Some(7));
        assert_eq!(f.arrival_of(o(4)), None);
        assert_eq!(f.cut, 7);
    }

    #[test]
    fn absorb_is_a_per_object_min_merge() {
        let mut f = FrontierHandoff::seeded(o(2), 5);
        f.absorb(&[(o(1), 9), (o(2), 8), (o(4), 6)], 9);
        assert_eq!(f.seeds(), &[(o(1), 9), (o(2), 5), (o(4), 6)]);
        assert_eq!(f.cut, 10);
        // A later leg can improve nothing it already holds earlier.
        f.absorb(&[(o(1), 12), (o(5), 11)], 12);
        assert_eq!(f.arrival_of(o(1)), Some(9));
        assert_eq!(f.arrival_of(o(5)), Some(11));
        assert_eq!(f.len(), 4);
        assert_eq!(f.cut, 13);
    }

    #[test]
    fn absorb_keeps_object_order() {
        let mut f = FrontierHandoff::seeded(o(10), 0);
        f.absorb(&[(o(0), 1), (o(20), 2)], 4);
        let ids: Vec<u32> = f.seeds().iter().map(|&(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 10, 20]);
    }
}
