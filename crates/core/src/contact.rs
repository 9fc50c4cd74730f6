//! Contacts: the atoms of a contact network.

use crate::ids::ObjectId;
use crate::time::{Time, TimeInterval};
use std::fmt;

/// An instantaneous proximity event: objects `a` and `b` are within `d_T`
/// of each other at tick `t`. Normalized so that `a < b`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ContactEvent {
    /// First tick-ordered key: the event time.
    pub t: Time,
    /// Smaller object id.
    pub a: ObjectId,
    /// Larger object id.
    pub b: ObjectId,
}

impl ContactEvent {
    /// Creates a normalized event (`a < b`). Panics if `a == b`: an object
    /// cannot contact itself.
    #[inline]
    pub fn new(t: Time, a: ObjectId, b: ObjectId) -> Self {
        assert_ne!(a, b, "self-contact for {a} at tick {t}");
        if a < b {
            Self { t, a, b }
        } else {
            Self { t, a: b, b: a }
        }
    }

    /// The pair as a tuple `(a, b)` with `a < b`.
    #[inline]
    pub fn pair(&self) -> (ObjectId, ObjectId) {
        (self.a, self.b)
    }
}

/// A contact `c = {o_i, o_j}` with a maximal *continuous* validity interval
/// `T_c` (paper §3.1). Two disjoint meetings of the same pair are two
/// distinct contacts (the paper's `c1`/`c4` example).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Contact {
    /// Smaller object id.
    pub a: ObjectId,
    /// Larger object id.
    pub b: ObjectId,
    /// Validity interval: the maximal run of ticks where the pair stays
    /// within `d_T`.
    pub interval: TimeInterval,
}

impl Contact {
    /// Creates a normalized contact (`a < b`). Panics if `a == b`.
    #[inline]
    pub fn new(a: ObjectId, b: ObjectId, interval: TimeInterval) -> Self {
        assert_ne!(a, b, "self-contact for {a}");
        if a < b {
            Self { a, b, interval }
        } else {
            Self {
                a: b,
                b: a,
                interval,
            }
        }
    }

    /// The other endpoint of the contact, or `None` if `o` is not involved.
    #[inline]
    pub fn peer(&self, o: ObjectId) -> Option<ObjectId> {
        if o == self.a {
            Some(self.b)
        } else if o == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

impl fmt::Debug for Contact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}@{}", self.a, self.b, self.interval)
    }
}

/// Folds a time-ordered stream of [`ContactEvent`]s into maximal-interval
/// [`Contact`]s.
///
/// Events must be fed in non-decreasing tick order (ties in any pair order);
/// an event for a pair already open at tick `t-1` or `t` extends the open
/// contact, anything else closes the previous contact for that pair and opens
/// a new one.
#[derive(Default)]
pub struct ContactAccumulator {
    open: std::collections::HashMap<(ObjectId, ObjectId), TimeInterval>,
    done: Vec<Contact>,
    last_tick: Option<Time>,
}

impl ContactAccumulator {
    /// New, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event. Panics if fed out of order.
    pub fn push(&mut self, ev: ContactEvent) {
        if let Some(last) = self.last_tick {
            assert!(
                ev.t >= last,
                "contact events must arrive in time order (got {} after {})",
                ev.t,
                last
            );
        }
        self.last_tick = Some(ev.t);
        let key = ev.pair();
        match self.open.get_mut(&key) {
            Some(iv) if iv.end == ev.t || iv.end + 1 == ev.t => iv.end = ev.t,
            Some(iv) => {
                // Gap: the previous meeting of this pair ended. Close it.
                let closed = Contact::new(key.0, key.1, *iv);
                self.done.push(closed);
                *iv = TimeInterval::instant(ev.t);
            }
            None => {
                self.open.insert(key, TimeInterval::instant(ev.t));
            }
        }
    }

    /// Closes all open contacts and returns every accumulated contact,
    /// sorted by `(interval.start, a, b)`.
    pub fn finish(mut self) -> Vec<Contact> {
        for ((a, b), iv) in self.open.drain() {
            self.done.push(Contact::new(a, b, iv));
        }
        self.done
            .sort_by_key(|c| (c.interval.start, c.a, c.b, c.interval.end));
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Time, a: u32, b: u32) -> ContactEvent {
        ContactEvent::new(t, ObjectId(a), ObjectId(b))
    }

    #[test]
    fn event_normalizes_pair_order() {
        let e = ev(3, 7, 2);
        assert_eq!(e.pair(), (ObjectId(2), ObjectId(7)));
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn event_rejects_self_contact() {
        let _ = ev(0, 4, 4);
    }

    #[test]
    fn contact_peer() {
        let c = Contact::new(ObjectId(1), ObjectId(2), TimeInterval::new(0, 3));
        assert_eq!(c.peer(ObjectId(1)), Some(ObjectId(2)));
        assert_eq!(c.peer(ObjectId(2)), Some(ObjectId(1)));
        assert_eq!(c.peer(ObjectId(3)), None);
    }

    #[test]
    fn accumulator_merges_continuous_runs() {
        let mut acc = ContactAccumulator::new();
        for t in 0..=3 {
            acc.push(ev(t, 1, 2));
        }
        let contacts = acc.finish();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].interval, TimeInterval::new(0, 3));
    }

    #[test]
    fn accumulator_splits_on_gap() {
        // The paper's Figure 1: {o1,o2} meet at [0,0] and again at [2,3] —
        // two distinct contacts.
        let mut acc = ContactAccumulator::new();
        acc.push(ev(0, 1, 2));
        acc.push(ev(2, 1, 2));
        acc.push(ev(3, 1, 2));
        let contacts = acc.finish();
        assert_eq!(contacts.len(), 2);
        assert_eq!(contacts[0].interval, TimeInterval::new(0, 0));
        assert_eq!(contacts[1].interval, TimeInterval::new(2, 3));
    }

    #[test]
    fn accumulator_tracks_pairs_independently() {
        let mut acc = ContactAccumulator::new();
        acc.push(ev(0, 1, 2));
        acc.push(ev(0, 3, 4));
        acc.push(ev(1, 1, 2));
        let contacts = acc.finish();
        assert_eq!(contacts.len(), 2);
        assert_eq!(
            contacts
                .iter()
                .find(|c| c.a == ObjectId(1))
                .expect("pair (1,2) present")
                .interval,
            TimeInterval::new(0, 1)
        );
        assert_eq!(
            contacts
                .iter()
                .find(|c| c.a == ObjectId(3))
                .expect("pair (3,4) present")
                .interval,
            TimeInterval::new(0, 0)
        );
    }

    #[test]
    fn accumulator_duplicate_event_same_tick_is_idempotent() {
        let mut acc = ContactAccumulator::new();
        acc.push(ev(5, 1, 2));
        acc.push(ev(5, 2, 1));
        let contacts = acc.finish();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].interval, TimeInterval::new(5, 5));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn accumulator_rejects_out_of_order() {
        let mut acc = ContactAccumulator::new();
        acc.push(ev(5, 1, 2));
        acc.push(ev(4, 1, 2));
    }
}
