//! The mutable delta: a time-partitioned DN fragment covering
//! `[watermark, now)`.
//!
//! The sealed base indexes are build-once; everything newer than the
//! watermark lives here, in a structure built for *absorption* rather than
//! traversal (the direction of Brito et al. 2021, PAPERS.md: keep unsorted
//! insertions in a bounded mutable structure and merge periodically).
//! `DeltaDn` maintains, per object pair, the set of maximal contact runs —
//! an insertion is a sorted-vector splice plus run coalescing, so
//! out-of-order arrivals within the lateness window cost `O(log runs)` and
//! the stored state is always the canonical merged-contact form.
//!
//! Queries over the delta run exact earliest-arrival propagation
//! ([`DeltaDn::propagate`]): the paper's snapshot-closure semantics applied
//! tick by tick, seeded either by a query source (delta-only queries) or by
//! the earliest-arrival frontier a sealed base extracted at the watermark
//! (cross-boundary queries). The delta is kept small by compaction — its
//! resident bytes are measured deterministically so a
//! [`BuildBudget`](reach_storage::BuildBudget) can bound them.

use reach_contact::{DnGraph, MultiRes};
use reach_core::{Contact, ObjectId, Time, TimeInterval, UnionFind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Deterministic per-pair overhead in the resident-byte accounting
/// (key + vec header + map node); element cost is 8 bytes per run.
const PAIR_BYTES: usize = 48;
/// Deterministic per-run cost in the resident-byte accounting.
const RUN_BYTES: usize = 8;

/// A mutable DN fragment over `[watermark, now)` (see the module docs).
#[derive(Debug)]
pub struct DeltaDn {
    watermark: Time,
    now: Time,
    /// Per pair (`a < b`): disjoint, non-abutting maximal runs, ascending.
    runs: BTreeMap<(u32, u32), Vec<TimeInterval>>,
    run_count: u64,
    records: u64,
    resident_bytes: usize,
    /// The materialized start-sorted contact list [`DeltaDn::propagate`]
    /// sweeps — rebuilt lazily after a mutation, so a query-heavy phase
    /// pays the materialization once, not per query. Not part of the
    /// budget: it duplicates `runs` only between a query and the next
    /// insert. Interior-mutable (and `Arc`-shared with in-flight sweeps)
    /// so concurrent readers can propagate under a shared borrow.
    sweep_cache: Mutex<Option<Arc<Vec<Contact>>>>,
    /// The delta's contacts materialized as a deviation network — what
    /// decay-weighted queries traverse (transfer counting needs DN₁-edge
    /// structure, which the boolean tick sweep never builds). Cached like
    /// `sweep_cache`: invalidated by every mutation, shared by readers.
    decay_cache: Mutex<Option<Arc<(DnGraph, MultiRes)>>>,
}

impl Clone for DeltaDn {
    fn clone(&self) -> Self {
        Self {
            watermark: self.watermark,
            now: self.now,
            runs: self.runs.clone(),
            run_count: self.run_count,
            records: self.records,
            resident_bytes: self.resident_bytes,
            sweep_cache: Mutex::new(None),
            decay_cache: Mutex::new(None),
        }
    }
}

impl DeltaDn {
    /// Worst-case resident-byte cost one absorbed record can add (a fresh
    /// pair entry plus one run). Budget sizing that wants "compact roughly
    /// every N records" multiplies by this instead of guessing the
    /// accounting constants.
    pub const MAX_RECORD_RESIDENT_BYTES: usize = PAIR_BYTES + RUN_BYTES;

    /// An empty delta starting at `watermark` (with `now == watermark`).
    pub fn new(watermark: Time) -> Self {
        Self {
            watermark,
            now: watermark,
            runs: BTreeMap::new(),
            run_count: 0,
            records: 0,
            resident_bytes: 0,
            sweep_cache: Mutex::new(None),
            decay_cache: Mutex::new(None),
        }
    }

    /// The sealed boundary: every tick in this delta is `≥ watermark`.
    pub fn watermark(&self) -> Time {
        self.watermark
    }

    /// One past the newest tick seen (the live horizon).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the live clock without inserting anything (silent ticks).
    pub fn advance(&mut self, to: Time) {
        self.now = self.now.max(to);
    }

    /// Records absorbed since the last compaction.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Maximal runs currently stored.
    pub fn runs(&self) -> u64 {
        self.run_count
    }

    /// Whether the delta holds no contacts.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Deterministic resident-byte estimate — the number a compaction
    /// budget bounds. Independent of allocator state and growth history.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Absorbs one contact. Out-of-order and overlapping insertions are
    /// fine; runs of the pair are spliced and re-coalesced in place.
    ///
    /// # Panics
    ///
    /// Panics if the contact starts before the watermark (lateness policy
    /// is the caller's job — [`ShardedLive`](crate::ShardedLive) clamps or
    /// rejects *before* the delta sees the record), is a self-contact, or
    /// ends at `Time::MAX` (whose exclusive horizon `end + 1` is
    /// unrepresentable; the live index rejects such records upstream).
    pub fn insert(&mut self, c: Contact) {
        assert!(
            c.interval.start >= self.watermark,
            "contact {c:?} starts before the watermark {}",
            self.watermark
        );
        assert!(c.a != c.b, "self-contact {c:?}");
        assert!(
            c.interval.end < Time::MAX,
            "contact {c:?} ends at Time::MAX; its horizon is unrepresentable"
        );
        *self
            .sweep_cache
            .get_mut()
            .expect("sweep cache lock poisoned") = None;
        *self
            .decay_cache
            .get_mut()
            .expect("decay cache lock poisoned") = None;
        self.records += 1;
        self.now = self.now.max(c.interval.end + 1);
        let runs = self.runs.entry((c.a.0, c.b.0)).or_insert_with(|| {
            self.resident_bytes += PAIR_BYTES;
            Vec::new()
        });
        // Splice `c.interval` in at its sorted position, then swallow every
        // neighbor it overlaps or abuts (closed-interval coalescing: a gap
        // of zero ticks merges, per the paper's §3.1 contact definition).
        let mut iv = c.interval;
        let i = runs.partition_point(|r| r.end.saturating_add(1) < iv.start);
        // `i` is the first run that could touch `iv`; absorb while touching.
        let mut removed = 0usize;
        while i + removed < runs.len() {
            let r = runs[i + removed];
            if r.start > iv.end.saturating_add(1) {
                break;
            }
            iv = iv.hull(&r);
            removed += 1;
        }
        runs.splice(i..i + removed, std::iter::once(iv));
        let delta_runs = 1isize - removed as isize;
        self.run_count = (self.run_count as i64 + delta_runs as i64) as u64;
        self.resident_bytes =
            (self.resident_bytes as isize + delta_runs * RUN_BYTES as isize) as usize;
    }

    /// The contacts a seal at `cut` would freeze: every run tick `< cut`,
    /// with runs straddling the cut split at it. **Read-only** — compaction
    /// builds the new base from this list first and commits the delta side
    /// with [`DeltaDn::discard_below`] only after the (fallible) build
    /// succeeded, so a failed rebuild leaves the delta untouched.
    pub fn sealed_head(&self, cut: Time) -> Vec<Contact> {
        assert!(
            cut >= self.watermark,
            "cut {cut} behind the watermark {}",
            self.watermark
        );
        let mut sealed = Vec::new();
        for (&(a, b), runs) in &self.runs {
            for &iv in runs {
                if iv.start >= cut {
                    continue;
                }
                let end = iv.end.min(cut - 1);
                sealed.push(Contact::new(
                    ObjectId(a),
                    ObjectId(b),
                    TimeInterval::new(iv.start, end),
                ));
            }
        }
        sealed
    }

    /// Commits a seal at `cut`: drops every tick `< cut` (trimming
    /// straddling runs), advances the watermark to `cut`, and keeps the
    /// tail resident — this is how a compaction keeps the bounded-lateness
    /// window open instead of slamming it shut at `now`. The dropped head
    /// is exactly what [`DeltaDn::sealed_head`] returned for the same cut.
    pub fn discard_below(&mut self, cut: Time) {
        assert!(
            cut >= self.watermark,
            "cut {cut} behind the watermark {}",
            self.watermark
        );
        let mut retained: BTreeMap<(u32, u32), Vec<TimeInterval>> = BTreeMap::new();
        let mut run_count = 0u64;
        let mut resident = 0usize;
        for (&pair, runs) in &self.runs {
            let tail: Vec<TimeInterval> = runs
                .iter()
                .filter(|iv| iv.end >= cut)
                .map(|iv| TimeInterval::new(iv.start.max(cut), iv.end))
                .collect();
            if !tail.is_empty() {
                run_count += tail.len() as u64;
                resident += PAIR_BYTES + tail.len() * RUN_BYTES;
                retained.insert(pair, tail);
            }
        }
        self.runs = retained;
        self.run_count = run_count;
        self.resident_bytes = resident;
        self.records = run_count; // what's left is what was re-admitted
        self.watermark = cut;
        self.now = self.now.max(cut);
        *self
            .sweep_cache
            .get_mut()
            .expect("sweep cache lock poisoned") = None;
        *self
            .decay_cache
            .get_mut()
            .expect("decay cache lock poisoned") = None;
    }

    /// The delta's contacts in canonical maximal-run form, sorted by
    /// `(a, b, start)`. This is the event stream compaction merges with the
    /// base's chains.
    pub fn contacts(&self) -> Vec<Contact> {
        let mut out = Vec::with_capacity(self.run_count as usize);
        for (&(a, b), runs) in &self.runs {
            for &iv in runs {
                out.push(Contact::new(ObjectId(a), ObjectId(b), iv));
            }
        }
        out
    }

    /// The delta's contacts as a deviation network (plus an empty
    /// multi-resolution layer, so the generic `HN` traversals apply) —
    /// the structure decay-weighted queries walk, since transfer counting
    /// is defined on DN₁ edges and the boolean tick sweep never builds
    /// them. `None` when the delta holds no contacts (a decay leg over an
    /// empty delta is a no-op).
    ///
    /// The graph's horizon is one past the last stored contact tick, not
    /// [`DeltaDn::now`]: silence after the final contact cannot change any
    /// weight, and an [`DeltaDn::advance`]d clock must not inflate the
    /// build. Built lazily, cached until the next mutation, and shared by
    /// concurrent readers through the `Arc`.
    pub fn decay_graph(&self, num_objects: usize) -> Option<Arc<(DnGraph, MultiRes)>> {
        if self.runs.is_empty() {
            return None;
        }
        let mut cache = self.decay_cache.lock().expect("decay cache lock poisoned");
        if cache.is_none() {
            let horizon = self
                .runs
                .values()
                .flatten()
                .map(|iv| iv.end + 1)
                .max()
                .expect("non-empty runs");
            let dn = DnGraph::from_contacts(num_objects, horizon, &self.contacts());
            let mr = MultiRes::build(&dn, &[]);
            *cache = Some(Arc::new((dn, mr)));
        }
        Some(Arc::clone(cache.as_ref().expect("cache just filled")))
    }

    /// Exact earliest-arrival propagation through the delta: seeds `(o, t)`
    /// hold the item from tick `t` on (frontier seeds carry arrivals before
    /// the watermark — they simply hold from the window start), and each
    /// tick's events close over connected components (the paper's snapshot
    /// transitivity). Returns each object's earliest hold tick, stopping
    /// early once `stop_at` is infected.
    ///
    /// Each active tick unions its pairs in an epoch-reset [`UnionFind`],
    /// then closes in two passes over the same pairs: the first stamps the
    /// root of every pair with a holding endpoint as *hot*, the second
    /// infects both endpoints of every pair whose root is hot. A component
    /// is hot exactly when one of its members held the item by `t`, so
    /// this is the snapshot closure without materializing any component.
    /// Every buffer is allocated once per call and reused across ticks: a
    /// tick allocates nothing, hashes nothing and sorts nothing.
    pub fn propagate(
        &self,
        num_objects: usize,
        seeds: &[(ObjectId, Time)],
        until: Time,
        stop_at: Option<ObjectId>,
    ) -> Vec<Option<Time>> {
        let mut when: Vec<Option<Time>> = vec![None; num_objects];
        for &(o, t) in seeds {
            let slot = &mut when[o.index()];
            *slot = Some(slot.map_or(t, |have: Time| have.min(t)));
        }
        if let Some(d) = stop_at {
            // No delta event precedes the watermark, so a destination
            // seeded by then already has its earliest arrival. One seeded
            // later can still be reached sooner by the sweep.
            if when[d.index()].is_some_and(|w| w <= self.watermark) {
                return when;
            }
        }
        if self.runs.is_empty() || until < self.watermark {
            return when;
        }
        // Interval sweep over the stored runs, restricted to the window.
        // The start-sorted contact list is cached across queries and only
        // rebuilt after a mutation; concurrent readers share one build
        // through the `Arc`.
        let contacts = {
            let mut cache = self.sweep_cache.lock().expect("sweep cache lock poisoned");
            if cache.is_none() {
                let mut contacts = self.contacts();
                contacts.sort_unstable_by_key(|c| c.interval.start);
                *cache = Some(Arc::new(contacts));
            }
            Arc::clone(cache.as_ref().expect("cache just filled"))
        };
        let contacts = contacts.as_slice();
        let mut uf = UnionFind::new(num_objects);
        let mut buf: Vec<(u32, u32)> = Vec::new();
        // `hot[root] == t`: the component rooted there holds the item at
        // active tick `t`. An active tick lies inside a stored run, which
        // ends before `Time::MAX`, so the fill value is never a tick.
        let mut hot: Vec<Time> = vec![Time::MAX; num_objects];
        // Event-driven interval sweep: cost is O(active pair-ticks), not
        // O(horizon span) — silent stretches (an `advance`d clock, sparse
        // feeds) are jumped over, not iterated.
        let mut next = 0usize;
        let mut active: Vec<usize> = Vec::new();
        let mut t = self.watermark;
        while t <= until {
            if active.is_empty() {
                // Nothing running: jump straight to the next activation.
                let Some(c) = contacts.get(next) else { break };
                if c.interval.start > until {
                    break;
                }
                t = t.max(c.interval.start);
            }
            while next < contacts.len() && contacts[next].interval.start <= t {
                active.push(next);
                next += 1;
            }
            buf.clear();
            active.retain(|&i| {
                let c = &contacts[i];
                if c.interval.end < t {
                    return false;
                }
                buf.push((c.a.0, c.b.0));
                true
            });
            if buf.is_empty() {
                t += 1;
                continue;
            }
            uf.reset();
            for &(a, b) in &buf {
                uf.union(a, b);
            }
            let holds = |m: u32| when[m as usize].is_some_and(|w| w <= t);
            for &(a, b) in &buf {
                if holds(a) || holds(b) {
                    hot[uf.find(a) as usize] = t;
                }
            }
            for &(a, b) in &buf {
                if hot[uf.find(a) as usize] != t {
                    continue;
                }
                for m in [a, b] {
                    let slot = &mut when[m as usize];
                    if slot.is_none_or(|w| w > t) {
                        *slot = Some(t);
                        if stop_at == Some(ObjectId(m)) {
                            return when;
                        }
                    }
                }
            }
            t += 1;
        }
        when
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(a: u32, b: u32, s: Time, e: Time) -> Contact {
        Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
    }

    #[test]
    fn inserts_coalesce_out_of_order_runs() {
        let mut d = DeltaDn::new(10);
        d.insert(c(0, 1, 20, 22));
        d.insert(c(0, 1, 10, 12)); // earlier, out of order
        d.insert(c(0, 1, 13, 15)); // abuts the second run
        assert_eq!(d.runs(), 2);
        let contacts = d.contacts();
        assert_eq!(contacts[0].interval, TimeInterval::new(10, 15));
        assert_eq!(contacts[1].interval, TimeInterval::new(20, 22));
        d.insert(c(0, 1, 14, 21)); // bridges both runs
        assert_eq!(d.runs(), 1);
        assert_eq!(d.contacts()[0].interval, TimeInterval::new(10, 22));
        assert_eq!(d.records(), 4);
        assert_eq!(d.now(), 23);
    }

    #[test]
    fn resident_bytes_track_pairs_and_runs() {
        let mut d = DeltaDn::new(0);
        assert_eq!(d.resident_bytes(), 0);
        d.insert(c(0, 1, 0, 0));
        assert_eq!(d.resident_bytes(), PAIR_BYTES + RUN_BYTES);
        d.insert(c(0, 1, 5, 5));
        assert_eq!(d.resident_bytes(), PAIR_BYTES + 2 * RUN_BYTES);
        d.insert(c(0, 1, 1, 4)); // merges everything into one run
        assert_eq!(d.resident_bytes(), PAIR_BYTES + RUN_BYTES);
        d.insert(c(2, 3, 0, 9));
        assert_eq!(d.resident_bytes(), 2 * (PAIR_BYTES + RUN_BYTES));
    }

    #[test]
    #[should_panic(expected = "starts before the watermark")]
    fn inserts_below_the_watermark_panic() {
        let mut d = DeltaDn::new(10);
        d.insert(c(0, 1, 9, 12));
    }

    #[test]
    fn sealed_head_and_discard_split_at_the_cut() {
        let mut d = DeltaDn::new(0);
        d.insert(c(0, 1, 0, 3));
        d.insert(c(0, 1, 10, 12));
        d.insert(c(2, 3, 4, 9)); // straddles the cut
        let sealed = d.sealed_head(6);
        assert_eq!(
            sealed,
            vec![c(0, 1, 0, 3), c(2, 3, 4, 5)],
            "head runs sealed, straddler split"
        );
        // sealed_head is read-only: nothing moved yet.
        assert_eq!(d.watermark(), 0);
        assert_eq!(d.runs(), 3);
        d.discard_below(6);
        assert_eq!(d.watermark(), 6);
        let tail = d.contacts();
        assert_eq!(tail, vec![c(0, 1, 10, 12), c(2, 3, 6, 9)]);
        assert_eq!(d.runs(), 2);
        assert_eq!(d.resident_bytes(), 2 * (PAIR_BYTES + RUN_BYTES));
        // A full seal drains everything.
        assert_eq!(d.sealed_head(13).len(), 2);
        d.discard_below(13);
        assert!(d.is_empty());
        assert_eq!(d.resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "Time::MAX")]
    fn inserts_ending_at_time_max_panic() {
        let mut d = DeltaDn::new(0);
        d.insert(c(0, 1, 5, Time::MAX));
    }

    #[test]
    fn propagate_matches_oracle_semantics() {
        // o0 meets o1 at t=5, o1 meets o2 at t=7: one hop per meeting.
        let mut d = DeltaDn::new(4);
        d.insert(c(0, 1, 5, 5));
        d.insert(c(1, 2, 7, 7));
        let when = d.propagate(3, &[(ObjectId(0), 4)], 8, None);
        assert_eq!(when, vec![Some(4), Some(5), Some(7)]);
        // Chronology: the o1-o2 meeting precedes the o0-o1 one from o2's view.
        let when = d.propagate(3, &[(ObjectId(2), 4)], 8, None);
        assert_eq!(when, vec![None, Some(7), Some(4)]);
        // A seed activating *after* an event must not use it.
        let when = d.propagate(3, &[(ObjectId(0), 6)], 8, None);
        assert_eq!(when, vec![Some(6), None, None]);
    }

    #[test]
    fn propagate_closes_over_snapshot_components() {
        // Chain a-b, b-c in one tick: the item crosses the whole component.
        let mut d = DeltaDn::new(0);
        d.insert(c(0, 1, 3, 3));
        d.insert(c(1, 2, 3, 3));
        let when = d.propagate(3, &[(ObjectId(0), 0)], 3, None);
        assert_eq!(when, vec![Some(0), Some(3), Some(3)]);
    }

    #[test]
    fn propagate_skips_silent_stretches() {
        // One early meeting, then a billion silent ticks: the sweep must
        // jump the silence, not iterate it.
        let mut d = DeltaDn::new(0);
        d.insert(c(0, 1, 5, 5));
        d.advance(1_000_000_000);
        let started = std::time::Instant::now();
        let when = d.propagate(2, &[(ObjectId(0), 0)], 999_999_999, None);
        assert_eq!(when, vec![Some(0), Some(5)]);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "silent-horizon propagation must be O(events), took {:?}",
            started.elapsed()
        );
        // And a seed activating inside the silence still resolves.
        let when = d.propagate(2, &[(ObjectId(1), 900_000_000)], 999_999_999, None);
        assert_eq!(when, vec![None, Some(900_000_000)]);
    }

    #[test]
    fn propagate_stops_early_at_the_destination() {
        let mut d = DeltaDn::new(0);
        d.insert(c(0, 1, 1, 1));
        d.insert(c(1, 2, 2, 2));
        d.insert(c(2, 3, 3, 3));
        let when = d.propagate(4, &[(ObjectId(0), 0)], 10, Some(ObjectId(2)));
        assert_eq!(when[2], Some(2));
        assert_eq!(when[3], None, "propagation stopped before t=3");
    }

    #[test]
    fn frontier_seeds_hold_from_the_window_start() {
        // Seeds with pre-watermark arrivals (a base frontier) spread on the
        // first delta event.
        let mut d = DeltaDn::new(10);
        d.insert(c(1, 2, 10, 10));
        let when = d.propagate(3, &[(ObjectId(0), 3), (ObjectId(1), 7)], 10, None);
        assert_eq!(when, vec![Some(3), Some(7), Some(10)]);
    }
}
