//! Seeded inputs: random-waypoint trajectories and paper-style query sets.
//!
//! The scaling follows the repository's experiment presets: 6·10⁻⁵ objects
//! per m², 0.5–1.5 m/s, 6 s ticks, Bluetooth contact threshold 25 m, and
//! 512-byte simulated pages so grid cells and graph partitions span several
//! pages. Generating inputs is never timed.

use reach_core::{Contact, Environment, ObjectId, Query, Time, TimeInterval};
use reach_graph::GraphParams;
use reach_mobility::{RwpConfig, WorkloadConfig};
use reach_traj::TrajectoryStore;

/// Contact threshold `d_T` in metres (paper: Bluetooth, 25 m).
pub const THRESHOLD: f32 = 25.0;

/// Simulated device page size in bytes.
pub const PAGE_SIZE: usize = 512;

/// Seed of every dataset (trajectories and the contact stream made from
/// them). The workload seed picks the queries and bursts only: RWP datasets
/// of one size differ a lot in connectivity from seed to seed (one seed's
/// live stream served about 1.5× the queries per second of another's), which
/// would drown a program change, so all runs measure one corpus under
/// different query samples.
pub const DATASET_SEED: u64 = 1;

/// Shortest and longest query window in ticks (paper §6: 150–350).
pub const WINDOW: (Time, Time) = (150, 350);

/// A random-waypoint dataset shape.
#[derive(Clone, Copy, Debug)]
pub struct Rwp {
    /// Number of objects.
    pub objects: usize,
    /// Horizon in ticks.
    pub horizon: Time,
}

impl Rwp {
    /// Side of the square environment that keeps the preset density.
    pub fn env_side(&self) -> f32 {
        (self.objects as f64 / 6.0e-5).sqrt() as f32
    }

    /// The trajectories for `seed`.
    pub fn generate(&self, seed: u64) -> TrajectoryStore {
        RwpConfig {
            env: Environment::square(self.env_side()),
            num_objects: self.objects,
            horizon: self.horizon,
            tick_seconds: 6.0,
            speed_min: 0.5,
            speed_max: 1.5,
            pause_ticks_max: 4,
        }
        .generate(seed)
    }
}

/// ReachGraph parameters of every graph index here (the cold workload's and
/// the live shards'): partition depth 8, the repository's tuned value for
/// its scaled datasets, on 512-byte pages.
pub fn graph_params() -> GraphParams {
    GraphParams {
        partition_depth: 8,
        page_size: PAGE_SIZE,
        ..GraphParams::default()
    }
}

/// `n` paper-style queries (random source ≠ destination, 150–350-tick
/// window) over `[0, horizon)`.
pub fn queries(n: usize, objects: usize, horizon: Time, seed: u64) -> Vec<Query> {
    WorkloadConfig {
        num_queries: n,
        interval_len_min: WINDOW.0,
        interval_len_max: WINDOW.1,
    }
    .generate(objects, horizon, seed)
}

/// Ticks of one reporting period of the live feed, equal to the live
/// index's lateness slack.
pub const REPORT_PERIOD: Time = 16;

/// The maximal contacts `contacts` as a live feed reports them: each one
/// cut at every multiple of `period` (one record per period it overlaps),
/// ordered by start tick (ties by pair). A seal cuts at most `lateness`
/// ticks below the newest tick seen, and every record seen so far ends
/// within the current record's period, so with `period` = lateness no
/// record is ever late: the index accepts the stream unclamped and whole.
pub fn reported_stream(contacts: &[Contact], period: Time) -> Vec<Contact> {
    let mut stream = Vec::with_capacity(contacts.len());
    for c in contacts {
        let mut lo = c.interval.start;
        while lo <= c.interval.end {
            let hi = (lo - lo % period + period - 1).min(c.interval.end);
            stream.push(Contact::new(c.a, c.b, TimeInterval::new(lo, hi)));
            lo = hi + 1;
        }
    }
    stream.sort_by_key(|c| (c.interval.start, c.a, c.b));
    stream
}

/// Per-tick contact pairs of `contacts`, the input of
/// [`reach_contact::Oracle::from_events`].
pub fn events_by_tick(contacts: &[Contact], horizon: Time) -> Vec<Vec<(u32, u32)>> {
    let mut per_tick = vec![Vec::new(); horizon as usize];
    for c in contacts {
        for t in c.interval.ticks() {
            per_tick[t as usize].push((c.a.0, c.b.0));
        }
    }
    per_tick
}

/// SplitMix64: derives independent sub-seeds (dataset, queries, bursts)
/// from the one workload seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for burst shapes (xorshift over a
/// derived seed).
pub struct Draw(u64);

impl Draw {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(derive(seed, 0xD1CE) | 1)
    }

    /// The next value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A random object id.
    pub fn object(&mut self, objects: usize) -> ObjectId {
        ObjectId(self.below(objects as u64) as u32)
    }

    /// A window of paper length ending at `end` (clamped at tick 0).
    pub fn window_ending(&mut self, end: Time) -> TimeInterval {
        let len = WINDOW.0 + self.below(u64::from(WINDOW.1 - WINDOW.0 + 1)) as Time;
        TimeInterval::new(end.saturating_sub(len - 1), end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_stream_cuts_contacts_at_period_boundaries() {
        let c = |a, b, s, e| Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e));
        let contacts = [c(0, 1, 5, 40), c(1, 2, 16, 16), c(0, 2, 3, 9)];
        let stream = reported_stream(&contacts, 16);
        let expected = [
            c(0, 2, 3, 9),
            c(0, 1, 5, 15),
            c(0, 1, 16, 31),
            c(1, 2, 16, 16),
            c(0, 1, 32, 40),
        ];
        assert_eq!(stream, expected);
        // The same contact pairs at the same ticks.
        let sorted = |mut ticks: Vec<Vec<(u32, u32)>>| {
            ticks.iter_mut().for_each(|t| t.sort_unstable());
            ticks
        };
        assert_eq!(
            sorted(events_by_tick(&stream, 41)),
            sorted(events_by_tick(&contacts, 41))
        );
    }
}
