//! IO accounting in the paper's cost model.
//!
//! The paper measures query cost as the number of random IOs, normalizing
//! sequential accesses at a 20:1 ratio (§6): *"the sequential IOs are
//! normalized to random accesses by assuming that each random access costs
//! as much as 20 sequential accesses"*.
//!
//! Writes are classified the same way (an append-only construction sweep is
//! one seek plus sequential page writes; re-visiting a directory page is a
//! seek), so index-construction cost is reported in the same normalized
//! currency as query cost. Reads and writes track separate head positions:
//! the build phase issues no reads and the query phase no writes, so the
//! streams never contend for one head in practice, and keeping them apart
//! makes construction cost independent of interleaved metadata reads.

use crate::device::PageId;
use reach_core::SEQ_PER_RANDOM;
use std::ops::{Add, Sub};

/// Cumulative IO counters of a block device.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IoStats {
    /// Page reads that required a seek (the previous read was not the
    /// immediately preceding page).
    pub random_reads: u64,
    /// Page reads that continued a consecutive forward scan.
    pub seq_reads: u64,
    /// Page writes that required a seek.
    pub random_writes: u64,
    /// Page writes that continued a consecutive forward scan.
    pub seq_writes: u64,
    /// Reads served from the page cache without touching the device.
    pub cache_hits: u64,
    /// Pages this handle filled by readahead prefetch (each is also counted
    /// as a classified device read above — prefetch batches the fetch, it
    /// never changes what the device is charged).
    pub prefetched: u64,
    /// The subset of [`IoStats::cache_hits`] that landed on a
    /// readahead-prefetched page (its first demand access).
    pub prefetch_hits: u64,
}

impl IoStats {
    /// Total device page reads (random + sequential, excluding cache hits).
    pub fn total_reads(&self) -> u64 {
        self.random_reads + self.seq_reads
    }

    /// Total device page writes (random + sequential).
    pub fn total_writes(&self) -> u64 {
        self.random_writes + self.seq_writes
    }

    /// Normalized read count `random + seq/20` — the paper's reported
    /// query-cost metric.
    pub fn normalized(&self) -> f64 {
        self.random_reads as f64 + self.seq_reads as f64 / SEQ_PER_RANDOM as f64
    }

    /// Normalized write count `random + seq/20` (construction cost in the
    /// same currency as [`IoStats::normalized`]).
    pub fn normalized_writes(&self) -> f64 {
        self.random_writes as f64 + self.seq_writes as f64 / SEQ_PER_RANDOM as f64
    }

    /// Fraction of page requests (device reads + cache hits) served from
    /// cache; 0 when nothing was read at all.
    pub fn cache_hit_rate(&self) -> f64 {
        let requests = self.total_reads() + self.cache_hits;
        if requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / requests as f64
        }
    }

    /// Human-readable one-liner surfacing both the read and the write
    /// classification plus cache hits (with their hit rate) and prefetch
    /// activity.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "reads {} random + {} seq (norm {:.2}), writes {} random + {} seq (norm {:.2}), {} cache hits ({:.1}% hit rate)",
            self.random_reads,
            self.seq_reads,
            self.normalized(),
            self.random_writes,
            self.seq_writes,
            self.normalized_writes(),
            self.cache_hits,
            self.cache_hit_rate() * 100.0,
        );
        if self.prefetched > 0 || self.prefetch_hits > 0 {
            s.push_str(&format!(
                ", {} prefetched / {} prefetch hits",
                self.prefetched, self.prefetch_hits
            ));
        }
        s
    }

    /// Takes the accumulated counters, leaving zeros behind — the drain
    /// primitive for *owned* `IoStats` aggregates (e.g. a service handing
    /// off its per-phase totals to a reporter and starting fresh).
    ///
    /// Do **not** reach for this to attribute a live device's counters to
    /// phases: draining would have to go through the device's reset, which
    /// also wipes the head position and distorts the sequential/random
    /// classification of whatever runs next. That job belongs to
    /// [`IoSampler`], which diffs snapshots without ever resetting.
    pub fn take(&mut self) -> IoStats {
        std::mem::take(self)
    }

    /// Counters accumulated since `earlier` (element-wise saturating
    /// difference); used to attribute IO to a single query.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            random_reads: self.random_reads.saturating_sub(earlier.random_reads),
            seq_reads: self.seq_reads.saturating_sub(earlier.seq_reads),
            random_writes: self.random_writes.saturating_sub(earlier.random_writes),
            seq_writes: self.seq_writes.saturating_sub(earlier.seq_writes),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            prefetched: self.prefetched.saturating_sub(earlier.prefetched),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
        }
    }
}

impl From<IoStats> for reach_obs::IoDelta {
    /// The span-local slice of these counters: trace spans attribute the
    /// classified device reads/writes and cache hits (prefetch bookkeeping
    /// stays an `IoStats`-level detail — a prefetched page is already
    /// counted as a classified read).
    fn from(s: IoStats) -> Self {
        reach_obs::IoDelta {
            random_reads: s.random_reads,
            seq_reads: s.seq_reads,
            random_writes: s.random_writes,
            seq_writes: s.seq_writes,
            cache_hits: s.cache_hits,
        }
    }
}

impl Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            random_reads: self.random_reads + rhs.random_reads,
            seq_reads: self.seq_reads + rhs.seq_reads,
            random_writes: self.random_writes + rhs.random_writes,
            seq_writes: self.seq_writes + rhs.seq_writes,
            cache_hits: self.cache_hits + rhs.cache_hits,
            prefetched: self.prefetched + rhs.prefetched,
            prefetch_hits: self.prefetch_hits + rhs.prefetch_hits,
        }
    }
}

impl Sub for IoStats {
    type Output = IoStats;
    fn sub(self, rhs: IoStats) -> IoStats {
        self.since(&rhs)
    }
}

/// Shared IO-accounting state embedded by every
/// [`BlockDevice`](crate::BlockDevice) implementation, so the
/// sequential/random classification is identical across backends.
#[derive(Clone, Copy, Default, Debug)]
pub struct IoTracker {
    stats: IoStats,
    last_read: Option<PageId>,
    last_write: Option<PageId>,
}

impl IoTracker {
    /// Fresh tracker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies and counts one page read.
    pub fn note_read(&mut self, id: PageId) {
        if self.last_read.map(|p| p + 1) == Some(id) {
            self.stats.seq_reads += 1;
        } else {
            self.stats.random_reads += 1;
        }
        self.last_read = Some(id);
    }

    /// Classifies and counts one page write.
    pub fn note_write(&mut self, id: PageId) {
        if self.last_write.map(|p| p + 1) == Some(id) {
            self.stats.seq_writes += 1;
        } else {
            self.stats.random_writes += 1;
        }
        self.last_write = Some(id);
    }

    /// Counts one buffer-pool hit.
    pub fn note_cache_hit(&mut self) {
        self.stats.cache_hits += 1;
    }

    /// Counts one page filled by readahead prefetch (the classified device
    /// read is counted separately through [`IoTracker::note_read`]).
    pub fn note_prefetched(&mut self) {
        self.stats.prefetched += 1;
    }

    /// Counts one cache hit that landed on a prefetched page (call *in
    /// addition* to [`IoTracker::note_cache_hit`]).
    pub fn note_prefetch_hit(&mut self) {
        self.stats.prefetch_hits += 1;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Clears counters and both head positions.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Forgets both head positions without clearing counters.
    pub fn break_sequence(&mut self) {
        self.last_read = None;
        self.last_write = None;
    }
}

/// Attributes a device's monotonically growing counters to *phases*.
///
/// Devices only accumulate ([`IoStats`] never shrinks while the device
/// lives), which is the right model for the paper's build/query split but
/// useless for a long-lived service that wants "IO of this query" and "IO of
/// that compaction" out of one device. An `IoSampler` remembers the counter
/// state at the previous sampling point; [`IoSampler::sample`] returns what
/// accumulated since, without ever resetting the device (resets would also
/// wipe the head position and distort the sequential/random classification
/// of whatever runs next).
#[derive(Clone, Copy, Default, Debug)]
pub struct IoSampler {
    last: IoStats,
}

impl IoSampler {
    /// A sampler whose first [`IoSampler::sample`] reports everything the
    /// device has ever counted.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sampler that starts measuring at `baseline` (counters accumulated
    /// before it are attributed to no phase).
    pub fn starting_at(baseline: IoStats) -> Self {
        Self { last: baseline }
    }

    /// Counters accumulated since the previous sample (or since
    /// construction), advancing the sampling point to `current`.
    pub fn sample(&mut self, current: IoStats) -> IoStats {
        let delta = current.since(&self.last);
        self.last = current;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_matches_paper_ratio() {
        let s = IoStats {
            random_reads: 2,
            seq_reads: 60,
            random_writes: 1,
            seq_writes: 40,
            cache_hits: 100,
            ..IoStats::default()
        };
        assert!((s.normalized() - 5.0).abs() < 1e-12);
        assert!((s.normalized_writes() - 3.0).abs() < 1e-12);
        assert_eq!(s.total_reads(), 62);
        assert_eq!(s.total_writes(), 41);
    }

    #[test]
    fn since_is_elementwise_difference() {
        let a = IoStats {
            random_reads: 10,
            seq_reads: 20,
            random_writes: 30,
            seq_writes: 31,
            cache_hits: 40,
            prefetched: 12,
            prefetch_hits: 9,
        };
        let b = IoStats {
            random_reads: 4,
            seq_reads: 5,
            random_writes: 6,
            seq_writes: 2,
            cache_hits: 7,
            prefetched: 3,
            prefetch_hits: 1,
        };
        let d = a.since(&b);
        assert_eq!(
            d,
            IoStats {
                random_reads: 6,
                seq_reads: 15,
                random_writes: 24,
                seq_writes: 29,
                cache_hits: 33,
                prefetched: 9,
                prefetch_hits: 8,
            }
        );
        assert_eq!(a - b, d);
        assert_eq!(b + d, a);
    }

    #[test]
    fn tracker_classifies_reads_and_writes_independently() {
        let mut t = IoTracker::new();
        t.note_read(3); // random (first)
        t.note_write(3); // random (first write, independent head)
        t.note_read(4); // seq
        t.note_write(4); // seq
        t.note_read(9); // random
        t.note_write(0); // random
        let s = t.stats();
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.seq_reads, 1);
        assert_eq!(s.random_writes, 2);
        assert_eq!(s.seq_writes, 1);
    }

    #[test]
    fn tracker_break_sequence_forces_random_both_ways() {
        let mut t = IoTracker::new();
        t.note_read(0);
        t.note_write(5);
        t.break_sequence();
        t.note_read(1); // would have been sequential
        t.note_write(6); // would have been sequential
        let s = t.stats();
        assert_eq!(s.seq_reads, 0);
        assert_eq!(s.seq_writes, 0);
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.random_writes, 2);
    }

    #[test]
    fn take_drains_counters() {
        let mut s = IoStats {
            random_reads: 3,
            seq_reads: 4,
            random_writes: 5,
            seq_writes: 6,
            cache_hits: 7,
            ..IoStats::default()
        };
        let taken = s.take();
        assert_eq!(taken.random_reads, 3);
        assert_eq!(taken.cache_hits, 7);
        assert_eq!(s, IoStats::default());
    }

    #[test]
    fn sampler_attributes_counters_to_phases() {
        let mut t = IoTracker::new();
        let mut sampler = IoSampler::new();
        t.note_read(0);
        t.note_read(1);
        let phase1 = sampler.sample(t.stats());
        assert_eq!((phase1.random_reads, phase1.seq_reads), (1, 1));
        // Nothing happened: the next sample is empty.
        assert_eq!(sampler.sample(t.stats()), IoStats::default());
        t.note_write(9);
        t.note_read(2);
        let phase2 = sampler.sample(t.stats());
        assert_eq!(phase2.random_writes, 1);
        assert_eq!(phase2.seq_reads, 1, "head position survived sampling");
        assert_eq!(phase2.random_reads, 0);
        // The device itself was never reset.
        assert_eq!(t.stats().total_reads(), 3);
    }

    #[test]
    fn sampler_starting_at_excludes_earlier_counters() {
        let mut t = IoTracker::new();
        t.note_read(0);
        t.note_read(5);
        let mut sampler = IoSampler::starting_at(t.stats()); // warm-up excluded
        t.note_read(9);
        let s = sampler.sample(t.stats());
        assert_eq!(s.total_reads(), 1);
    }

    #[test]
    fn summary_mentions_both_streams() {
        let mut t = IoTracker::new();
        t.note_read(0);
        t.note_write(1);
        t.note_cache_hit();
        let s = t.stats().summary();
        assert!(s.contains("reads 1 random"));
        assert!(s.contains("writes 1 random"));
        assert!(s.contains("1 cache hits"));
        assert!(s.contains("50.0% hit rate"), "{s}");
        assert!(!s.contains("prefetched"), "quiet when prefetch is idle");
    }

    #[test]
    fn summary_surfaces_prefetch_activity() {
        let mut t = IoTracker::new();
        t.note_read(0);
        t.note_prefetched();
        t.note_cache_hit();
        t.note_prefetch_hit();
        let stats = t.stats();
        assert_eq!(stats.prefetched, 1);
        assert_eq!(stats.prefetch_hits, 1);
        let s = stats.summary();
        assert!(s.contains("1 prefetched / 1 prefetch hits"), "{s}");
    }

    #[test]
    fn io_delta_conversion_carries_the_classified_counters() {
        let s = IoStats {
            random_reads: 1,
            seq_reads: 2,
            random_writes: 3,
            seq_writes: 4,
            cache_hits: 5,
            prefetched: 6,
            prefetch_hits: 7,
        };
        let d = reach_obs::IoDelta::from(s);
        assert_eq!(d.random_reads, 1);
        assert_eq!(d.seq_reads, 2);
        assert_eq!(d.random_writes, 3);
        assert_eq!(d.seq_writes, 4);
        assert_eq!(d.cache_hits, 5);
        assert_eq!(d.total_reads(), s.total_reads());
        assert_eq!(d.total_writes(), s.total_writes());
    }

    #[test]
    fn cache_hit_rate_counts_hits_against_all_requests() {
        assert_eq!(IoStats::default().cache_hit_rate(), 0.0);
        let s = IoStats {
            random_reads: 1,
            seq_reads: 2,
            cache_hits: 3,
            ..IoStats::default()
        };
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }
}
