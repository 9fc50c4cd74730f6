//! # reach-live
//!
//! Incremental contact appends for the reachability indexes: the paper's
//! structures (ReachGrid/ReachGraph, §4–5) are build-once, but real contact
//! feeds are append-streams. This crate turns the system into a
//! continuously ingesting service while keeping every sealed byte
//! identical to a batch build — the dynamic-insertion direction of Brito
//! et al. (*A Dynamic Data Structure for Temporal Reachability with
//! Unsorted Contact Insertions*, 2021; *Timed Transitive Closures on
//! Disk*, 2023; PAPERS.md), composed out of the workspace's existing
//! streaming machinery.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`log`] | [`AppendLog`] — durable, crash-recoverable record log on any [`BlockDevice`](reach_storage::BlockDevice) |
//! | [`delta`] | [`DeltaDn`] — mutable DN fragment over `[watermark, now)`, absorbing out-of-order appends |
//! | [`index`] | [`LiveIndex`] — one sealed base + delta, shared by reference: epoch-swapped queries across the watermark, compaction inline on the appending thread, the admission path both engines share |
//! | [`builder`] | [`LiveBuilder`] — fluent construction of both engines over any storage backend |
//! | [`shard`] | [`ShardedLive`] — epoch-sharded timeline with cross-shard frontier handoff |
//!
//! ## The three guarantees
//!
//! 1. **Equivalence** — any interleaving of appends, queries, and
//!    compactions answers exactly as a batch rebuild over the accepted
//!    trace (tier-1 `tests/live_reach.rs`, plus the property suite's
//!    random schedules);
//! 2. **Byte-identity** — a post-compaction base is byte-for-byte the
//!    index a from-scratch streaming build over the full log produces, on
//!    every storage backend;
//! 3. **Durability** — base and delta are derived state; the append log
//!    alone recovers the index after a crash, dropping at most the torn
//!    tail page that was never acknowledged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod delta;
pub mod index;
pub mod log;
pub mod shard;

pub use builder::LiveBuilder;
pub use delta::DeltaDn;
pub use index::{
    AppendOutcome, BaseKind, CompactionStats, DeviceFactory, GrailConfig, LiveConfig, LiveError,
    LiveIndex, LiveMetrics, LiveStats, SourceReport,
};
pub use log::{AppendLog, LogRecovery};
pub use shard::{ShardCrashPoint, ShardRecovery, ShardedLive};

#[cfg(test)]
mod tests {
    use super::*;
    use reach_contact::{EdgeListSource, Oracle};
    use reach_core::{Contact, ObjectId, Query, QueryOutcome, Time, TimeInterval};
    use reach_graph::GraphParams;
    use reach_storage::{BuildBudget, SimDevice};

    fn c(a: u32, b: u32, s: Time, e: Time) -> Contact {
        Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
    }

    fn graph_config(budget: usize) -> LiveConfig {
        LiveConfig::graph(
            GraphParams {
                partition_depth: 8,
                page_size: 256,
                ..GraphParams::default()
            },
            BuildBudget::bytes(budget),
        )
    }

    fn sim_live(num_objects: usize, config: LiveConfig) -> LiveIndex {
        config
            .builder()
            .build_on(
                Box::new(SimDevice::new(256)),
                Box::new(|| Box::new(SimDevice::new(256))),
                num_objects,
            )
            .expect("live index creates")
    }

    fn q(s: u32, d: u32, a: Time, b: Time) -> Query {
        Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b))
    }

    /// Figure 1 of the paper, appended live with a compaction mid-stream:
    /// answers must match the oracle's worked example before and after.
    #[test]
    fn figure_1_live_with_mid_stream_compaction() {
        let live = sim_live(4, graph_config(1 << 20).manual_compaction());
        live.append(c(0, 1, 0, 0)).unwrap();
        live.append(c(1, 3, 1, 1)).unwrap();
        // o4 reachable from o1 during [0,1] — answered from the delta alone.
        let r = live.evaluate_query(&q(0, 3, 0, 1)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(1));
        assert!(!live.evaluate_query(&q(3, 0, 0, 1)).unwrap().reachable());

        live.compact().unwrap().expect("something to seal");
        assert_eq!(live.watermark(), 2);
        live.append(c(2, 3, 1, 2)).unwrap(); // lossy: clamped to [2, 2]
        live.append(c(0, 1, 2, 3)).unwrap();
        // The full Figure 1 answers, now spanning the watermark.
        let r = live.evaluate_query(&q(3, 0, 1, 3)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(2));
        assert!(live.evaluate_query(&q(0, 1, 2, 3)).unwrap().reachable());
        assert_eq!(live.stats().clamped, 1);
    }

    #[test]
    fn lossy_mode_clamps_and_drops_late_records() {
        let live = sim_live(4, graph_config(1 << 20).manual_compaction());
        live.append(c(0, 1, 0, 4)).unwrap();
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 5);
        // Wholly late: dropped.
        let o = live.append(c(2, 3, 1, 3)).unwrap();
        assert!(!o.logged);
        // Straddling: clamped to the watermark.
        let o = live.append(c(2, 3, 3, 8)).unwrap();
        assert!(o.logged && o.clamped);
        assert_eq!(live.stats().clamped, 1);
        assert_eq!(live.stats().dropped_late, 1);
        let accepted = live.replay_log().unwrap();
        assert_eq!(accepted[1], c(2, 3, 5, 8), "log stores the clamped form");
    }

    #[test]
    fn strict_mode_rejects_late_records() {
        let live = sim_live(4, graph_config(1 << 20).strict().manual_compaction());
        live.append(c(0, 1, 0, 4)).unwrap();
        live.compact().unwrap().unwrap();
        let err = live.append(c(2, 3, 1, 3)).unwrap_err();
        assert!(matches!(err, LiveError::Late { watermark: 5, .. }), "{err}");
        let err = live.append(c(2, 3, 3, 8)).unwrap_err();
        assert!(matches!(err, LiveError::Late { .. }), "{err}");
    }

    #[test]
    fn appends_validate_the_universe() {
        let live = sim_live(3, graph_config(1 << 20));
        assert!(matches!(
            live.append(c(0, 7, 0, 1)),
            Err(LiveError::UnknownObject(ObjectId(7)))
        ));
        let bad = Contact {
            a: ObjectId(1),
            b: ObjectId(1),
            interval: TimeInterval::new(0, 0),
        };
        assert!(matches!(
            live.append(bad),
            Err(LiveError::SelfContact(ObjectId(1)))
        ));
        // A record ending at Time::MAX has no representable horizon.
        assert!(matches!(
            live.append(c(0, 1, 5, Time::MAX)),
            Err(LiveError::HorizonOverflow { .. })
        ));
        assert_eq!(live.log_len(), 0, "rejected records are never logged");
    }

    /// A compaction whose rebuild fails must leave base, delta, and
    /// watermark untouched (failure atomicity).
    #[test]
    fn failed_compaction_leaves_the_index_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // A sim device whose writes can be poisoned at will, so the rebuild
        // fails mid-build through the ordinary error path.
        #[derive(Debug)]
        struct FailingDevice {
            inner: reach_storage::SimDevice,
            fail: Arc<AtomicBool>,
        }
        impl reach_storage::BlockDevice for FailingDevice {
            fn backend(&self) -> &'static str {
                "failing"
            }
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn len_pages(&self) -> u64 {
                self.inner.len_pages()
            }
            fn allocate(&mut self, n: usize) -> Result<reach_storage::PageId, IndexError> {
                self.inner.allocate(n)
            }
            fn write_page(
                &mut self,
                id: reach_storage::PageId,
                data: &[u8],
            ) -> Result<(), IndexError> {
                if self.fail.load(Ordering::Relaxed) {
                    return Err(IndexError::Io("injected write failure".into()));
                }
                self.inner.write_page(id, data)
            }
            fn read_page_into(
                &mut self,
                id: reach_storage::PageId,
                buf: &mut [u8],
            ) -> Result<(), IndexError> {
                self.inner.read_page_into(id, buf)
            }
            fn stats(&self) -> reach_storage::IoStats {
                self.inner.stats()
            }
            fn reset_stats(&mut self) {
                self.inner.reset_stats()
            }
            fn break_sequence(&mut self) {
                self.inner.break_sequence()
            }
            fn note_cache_hit(&mut self) {
                self.inner.note_cache_hit()
            }
        }
        use reach_core::IndexError;
        let fail = Arc::new(AtomicBool::new(false));
        let fail_factory = Arc::clone(&fail);
        // Auto-compacting from the first record (a one-byte delta budget),
        // with every device poisoned up front so no rebuild can succeed
        // until the devices heal.
        let live = graph_config(1 << 20)
            .with_delta_budget(1)
            .builder()
            .build_on(
                Box::new(SimDevice::new(256)),
                Box::new(move || {
                    Box::new(FailingDevice {
                        inner: reach_storage::SimDevice::new(256),
                        fail: Arc::clone(&fail_factory),
                    })
                }),
                4,
            )
            .unwrap();
        fail.store(true, Ordering::Relaxed);
        // An *auto*-compaction failure must not masquerade as an append
        // failure: the record lands, the error rides the outcome.
        for record in [c(0, 1, 0, 2), c(1, 2, 4, 5)] {
            let o = live.append(record).unwrap();
            assert!(o.logged && !o.compacted);
            assert!(o.compaction_error.is_some());
        }
        // An explicit rebuild on the poisoned devices must fail too…
        let err = live.compact().unwrap_err();
        assert!(matches!(err, IndexError::Io(_)), "{err}");
        // …and the index must be exactly as before: watermark unmoved,
        // delta intact, queries still exact.
        assert_eq!(live.watermark(), 0);
        assert_eq!(live.now(), 6);
        let r = live.evaluate_query(&q(0, 2, 0, 5)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(4));
        // Heal the devices: the retried compaction succeeds and agrees.
        fail.store(false, Ordering::Relaxed);
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 6);
        assert!(live.evaluate_query(&q(0, 2, 0, 5)).unwrap().reachable());
        // Poisoned again: the next over-budget append's compaction fails
        // after the record is durable.
        fail.store(true, Ordering::Relaxed);
        let o = live.append(c(2, 3, 8, 9)).unwrap();
        assert!(o.logged);
        assert!(o.compaction_error.is_some());
        assert_eq!(live.log_len(), 3, "the append itself was durable");
        assert!(live.evaluate_query(&q(2, 3, 8, 9)).unwrap().reachable());
    }

    /// Random interleavings of appends, compactions, and queries answer
    /// exactly as the oracle over the accepted trace.
    #[test]
    fn interleaved_appends_and_queries_match_the_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE);
            let n = 6usize;
            let horizon: Time = 60;
            let live = sim_live(n, graph_config(400)); // tiny: auto-compacts often
            for step in 0..120 {
                if rng.gen_bool(0.75) {
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    if a == b {
                        continue;
                    }
                    // Bounded lateness: starts near the frontier, some behind.
                    let w = live.watermark();
                    let lo = w.saturating_sub(4);
                    let s = rng.gen_range(lo..horizon);
                    let e = (s + rng.gen_range(0..4u32)).min(horizon - 1);
                    let _ = live.append(c(a.min(b), a.max(b), s, e)).unwrap();
                } else if live.now() > 0 {
                    let accepted = live.replay_log().unwrap();
                    let oracle = oracle_of(n, live.now(), &accepted);
                    for _ in 0..4 {
                        let s = rng.gen_range(0..n as u32);
                        let d = rng.gen_range(0..n as u32);
                        let a = rng.gen_range(0..live.now());
                        let b = rng.gen_range(a..live.now());
                        let query = q(s, d, a, b);
                        let got = live.evaluate_query(&query).unwrap();
                        let want = oracle.evaluate(&query);
                        assert_eq!(
                            got.reachable(),
                            want.reachable,
                            "{query} diverged (seed {seed}, step {step}, watermark {})",
                            live.watermark()
                        );
                        // Earliest arrivals are exact whenever reported.
                        if let (Some(got_t), Some(want_t)) = (got.outcome.earliest, want.earliest) {
                            assert_eq!(got_t, want_t, "{query} arrival (seed {seed})");
                        }
                    }
                }
            }
            assert!(
                live.stats().compactions > 0,
                "tiny budget must force compactions (seed {seed})"
            );
        }
    }

    fn oracle_of(n: usize, horizon: Time, contacts: &[Contact]) -> Oracle {
        let mut per_tick: Vec<Vec<(u32, u32)>> = vec![Vec::new(); horizon as usize];
        for c in contacts {
            for t in c.interval.ticks() {
                per_tick[t as usize].push((c.a.0, c.b.0));
            }
        }
        Oracle::from_events(n, per_tick)
    }

    #[test]
    fn grail_base_answers_cross_boundary_queries() {
        let live = sim_live(
            5,
            LiveConfig::grail(
                GrailConfig {
                    d: 3,
                    seed: 0xF1,
                    page_size: 256,
                    cache_pages: 16,
                },
                BuildBudget::bytes(1 << 20),
            )
            .manual_compaction(),
        );
        live.append(c(0, 1, 0, 2)).unwrap();
        live.append(c(1, 2, 4, 5)).unwrap();
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 6);
        live.append(c(2, 3, 7, 7)).unwrap();
        live.append(c(3, 4, 9, 9)).unwrap();
        // Spans the watermark: 0 →(base)→ 2 →(delta)→ 4.
        let r = live.evaluate_query(&q(0, 4, 0, 9)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(9));
        // Chronology violated: no path 4 → 0.
        assert!(!live.evaluate_query(&q(4, 0, 0, 9)).unwrap().reachable());
        // Sealed-only query still works after compaction.
        assert!(live.evaluate_query(&q(0, 2, 0, 5)).unwrap().reachable());
    }

    #[test]
    fn append_source_drains_a_feed_through_the_live_path() {
        let live = sim_live(5, graph_config(1 << 20));
        let feed = "0 1 100\n1 2 140 20\nbroken line\n3 3 160\n2 4 180\n";
        let report = live
            .append_source(EdgeListSource::new(feed.as_bytes()), 100, 20)
            .unwrap();
        assert_eq!(report.appended, 3);
        assert_eq!(report.skipped, 2, "parse error + self-contact");
        assert_eq!(live.now(), 5);
        // 0 →1 at tick 0, 1→2 over [2,3], 2→4 at tick 4.
        let r = live.evaluate_query(&q(0, 4, 0, 4)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(4));
        // Strict mode surfaces the first bad line instead.
        let strict = sim_live(5, graph_config(1 << 20).strict());
        let err = strict
            .append_source(EdgeListSource::new(feed.as_bytes()), 100, 20)
            .unwrap_err();
        assert!(matches!(err, LiveError::Ingest(_)), "{err}");
    }

    #[test]
    fn lateness_slack_keeps_a_mutable_tail() {
        let live = sim_live(
            4,
            graph_config(1 << 20).with_lateness(5).manual_compaction(),
        );
        live.append(c(0, 1, 0, 9)).unwrap();
        live.compact().unwrap().unwrap();
        // now = 10, lateness 5 → the seal stops at tick 5.
        assert_eq!(live.watermark(), 5);
        // A record inside the slack window lands unclamped…
        let o = live.append(c(2, 3, 6, 7)).unwrap();
        assert!(o.logged && !o.clamped);
        assert_eq!(live.stats().clamped, 0);
        // …and queries across the split contact stay exact.
        let r = live.evaluate_query(&q(0, 1, 0, 9)).unwrap();
        assert!(r.reachable());
        let r = live.evaluate_query(&q(2, 3, 6, 7)).unwrap();
        assert_eq!(r.outcome, QueryOutcome::reachable_at(6));
        // Compacting again advances the watermark by what `now` allows.
        live.compact().unwrap();
        assert_eq!(live.watermark(), 5, "now=10 still caps the seal at 5");
        live.advance(20);
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 15);
    }

    /// A backlog living entirely inside the lateness window must neither
    /// grow the delta via guaranteed-no-op compactions nor rebuild the
    /// base on every append: the auto trigger backs off until the clock
    /// rolls one window forward.
    #[test]
    fn auto_compaction_backs_off_inside_the_lateness_window() {
        let live = sim_live(
            6,
            graph_config(1 << 20)
                .with_delta_budget(200) // far below the window's backlog
                .with_lateness(40),
        );
        // A dense burst within one 40-tick window: the candidate watermark
        // cannot advance, so no compaction may fire at all.
        for t in 0..30u32 {
            live.append(c(t % 5, 5, t, t)).unwrap();
        }
        assert_eq!(live.stats().compactions, 0, "no-op seals must not run");
        // As the clock rolls windows forward, compactions happen — but
        // bounded by window progress, not once per append.
        for t in 30..400u32 {
            live.append(c(t % 5, 5, t, t)).unwrap();
        }
        let compactions = live.stats().compactions;
        assert!(compactions >= 1, "progress must eventually seal");
        assert!(
            compactions <= 400 / 40 + 1,
            "at most ~one compaction per lateness window, got {compactions}"
        );
        // Equivalence still holds under the backoff.
        let accepted = live.replay_log().unwrap();
        let oracle = oracle_of(6, live.now(), &accepted);
        for s in 0..6u32 {
            let query = q(s, (s + 1) % 6, 0, live.now() - 1);
            assert_eq!(
                live.evaluate_query(&query).unwrap().reachable(),
                oracle.evaluate(&query).reachable,
                "{query} diverged under backoff"
            );
        }
    }

    #[test]
    fn silent_advance_extends_the_horizon() {
        let live = sim_live(3, graph_config(1 << 20));
        live.append(c(0, 1, 0, 0)).unwrap();
        assert_eq!(live.now(), 1);
        live.advance(10);
        assert_eq!(live.now(), 10);
        // The extended horizon is queryable; nothing new is reachable.
        let r = live.evaluate_query(&q(0, 2, 0, 9)).unwrap();
        assert!(!r.reachable());
        // And compaction seals the silent ticks too.
        live.compact().unwrap().unwrap();
        assert_eq!(live.watermark(), 10);
        assert!(live.evaluate_query(&q(0, 1, 0, 9)).unwrap().reachable());
    }

    #[test]
    fn recovery_from_the_log_restores_the_world() {
        use reach_storage::FileDevice;
        let mut path = std::env::temp_dir();
        path.push(format!("streach-live-recover-{}.pages", std::process::id()));
        let records = [c(0, 1, 0, 2), c(1, 2, 3, 4), c(2, 3, 6, 6)];
        {
            let dev = FileDevice::create(&path, 256).unwrap();
            let live = graph_config(1 << 20)
                .manual_compaction()
                .builder()
                .build_on(Box::new(dev), Box::new(|| Box::new(SimDevice::new(256))), 4)
                .unwrap();
            for &r in &records {
                live.append(r).unwrap();
            }
            live.sync().unwrap();
        } // crash: base and delta evaporate; only the log file remains
        let dev = FileDevice::open(&path, 256).unwrap();
        let (live, recovery) = graph_config(1 << 20)
            .manual_compaction()
            .builder()
            .open_on(Box::new(dev), Box::new(|| Box::new(SimDevice::new(256))))
            .unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(live.watermark(), 7, "recovery sealed the replayed world");
        // Entirely sealed now: answered by BM-BFS on the rebuilt base
        // (reachable, no arrival tick — that is the base's contract).
        let r = live.evaluate_query(&q(0, 3, 0, 6)).unwrap();
        assert!(r.reachable());
        assert!(!live.evaluate_query(&q(3, 0, 0, 6)).unwrap().reachable());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_io_is_sampled_separately_from_queries() {
        let live = sim_live(4, graph_config(1 << 20));
        live.append(c(0, 1, 0, 3)).unwrap();
        live.append(c(1, 2, 5, 6)).unwrap();
        let append_io = live.stats().append_io;
        assert!(append_io.total_writes() >= 2, "durable writes counted");
        live.evaluate_query(&q(0, 2, 0, 6)).unwrap();
        assert_eq!(
            live.stats().append_io,
            append_io,
            "queries must not leak into append IO"
        );
        assert_eq!(live.stats().queries, 1);
    }
}
