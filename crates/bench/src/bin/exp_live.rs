//! Runs the live-ingestion experiment: a synthetic contact stream appended
//! into a `ShardedLive` under a delta budget that forces mid-run seals,
//! then one compaction into a whole-history shard, with append
//! throughput, seal + compaction cost vs a batch rebuild, and
//! cross-boundary query IO reported (and answers asserted identical to a
//! batch-built ReachGraph).
//!
//! `--backend=sim|file|mmap` selects the storage backend for every device
//! (log, shard bases, epoch directory, scratch); `--full` the recorded scales, as for every other
//! experiment binary.
//!
//! `--json` switches the output from markdown tables to one JSON array
//! of `{id, caption, headers, rows}` objects.

fn main() {
    let tier = reach_bench::Tier::from_args();
    reach_bench::report::emit_all(&reach_bench::experiments::exp_live(tier));
}
