//! Runs the concurrent-serving experiment: appends, rebuilds (seals
//! inline on the appending thread, compactions — one on a helper thread),
//! and a pooled multi-threaded query stream interleaved on one
//! `ShardedLive`, with service metrics reported (and answers asserted
//! identical to a batch-built ReachGraph after quiescing).
//!
//! `--backend=sim|file|mmap` selects the storage backend for every device
//! (log, shard bases, epoch directory, scratch); `--full` the recorded scales, as for every other
//! experiment binary.
//!
//! `--json` switches the output from markdown tables to one JSON array
//! of `{id, caption, headers, rows}` objects.

fn main() {
    let tier = reach_bench::Tier::from_args();
    reach_bench::report::emit_all(&reach_bench::experiments::exp_serve(tier));
}
