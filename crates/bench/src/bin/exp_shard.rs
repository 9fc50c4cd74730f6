//! Runs the epoch-sharding experiment: the same contact stream appended
//! into epoch-sharded live timelines at varying epoch sizes, contrasted
//! with a monolithic timeline compacted at the same trigger — seal cost
//! vs epoch size, seal cost vs
//! history length (sharded seals read zero sealed pages), and cross-shard
//! query IO before/after `merge_epochs` (answers asserted against a batch
//! oracle throughout).
//!
//! `--backend=sim|file|mmap` selects the storage backend for every device
//! (log, shard bases, epoch directory, scratch); `--full` the recorded
//! scales; `--epoch-records=N` overrides the per-epoch record target in
//! the other live experiments.
//!
//! `--json` switches the output from markdown tables to one JSON array
//! of `{id, caption, headers, rows}` objects.

fn main() {
    let tier = reach_bench::Tier::from_args();
    reach_bench::report::emit_all(&reach_bench::experiments::exp_shard(tier));
}
