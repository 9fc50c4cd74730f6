//! Fluent construction of the live engine over any storage backend.
//!
//! Start from a [`LiveConfig`] (ReachGraph params + build budget, knobs
//! through its `with_*` methods), pick where the index lives with
//! [`LiveBuilder::backend`] (`sim` needs nothing; `file` treats the
//! configured path as a directory holding `shard-log.pages`,
//! `shard-dir.pages`, and one `shard-base-{seq}.pages` per sealed shard),
//! then [`LiveBuilder::build_sharded`] a fresh [`ShardedLive`] or
//! [`LiveBuilder::open_sharded`] the one a previous run left there.

use crate::config::LiveConfig;
use crate::shard::{ShardRecovery, ShardedLive};
use reach_core::IndexError;
use reach_storage::{DeviceDirectory, StorageConfig};

/// Builder for [`ShardedLive`] (see the module docs).
#[derive(Clone, Debug)]
pub struct LiveBuilder {
    config: LiveConfig,
    storage: StorageConfig,
}

impl LiveConfig {
    /// Starts a builder from this config. The storage backend defaults to
    /// the simulator at the params' page size; override it with
    /// [`LiveBuilder::backend`].
    pub fn builder(self) -> LiveBuilder {
        LiveBuilder {
            storage: StorageConfig::sim(self.params.page_size),
            config: self,
        }
    }
}

impl LiveBuilder {
    /// Where the index lives: the simulator (default), or a directory of
    /// real files for the `file` backend. The storage page size
    /// must match the configured params'.
    pub fn backend(mut self, storage: StorageConfig) -> Self {
        assert_eq!(
            storage.page_size, self.config.params.page_size,
            "storage page size must match the configured params"
        );
        self.storage = storage;
        self
    }

    /// The assembled config (what the entry points consume).
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// Creates an empty live index on the configured backend.
    pub fn build_sharded(self, num_objects: usize) -> Result<ShardedLive, IndexError> {
        let directory = DeviceDirectory::from_storage(&self.storage);
        ShardedLive::create(directory, num_objects, self.config)
    }

    /// Recovers a live index from the configured backend's epoch
    /// directory, shard devices, and append log (`sim` has nothing durable
    /// to reopen and errors).
    pub fn open_sharded(self) -> Result<(ShardedLive, ShardRecovery), IndexError> {
        let directory = DeviceDirectory::from_storage(&self.storage);
        ShardedLive::open(directory, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::{Contact, ObjectId, Query, ReachIndex, TimeInterval};
    use reach_graph::GraphParams;
    use reach_storage::BuildBudget;
    use std::path::PathBuf;

    fn config() -> LiveConfig {
        LiveConfig::graph(
            GraphParams {
                partition_depth: 8,
                page_size: 256,
                ..GraphParams::default()
            },
            BuildBudget::bytes(1 << 20),
        )
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streach-builder-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_backend_round_trips_through_its_directory() {
        let dir = scratch_dir("file");
        let contacts = [
            Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 2)),
            Contact::new(ObjectId(1), ObjectId(2), TimeInterval::new(3, 5)),
            Contact::new(ObjectId(2), ObjectId(3), TimeInterval::new(6, 8)),
        ];
        {
            let live = config()
                .manual_compaction()
                .builder()
                .backend(StorageConfig::file(&dir, 256))
                .build_sharded(4)
                .expect("file-backed index creates");
            for c in contacts {
                live.append(c).expect("append");
            }
            live.compact().expect("compact");
            live.sync().expect("sync");
        }
        assert!(dir.join("shard-log.pages").is_file());
        assert!(dir.join("shard-base-0.pages").is_file());
        let (reopened, recovery) = config()
            .manual_compaction()
            .builder()
            .backend(StorageConfig::file(&dir, 256))
            .open_sharded()
            .expect("file-backed index reopens");
        assert_eq!(recovery.log.records, contacts.len() as u64);
        assert_eq!(recovery.shards, 1, "the compacted shard is restored");
        let q = Query::new(ObjectId(0), ObjectId(3), TimeInterval::new(0, 8));
        assert!(reopened.evaluate(&q).expect("query").reachable());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_backend_cannot_reopen() {
        match config().builder().open_sharded() {
            Err(IndexError::Unsupported(_)) => {}
            Err(other) => panic!("expected Unsupported, got {other:?}"),
            Ok(_) => panic!("sim reopen unexpectedly succeeded"),
        }
    }

    #[test]
    fn mismatched_backend_page_size_panics() {
        let caught = std::panic::catch_unwind(|| {
            config().builder().backend(StorageConfig::sim(512));
        });
        assert!(caught.is_err());
    }
}
