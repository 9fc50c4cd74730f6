//! Fluent construction of live indexes: one builder for every knob and
//! every backend.
//!
//! Start from a [`LiveConfig`] (base kind + build budget), chain the
//! knobs you care about, then pick an entry point —
//!
//! * [`LiveBuilder::build`] / [`LiveBuilder::open`] produce a
//!   [`LiveIndex`], deriving every device from a [`StorageConfig`] (`sim`
//!   needs nothing; `file`/`mmap` treat the configured path as a directory
//!   holding `live-log.pages` plus one numbered file per compaction);
//! * the `*_on` variants accept an explicit log device and
//!   [`DeviceFactory`] for harnesses that wrap devices (IO counting,
//!   fault injection, byte-identity probes);
//! * [`LiveBuilder::build_sharded`] / [`LiveBuilder::open_sharded`]
//!   produce the epoch-sharded [`ShardedLive`] over a
//!   [`DeviceDirectory`] derived from the same backend.

use crate::index::{DeviceFactory, LiveConfig, LiveIndex};
use crate::log::LogRecovery;
use crate::shard::{ShardRecovery, ShardedLive};
use reach_contact::ErrorMode;
use reach_core::{IndexError, Time};
use reach_storage::{BlockDevice, DeviceDirectory, StorageBackend, StorageConfig};
use std::path::PathBuf;

/// Builder for [`LiveIndex`] and [`ShardedLive`] (see the module docs).
#[derive(Clone, Debug)]
pub struct LiveBuilder {
    config: LiveConfig,
    storage: StorageConfig,
}

impl LiveConfig {
    /// Starts a builder from this config. The storage backend defaults to
    /// the simulator at the base's page size; override it with
    /// [`LiveBuilder::backend`].
    pub fn builder(self) -> LiveBuilder {
        let page_size = self.base.page_size();
        LiveBuilder {
            config: self,
            storage: StorageConfig::sim(page_size),
        }
    }
}

impl LiveBuilder {
    /// Lateness slack in ticks (see [`LiveConfig::lateness`]).
    pub fn lateness(mut self, ticks: Time) -> Self {
        self.config.lateness = ticks;
        self
    }

    /// How late and malformed records are handled (see [`LiveConfig::mode`]).
    pub fn error_mode(mut self, mode: ErrorMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Shorthand for `error_mode(ErrorMode::Strict)`.
    pub fn strict(self) -> Self {
        self.error_mode(ErrorMode::Strict)
    }

    /// Delta resident bytes that trigger a compaction (see
    /// [`LiveConfig::delta_budget`]).
    pub fn delta_budget(mut self, bytes: usize) -> Self {
        self.config.delta_budget = bytes;
        self
    }

    /// Whether appends trigger compaction automatically (see
    /// [`LiveConfig::auto_compact`]).
    pub fn auto_compact(mut self, on: bool) -> Self {
        self.config.auto_compact = on;
        self
    }

    /// Shorthand for `auto_compact(false)`.
    pub fn manual_compaction(self) -> Self {
        self.auto_compact(false)
    }

    /// Shared page-cache capacity for every sealed epoch's device hub
    /// (see [`LiveConfig::shared_cache_pages`]; 0, the default, keeps the
    /// cold-cache measurement model).
    pub fn shared_cache(mut self, pages: usize) -> Self {
        self.config.shared_cache_pages = pages;
        self
    }

    /// Readahead window in pages for the shared cache's pagers (see
    /// [`LiveConfig::readahead`]).
    pub fn readahead(mut self, pages: usize) -> Self {
        self.config.readahead = pages;
        self
    }

    /// Where the index lives: the simulator (default), or a directory of
    /// real files for the `file`/`mmap` backends. The storage page size
    /// must match the configured base's.
    pub fn backend(mut self, storage: StorageConfig) -> Self {
        assert_eq!(
            storage.page_size,
            self.config.base.page_size(),
            "storage page size must match the configured base"
        );
        self.storage = storage;
        self
    }

    /// The assembled config (what the entry points consume).
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// Creates an empty live index on the configured backend.
    pub fn build(self, num_objects: usize) -> Result<LiveIndex, IndexError> {
        let (log, devices) = self.plan(false)?;
        LiveIndex::create(log, devices, num_objects, self.config)
    }

    /// Recovers a live index from the configured backend's append log
    /// (`sim` has nothing durable to reopen and errors).
    pub fn open(self) -> Result<(LiveIndex, LogRecovery), IndexError> {
        let (log, devices) = self.plan(true)?;
        LiveIndex::open(log, devices, self.config)
    }

    /// Creates an empty live index on explicit devices: the log goes to
    /// `log_device`, and `devices` supplies every device compaction needs
    /// (bases + scratch, at the configured page size).
    pub fn build_on(
        self,
        log_device: Box<dyn BlockDevice>,
        devices: DeviceFactory,
        num_objects: usize,
    ) -> Result<LiveIndex, IndexError> {
        LiveIndex::create(log_device, devices, num_objects, self.config)
    }

    /// Recovers a live index from an explicit log device.
    pub fn open_on(
        self,
        log_device: Box<dyn BlockDevice>,
        devices: DeviceFactory,
    ) -> Result<(LiveIndex, LogRecovery), IndexError> {
        LiveIndex::open(log_device, devices, self.config)
    }

    /// Creates an empty epoch-sharded live index on the configured
    /// backend (see [`ShardedLive`]): the timeline seals into independent
    /// per-epoch shards instead of one monolithic base.
    pub fn build_sharded(self, num_objects: usize) -> Result<ShardedLive, IndexError> {
        let directory = DeviceDirectory::from_storage(&self.storage);
        ShardedLive::create(directory, num_objects, self.config)
    }

    /// Recovers an epoch-sharded live index from the configured backend's
    /// epoch directory, shard devices, and append log.
    pub fn open_sharded(self) -> Result<(ShardedLive, ShardRecovery), IndexError> {
        let directory = DeviceDirectory::from_storage(&self.storage);
        ShardedLive::open(directory, self.config)
    }

    /// Derives the log device and the base/scratch factory from the
    /// storage backend (reopening the log instead of truncating it when
    /// `reopen` is set).
    fn plan(&self, reopen: bool) -> Result<(Box<dyn BlockDevice>, DeviceFactory), IndexError> {
        let page_size = self.storage.page_size;
        match &self.storage.backend {
            StorageBackend::Sim => {
                if reopen {
                    return Err(IndexError::Unsupported(
                        "the sim backend is memory-only; there is no append log to reopen".into(),
                    ));
                }
                let log = StorageConfig::sim(page_size).create()?;
                let devices: DeviceFactory = Box::new(move || {
                    StorageConfig::sim(page_size)
                        .create()
                        .expect("sim devices are infallible")
                });
                Ok((log, devices))
            }
            StorageBackend::File(dir) | StorageBackend::Mmap(dir) => {
                let mapped = matches!(self.storage.backend, StorageBackend::Mmap(_));
                std::fs::create_dir_all(dir)
                    .map_err(|e| IndexError::io("create live index directory", &e))?;
                let log_path = dir.join("live-log.pages");
                // The log is the durable root: always a FileDevice (it is
                // write-heavy), even under the mmap backend.
                let log_cfg = StorageConfig::file(&log_path, page_size);
                let log = if reopen {
                    log_cfg.open()?
                } else {
                    log_cfg.create()?
                };
                let dir: PathBuf = dir.clone();
                let mut seq = 0u64;
                let devices: DeviceFactory = Box::new(move || {
                    seq += 1;
                    let path = dir.join(format!("live-base-{seq}.pages"));
                    let cfg = if mapped {
                        StorageConfig::mmap(&path, page_size)
                    } else {
                        StorageConfig::file(&path, page_size)
                    };
                    cfg.create().unwrap_or_else(|e| {
                        panic!("live device factory failed at {}: {e}", path.display())
                    })
                });
                Ok((log, devices))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::{Contact, ObjectId, Query, TimeInterval};
    use reach_graph::GraphParams;
    use reach_storage::BuildBudget;

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
                .build(4)
                .expect("file-backed index creates");
            for c in contacts {
                live.append(c).expect("append");
            }
            live.compact().expect("compact");
            live.sync().expect("sync");
        }
        assert!(dir.join("live-log.pages").is_file());
        assert!(dir.join("live-base-1.pages").is_file() || dir.join("live-base-2.pages").is_file());
        let (reopened, recovery) = config()
            .manual_compaction()
            .builder()
            .backend(StorageConfig::file(&dir, 256))
            .open()
            .expect("file-backed index reopens");
        assert_eq!(recovery.records, contacts.len() as u64);
        let q = Query::new(ObjectId(0), ObjectId(3), TimeInterval::new(0, 8));
        assert!(reopened.evaluate_query(&q).expect("query").reachable());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_file_backend_round_trips_through_its_directory() {
        let dir = scratch_dir("sharded");
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
                .expect("sharded file-backed index creates");
            for c in contacts {
                live.append(c).expect("append");
            }
            live.seal(5).expect("seal");
            live.sync().expect("sync");
        }
        let (live, recovery) = config()
            .manual_compaction()
            .builder()
            .backend(StorageConfig::file(&dir, 256))
            .open_sharded()
            .expect("sharded file-backed index reopens");
        assert_eq!(recovery.shards, 1);
        assert_eq!(recovery.top_cut, 5);
        let q = Query::new(ObjectId(0), ObjectId(3), TimeInterval::new(0, 8));
        assert!(live.evaluate_query(&q).expect("query").reachable());
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_backend_cannot_reopen() {
        match config().builder().open() {
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
