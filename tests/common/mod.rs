//! Shared by the live-engine suites: a live index on a named storage
//! backend.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use streach::prelude::*;

/// A live index on the named backend (`sim`, `file`, or `mmap`). File-
/// backed indexes live in a scratch directory that is removed when the
/// index is dropped, so the suites leave nothing behind.
pub struct LiveOn {
    index: ShardedLive,
    dir: Option<PathBuf>,
}

impl LiveOn {
    pub fn new(backend: &str, config: LiveConfig, num_objects: usize) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let page = config.params.page_size;
        let dir = (backend != "sim").then(|| {
            std::env::temp_dir().join(format!(
                "streach-live-{backend}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let storage = match (&dir, backend) {
            (None, _) => StorageConfig::sim(page),
            (Some(dir), "file") => StorageConfig::file(dir, page),
            (Some(dir), _) => StorageConfig::mmap(dir, page),
        };
        let index = config
            .builder()
            .backend(storage)
            .build_sharded(num_objects)
            .expect("live index creates");
        Self { index, dir }
    }
}

impl std::ops::Deref for LiveOn {
    type Target = ShardedLive;

    fn deref(&self) -> &ShardedLive {
        &self.index
    }
}

impl Drop for LiveOn {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
