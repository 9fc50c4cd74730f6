//! Shared by the backend-matrix suites: the backend names, a fresh device
//! or live index on a named backend, and the scratch path a file backend
//! writes under. Each suite uses only part of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use streach::prelude::*;

/// Every storage backend the matrix suites run on.
pub const BACKENDS: [&str; 2] = ["sim", "file"];

/// The storage recipe for the named backend (`sim` or `file`), plus the
/// fresh scratch path a `file` recipe points at (`None` for `sim`).
fn storage_for(backend: &str, page: usize) -> (StorageConfig, Option<PathBuf>) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    match backend {
        "sim" => (StorageConfig::sim(page), None),
        "file" => {
            let path = std::env::temp_dir().join(format!(
                "streach-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            (StorageConfig::file(&path, page), Some(path))
        }
        other => panic!("unknown backend {other}"),
    }
}

/// A fresh device of the named backend. A file device is unlinked while
/// open (Unix), so the suites leave nothing behind.
pub fn device_for(backend: &str, page: usize) -> Box<dyn BlockDevice> {
    let (storage, path) = storage_for(backend, page);
    let device = storage.create().expect("device creates");
    if let Some(path) = path {
        let _ = std::fs::remove_file(path);
    }
    device
}

/// A live index from `config` on the named backend, plus the scratch
/// directory to remove once the index is dropped (`None` for `sim`).
pub fn sharded_on(
    backend: &str,
    config: LiveConfig,
    num_objects: usize,
) -> (ShardedLive, Option<PathBuf>) {
    let (storage, dir) = storage_for(backend, config.params.page_size);
    let live = config
        .builder()
        .backend(storage)
        .build_sharded(num_objects)
        .expect("live index creates");
    (live, dir)
}

/// Drops a [`sharded_on`] index, then removes its scratch directory.
pub fn cleanup(live: ShardedLive, dir: Option<PathBuf>) {
    drop(live);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A [`sharded_on`] index that removes its scratch directory when dropped.
pub struct LiveOn {
    index: ShardedLive,
    dir: Option<PathBuf>,
}

impl LiveOn {
    pub fn new(backend: &str, config: LiveConfig, num_objects: usize) -> Self {
        let (index, dir) = sharded_on(backend, config, num_objects);
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
