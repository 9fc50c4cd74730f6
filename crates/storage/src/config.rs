//! Runtime backend selection: the factory behind `streach`'s storage
//! configuration.
//!
//! Indexes take their device as `Box<dyn BlockDevice>`; [`StorageConfig`]
//! is the one place that decides which concrete backend that box holds, so
//! benchmarks, examples, and applications can switch between the paper's
//! simulator and real files with a config value instead of code changes.

use crate::device::{BlockDevice, DEFAULT_PAGE_SIZE};
use crate::file::FileDevice;
use crate::sim::SimDevice;
use reach_core::IndexError;
use std::path::PathBuf;

/// Which [`BlockDevice`] implementation to construct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StorageBackend {
    /// Memory-backed simulator (the paper's measurement model; nothing
    /// persists).
    Sim,
    /// Real file with positioned IO at the given path.
    File(PathBuf),
}

impl StorageBackend {
    /// Short name for reports ("sim" / "file").
    pub fn name(&self) -> &'static str {
        match self {
            StorageBackend::Sim => "sim",
            StorageBackend::File(_) => "file",
        }
    }
}

/// A complete storage recipe: backend plus page size.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StorageConfig {
    /// Backend to construct.
    pub backend: StorageBackend,
    /// Device page size in bytes.
    pub page_size: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self::sim(DEFAULT_PAGE_SIZE)
    }
}

impl StorageConfig {
    /// Simulator-backed config.
    pub fn sim(page_size: usize) -> Self {
        Self {
            backend: StorageBackend::Sim,
            page_size,
        }
    }

    /// File-backed config.
    pub fn file(path: impl Into<PathBuf>, page_size: usize) -> Self {
        Self {
            backend: StorageBackend::File(path.into()),
            page_size,
        }
    }

    /// Creates a fresh, empty device (truncating any existing file for the
    /// file backend). Hand the result to an index *builder*.
    pub fn create(&self) -> Result<Box<dyn BlockDevice>, IndexError> {
        Ok(match &self.backend {
            StorageBackend::Sim => Box::new(SimDevice::new(self.page_size)),
            StorageBackend::File(path) => Box::new(FileDevice::create(path, self.page_size)?),
        })
    }

    /// Opens an existing device holding previously built index data. Hand
    /// the result to an index *opener* (e.g. `ReachGraph::open`). The
    /// simulator has nothing to reopen and returns
    /// [`IndexError::Unsupported`].
    pub fn open(&self) -> Result<Box<dyn BlockDevice>, IndexError> {
        Ok(match &self.backend {
            StorageBackend::Sim => {
                return Err(IndexError::Unsupported(
                    "the sim backend is memory-only; nothing persists to reopen".into(),
                ))
            }
            StorageBackend::File(path) => Box::new(FileDevice::open(path, self.page_size)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_model() {
        let c = StorageConfig::default();
        assert_eq!(c.backend, StorageBackend::Sim);
        assert_eq!(c.page_size, DEFAULT_PAGE_SIZE);
        let dev = c.create().unwrap();
        assert_eq!(dev.backend(), "sim");
        assert_eq!(dev.page_size(), DEFAULT_PAGE_SIZE);
    }

    #[test]
    fn sim_cannot_reopen() {
        assert!(matches!(
            StorageConfig::sim(4096).open(),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn file_factory_produces_its_backend() {
        let mut path = std::env::temp_dir();
        path.push(format!("streach-config-{}.pages", std::process::id()));
        let cfg = StorageConfig::file(&path, 128);
        {
            let mut dev = cfg.create().unwrap();
            assert_eq!(dev.backend(), "file");
            let p = dev.allocate(1).unwrap();
            dev.write_page(p, b"x").unwrap();
            dev.sync().unwrap();
        }
        let reopened = cfg.open().unwrap();
        assert_eq!(reopened.len_pages(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
