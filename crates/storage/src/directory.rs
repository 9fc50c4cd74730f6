//! Named-device planning for multi-file subsystems.
//!
//! A sharded live timeline owns a whole *family* of devices — one append
//! log, one epoch-directory, one base file per sealed shard, scratch for
//! every rebuild — and must be able to recreate exactly the same family
//! after a restart. [`DeviceDirectory`] is the factory that maps stable
//! device *names* to concrete backends:
//!
//! * under the simulator every name is a fresh [`SimDevice`](crate::SimDevice) (nothing
//!   persists, so `open` is [`IndexError::Unsupported`]);
//! * under the `file` backend a name maps to `<root>/<name>.pages`, so a
//!   reopened directory finds every shard where the sealing run left it.
//!
//! [`DeviceDirectory::hub`] wraps a device into the [`SharedDevice`]
//! multi-handle hub every sealed shard serves queries through, attaching a
//! per-shard [`PageCache`] (with readahead) when a capacity is configured —
//! the per-shard cache plumbing the sharded index builds on.

use crate::cache::PageCache;
use crate::config::{StorageBackend, StorageConfig};
use crate::device::BlockDevice;
use crate::shared::SharedDevice;
use reach_core::IndexError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A named-device factory (see the module docs): a [`StorageConfig`] whose
/// `file` path is the root directory the named devices live under.
#[derive(Clone, Debug)]
pub struct DeviceDirectory {
    storage: StorageConfig,
}

impl DeviceDirectory {
    /// A directory handing out simulator devices.
    pub fn sim(page_size: usize) -> Self {
        Self::from_storage(&StorageConfig::sim(page_size))
    }

    /// A directory of real files under `root` (created on demand).
    pub fn file(root: impl Into<PathBuf>, page_size: usize) -> Self {
        Self::from_storage(&StorageConfig::file(root, page_size))
    }

    /// Builds a directory from a [`StorageConfig`], treating a `file` path
    /// as the root directory (the live builder's convention).
    pub fn from_storage(storage: &StorageConfig) -> Self {
        Self {
            storage: storage.clone(),
        }
    }

    /// Device page size every handed-out device uses.
    pub fn page_size(&self) -> usize {
        self.storage.page_size
    }

    /// Whether devices from this directory survive a process restart.
    pub fn is_durable(&self) -> bool {
        self.storage.backend != StorageBackend::Sim
    }

    /// The storage recipe of the device named `name`: the simulator for a
    /// sim directory, else `<root>/<name>.pages`.
    fn config_for(&self, name: &str) -> StorageConfig {
        let backend = match &self.storage.backend {
            StorageBackend::Sim => StorageBackend::Sim,
            StorageBackend::File(root) => StorageBackend::File(root.join(format!("{name}.pages"))),
        };
        StorageConfig {
            backend,
            page_size: self.storage.page_size,
        }
    }

    /// Creates a fresh, empty device under `name` (truncating any existing
    /// file).
    pub fn create(&self, name: &str) -> Result<Box<dyn BlockDevice>, IndexError> {
        let config = self.config_for(name);
        if let Some(parent) = path_of(&config).and_then(Path::parent) {
            std::fs::create_dir_all(parent)
                .map_err(|e| IndexError::io("create device directory root", &e))?;
        }
        config.create()
    }

    /// Opens the existing device under `name`. The simulator has nothing
    /// durable and returns [`IndexError::Unsupported`].
    pub fn open(&self, name: &str) -> Result<Box<dyn BlockDevice>, IndexError> {
        self.config_for(name).open()
    }

    /// Removes the device under `name` if it exists (a no-op on the
    /// simulator). Used to garbage-collect superseded shard bases after a
    /// merge commits.
    pub fn remove(&self, name: &str) -> Result<(), IndexError> {
        if let Some(path) = path_of(&self.config_for(name)) {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(IndexError::io("remove directory device", &e)),
            }
        }
        Ok(())
    }

    /// The names of the devices the directory holds, in no particular
    /// order: every `<name>.pages` file under a `file` root (none before
    /// the root exists), and none on the simulator, which keeps nothing.
    /// Recovery lists them to remove the devices no record names.
    pub fn names(&self) -> Result<Vec<String>, IndexError> {
        let StorageBackend::File(root) = &self.storage.backend else {
            return Ok(Vec::new());
        };
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(IndexError::io("list device directory", &e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| IndexError::io("list device directory", &e))?;
            let file = entry.file_name();
            if let Some(name) = file.to_str().and_then(|f| f.strip_suffix(".pages")) {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }

    /// Wraps a device into the multi-handle [`SharedDevice`] hub a sealed
    /// shard serves queries through, attaching a per-shard [`PageCache`]
    /// with `readahead` when `cache_pages > 0` (0 keeps the paper's
    /// cold-cache measurement model).
    pub fn hub(device: Box<dyn BlockDevice>, cache_pages: usize, readahead: usize) -> SharedDevice {
        if cache_pages == 0 {
            SharedDevice::new(device)
        } else {
            SharedDevice::with_cache(
                device,
                Arc::new(PageCache::new(cache_pages).with_readahead(readahead)),
            )
        }
    }
}

/// The file a `file` config names; `None` for the simulator.
fn path_of(config: &StorageConfig) -> Option<&Path> {
    match &config.backend {
        StorageBackend::Sim => None,
        StorageBackend::File(p) => Some(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("streach-devdir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sim_directory_creates_but_never_reopens() {
        let d = DeviceDirectory::sim(128);
        assert!(!d.is_durable());
        let dev = d.create("anything").expect("sim device");
        assert_eq!(dev.backend(), "sim");
        assert!(matches!(
            d.open("anything"),
            Err(IndexError::Unsupported(_))
        ));
        d.remove("anything").expect("sim remove is a no-op");
    }

    #[test]
    fn file_directory_round_trips_by_name() {
        let root = scratch_root("file");
        let d = DeviceDirectory::file(&root, 128);
        assert!(d.is_durable());
        {
            let mut dev = d.create("shard-base-3").expect("creates");
            let p = dev.allocate(1).expect("allocate");
            dev.write_page(p, b"epoch").expect("write");
            dev.sync().expect("sync");
        }
        assert!(root.join("shard-base-3.pages").is_file());
        let mut reopened = d.open("shard-base-3").expect("reopens");
        let mut buf = vec![0u8; 128];
        reopened.read_page_into(0, &mut buf).expect("read");
        assert_eq!(&buf[..5], b"epoch");
        d.remove("shard-base-3").expect("removes");
        assert!(!root.join("shard-base-3.pages").is_file());
        d.remove("shard-base-3").expect("idempotent");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn names_list_the_devices_a_directory_holds() {
        let sim = DeviceDirectory::sim(128);
        sim.create("anything").expect("sim device");
        assert!(sim.names().expect("sim lists").is_empty());
        let root = scratch_root("names");
        let d = DeviceDirectory::file(&root, 128);
        assert!(d.names().expect("a missing root lists").is_empty());
        for name in ["shard-log", "shard-base-0"] {
            d.create(name).expect("creates");
        }
        std::fs::write(root.join("notes.txt"), b"not a device").expect("writes");
        let mut names = d.names().expect("lists");
        names.sort();
        assert_eq!(names, ["shard-base-0", "shard-log"]);
        d.remove("shard-base-0").expect("removes");
        assert_eq!(d.names().expect("lists"), ["shard-log"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hub_carries_a_cache_only_when_asked() {
        let d = DeviceDirectory::sim(128);
        let plain = DeviceDirectory::hub(d.create("a").expect("dev"), 0, 4);
        assert!(plain.cache().is_none());
        let cached = DeviceDirectory::hub(d.create("b").expect("dev"), 16, 4);
        assert!(cached.cache().is_some());
    }
}
