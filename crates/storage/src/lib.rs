//! # reach-storage
//!
//! Pluggable block-device substrate for the reachability indexes.
//!
//! The paper's core systems contribution is *disk placement*: both ReachGrid
//! (§4.1) and ReachGraph (§5.1.3) carefully lay their structures out on
//! consecutive blocks so query-time traversal turns random IO into
//! sequential scans, and both report cost in normalized IOs (random +
//! sequential/20, §6). This crate reproduces that measurement model behind a
//! [`BlockDevice`] trait with two interchangeable backends:
//!
//! | backend | persistence | use |
//! |---|---|---|
//! | [`SimDevice`] | none (memory) | the paper's IO-count evaluation model |
//! | [`FileDevice`] | real file, positioned IO | persistence + wall-clock benchmarking |
//!
//! Both share one accounting path ([`IoStats`] via
//! `iostats::IoTracker`), so an index costs *identical counted IO* on every
//! backend — which the backend-equivalence test suite asserts. Around the
//! devices sit:
//!
//! * [`Pager`] — the cached page access every index uses at query time;
//!   it owns a private one-shard [`PageCache`] (the paper's per-query
//!   buffer) or attaches to its device hub's, and owns its device as
//!   `Box<dyn BlockDevice>` (see [`pager`] for why erasure beats
//!   genericity here); without a cache it still serves a repeat read of
//!   the page it has just read from its one-page read buffer;
//! * [`PageCache`] — the LRU page cache; sharded and concurrency-safe, a
//!   [`SharedDevice`] hub can carry one to pool residency across queries
//!   and serving threads, with readahead prefetch (see [`cache`]); off by
//!   default so the paper's cold-cache counters stay the reference tier;
//! * [`ByteWriter`] / [`ByteReader`] — the checked binary codec for on-page
//!   records;
//! * [`RecordWriter`] / [`read_record`] / [`read_record_into`] —
//!   variable-length records packed back to back across pages;
//!   `read_record_into` refills a caller's buffer;
//! * [`SpillPool`] — the spillable decoded-segment buffer behind
//!   memory-bounded ([`BuildBudget`]) index construction, with spill IO
//!   accounted separately from index IO;
//! * [`meta`] — self-describing metadata footers so file-backed indexes can
//!   be dropped and reopened;
//! * [`StorageConfig`] — the runtime factory selecting a backend from
//!   configuration;
//! * [`DeviceDirectory`] — a named-device factory for multi-file subsystems
//!   (the epoch-sharded live timeline keeps one device per sealed shard).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod codec;
pub mod config;
pub mod device;
pub mod directory;
pub mod file;
pub mod iostats;
pub mod layout;
pub mod meta;
pub mod pager;
pub mod shared;
pub mod sim;
pub mod spill;
pub mod timeline;

pub use cache::{CacheStats, PageCache};
pub use codec::{ByteReader, ByteWriter};
pub use config::{StorageBackend, StorageConfig};
pub use device::{BlockDevice, PageId, DEFAULT_PAGE_SIZE};
pub use directory::DeviceDirectory;
pub use file::FileDevice;
pub use iostats::{IoSampler, IoStats};
pub use layout::{read_record, read_record_into, RecordPtr, RecordWriter};
pub use pager::Pager;
pub use shared::SharedDevice;
pub use sim::SimDevice;
pub use spill::{BuildBudget, SpillPool, SpillStats, Spillable};
pub use timeline::TimelineRegion;
