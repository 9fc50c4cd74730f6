//! # reach-grid
//!
//! The **ReachGrid** index (paper §4): a spatiotemporal grid over the raw
//! trajectory data that enables *guided, incremental* expansion of the
//! contact network at query time.
//!
//! * [`GridParams`] — temporal (`R_T`) and spatial (`R_S`) resolutions plus
//!   storage knobs;
//! * [`ReachGrid`] — construction + disk placement (§4.1) and Algorithm 1
//!   query processing (§4.2);
//! * [`Spj`] — the naïve full-scan baseline sharing the same layout
//!   (§6.1.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cells;
pub mod index;
pub mod params;
pub mod query;
pub mod spj;

pub use cells::{CellArena, CellData, ChunkLayout, GridGeometry};
pub use index::{ChunkMeta, ReachGrid};
pub use params::GridParams;
pub use spj::Spj;
