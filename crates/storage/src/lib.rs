//! Video-server storage substrate for the distributed VoD service.
//!
//! Implements the storage half of the ICDCS 2000 paper:
//!
//! * [`video`] — video titles, sizes, bitrates and libraries;
//! * [`cluster`] — the fixed cluster size `c` (MB/cluster) that divides a
//!   video into `p = size / c` parts;
//! * [`striping`] — **cyclic data striping**: part `i` stored on disk
//!   `i mod n` (the paper's Figure 3);
//! * [`disk`] / [`disk_array`] — capacity-tracked disks and arrays;
//! * [`dma`] — the **Disk Manipulation Algorithm** (Figure 2): a
//!   popularity-point cache that admits requested titles while space
//!   lasts and then replaces the least-popular resident title;
//! * [`popularity`] — the request points behind the "most popular"
//!   concept, and the one ranking of residents by them that the DMA,
//!   the prefix tier and E1's LFU baseline all evict from, with the
//!   never-in-vain planner the DMA's `UntilFit` mode and the prefix
//!   tier share;
//! * [`prefix`] — popularity-sized title *prefixes* for regional proxy
//!   servers: serve session startup locally, fetch the rest from the
//!   origin;
//! * [`io_model`] — a simple seek+transfer disk timing model;
//! * [`distributed`] — the paper's *future work* extension: striping
//!   across servers instead of disks, by strip popularity.
//!
//! # Example
//!
//! ```
//! use vod_storage::cluster::ClusterSize;
//! use vod_storage::dma::{DmaCache, DmaConfig, DmaDecision};
//! use vod_storage::video::{Megabytes, VideoId, VideoMeta};
//!
//! # fn main() -> Result<(), vod_storage::StorageError> {
//! let mut cache = DmaCache::new(DmaConfig {
//!     disk_count: 4,
//!     disk_capacity: Megabytes::new(2_000.0),
//!     cluster_size: ClusterSize::new(Megabytes::new(100.0)),
//!     ..DmaConfig::default()
//! })?;
//! let video = VideoMeta::new(VideoId::new(1), "Zorba", Megabytes::new(700.0), 1.5);
//! // First request: free space → the video is written to the disks.
//! assert!(matches!(cache.on_request(&video), DmaDecision::Admitted { .. }));
//! // Second request: already resident → a popularity point.
//! assert!(matches!(cache.on_request(&video), DmaDecision::Hit));
//! assert!(cache.contains(video.id()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod cluster;
pub mod disk;
pub mod disk_array;
pub mod distributed;
pub mod dma;
pub mod error;
pub mod io_model;
pub mod popularity;
pub mod prefix;
pub mod striping;
pub mod video;

pub use cluster::ClusterSize;
pub use disk_array::DiskArray;
pub use dma::{DmaCache, DmaConfig, DmaDecision};
pub use error::StorageError;
pub use prefix::{PrefixConfig, PrefixDecision, PrefixStore};
pub use striping::StripeLayout;
pub use video::{Megabytes, VideoId, VideoMeta};
