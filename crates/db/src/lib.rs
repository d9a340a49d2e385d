//! The VoD service's database module.
//!
//! The paper's service keeps all of its state in a single conceptual
//! database with two access levels:
//!
//! * the **full-access sub-module**, readable by any user through the web
//!   module: which video titles are available on which server;
//! * the **limited-access sub-module**, readable only by the service's
//!   administrators and by the application running the Virtual Routing
//!   Algorithm: per-link bandwidth and the latest SNMP utilization
//!   readings, plus per-server configuration.
//!
//! This crate models the database as an in-memory store ([`Database`])
//! with typed views enforcing the two access levels at compile time:
//! [`FullAccess`] can only see the catalog, [`LimitedAccess`] (obtained
//! from an [`AdminCredential`]) additionally sees network state and
//! records what the service writes: SNMP readings and title placements.
//! The simulation is single-threaded, so the service owns its one
//! [`Database`] and lends it to the SNMP poller and the DMA mirror by
//! reference.
//!
//! # Example
//!
//! ```
//! use vod_db::{AdminCredential, Database};
//! use vod_net::topologies::grnet::{Grnet, GrnetNode};
//! use vod_storage::video::{Megabytes, VideoId, VideoLibrary, VideoMeta};
//!
//! # fn main() -> Result<(), vod_db::DbError> {
//! let grnet = Grnet::new();
//! let mut library = VideoLibrary::new();
//! let id = VideoId::new(0);
//! library.insert(VideoMeta::new(id, "Zorba", Megabytes::new(700.0), 1.5));
//!
//! let mut db = Database::from_topology(grnet.topology(), library);
//! let admin = AdminCredential::new("root");
//! let patra = grnet.node(GrnetNode::Patra);
//! db.limited_access(&admin)?.add_title(patra, id)?;
//!
//! // Any user can ask who has the title…
//! assert_eq!(db.full_access().servers_with_title(id), vec![patra]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod access;
mod catalog;
pub mod database;
pub mod entry;
pub mod error;

pub use access::{AdminCredential, FullAccess, LimitedAccess, LinkPoll};
pub use database::Database;
pub use entry::{LinkEntry, ServerConfig, ServerEntry, UtilizationReading};
pub use error::DbError;
