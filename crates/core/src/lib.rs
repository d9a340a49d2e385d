//! The dynamic distributed Video-on-Demand service of Bouras, Kapoulas,
//! Konidaris and Sevasti (ICDCS 2000), reproduced as a Rust library.
//!
//! The paper proposes a VoD service for best-effort, limited-bandwidth
//! IP networks built from two algorithms: the **Disk Manipulation
//! Algorithm** (a per-server popularity cache with cyclic disk striping,
//! provided by the `vod-storage` crate) and the **Virtual Routing
//! Algorithm** (Dijkstra over *Link Validation Numbers*, re-evaluated
//! before every cluster so downloads can switch servers mid-stream).
//! This crate is the service layer on top of the substrates:
//!
//! * [`vra`] — the Virtual Routing Algorithm (Figure 5), with full
//!   decision reports reproducing the paper's Tables 4/5;
//! * [`selection`] — the selector abstraction and baseline policies
//!   (random replica, hop count, least-utilized path, first candidate);
//! * [`session`] — cluster-by-cluster playback sessions with stall and
//!   switch accounting;
//! * [`qos`] — per-session QoS records and per-run reports;
//! * [`service`] — the end-to-end discrete-event service simulation
//!   (flows + SNMP + database + DMA caches + selector).
//!
//! # Quickstart
//!
//! ```
//! use vod_core::selection::{SelectionContext, ServerSelector};
//! use vod_core::vra::Vra;
//! use vod_net::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};
//!
//! # fn main() -> Result<(), vod_core::CoreError> {
//! // Experiment D of the paper: 6pm, client at Athens, three replicas.
//! let grnet = Grnet::new();
//! let snapshot = grnet.snapshot(TimeOfDay::T1800);
//! let ctx = SelectionContext {
//!     topology: grnet.topology(),
//!     snapshot: &snapshot,
//!     home: grnet.node(GrnetNode::Athens),
//!     candidates: &[
//!         grnet.node(GrnetNode::Thessaloniki),
//!         grnet.node(GrnetNode::Xanthi),
//!         grnet.node(GrnetNode::Ioannina),
//!     ],
//! };
//! let selection = Vra::default().select(&ctx)?;
//! assert_eq!(selection.server, grnet.node(GrnetNode::Ioannina));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod admission;
pub mod error;
pub mod qos;
pub mod selection;
pub mod service;
pub mod session;
pub mod vra;

pub use error::CoreError;
pub use qos::{QosRecord, ServiceReport, TickStats};
pub use selection::{Selection, SelectionContext, ServerSelector};
pub use service::{ServiceConfig, VodService};
pub use session::{Session, SessionId};
pub use vra::{Vra, VraReport};
