//! Network model for the dynamic distributed Video-on-Demand service.
//!
//! This crate implements the networking substrate of the VoD service
//! proposed by Bouras, Kapoulas, Konidaris and Sevasti in *"A Dynamic
//! Distributed Video on Demand Service"* (ICDCS 2000):
//!
//! * a [`Topology`] of named nodes and bidirectional capacity-labelled
//!   links, built with [`TopologyBuilder`];
//! * per-link traffic state in a [`TrafficSnapshot`];
//! * the paper's link-weighting scheme — the **Link Validation Number**
//!   (equations (1)–(4) of the paper) — in the [`lvn`] module;
//! * [Dijkstra's algorithm](dijkstra::dijkstra) over those weights,
//!   optionally recording a step-by-step [`DijkstraTrace`] in exactly the
//!   format of the paper's Tables 4 and 5;
//! * the Greek Research & Technology Network (GRNET) backbone used for the
//!   paper's case study, including the recorded SNMP readings of its
//!   Table 2 and the published LVN values of its Table 3
//!   ([`topologies::grnet`]);
//! * synthetic topology generators for scale experiments
//!   ([`topologies::patterns`], [`topologies::random`]).
//!
//! # Example
//!
//! Reproduce the heart of the paper's Experiment A: weight the GRNET
//! backbone with the 8am Link Validation Numbers and route from Patra.
//!
//! ```
//! use vod_net::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};
//! use vod_net::lvn::{LvnComputer, LvnParams};
//! use vod_net::dijkstra::dijkstra;
//!
//! # fn main() -> Result<(), vod_net::NetError> {
//! let grnet = Grnet::new();
//! let snapshot = grnet.snapshot(TimeOfDay::T0800);
//! let weights = LvnComputer::new(grnet.topology(), &snapshot, LvnParams::default()).weights();
//! let paths = dijkstra(grnet.topology(), &weights, grnet.node(GrnetNode::Patra))?;
//! let to_xanthi = paths
//!     .route_to(grnet.node(GrnetNode::Xanthi))
//!     .expect("GRNET is connected");
//! assert_eq!(to_xanthi.hops(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod dijkstra;
pub mod engine;
pub mod error;
pub mod ids;
pub mod link;
pub mod lvn;
pub mod node;
pub mod route;
pub mod snapshot;
pub mod topologies;
pub mod topology;
pub mod trace;
pub mod units;

pub use engine::{EngineSelection, EngineStats, RoutingEngine};
pub use error::NetError;
pub use ids::{LinkId, NodeId};
pub use link::Link;
pub use node::Node;
pub use route::Route;
pub use snapshot::{SnapshotEpoch, TrafficSnapshot};
pub use topology::{Topology, TopologyBuilder};
pub use trace::DijkstraTrace;
pub use units::Mbps;
