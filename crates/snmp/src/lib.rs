//! Emulation of the paper's SNMP statistics module.
//!
//! *"Every time a predefined time limit expires (1–2 minutes, which seems
//! a reasonable interval compromising between the mutation rate of network
//! characteristics and the imposed overhead) the SMNP statistics module on
//! every server is responsible for inserting the line utilization of all
//! the adjacent to the node links used by the VoD network."*
//!
//! The emulation mirrors real SNMP semantics:
//!
//! * [`counters`] — per-link octet counters accumulate traffic volume as
//!   simulated time advances (driven from the fluid-flow network);
//! * [`utilization`] — the paper's equation (5),
//!   `(traffic_in + traffic_out) / total bandwidth`;
//! * [`agent`] — one agent per video-server node, responsible for the
//!   links adjacent to it;
//! * [`poller`] — the periodic system that, every `interval`, has each
//!   agent compute the **average** utilization since the previous poll
//!   from counter deltas and insert it into the limited-access database.
//!
//! Because readings are written only at poll instants, everything
//! downstream (the Virtual Routing Algorithm above all) sees *stale*
//! network state between polls — a property the paper's design accepts
//! and our experiments quantify.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod agent;
pub mod counters;
pub mod poller;
pub mod utilization;

pub use agent::ServerAgent;
pub use counters::CounterBank;
pub use poller::SnmpSystem;
