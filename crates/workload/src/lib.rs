//! Workload generation for the distributed VoD service.
//!
//! The paper's case study relies on one recorded day of SNMP traffic and
//! hand-picked requests; reproducing its behaviour *in motion* requires
//! synthetic workloads. This crate provides them, built from first
//! principles (no external distribution crates) and fully deterministic
//! under an explicit seed:
//!
//! * [`zipf`] — Zipf-distributed title popularity (VoD request
//!   popularity is classically Zipf-like, which is also what makes the
//!   DMA's "most popular" caching effective);
//! * [`arrivals`] — Poisson request arrivals, optionally modulated by an
//!   hour-of-day profile (matching the paper's diurnal Table 2);
//! * [`library`] — video library generation (sizes, bitrates, titles);
//! * [`trace`] — request traces: who asks for what, when, where;
//! * [`scenario`] — ready-made experiment scenarios, including the GRNET
//!   case study and a flash-crowd stress test.
//!
//! # Example
//!
//! ```
//! use vod_workload::scenario::Scenario;
//!
//! let s = Scenario::grnet_case_study(42);
//! assert_eq!(s.topology().node_count(), 6);
//! assert!(!s.trace().is_empty());
//! // Same seed → same workload.
//! let again = Scenario::grnet_case_study(42);
//! assert_eq!(s.trace().requests(), again.trace().requests());
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod arrivals;
pub mod library;
pub mod scenario;
pub mod trace;
pub mod zipf;

pub use library::{LibraryConfig, LibraryGenerator};
pub use trace::{Request, RequestTrace, TraceConfig};
pub use zipf::Zipf;
