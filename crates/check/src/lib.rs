//! Trace auditing for the VoD workspace.
//!
//! [`audit`] replays a run's typed events and verifies the paper's
//! runtime invariants (`A000`–`A016`) against independent reference
//! implementations: DMA cache occupancy and admission thresholds
//! (Figure 2), least-popular eviction victims, `i mod n` striping
//! (Figure 3), and VRA selections re-derived by a from-scratch
//! LVN-weighted Dijkstra (Figure 5) over the traced link state. The
//! auditor is an [`EventSink`](vod_obs::EventSink),
//! [`AuditSink`](audit::AuditSink): tee it into a run to audit it
//! in-process, or feed it a JSONL trace, which `vod-obs`'s generated
//! reader turns back into events. [`series`] adds rule `A013`,
//! reconciling a `--series` time-series export against the event
//! counts the auditor kept for the same run.
//!
//! Both run behind the `vod-check` binary:
//!
//! ```text
//! cargo run -p vod-check -- audit --grnet   # audit the GRNET case study in-process
//! cargo run -p vod-check -- audit run.jsonl # audit a stored trace
//! cargo run -p vod-check -- audit --series run.series.json run.jsonl
//! ```
//!
//! The source rules (determinism, panic hygiene) are compiler lints,
//! configured in `clippy.toml` and the crates' `lib.rs` roots; the
//! tests in `tests/workspace_lints.rs` keep every crate opted in. The
//! rule catalog with its mapping to the paper's figures lives in
//! DESIGN.md §11.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod audit;
pub mod series;
