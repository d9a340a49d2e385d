//! Observability for the distributed VoD service: a deterministic flight
//! recorder and the folds built over it.
//!
//! The paper's interesting behaviour is *decisions* — the DMA admitting
//! or evicting a title, the VRA picking (and mid-stream switching) a
//! server, a session stalling when its buffer runs dry, the SNMP system
//! refreshing a stale network view. This crate makes those decisions
//! first-class artifacts:
//!
//! * [`Event`] — a typed, sim-time-stamped record of one decision,
//!   covering every subsystem (requests, DMA, VRA, sessions, SNMP,
//!   background traffic, server failures);
//! * [`EventSink`] — where events go, chosen at compile time:
//!   [`NullSink`] (tracing compiled out, ≈0 ns/event), [`RingRecorder`]
//!   (bounded in-memory flight recorder), or [`JsonlWriter`] (streaming
//!   JSON Lines);
//! * [`TimeSeriesSink`] / [`SeriesReport`] — fixed-width sim-time
//!   windows aggregated online (concurrent sessions, per-link
//!   utilization, admissions/aborts/retries, DMA hit ratio, VRA
//!   local-vs-remote split, SNMP staleness), kept in one packed
//!   append-only log and exported as byte-stable JSON/CSV one window
//!   at a time — the time-resolved view behind the paper's Figs 2/3/5;
//! * [`Tally`] — the taxonomy's per-kind outcome counters (arrivals …
//!   SNMP polls), folded by one exhaustive match and named by one
//!   table: each series window carries one, and the `vod-check`
//!   auditor keeps one to reconcile a series against;
//! * [`TeeSink`] — fan-out combinator so one run can, say, stream
//!   JSONL *and* feed the series aggregator simultaneously.
//!
//! The run's totals are not kept here: the service's own
//! `ServiceReport` (in `vod-core`) is the one record of a run — every
//! finished session's QoS plus every subsystem's work counters — and
//! `experiments --metrics` writes it as JSON. This crate only adds views the report does not
//! hold: the trace, whose session events carry each lifecycle step
//! (start, switches, end), and the time-resolved windows.
//!
//! # Determinism contract
//!
//! Traces are part of an experiment's output, so they obey the same
//! rule as the paper tables: **identical scenario + config ⇒
//! byte-identical JSONL**. Events carry only simulated time (integer
//! microseconds) and plain identifiers — no wall clock, no addresses,
//! no hash-iteration order. JSON rendering uses a fixed field order, and
//! numbers come from an in-crate writer that matches `Display` byte for
//! byte: shortest round-trip digits for floats, with `Display`'s layout
//! and its round-half-up tie rule. The writer's tests hold it to
//! `Display` over millions of inputs; the golden test in
//! `tests/tests/observability.rs` pins the trace end to end.
//!
//! # Zero overhead when disabled
//!
//! The service is generic over its sink ([`NullSink`] by default) and
//! every emission site is an [`EventSink::emit`] whose closure builds
//! the event; `emit` runs it only when [`EventSink::enabled`], which is
//! a constant `false` for [`NullSink`]. After monomorphization the call
//! folds away — event construction included — so the default service
//! is byte-for-byte the uninstrumented one (`benches/obs.rs` measures
//! `emit` into it at ≈0 ns/event).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]
#![warn(missing_docs)]

pub mod event;
mod number;
pub mod series;
pub mod sink;
pub mod tally;

pub use event::{AbortReason, Event, ReadError};
pub use series::{SeriesReport, SeriesWindow, TimeSeriesSink};
pub use sink::{EventSink, JsonlWriter, NullSink, RingRecorder, TeeSink};
pub use tally::Tally;
