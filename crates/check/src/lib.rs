//! Static analysis for the VoD workspace, in three engines:
//!
//! * [`lint`] — a dependency-free source scanner over `crates/*/src`
//!   enforcing the repo's determinism and panic-hygiene rules (`L001`,
//!   `L003`–`L005`): no wall-clock reads outside `vod-bench`, no
//!   iteration-order-dependent collections in code that feeds reports
//!   or traces, no `unwrap`/un-allowlisted `expect` in library crates,
//!   and `#![forbid(unsafe_code)]` in every crate root.
//!
//! * [`analyze`] — the semantic analyzer (`L008`–`L011`): a
//!   dependency-free [`lex`]er and [`model`] item extractor feed a
//!   [`callgraph`] whose reachability from the sim hot-path roots
//!   scopes the panic rule (panic macros and computed slice indexing;
//!   `unwrap`/`expect` are `L004`'s everywhere), plus determinism
//!   dataflow rules (thread primitives, `partial_cmp` sort keys,
//!   `Hash`-without-`Ord` map keys).
//!
//!   Rule codes are stable; `L002`, `L006` and `L007` are retired (see
//!   [`lint`]).
//!
//! * [`audit`] — a JSONL trace replayer verifying the paper's runtime
//!   invariants (`A000`–`A012`) against independent reference
//!   implementations: DMA cache occupancy and admission thresholds
//!   (Figure 2), least-popular eviction victims, `i mod n` striping
//!   (Figure 3), and VRA selections re-derived by a from-scratch
//!   LVN-weighted Dijkstra (Figure 5) over the traced link state.
//!   [`series`] adds rule `A013`, reconciling a `--series` time-series
//!   export against the raw trace the same run emitted.
//!
//! All run behind the `vod-check` binary:
//!
//! ```text
//! cargo run -p vod-check -- lint            # L001, L003–L005, zero findings gate
//! cargo run -p vod-check -- analyze         # L008–L011 semantic pass
//! cargo run -p vod-check -- audit --grnet   # replay the GRNET case study
//! cargo run -p vod-check -- audit run.jsonl # audit a stored trace
//! cargo run -p vod-check -- audit --series run.series.json run.jsonl
//! ```
//!
//! The rule catalog with its mapping to the paper's figures lives in
//! DESIGN.md §11 (lint/audit) and §15 (analyzer).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod audit;
pub mod callgraph;
pub mod lex;
pub mod lint;
pub mod model;
pub mod series;
