//! Static analysis for the VoD workspace, in two engines:
//!
//! * [`analyze`] — the semantic analyzer (`L008`, `L010`): a
//!   dependency-free [`lex`]er and [`model`] item extractor over the
//!   [`source`] files feed a [`callgraph`] whose reachability from the
//!   sim hot-path roots scopes the panic rule (panic macros and
//!   computed slice indexing), plus the `partial_cmp` sort-key rule.
//!
//!   The line-level determinism and panic-hygiene rules (wall clock,
//!   thread primitives, `HashMap`/`HashSet`, `unwrap`/`expect`,
//!   `unsafe`) are clippy and rustc lints (`clippy.toml` at the
//!   workspace root); their old codes stay unused (see [`source`]).
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
//! Both run behind the `vod-check` binary:
//!
//! ```text
//! cargo run -p vod-check -- analyze         # L008, L010 semantic pass
//! cargo run -p vod-check -- audit --grnet   # replay the GRNET case study
//! cargo run -p vod-check -- audit run.jsonl # audit a stored trace
//! cargo run -p vod-check -- audit --series run.series.json run.jsonl
//! ```
//!
//! The rule catalog with its mapping to the paper's figures lives in
//! DESIGN.md §11 (lints/audit) and §15 (analyzer).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analyze;
pub mod audit;
pub mod callgraph;
pub mod lex;
pub mod model;
pub mod series;
pub mod source;
