//! Benchmark and reproduction harness for the ICDCS 2000 VoD paper.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! binary in `src/bin/` (see DESIGN.md's per-experiment index), and the
//! Criterion benches in `benches/` measure the routing engine, the flow
//! kernel and the obs sinks; every row they emit is a row of a committed
//! `BENCH_*.json`.
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 (VRA inputs) + Figure 4 worked example |
//! | `table2` | Table 2 (recorded SNMP readings + simulator regeneration) |
//! | `table3` | Table 3 (computed LVNs vs published, per-cell deltas) |
//! | `table4` | Table 4 (Dijkstra trace, Experiment A — documents the paper's erratum) |
//! | `table5` | Table 5 (Dijkstra trace, Experiment B — exact match) |
//! | `experiments` | Experiments A–D (chosen server / route / cost vs paper) |
//! | `fig2_dma` | Figure 2 (DMA behaviour on a Zipf request stream) |
//! | `fig3_striping` | Figure 3 (stripe layouts + parallel read scaling) |
//! | `fig6_topology` | Figure 6 (the GRNET backbone) |
//! | `ext_cache` | E1: DMA vs LRU/LFU hit ratios |
//! | `ext_selection` | E2: VRA vs baseline selectors, full service runs |
//! | `ext_switching` | E3: mid-stream switching ablation × cluster size |
//! | `ext_normalization` | E4: normalization-constant sensitivity |
//! | `ext_admission` | E6: admission control vs open admission |
//! | `ext_distributed` | E7: future-work strip replication across servers |
//! | `ext_failures` | E8: reliability under server outages × replication |
//! | `ext_smoothing` | E9: EWMA-smoothed SNMP view for the VRA |
//!
//! This support library provides the shared pieces: text tables,
//! seed/CLI handling, the paper's expected values, the simple LRU/LFU
//! baseline caches used by E1, and [`compare`]: the one bench-file
//! shape, its writer and parser, and the gate behind the `vod-bench`
//! binary itself (`cargo run -p vod-bench -- compare`), which holds
//! fresh rows to the limits the committed `BENCH_*.json` rows carry.

#![warn(missing_docs)]

pub mod caches;
pub mod cli;
pub mod compare;
pub mod expected;
pub mod obs_cli;
pub mod table;

pub use table::Table;
