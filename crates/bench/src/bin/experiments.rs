//! Regenerates Experiments A–D: the four VRA routing decisions of the
//! paper's case study, under both the paper's published Table 3 weights
//! and our exactly-computed LVNs.
//!
//! Run with: `cargo run -p vod-bench --bin experiments`
//!
//! Optional observability flags (the default output stays byte-identical
//! when none are given):
//!
//! - `--trace <path>`: run the full GRNET case-study service and write
//!   its deterministic JSONL event trace to `path`.
//! - `--metrics <path>`: write the same run's `ServiceReport` (every
//!   finished session's QoS record plus the engine, flow-kernel,
//!   scheduler, tick, DMA and prefix counters) as one JSON object to
//!   `path`.
//! - `--series <path>`: write the same run's windowed time-series
//!   (one-minute windows; byte-stable JSON, or CSV when `path` ends in
//!   `.csv`) to `path`.
//! - `--stats`: append the run's routing-engine and per-server DMA
//!   counters to stdout.

use vod_bench::expected::{experiments, PAPER_WEIGHT_COST_TOLERANCE};
use vod_bench::{obs_cli, Table};
use vod_core::selection::SelectionContext;
use vod_core::vra::Vra;
use vod_net::topologies::grnet::Grnet;
use vod_net::NodeId;

/// Observability options; everything is off by default.
#[derive(Default)]
struct ObsOptions {
    trace: Option<String>,
    metrics: Option<String>,
    series: Option<String>,
    stats: bool,
}

fn parse_obs_options() -> ObsOptions {
    let mut opts = ObsOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => match args.next() {
                Some(path) => opts.trace = Some(path),
                None => {
                    eprintln!("--trace requires a path");
                    std::process::exit(2);
                }
            },
            "--metrics" => match args.next() {
                Some(path) => opts.metrics = Some(path),
                None => {
                    eprintln!("--metrics requires a path");
                    std::process::exit(2);
                }
            },
            "--series" => match args.next() {
                Some(path) => opts.series = Some(path),
                None => {
                    eprintln!("--series requires a path");
                    std::process::exit(2);
                }
            },
            "--stats" => opts.stats = true,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: experiments [--trace <path>] [--metrics <path>] \
                     [--series <path>] [--stats]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let obs = parse_obs_options();
    let grnet = Grnet::new();
    let vra = Vra::default();
    let mut all_ok = true;

    let mut t = Table::new([
        "Exp",
        "time",
        "home",
        "paper choice (cost)",
        "paper-weights run",
        "computed-LVN run",
        "status",
    ]);

    for exp in experiments() {
        let home = grnet.node(exp.home);
        let candidates: Vec<NodeId> = exp.candidates.iter().map(|&c| grnet.node(c)).collect();
        let snapshot = grnet.snapshot(exp.time);
        let ctx = SelectionContext {
            topology: grnet.topology(),
            snapshot: &snapshot,
            home,
            candidates: &candidates,
        };

        // Run 1: Dijkstra over the paper's own Table 3 numbers.
        let paper_weights = grnet.paper_table3_weights(exp.time);
        let from_paper = vra
            .select_with_weights(&ctx, &paper_weights)
            .expect("GRNET is connected");
        // Run 2: Dijkstra over LVNs computed from equations (1)-(4).
        let from_computed = vra.select_with_report(&ctx).expect("GRNET is connected");

        let expected_choice = grnet.node(exp.corrected_choice);
        let paper_ok = from_paper.selection.server == expected_choice
            && (from_paper.selection.route.cost() - exp.corrected_cost).abs()
                < PAPER_WEIGHT_COST_TOLERANCE;
        let computed_ok = from_computed.selection.server == expected_choice;
        all_ok &= paper_ok && computed_ok;

        let status = if !exp.reproducible {
            "ERRATUM (see table4)"
        } else if paper_ok && computed_ok {
            "matches paper"
        } else {
            "MISMATCH"
        };

        t.row([
            exp.id.to_string(),
            exp.time.label().to_string(),
            format!("{} ({})", exp.home.u_label(), exp.home.city()),
            format!(
                "{} via {} ({})",
                exp.published_choice.u_label(),
                exp.published_route.join(","),
                exp.published_cost
            ),
            format!(
                "{} via {} ({:.4})",
                grnet
                    .grnet_node(from_paper.selection.server)
                    .expect("GRNET node")
                    .u_label(),
                from_paper.selection.route.display_with(grnet.topology()),
                from_paper.selection.route.cost()
            ),
            format!(
                "{} via {} ({:.4})",
                grnet
                    .grnet_node(from_computed.selection.server)
                    .expect("GRNET node")
                    .u_label(),
                from_computed.selection.route.display_with(grnet.topology()),
                from_computed.selection.route.cost()
            ),
            status.to_string(),
        ]);
    }

    println!("Experiments A–D — VRA decisions (paper vs regenerated)\n");
    t.print();
    println!();
    println!("Experiment A: the paper picks Xanthi (0.315) because its Table 4 misses");
    println!("the U3→U4 relaxation; faithful Dijkstra over the paper's own weights picks");
    println!("Thessaloniki via U2,U3,U4 at 0.21771. B, C and D reproduce exactly.");
    println!(
        "\nall regenerated decisions consistent: {}",
        if all_ok { "YES" } else { "NO" }
    );

    if obs.trace.is_some() || obs.metrics.is_some() || obs.series.is_some() || obs.stats {
        let report = if let Some(series_path) = &obs.series {
            let (report, series) = obs_cli::case_study_run_full(obs.trace.as_deref())
                .unwrap_or_else(|e| {
                    eprintln!("observability run failed: {e}");
                    std::process::exit(1);
                });
            if let Err(e) = obs_cli::write_series(&series, series_path) {
                eprintln!("failed to write series to {series_path}: {e}");
                std::process::exit(1);
            }
            eprintln!("series written to {series_path}");
            report
        } else {
            obs_cli::case_study_run(obs.trace.as_deref()).unwrap_or_else(|e| {
                eprintln!("observability run failed: {e}");
                std::process::exit(1);
            })
        };
        if let Some(path) = &obs.trace {
            eprintln!("trace written to {path}");
        }
        if let Some(path) = &obs.metrics {
            let json = serde_json::to_string(&report).unwrap_or_else(|e| {
                eprintln!("failed to serialize the report: {e}");
                std::process::exit(1);
            });
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("failed to write metrics to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("metrics written to {path}");
        }
        if obs.stats {
            println!();
            obs_cli::print_stats(&report);
        }
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
