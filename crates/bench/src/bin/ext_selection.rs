//! E2 — the VRA against baseline selectors over full service runs on the
//! simulated GRNET day, across multiple seeds and load levels.
//!
//! Expectation: at light load every load-aware policy looks similar
//! (hop-count can even win: shortest paths, no staleness); as offered
//! load approaches the thin backbone's capacity the VRA's
//! congestion-avoiding routes win on stall time and startup, and random /
//! static placement degrade fastest.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_selection [--seed N]`

use vod_bench::cli::Options;
use vod_bench::Table;
use vod_core::selection::{
    FirstCandidate, HopCountNearest, LeastUtilizedPath, RandomReplica, RandomizedVra,
    ServerSelector,
};
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_workload::arrivals::HourlyShape;
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::scenario::Scenario;
use vod_workload::trace::TraceConfig;

const SEEDS: usize = 3;

fn scenario_at_rate(rate: f64, seed: u64) -> Scenario {
    let grnet = vod_net::topologies::grnet::Grnet::new();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 100,
        ..LibraryConfig::default()
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(10 * 3600),
        rate_per_sec: rate,
        shape: HourlyShape::evening_peak(),
        zipf_skew: 0.8,
        client_weights: None,
    }
    .generate(grnet.topology(), &library, seed);
    Scenario::new(
        format!("grnet-rate-{rate}"),
        grnet.topology().clone(),
        library,
        trace,
        BackgroundModel::grnet_table2(&grnet),
        seed,
    )
}

fn selector_for(name: &str, seed: u64) -> Box<dyn ServerSelector> {
    match name {
        "vra" => Box::new(Vra::default()),
        "randomized-vra" => Box::new(RandomizedVra::new(0.25, seed)),
        "hop-count" => Box::new(HopCountNearest),
        "least-utilized" => Box::new(LeastUtilizedPath),
        "random" => Box::new(RandomReplica::new(seed)),
        "first-candidate" => Box::new(FirstCandidate),
        other => unreachable!("unknown selector {other}"),
    }
}

fn main() {
    let opts = Options::from_env();
    let config = ServiceConfig {
        initial_replicas: 2,
        ..ServiceConfig::default()
    };

    println!("E2 — selector comparison on the simulated GRNET day ({SEEDS} seeds per cell)\n");
    let mut t = Table::new([
        "load (req/s)",
        "selector",
        "startup mean (s)",
        "stall %",
        "stalled sess %",
        "switches",
        "local %",
    ]);

    for &rate in &[0.001, 0.002, 0.004] {
        for name in [
            "vra",
            "randomized-vra",
            "hop-count",
            "least-utilized",
            "random",
            "first-candidate",
        ] {
            let mut startup = 0.0;
            let mut stall = 0.0;
            let mut stalled_frac = 0.0;
            let mut switches = 0.0;
            let mut local = 0.0;
            for s in 0..SEEDS {
                let seed = opts.seed + s as u64;
                let scenario = scenario_at_rate(rate, seed);
                let report =
                    VodService::new(&scenario, selector_for(name, seed), config.clone()).run();
                startup += report.startup_summary().mean;
                stall += report.mean_stall_ratio();
                stalled_frac += report.stalled_session_fraction();
                switches += report.mean_switches();
                local += report.mean_local_fraction();
            }
            let n = SEEDS as f64;
            t.row([
                format!("{rate}"),
                name.to_string(),
                format!("{:.1}", startup / n),
                format!("{:.1}%", stall / n * 100.0),
                format!("{:.1}%", stalled_frac / n * 100.0),
                format!("{:.2}", switches / n),
                format!("{:.1}%", local / n * 100.0),
            ]);
        }
    }
    t.print();
    println!("\n(rates 0.001–0.004 req/s span ~4 to ~16 concurrent 1.5 Mbps streams on a");
    println!(" backbone with 46 Mbps of raw capacity, much of it consumed by Table 2's");
    println!(" background traffic — the crossover regime the paper targets)");
}
