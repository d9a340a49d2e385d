//! E9 — does smoothing the stale SNMP view help the VRA?
//!
//! E2 showed the VRA suffers from routing on 2-minute-old readings (and
//! from its weighting). This ablation feeds the selector an EWMA of each
//! link's reading history instead of the latest poll: low `alpha` damps
//! reaction to transients (less thrash, slower to notice congestion),
//! `alpha = 1` is the plain latest-reading behaviour.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_smoothing [--seed N]`

use vod_bench::cli::Options;
use vod_bench::Table;
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_workload::arrivals::HourlyShape;
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::scenario::Scenario;
use vod_workload::trace::TraceConfig;

const SEEDS: usize = 3;

fn scenario(seed: u64) -> Scenario {
    let grnet = vod_net::topologies::grnet::Grnet::new();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 100,
        ..LibraryConfig::default()
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(10 * 3600),
        rate_per_sec: 0.002,
        shape: HourlyShape::evening_peak(),
        zipf_skew: 0.8,
        client_weights: None,
    }
    .generate(grnet.topology(), &library, seed);
    Scenario::new(
        "smoothing",
        grnet.topology().clone(),
        library,
        trace,
        BackgroundModel::grnet_table2(&grnet),
        seed,
    )
}

fn main() {
    let opts = Options::from_env();
    println!("E9 — EWMA-smoothed SNMP view for the VRA ({SEEDS} seeds per row)\n");
    let mut t = Table::new([
        "view",
        "startup mean (s)",
        "stall %",
        "stalled sess %",
        "switches",
    ]);
    for smoothing in [None, Some(1.0), Some(0.5), Some(0.2)] {
        let label = match smoothing {
            None => "latest reading".to_string(),
            Some(a) => format!("EWMA alpha={a}"),
        };
        let mut startup = 0.0;
        let mut stall = 0.0;
        let mut stalled = 0.0;
        let mut switches = 0.0;
        for s in 0..SEEDS {
            let seed = opts.seed + s as u64;
            let config = ServiceConfig {
                initial_replicas: 2,
                snmp_smoothing: smoothing,
                ..ServiceConfig::default()
            };
            let report = VodService::new(&scenario(seed), Box::new(Vra::default()), config).run();
            startup += report.startup_summary().mean;
            stall += report.mean_stall_ratio();
            stalled += report.stalled_session_fraction();
            switches += report.mean_switches();
        }
        let n = SEEDS as f64;
        t.row([
            label,
            format!("{:.1}", startup / n),
            format!("{:.1}%", stall / n * 100.0),
            format!("{:.1}%", stalled / n * 100.0),
            format!("{:.2}", switches / n),
        ]);
    }
    t.print();
    println!("\n(alpha=1 differs from 'latest reading' only in dropping the explicit");
    println!(" rounded-percentage channel; lower alpha trades reaction speed for calm)");
}
