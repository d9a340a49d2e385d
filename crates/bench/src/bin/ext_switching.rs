//! E3 — ablation of the paper's headline feature: per-cluster dynamic
//! re-routing, swept against the cluster size `c`.
//!
//! The paper: "the size of the cluster c … plays a decisive part in
//! dealing with network congestion according to this latest technique."
//! Expectation: with dynamic re-routing ON, smaller clusters react faster
//! to congestion (more switch opportunities) at the price of more
//! switches; with re-routing OFF the cluster size barely matters and
//! stall time is higher under load.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_switching [--seed N]`

use vod_bench::cli::Options;
use vod_bench::Table;
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_storage::cluster::ClusterSize;
use vod_storage::video::Megabytes;
use vod_workload::scenario::Scenario;

fn main() {
    let opts = Options::from_env();
    let scenario = Scenario::flash_crowd(opts.seed);
    println!(
        "E3 — dynamic re-routing × cluster size on the flash-crowd scenario ({} requests)\n",
        scenario.trace().len()
    );

    let mut t = Table::new([
        "cluster c (MB)",
        "re-routing",
        "startup mean (s)",
        "stall %",
        "switches/session",
        "completed",
    ]);

    for &cluster_mb in &[25.0, 50.0, 100.0, 200.0] {
        for dynamic in [true, false] {
            let config = ServiceConfig {
                cluster: ClusterSize::new(Megabytes::new(cluster_mb)),
                dynamic_rerouting: dynamic,
                initial_replicas: 2,
                ..ServiceConfig::default()
            };
            let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
            t.row([
                format!("{cluster_mb}"),
                if dynamic { "dynamic" } else { "static" }.to_string(),
                format!("{:.1}", report.startup_summary().mean),
                format!("{:.1}%", report.mean_stall_ratio() * 100.0),
                format!("{:.2}", report.mean_switches()),
                report.completed.len().to_string(),
            ]);
        }
    }
    t.print();
    println!("\n(static = the selector runs once per session, as a system without the");
    println!(" paper's mid-stream switching would; dynamic = Figure 5 re-run per cluster)");
}
