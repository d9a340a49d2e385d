//! E8 — reliability under server failures: the paper's "dynamic
//! adjustment" claim (and its reference \[3\]'s reliability-on-demand
//! theme) measured end-to-end.
//!
//! A server hosting popular content dies mid-day and recovers two hours
//! later. Expectation: with ≥2 initial replicas the service re-routes
//! around the outage and completion barely drops; with single-copy
//! placement every title homed solely on the victim becomes unavailable
//! until recovery.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_failures [--seed N]`

use vod_bench::cli::Options;
use vod_bench::Table;
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_sim::{FaultPlan, SimDuration};
use vod_workload::scenario::Scenario;

fn main() {
    let opts = Options::from_env();
    let scenario = Scenario::grnet_case_study(opts.seed);
    let n = scenario.trace().len();
    let start = scenario
        .trace()
        .requests()
        .first()
        .expect("non-empty trace")
        .at;
    let victim = scenario.topology().video_server_nodes()[0]; // Athens
    println!("E8 — Athens (U1) fails 1 h into the day, recovers 2 h later; {n} requests\n");

    let mut t = Table::new([
        "replicas",
        "outage",
        "completed",
        "failed",
        "aborted",
        "startup mean (s)",
        "stall %",
    ]);
    for replicas in [1usize, 2] {
        for fail in [false, true] {
            let config = ServiceConfig {
                initial_replicas: replicas,
                fault_plan: if fail {
                    FaultPlan::new().server_outage(
                        start + SimDuration::from_secs(3_600),
                        start + SimDuration::from_secs(3 * 3_600),
                        victim,
                    )
                } else {
                    FaultPlan::new()
                },
                ..ServiceConfig::default()
            };
            let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
            t.row([
                replicas.to_string(),
                if fail { "yes" } else { "no" }.to_string(),
                report.completed.len().to_string(),
                report.failed_requests.to_string(),
                report.aborted_sessions.to_string(),
                format!("{:.1}", report.startup_summary().mean),
                format!("{:.1}%", report.mean_stall_ratio() * 100.0),
            ]);
        }
    }
    t.print();
    println!("\n(failed counts requests refused at admission — vanished titles and");
    println!(" clients homed at the dead server; aborted counts sessions dropped");
    println!(" mid-stream; replication turns a content outage into a detour)");
}
