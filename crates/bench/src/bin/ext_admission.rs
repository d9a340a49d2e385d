//! E6 — admission control vs open admission under increasing load
//! (the paper's "minimum QoS" goal, enforced vs merely routed-for).
//!
//! Expectation: without admission, stall time explodes as offered load
//! crosses the backbone's capacity and *every* session degrades; with a
//! bitrate-headroom admission floor, excess requests are rejected and the
//! admitted sessions keep their QoS.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_admission [--seed N]`

use vod_bench::cli::Options;
use vod_bench::Table;
use vod_core::admission::AdmissionPolicy;
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_workload::arrivals::HourlyShape;
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::scenario::Scenario;
use vod_workload::trace::TraceConfig;

fn scenario(rate: f64, seed: u64) -> Scenario {
    let grnet = vod_net::topologies::grnet::Grnet::new();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 60,
        min_size_mb: 150.0,
        max_size_mb: 350.0,
        bitrate_mbps: 1.5,
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(4 * 3600),
        rate_per_sec: rate,
        shape: HourlyShape::flat(),
        zipf_skew: 0.8,
        client_weights: None,
    }
    .generate(grnet.topology(), &library, seed);
    Scenario::new(
        format!("admission-{rate}"),
        grnet.topology().clone(),
        library,
        trace,
        BackgroundModel::grnet_table2(&grnet),
        seed,
    )
}

fn main() {
    let opts = Options::from_env();
    println!("E6 — admission control vs open admission (GRNET, 4h, Zipf 0.8)\n");
    let mut t = Table::new([
        "load (req/s)",
        "policy",
        "completed",
        "rejected",
        "startup mean (s)",
        "stall %",
        "stalled sess %",
    ]);

    for &rate in &[0.002, 0.005, 0.01] {
        let scenario = scenario(rate, opts.seed);
        for admission in [None, Some(AdmissionPolicy::new(1.0))] {
            let label = if admission.is_some() { "gated" } else { "open" };
            let config = ServiceConfig {
                initial_replicas: 2,
                admission,
                ..ServiceConfig::default()
            };
            let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
            t.row([
                format!("{rate}"),
                label.to_string(),
                report.completed.len().to_string(),
                report.rejected_requests.to_string(),
                format!("{:.1}", report.startup_summary().mean),
                format!("{:.1}%", report.mean_stall_ratio() * 100.0),
                format!("{:.1}%", report.stalled_session_fraction() * 100.0),
            ]);
        }
    }
    t.print();
    println!("\n(gated = every route link must have 1× the video bitrate free at");
    println!(" selection time, judged on the same stale SNMP view the VRA uses)");
}
