//! Building your own network: the service beyond GRNET.
//!
//! The paper argues its service "grows with the network and has the
//! ability to adjust to a large variety of diverse networks". This
//! example builds a custom hub-and-spoke topology from scratch with the
//! public `TopologyBuilder` API, generates a workload whose requests
//! each carry the client's home node, and runs the service.
//!
//! Run with: `cargo run --release --example custom_topology`

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::{Mbps, TopologyBuilder};
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_workload::arrivals::HourlyShape;
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::scenario::Scenario;
use vod_workload::trace::TraceConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two regional hubs with three leaf cities each (10 Mbit access
    // links), hubs linked by a fat pipe.
    let mut b = TopologyBuilder::new();
    let hub_a = b.add_node("hub-a");
    let hub_b = b.add_node("hub-b");
    b.add_link(hub_a, hub_b, Mbps::new(34.0))?;
    for i in 0..3 {
        let leaf = b.add_node(format!("a{i}"));
        b.add_link(hub_a, leaf, Mbps::new(10.0))?;
    }
    for i in 0..3 {
        let leaf = b.add_node(format!("b{i}"));
        b.add_link(hub_b, leaf, Mbps::new(10.0))?;
    }
    let topology = b.build();
    println!(
        "custom topology: {} nodes, {} links, connected = {}",
        topology.node_count(),
        topology.link_count(),
        topology.is_connected()
    );

    // Workload: 40 titles, evening-peak arrivals over 4 hours.
    let seed = 11;
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 40,
        min_size_mb: 150.0,
        max_size_mb: 400.0,
        ..LibraryConfig::default()
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(18 * 3600),
        duration: SimDuration::from_secs(4 * 3600),
        rate_per_sec: 0.008,
        shape: HourlyShape::evening_peak(),
        zipf_skew: 0.9,
        client_weights: None,
    }
    .generate(&topology, &library, seed);
    let background = BackgroundModel::uniform(topology.link_count(), Mbps::new(0.3));
    let scenario = Scenario::new("custom", topology, library, trace, background, seed);
    println!("workload: {} requests", scenario.trace().len());

    let report = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
    )
    .run();
    let startup = report.startup_summary();
    println!(
        "\ncompleted {} sessions ({} failed, {} aborted, {} unfinished)",
        report.completed.len(),
        report.failed_requests,
        report.aborted_sessions,
        report.unfinished_sessions
    );
    println!(
        "startup mean {:.2} s / p95 {:.2} s, stall {:.2}%, {:.2} switches/session, {:.1}% local",
        startup.mean,
        startup.p95,
        report.mean_stall_ratio() * 100.0,
        report.mean_switches(),
        report.mean_local_fraction() * 100.0
    );
    Ok(())
}
