//! Regenerates Table 5 (the Dijkstra trace of Experiment B, 10am, client
//! at Patra) from the paper's own Table 3 weights — an exact match.
//!
//! Run with: `cargo run -p vod-bench --bin table5`
//!
//! Pass `--stats` to additionally run the GRNET case-study service and
//! append its routing-engine and per-server DMA counters, and/or
//! `--series <path>` to write that run's windowed time-series (the
//! default output is unchanged without the flags).

use vod_bench::obs_cli;
use vod_net::dijkstra::dijkstra_with_trace;
use vod_net::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};

fn main() {
    let grnet = Grnet::new();
    let weights = grnet.paper_table3_weights(TimeOfDay::T1000);
    let home = grnet.node(GrnetNode::Patra);
    let (paths, trace) = dijkstra_with_trace(grnet.topology(), &weights, home)
        .expect("paper weights are non-negative");

    println!("Table 5 — Dijkstra over the paper's Table 3 weights (10am, source U2/Patra)\n");
    println!("{}", trace.render(grnet.topology()));

    let d4 = paths
        .distance_to(grnet.node(GrnetNode::Thessaloniki))
        .expect("connected");
    let d5 = paths
        .distance_to(grnet.node(GrnetNode::Xanthi))
        .expect("connected");
    let route4 = paths
        .route_to(grnet.node(GrnetNode::Thessaloniki))
        .expect("connected");
    let route5 = paths
        .route_to(grnet.node(GrnetNode::Xanthi))
        .expect("connected");

    println!("Candidate summary (paper vs regenerated):");
    println!("  paper:       D4 = 1.007  via U2,U3,U4  |  D5 = 1.308  via U2,U1,U6,U5 → picks U4");
    println!(
        "  regenerated: D4 = {:.5} via {}  |  D5 = {:.5} via {} → picks {}",
        d4,
        route4.display_with(grnet.topology()),
        d5,
        route5.display_with(grnet.topology()),
        if d4 < d5 {
            "U4 (Thessaloniki)"
        } else {
            "U5 (Xanthi)"
        }
    );

    // 0.450017 + 0.5571 and 0.632 + 0.5462 + 0.13001.
    assert!((d4 - 1.007117).abs() < 1e-9);
    assert!((d5 - 1.30821).abs() < 1e-9);
    assert_eq!(
        route4.display_with(grnet.topology()).to_string(),
        "U2,U3,U4"
    );
    assert_eq!(
        route5.display_with(grnet.topology()).to_string(),
        "U2,U1,U6,U5"
    );
    println!("\nchecks passed: Table 5 reproduced exactly (to the paper's printed precision)");

    let series = obs_cli::series_flag();
    if obs_cli::stats_flag() || series.is_some() {
        let report = if let Some(series_path) = series {
            let (report, series) =
                obs_cli::case_study_run_full(None).expect("no trace file involved");
            obs_cli::write_series(&series, &series_path).expect("write series");
            eprintln!("series written to {series_path}");
            report
        } else {
            obs_cli::case_study_run(None).expect("no trace file involved")
        };
        if obs_cli::stats_flag() {
            println!();
            obs_cli::print_stats(&report);
        }
    }
}
