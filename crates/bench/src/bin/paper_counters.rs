//! Exact work counters of two paper-mode service runs, as bench rows.
//!
//! * **GRNET**: the paper's backbone with its recorded Table 2
//!   background, evening-peak Poisson arrivals over 60 days, one
//!   replica per title and a DMA that admits on the first request into
//!   a small disk, so it admits and evicts all along.
//! * **gnp200**: a 200-node random graph with four replicas per title
//!   and no local copy for most requests, so nearly every fetch is a
//!   contended multi-hop flow picked by a partial Dijkstra.
//!
//! Every counter row is exact for a seed, so the committed
//! `BENCH_paper.json` holds it at limit 1.0: a change that makes a run
//! do more work — scan more fill rows, settle more Dijkstra nodes, push
//! more events — fails `vod-bench compare` on any host. One wall-time
//! row and one peak-RSS row with wide limits ride along.
//!
//! Run with: `cargo run --release -p vod-bench --bin paper_counters
//! [--json <path>]`

use std::time::Instant;

use vod_bench::compare::{peak_rss_mb, rows_json, Direction, Row};
use vod_core::qos::ServiceReport;
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::topologies::grnet::Grnet;
use vod_net::topologies::random::connected_gnp;
use vod_net::Mbps;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_storage::video::Megabytes;
use vod_workload::arrivals::HourlyShape;
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::scenario::Scenario;
use vod_workload::trace::TraceConfig;

/// Seed of every generator of both runs.
const SEED: u64 = 42;

/// The GRNET run: Table 2 background, evening-peak arrivals, DMA churn.
fn grnet() -> (Scenario, ServiceConfig) {
    let grnet = Grnet::new();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 300,
        ..LibraryConfig::default()
    })
    .generate(SEED);
    let trace = TraceConfig {
        start: SimTime::ZERO,
        duration: SimDuration::from_secs(60 * 86_400),
        rate_per_sec: 0.0008,
        shape: HourlyShape::evening_peak(),
        zipf_skew: 0.8,
        client_weights: None,
    }
    .generate(grnet.topology(), &library, SEED);
    let scenario = Scenario::new(
        "paper-grnet",
        grnet.topology().clone(),
        library,
        trace,
        BackgroundModel::grnet_table2(&grnet),
        SEED,
    );
    let config = ServiceConfig {
        initial_replicas: 1,
        disk_capacity: Megabytes::new(25_000.0),
        dma_admit_threshold: 1,
        ..ServiceConfig::default()
    };
    (scenario, config)
}

/// The contended multi-hop run: 200 nodes, remote serves.
fn gnp200() -> (Scenario, ServiceConfig) {
    let topology = connected_gnp(200, 0.05, SEED);
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 200,
        min_size_mb: 150.0,
        max_size_mb: 400.0,
        ..LibraryConfig::default()
    })
    .generate(SEED);
    let trace = TraceConfig {
        start: SimTime::ZERO,
        duration: SimDuration::from_secs(1_200),
        rate_per_sec: 1_650.0 / 3_600.0,
        shape: HourlyShape::flat(),
        zipf_skew: 0.8,
        client_weights: None,
    }
    .generate(&topology, &library, SEED);
    let background = BackgroundModel::uniform(topology.link_count(), Mbps::ZERO);
    let scenario = Scenario::new("paper-gnp200", topology, library, trace, background, SEED);
    let config = ServiceConfig {
        initial_replicas: 4,
        ..ServiceConfig::default()
    };
    (scenario, config)
}

/// Runs one scenario to the end: its report, event count and wall time.
fn run(scenario: &Scenario, config: ServiceConfig) -> (ServiceReport, u64, f64) {
    let mut service = VodService::new(scenario, Box::new(Vra::default()), config);
    #[expect(
        clippy::disallowed_methods,
        reason = "measures the run's wall time; the run itself reads only SimTime"
    )]
    let start = Instant::now();
    service.run_to_end();
    let wall = start.elapsed().as_secs_f64();
    let events = service.events_processed();
    (service.into_report(), events, wall)
}

/// The exact counter rows of one run, ids prefixed `paper/<name>/`.
fn counter_rows(
    name: &str,
    arrivals: usize,
    report: &ServiceReport,
    events: u64,
    rows: &mut Vec<Row>,
) {
    use Direction::{HigherBetter, LowerBetter};
    // The failed share's complement: a gated value must be positive.
    let failed = report.failed_requests + report.aborted_sessions + report.rejected_requests;
    let served_share = 1.0 - failed as f64 / arrivals.max(1) as f64;
    let engine = report.engine.unwrap_or_default();
    let k = &report.kernel;
    let q = &report.scheduler;
    let t = &report.ticks;
    let mut row = |counter: &str, value: u64, direction| {
        rows.push(Row::new(
            &format!("paper/{name}/{counter}"),
            value as f64,
            direction,
        ));
    };
    row("events", events, LowerBetter);
    row("settles", k.settles, LowerBetter);
    row("fills", k.reallocations, LowerBetter);
    row("fill_rounds", k.fill_rounds, LowerBetter);
    row("links_scanned", k.links_scanned, LowerBetter);
    if k.links_pruned > 0 {
        row("links_pruned", k.links_pruned, HigherBetter);
    }
    row("row_updates", k.row_updates, LowerBetter);
    row("flows_rerated", k.flows_rerated, LowerBetter);
    row("full_rebuilds", engine.full_rebuilds, LowerBetter);
    row("dijkstra_runs", engine.dijkstra_runs, LowerBetter);
    row("nodes_settled", engine.nodes_settled, LowerBetter);
    row("pushes", q.pushes, LowerBetter);
    row("timers", q.timers, LowerBetter);
    row("polls", t.polls, LowerBetter);
    row("readings", t.readings, LowerBetter);
    if report.dma.admissions > 0 {
        row("dma_admissions", report.dma.admissions, LowerBetter);
    }
    if report.dma.evictions > 0 {
        row("dma_evictions", report.dma.evictions, LowerBetter);
    }
    rows.push(Row::new(
        &format!("paper/{name}/served_share"),
        served_share,
        HigherBetter,
    ));
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = args.next(),
            _ => {
                eprintln!("usage: paper_counters [--json <path>]");
                std::process::exit(2);
            }
        }
    }

    let mut rows = Vec::new();
    let mut wall_total = 0.0;
    for (name, (scenario, config)) in [("grnet", grnet()), ("gnp200", gnp200())] {
        let (report, events, wall) = run(&scenario, config);
        wall_total += wall;
        let k = &report.kernel;
        let e = report.engine.unwrap_or_default();
        println!(
            "{name}: {} arrivals, {events} events in {wall:.3} s; {} fills, {} rounds, \
             {} links scanned, {} pruned, {} row updates; {} Dijkstra runs settled {} nodes",
            scenario.trace().len(),
            k.reallocations,
            k.fill_rounds,
            k.links_scanned,
            k.links_pruned,
            k.row_updates,
            e.dijkstra_runs,
            e.nodes_settled,
        );
        counter_rows(name, scenario.trace().len(), &report, events, &mut rows);
    }
    rows.push(Row::new("paper/run_s", wall_total, Direction::LowerBetter));
    rows.push(Row::new(
        "paper/peak_rss_mb",
        peak_rss_mb(),
        Direction::LowerBetter,
    ));

    if let Some(path) = json {
        std::fs::write(&path, rows_json(&rows)).expect("write json output");
        println!("wrote {path}");
    }
}
