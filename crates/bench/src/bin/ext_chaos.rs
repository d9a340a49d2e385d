//! E13 — chaos engineering: a seeded fault plan (link outages, a flap,
//! bandwidth degradation, an SNMP-poller blackout) thrown at the GRNET
//! service, swept over session retry budgets.
//!
//! The headline fault severs Heraklio: both of its links (Athens–Heraklio
//! and Xanthi–Heraklio) go down for 15 minutes mid-run, so every transfer
//! touching the island loses its route. Under instant abort (budget 0)
//! those sessions die; a retry budget whose backoff outlasts the outage
//! waits it out and completes — aborted sessions strictly decrease as the
//! budget grows past the outage, at the same seed and fault plan.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_chaos
//! [--seed N] [--trace <path>] [--series <path>]` — `--trace` writes
//! the budget-5 run's JSONL event trace (faults, retries, staleness
//! flags included) for `vod-check audit`, and `--series` writes the
//! same run's one-minute windowed time-series (the E15 outage-window
//! utilization study; byte-stable JSON, or CSV when the path ends in
//! `.csv`).

use std::fs::File;
use std::io::{BufWriter, Write};

use vod_bench::obs_cli;
use vod_bench::Table;
use vod_core::service::{RetryPolicy, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_core::ServiceReport;
use vod_net::topologies::grnet::{Grnet, GrnetLink};
use vod_obs::{JsonlWriter, TeeSink, TimeSeriesSink};
use vod_sim::fault::FaultPlan;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_workload::arrivals::HourlyShape;
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::scenario::Scenario;
use vod_workload::trace::TraceConfig;

struct ChaosOptions {
    seed: u64,
    trace: Option<String>,
    series: Option<String>,
}

fn parse_args() -> Result<ChaosOptions, String> {
    let mut opts = ChaosOptions {
        seed: 42,
        trace: None,
        series: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().ok_or("--seed requires a value")?;
                opts.seed = value
                    .parse()
                    .map_err(|e| format!("invalid --seed value: {e}"))?;
            }
            "--trace" => {
                opts.trace = Some(args.next().ok_or("--trace requires a path")?);
            }
            "--series" => {
                opts.series = Some(args.next().ok_or("--series requires a path")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: ext_chaos [--seed <u64>] [--trace <path>] [--series <path>]".into(),
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// A denser half-hour GRNET workload than the case study, so the fault
/// windows always catch transfers in flight.
fn chaos_scenario(seed: u64) -> Scenario {
    let grnet = Grnet::new();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 12,
        min_size_mb: 50.0,
        max_size_mb: 120.0,
        bitrate_mbps: 1.5,
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(1800),
        rate_per_sec: 0.05,
        shape: HourlyShape::flat(),
        zipf_skew: 0.9,
        client_weights: None,
    }
    .generate(grnet.topology(), &library, seed);
    Scenario::new(
        "chaos",
        grnet.topology().clone(),
        library,
        trace,
        BackgroundModel::grnet_table2(&grnet),
        seed,
    )
}

/// The chaos plan: sever Heraklio for 15 minutes, flap Patra–Ioannina,
/// degrade Thessaloniki–Athens to 40 % capacity, and black out the SNMP
/// poller for 5 minutes — all inside the half-hour run.
fn chaos_plan(grnet: &Grnet, start: SimTime) -> FaultPlan {
    let outage_start = start + SimDuration::from_secs(300);
    let outage_end = start + SimDuration::from_secs(1200);
    FaultPlan::new()
        .link_outage(
            outage_start,
            outage_end,
            grnet.link(GrnetLink::AthensHeraklio),
        )
        .link_outage(
            outage_start,
            outage_end,
            grnet.link(GrnetLink::XanthiHeraklio),
        )
        .link_flap(
            grnet.link(GrnetLink::PatraIoannina),
            start + SimDuration::from_secs(600),
            SimDuration::from_secs(60),
            SimDuration::from_secs(120),
            3,
        )
        .link_degrade(
            start + SimDuration::from_secs(900),
            start + SimDuration::from_secs(1500),
            grnet.link(GrnetLink::ThessalonikiAthens),
            0.4,
        )
        .snmp_outage(
            start + SimDuration::from_secs(1200),
            start + SimDuration::from_secs(1500),
        )
}

fn run(
    scenario: &Scenario,
    config: ServiceConfig,
    trace: Option<&str>,
    series: Option<&str>,
) -> std::io::Result<ServiceReport> {
    Ok(match (trace, series) {
        (None, None) => VodService::new(scenario, Box::new(Vra::default()), config).run(),
        (trace, series) => {
            // One instrumented run feeds both artifacts through a tee:
            // the JSONL trace (or a discarding writer) and the
            // one-minute windowed series.
            let writer: Box<dyn Write> = match trace {
                Some(path) => Box::new(BufWriter::new(File::create(path)?)),
                None => Box::new(std::io::sink()),
            };
            let sink = TeeSink::new(JsonlWriter::new(writer), TimeSeriesSink::new());
            let (report, sink) =
                VodService::with_sink(scenario, Box::new(Vra::default()), config, sink).run_full();
            let (jsonl, series_sink) = sink.into_parts();
            jsonl.into_inner().flush()?;
            if let Some(path) = series {
                obs_cli::write_series(&series_sink.finish(), path)?;
            }
            report
        }
    })
}

fn main() {
    let opts = parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    println!("(seed: {})\n", opts.seed);
    let grnet = Grnet::new();
    let scenario = chaos_scenario(opts.seed);
    let n = scenario.trace().len();
    let start = scenario
        .trace()
        .requests()
        .first()
        .expect("non-empty trace")
        .at;
    let plan = chaos_plan(&grnet, start);
    println!(
        "E13 — chaos: Heraklio severed 5–20 min in, Patra–Ioannina flapping, \
         Thessaloniki–Athens at 40%, SNMP blind 20–25 min; {n} requests\n"
    );

    let mut t = Table::new([
        "retry budget",
        "completed",
        "failed",
        "aborted",
        "startup mean (s)",
        "stall %",
    ]);
    let mut aborted_at_budget = Vec::new();
    for budget in [0u32, 2, 5] {
        let config = ServiceConfig {
            initial_replicas: 1,
            fault_plan: plan.clone(),
            retry: RetryPolicy {
                max_attempts: budget,
                backoff: SimDuration::from_secs(120),
                stall_budget: SimDuration::from_secs(1500),
            },
            ..ServiceConfig::default()
        };
        // The budget-5 run is the most eventful (faults, retries and
        // staleness flags all fire), so that is the one worth tracing.
        let trace = opts.trace.as_deref().filter(|_| budget == 5);
        let series = opts.series.as_deref().filter(|_| budget == 5);
        let report = run(&scenario, config, trace, series).unwrap_or_else(|e| {
            eprintln!("failed to write trace: {e}");
            std::process::exit(1);
        });
        aborted_at_budget.push((budget, report.aborted_sessions));
        t.row([
            budget.to_string(),
            report.completed.len().to_string(),
            report.failed_requests.to_string(),
            report.aborted_sessions.to_string(),
            format!("{:.1}", report.startup_summary().mean),
            format!("{:.1}%", report.mean_stall_ratio() * 100.0),
        ]);
    }
    t.print();
    if let (Some(&(_, instant)), Some(&(_, patient))) =
        (aborted_at_budget.first(), aborted_at_budget.last())
    {
        println!(
            "\n(budget 5 outlasts the 15-minute severance: {} of {} instant-abort",
            instant.saturating_sub(patient),
            instant
        );
        println!(" casualties instead wait out the outage and complete)");
    }
    if let Some(path) = &opts.trace {
        eprintln!("trace written to {path}");
    }
    if let Some(path) = &opts.series {
        eprintln!("series written to {path}");
    }
}
