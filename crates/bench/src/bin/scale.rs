//! Kernel-scale benchmark: the event-driven flow kernel on the
//! [`Scenario::scale_stress`] workload — 10⁵+ concurrent sessions on
//! GRNET with every serve local.
//!
//! The run goes to completion and reports throughput (events/sec), the
//! peak number of concurrently live sessions and the process's peak
//! resident set, which their per-session records dominate.
//!
//! Run with: `cargo run --release -p vod-bench --bin scale
//! [--seed N] [--sessions N] [--json <path>]
//! [--trace <path> --trace-sessions N] [--series <path>]`
//!
//! `--json` writes the run as bench rows for `vod-bench compare`
//! against the committed `BENCH_sim.json`: throughput, peak RSS, and
//! the peak session and event counts and the scheduler queue's own work
//! counters, which are exact for a seed. `--trace`
//! additionally writes the JSONL event trace of a smaller
//! (`--trace-sessions`) scale run for `vod-check audit`; `--series`
//! writes the same smaller run's one-minute windowed time-series
//! alongside it.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

use vod_bench::compare::{peak_rss_mb, rows_json, Direction, Row};
use vod_bench::obs_cli;
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::Mbps;
use vod_obs::{JsonlWriter, TeeSink, TimeSeriesSink};
use vod_sim::bucketq::QueueStats;
use vod_workload::scenario::Scenario;

struct Options {
    seed: u64,
    sessions: usize,
    json: Option<String>,
    trace: Option<String>,
    trace_sessions: usize,
    series: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 42,
        sessions: 102_000,
        json: None,
        trace: None,
        trace_sessions: 2_000,
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
            "--sessions" => {
                let value = args.next().ok_or("--sessions requires a value")?;
                opts.sessions = value
                    .parse()
                    .map_err(|e| format!("invalid --sessions value: {e}"))?;
            }
            "--json" => {
                opts.json = Some(args.next().ok_or("--json requires a path")?);
            }
            "--trace" => {
                opts.trace = Some(args.next().ok_or("--trace requires a path")?);
            }
            "--series" => {
                opts.series = Some(args.next().ok_or("--series requires a path")?);
            }
            "--trace-sessions" => {
                let value = args.next().ok_or("--trace-sessions requires a value")?;
                opts.trace_sessions = value
                    .parse()
                    .map_err(|e| format!("invalid --trace-sessions value: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: scale [--seed <u64>] [--sessions <n>] \
                            [--json <path>] [--trace <path>] \
                            [--trace-sessions <n>] [--series <path>]"
                    .into());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The service configuration the scale scenario is designed around:
/// every title on every city (all serves local) and a 2 Mbps local
/// streaming ceiling, so each session holds a live flow for most of its
/// playout and the concurrent-flow population tracks the session count.
fn scale_config() -> ServiceConfig {
    ServiceConfig {
        initial_replicas: 6,
        local_rate: Mbps::new(2.0),
        ..ServiceConfig::default()
    }
}

struct KernelResult {
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    sim_secs: f64,
    peak_sessions: usize,
    completed: u64,
    peak_rss_mb: f64,
    queue: QueueStats,
}

/// Runs the scenario to completion.
fn run_lazy(scenario: &Scenario) -> KernelResult {
    let mut service = VodService::new(scenario, Box::new(Vra::default()), scale_config());
    #[expect(
        clippy::disallowed_methods,
        reason = "measures the run's wall time; the run itself reads only SimTime"
    )]
    let start = Instant::now();
    service.run_to_end();
    let wall = start.elapsed().as_secs_f64();
    let events = service.events_processed();
    let peak = service.peak_sessions();
    let sim_secs = service.now().as_secs_f64();
    let report = service.into_report();
    let peak_rss_mb = peak_rss_mb();
    KernelResult {
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-9),
        sim_secs,
        peak_sessions: peak,
        completed: report.completed.len() as u64,
        peak_rss_mb,
        queue: report.scheduler.queue,
    }
}

fn write_trace(
    seed: u64,
    sessions: usize,
    trace: Option<&str>,
    series: Option<&str>,
) -> std::io::Result<()> {
    let scenario = Scenario::scale_stress(seed, sessions);
    let writer: Box<dyn Write> = match trace {
        Some(path) => Box::new(BufWriter::new(File::create(path)?)),
        None => Box::new(std::io::sink()),
    };
    let sink = TeeSink::new(JsonlWriter::new(writer), TimeSeriesSink::new());
    let (_, sink) =
        VodService::with_sink(&scenario, Box::new(Vra::default()), scale_config(), sink).run_full();
    let (jsonl, series_sink) = sink.into_parts();
    jsonl.into_inner()?;
    if let Some(path) = series {
        obs_cli::write_series(&series_sink.finish(), path)?;
    }
    Ok(())
}

fn main() {
    let opts = parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });

    let scenario = Scenario::scale_stress(opts.seed, opts.sessions);
    println!(
        "scale-stress: seed {}, target {} sessions, {} arrivals",
        opts.seed,
        opts.sessions,
        scenario.trace().len()
    );

    let lazy = run_lazy(&scenario);
    println!(
        "lazy:      {:>9} events in {:>6.2}s wall ({:>9.0} events/s), \
         peak {} sessions, {} completed, sim t={:.0}s, peak RSS {:.1} MB",
        lazy.events,
        lazy.wall_secs,
        lazy.events_per_sec,
        lazy.peak_sessions,
        lazy.completed,
        lazy.sim_secs,
        lazy.peak_rss_mb,
    );
    println!(
        "queue:     {} streams opened, {} bucket splits, {} entries moved",
        lazy.queue.streams, lazy.queue.splits, lazy.queue.moved
    );

    if let Some(path) = &opts.json {
        use Direction::{HigherBetter, LowerBetter};
        let rows = [
            Row::new("sim/lazy/events_per_sec", lazy.events_per_sec, HigherBetter),
            Row::new(
                "sim/lazy/peak_sessions",
                lazy.peak_sessions as f64,
                HigherBetter,
            ),
            Row::new("sim/lazy/events", lazy.events as f64, LowerBetter),
            Row::new("sim/lazy/peak_rss_mb", lazy.peak_rss_mb, LowerBetter),
            Row::new("sim/lazy/queue_moved", lazy.queue.moved as f64, LowerBetter),
            Row::new(
                "sim/lazy/queue_streams",
                lazy.queue.streams as f64,
                LowerBetter,
            ),
        ];
        std::fs::write(path, rows_json(&rows)).expect("write json output");
        println!("wrote {path}");
    }

    if opts.trace.is_some() || opts.series.is_some() {
        write_trace(
            opts.seed,
            opts.trace_sessions,
            opts.trace.as_deref(),
            opts.series.as_deref(),
        )
        .expect("write trace");
        if let Some(path) = &opts.trace {
            println!(
                "wrote trace of a {}-session run to {path}",
                opts.trace_sessions
            );
        }
        if let Some(path) = &opts.series {
            println!(
                "wrote series of a {}-session run to {path}",
                opts.trace_sessions
            );
        }
    }
}
