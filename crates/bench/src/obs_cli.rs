//! Shared observability plumbing for the regeneration binaries.
//!
//! Every paper-table binary prints byte-identical output by default; the
//! opt-in flags here add diagnostics without touching that contract:
//!
//! - `--stats` appends the routing-engine, flow-kernel, scheduler,
//!   periodic-tick and per-server DMA counters of a full GRNET
//!   case-study service run to stdout.
//! - `--series <path>` writes the run's windowed time-series
//!   ([`TimeSeriesSink`], one-minute windows) as byte-stable JSON — or
//!   CSV when `path` ends in `.csv`.
//! - `--trace <path>` (experiments only) writes the run's JSONL event
//!   trace to `path`.
//! - `--metrics <path>` (experiments only) writes the run's
//!   [`ServiceReport`] as one JSON object to `path`.

use std::fs::File;
use std::io::{BufWriter, Write};

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_core::ServiceReport;
use vod_obs::{JsonlWriter, SeriesReport, SpanBuilder, SpanReport, TeeSink, TimeSeriesSink};
use vod_workload::scenario::Scenario;

/// Returns true when `--stats` appears in the process arguments.
/// Unknown arguments are left for the binary's own parser to reject.
pub fn stats_flag() -> bool {
    std::env::args().skip(1).any(|a| a == "--stats")
}

/// Returns the path following `--series` in the process arguments, if
/// any. Like [`stats_flag`], unknown arguments are left to the
/// binary's own parser.
pub fn series_flag() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--series" {
            match args.next() {
                Some(path) => return Some(path),
                None => {
                    eprintln!("--series requires a path");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Everything an instrumented GRNET case-study run produces.
pub struct CaseStudyArtifacts {
    /// The paper-facing service report.
    pub report: ServiceReport,
    /// Windowed time-series of the run.
    pub series: SeriesReport,
    /// Assembled per-session lifecycle spans.
    pub spans: SpanReport,
}

/// Runs the GRNET case study (seed 42, the VRA selector) and returns
/// its report, streaming the JSONL trace to `trace` when given.
pub fn case_study_run(trace: Option<&str>) -> std::io::Result<ServiceReport> {
    let scenario = Scenario::grnet_case_study(42);
    let selector = Box::new(Vra::default());
    let config = ServiceConfig::default();
    Ok(match trace {
        Some(path) => {
            let sink = JsonlWriter::new(BufWriter::new(File::create(path)?));
            let (report, sink) =
                VodService::with_sink(&scenario, selector, config, sink).run_full();
            sink.into_inner()?;
            report
        }
        None => VodService::new(&scenario, selector, config).run(),
    })
}

/// Runs the GRNET case study once with the full observability stack —
/// a [`TeeSink`] fanning the stream out to a JSONL trace (or a
/// discarding writer when `trace` is `None`), a [`TimeSeriesSink`]
/// (one-minute windows) and a [`SpanBuilder`] — and returns all the
/// artifacts. The simulation itself is identical to
/// [`case_study_run`]'s; only the sinks differ.
pub fn case_study_run_full(trace: Option<&str>) -> std::io::Result<CaseStudyArtifacts> {
    let scenario = Scenario::grnet_case_study(42);
    let selector = Box::new(Vra::default());
    let config = ServiceConfig::default();
    let writer: Box<dyn Write> = match trace {
        Some(path) => Box::new(BufWriter::new(File::create(path)?)),
        None => Box::new(std::io::sink()),
    };
    let sink = TeeSink::new(
        JsonlWriter::new(writer),
        TeeSink::new(TimeSeriesSink::new(), SpanBuilder::new()),
    );
    let (report, sink) = VodService::with_sink(&scenario, selector, config, sink).run_full();
    let (jsonl, aggregators) = sink.into_parts();
    jsonl.into_inner()?;
    let (series_sink, span_builder) = aggregators.into_parts();
    Ok(CaseStudyArtifacts {
        report,
        series: series_sink.finish(),
        spans: span_builder.finish(),
    })
}

/// Streams a finished series to `path`, one window at a time: CSV when
/// the path ends in `.csv`, byte-stable JSON otherwise.
pub fn write_series(series: &SeriesReport, path: &str) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    if path.ends_with(".csv") {
        series.write_csv(&mut out)?;
    } else {
        series.write_json(&mut out)?;
    }
    out.flush()
}

/// Prints the subsystem counters of a service run: the epoch-cached
/// routing engine's cache behaviour, the flow kernel's work, the event
/// scheduler's traffic, the periodic ticks' work and each server's DMA
/// counters.
pub fn print_stats(report: &ServiceReport) {
    println!(
        "Service statistics (GRNET case study, seed {}):",
        report.seed
    );
    match &report.engine {
        Some(e) => {
            println!(
                "  engine: {} requests, {} local hits, {} path-cache hits, {} dijkstra runs",
                e.requests, e.local_hits, e.path_cache_hits, e.dijkstra_runs
            );
            println!(
                "          {} weight-cache hits, {} full rebuilds",
                e.weight_cache_hits, e.full_rebuilds
            );
        }
        None => println!("  engine: n/a (selector is not engine-backed)"),
    }
    let k = &report.kernel;
    println!(
        "  kernel: {} settles = {} fills + {} unchanged ({} no-op setter calls)",
        k.settles, k.reallocations, k.fills_unchanged, k.reallocations_skipped
    );
    println!(
        "          {} fill rounds over {} classes, {} links scanned",
        k.fill_rounds, k.classes_filled, k.links_scanned
    );
    println!(
        "          {} flows re-rated, {} completion scans, {} heap pushes, {} stale pops",
        k.flows_rerated, k.completion_scans, k.heap_pushes, k.stale_pops
    );
    println!(
        "          {} bucket splits, {} entries moved between buckets",
        k.queue.splits, k.queue.moved
    );
    let q = &report.scheduler;
    println!(
        "  scheduler: {} arrivals from the input lane, {} pushes, {} pops, peak depth {}",
        q.inputs, q.pushes, q.pops, q.peak_depth
    );
    println!(
        "             {} bucket splits, {} entries moved between buckets",
        q.queue.splits, q.queue.moved
    );
    let t = &report.ticks;
    println!(
        "  ticks:  {} polls wrote {} readings, {} background refreshes ({} over an idle backbone)",
        t.polls, t.readings, t.refreshes, t.idle_refreshes
    );
    println!("  snmp:   {} polling rounds", report.snmp_polls);
    for (server, dma) in &report.per_server_dma {
        println!(
            "  dma U{}: {} requests, {} hits ({:.1}%), {} admissions, {} evictions, {} rejections",
            server.index() + 1,
            dma.requests,
            dma.hits,
            100.0 * dma.hit_ratio(),
            dma.admissions,
            dma.evictions,
            dma.rejections
        );
    }
}
