//! One measured run of one workload inside this process, tracing off:
//! set-up, the run cut into deterministic slices, the report, and what
//! a `run-one` child prints.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::time::Instant;

use vod_core::service::VodService;
use vod_core::vra::Vra;
use vod_core::ServiceReport;
use vod_obs::{EventSink, JsonlWriter, NullSink, TeeSink, TimeSeriesSink};
use vod_sim::SimDuration;

use crate::stats::{percentile, tail_percentile};
use crate::workloads::{Inputs, Workload};

/// Metric name → value, as one `run-one` child reports it.
pub type Metrics = BTreeMap<String, f64>;

/// What a `run-one` child prints: its metrics, and for an untraced run
/// the host nanoseconds of each slice of the run (none when traced).
pub type ChildOutput = (Metrics, Vec<f64>);

/// Slices per arrival window. The run is cut at a fixed stride of
/// simulated time, so slice `k` does the same work in every repetition
/// of one seed, and the parent can take each slice at its fastest
/// repetition: a slow spell of the sandbox that lasts seconds then
/// costs the slices it covers in one repetition, not the repetition.
const SLICES_PER_TRACE_SPAN: u64 = 4_096;

/// Discards what it is given and counts the bytes, so the JSONL stream
/// costs its serialisation but no I/O and its length can be compared
/// across repetitions.
pub struct CountingWriter(Rc<Cell<u64>>);

impl io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The obs stack `steady_traced` runs under.
pub type FullSinks = TeeSink<JsonlWriter<CountingWriter>, TimeSeriesSink>;

pub fn full_sinks(bytes: &Rc<Cell<u64>>) -> FullSinks {
    TeeSink::new(
        JsonlWriter::new(CountingWriter(Rc::clone(bytes))),
        TimeSeriesSink::new(),
    )
}

/// Runs `workload` once with tracing off. `null_sink` forces
/// `NullSink` on a workload that normally carries the obs stack (the
/// measured side of `obs.overhead_share`).
pub fn untraced(workload: &Workload, seed: u64, null_sink: bool) -> ChildOutput {
    let bytes = Rc::new(Cell::new(0));
    let (mut m, slices) = if workload.sinks && !null_sink {
        measure(workload, seed, full_sinks(&bytes))
    } else {
        measure(workload, seed, NullSink)
    };
    m.insert("obs.jsonl_bytes".into(), bytes.get() as f64);
    (m, slices)
}

fn measure<S: EventSink>(workload: &Workload, seed: u64, sink: S) -> ChildOutput {
    let t_setup = Instant::now();
    let inputs = (workload.inputs)(seed);
    let t_new = Instant::now();
    let mut service = new_service(&inputs, sink);
    let service_new_s = t_new.elapsed().as_secs_f64();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let span_us = inputs.scenario.trace().span().as_micros();
    let stride = SimDuration::from_micros((span_us / SLICES_PER_TRACE_SPAN).max(1));
    let mut marks: Vec<u64> = Vec::with_capacity(4 * SLICES_PER_TRACE_SPAN as usize);
    let t_run = Instant::now();
    // `run_to_end`'s events in `run_to_end`'s order, with one clock
    // read per stride of simulated time that holds an event.
    while let Some(at) = service.next_event_at() {
        service.run_until(at + stride);
        marks.push(t_run.elapsed().as_nanos() as u64);
    }
    let mut m = Metrics::new();
    service_counters(&service, &mut m);
    let report = service.into_report();
    // The report is the last slice.
    marks.push(t_run.elapsed().as_nanos() as u64);
    let run_s = *marks.last().expect("the report's mark") as f64 / 1e9;
    let slices = marks
        .iter()
        .scan(0, |previous, &mark| {
            let slice = mark - *previous;
            *previous = mark;
            Some(slice as f64)
        })
        .collect();

    m.insert("setup_s".into(), setup_s);
    m.insert("run_s".into(), run_s);
    m.insert("core.service_new_s".into(), service_new_s);
    workload_metrics(&inputs, &mut m);
    report_metrics(&report, inputs.scenario.trace().len(), &mut m);
    // Last, so the high-water mark covers the whole run and its report.
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    (m, slices)
}

pub fn new_service<S: EventSink>(inputs: &Inputs, sink: S) -> VodService<S> {
    VodService::with_sink(
        &inputs.scenario,
        Box::new(Vra::default()),
        inputs.config.clone(),
        sink,
    )
}

pub fn service_counters<S: EventSink>(service: &VodService<S>, m: &mut Metrics) {
    m.insert("core.events".into(), service.events_processed() as f64);
    m.insert("core.peak_sessions".into(), service.peak_sessions() as f64);
    m.insert("final_now_us".into(), service.now().as_micros() as f64);
}

pub fn workload_metrics(inputs: &Inputs, m: &mut Metrics) {
    let arrivals = inputs.scenario.trace().len() as f64;
    m.insert("workload.arrivals".into(), arrivals);
    m.insert("workload.trace_gen_s".into(), inputs.trace_gen_s);
    m.insert(
        "workload.trace_gen_ns_per_request".into(),
        inputs.trace_gen_s * 1e9 / arrivals,
    );
}

/// Simulated statistics and per-layer counters of a finished run.
/// They repeat exactly per seed.
pub fn report_metrics(report: &ServiceReport, arrivals: usize, m: &mut Metrics) {
    let completed = report.completed.len();
    let outcomes = completed as u64
        + report.failed_requests
        + report.rejected_requests
        + report.aborted_sessions
        + report.unfinished_sessions as u64;
    m.insert("outcomes".into(), outcomes as f64);
    let completed_share = completed as f64 / arrivals as f64;
    m.insert("completed_share".into(), completed_share);
    m.insert(
        "core.failed_share".into(),
        (arrivals - completed) as f64 / arrivals as f64,
    );

    let mut startup: Vec<f64> = report
        .completed
        .iter()
        .map(|r| r.startup_delay.as_secs_f64())
        .collect();
    startup.sort_by(f64::total_cmp);
    m.insert("core.sim_startup_p50_s".into(), percentile(&startup, 0.5));
    m.insert(
        "core.sim_startup_p99_s".into(),
        percentile(&startup, tail_percentile(startup.len())),
    );
    m.insert("core.sim_stall_ratio".into(), report.mean_stall_ratio());

    let engine = report.engine.unwrap_or_default();
    m.insert("net.engine.requests".into(), engine.requests as f64);
    m.insert("net.engine.local_hits".into(), engine.local_hits as f64);
    m.insert(
        "net.engine.full_rebuilds".into(),
        engine.full_rebuilds as f64,
    );
    m.insert(
        "net.engine.dijkstra_runs".into(),
        engine.dijkstra_runs as f64,
    );
    m.insert(
        "net.engine.path_cache_hits".into(),
        engine.path_cache_hits as f64,
    );
    m.insert(
        "net.engine.path_cache_hit_ratio".into(),
        ratio(
            engine.path_cache_hits,
            engine.path_cache_hits + engine.dijkstra_runs,
        ),
    );
    m.insert("snmp.polls".into(), report.snmp_polls as f64);
    m.insert("storage.dma.requests".into(), report.dma.requests as f64);
    m.insert("storage.dma.hit_ratio".into(), report.dma.hit_ratio());
    m.insert(
        "storage.dma.admissions".into(),
        report.dma.admissions as f64,
    );
    m.insert("storage.dma.evictions".into(), report.dma.evictions as f64);
    let prefix = report.prefix;
    let stats = prefix.map(|p| p.stats).unwrap_or_default();
    m.insert("storage.prefix.requests".into(), stats.requests as f64);
    m.insert("storage.prefix.hit_ratio".into(), stats.hit_ratio());
    m.insert("storage.prefix.evictions".into(), stats.evictions as f64);
    m.insert(
        "storage.prefix.served_mbit".into(),
        prefix.map_or(0.0, |p| p.served_mbit),
    );
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `VmHWM` of this process in MB (`/proc/self/status`; Linux only).
///
/// # Panics
///
/// Panics when the field cannot be read: a benchmark that silently
/// reported 0 MB would pass every memory bound.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
