//! Run-level metric aggregation and exposition.
//!
//! A [`MetricsRegistry`] accumulates QoS distributions while a run is in
//! flight; [`MetricsRegistry::finish`] combines them with the
//! subsystem counters collected by the service (DMA, routing engine,
//! SNMP) into a [`RunReport`], which renders as JSON or as
//! Prometheus-style text exposition.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use vod_net::{EngineStats, NodeId};
use vod_sim::metrics::Histogram;
use vod_sim::SimDuration;
use vod_storage::dma::DmaStats;

/// Counters a finished service run hands to the registry: session
/// outcomes plus the per-subsystem statistics that until now never left
/// their owning structs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Name of the server-selection policy that produced the run.
    pub selector: String,
    /// Workload seed.
    pub seed: u64,
    /// Sessions that played to completion.
    pub completed: u64,
    /// Requests that could not be served at all.
    pub failed_requests: u64,
    /// Requests turned away by admission control.
    pub rejected_requests: u64,
    /// Sessions dropped mid-stream.
    pub aborted_sessions: u64,
    /// Sessions still open when the run ended.
    pub unfinished_sessions: u64,
    /// SNMP polling rounds executed.
    pub snmp_polls: u64,
    /// DMA statistics summed over every server.
    pub dma_total: DmaStats,
    /// DMA statistics per video server, ascending by node id.
    pub per_server_dma: Vec<(NodeId, DmaStats)>,
    /// Routing-engine counters, when the selector uses the engine.
    pub engine: Option<EngineStats>,
}

/// Accumulates per-event distributions during a run.
///
/// The registry is pure bookkeeping — deterministic, no clocks, no I/O —
/// so it can run unconditionally next to any sink choice.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    startup: Histogram,
    stall: Histogram,
    fetch_cost: Histogram,
    switches: u64,
}

impl MetricsRegistry {
    /// A registry with the default histogram layout (1 µs floor, ≤12.5 %
    /// relative quantile error).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a session's startup latency (request arrival → playout).
    pub fn record_startup(&mut self, d: SimDuration) {
        self.startup.record_duration(d);
    }

    /// Records one stall's duration.
    pub fn record_stall(&mut self, d: SimDuration) {
        self.stall.record_duration(d);
    }

    /// Records the LVN path cost paid for one cluster fetch (0 for a
    /// local serve).
    pub fn record_fetch_cost(&mut self, cost: f64) {
        self.fetch_cost.record(cost);
    }

    /// Records one mid-stream server switch.
    pub fn record_switch(&mut self) {
        self.switches += 1;
    }

    /// Mid-stream switches recorded so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Startup-latency distribution (seconds).
    pub fn startup_latency(&self) -> &Histogram {
        &self.startup
    }

    /// Stall-duration distribution (seconds).
    pub fn stall_duration(&self) -> &Histogram {
        &self.stall
    }

    /// Per-cluster fetch-cost distribution (LVN cost units).
    pub fn fetch_cost(&self) -> &Histogram {
        &self.fetch_cost
    }

    /// Combines the accumulated distributions with the run's subsystem
    /// counters into a [`RunReport`].
    pub fn finish(self, summary: RunSummary) -> RunReport {
        RunReport {
            summary,
            switches: self.switches,
            startup_latency: self.startup,
            stall_duration: self.stall,
            fetch_cost: self.fetch_cost,
            time_to_switch: Histogram::default(),
        }
    }
}

/// The complete, serializable record of one service run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Session outcomes and subsystem counters.
    pub summary: RunSummary,
    /// Mid-stream server switches over the whole run.
    pub switches: u64,
    /// Startup-latency distribution (seconds).
    pub startup_latency: Histogram,
    /// Stall-duration distribution (seconds).
    pub stall_duration: Histogram,
    /// Per-cluster fetch-cost distribution (LVN cost units).
    pub fetch_cost: Histogram,
    /// Time-to-switch distribution (seconds): playout start (or the
    /// previous switch) to each mid-stream server switch. Empty until
    /// spans are attached with [`RunReport::attach_spans`] — switch
    /// instants are a lifecycle property, assembled post-run by
    /// [`SpanBuilder`](crate::SpanBuilder) rather than paid for on the
    /// hot path.
    pub time_to_switch: Histogram,
}

impl RunReport {
    /// Folds a [`SpanReport`](crate::SpanReport)'s phase-duration view
    /// into the report, populating [`RunReport::time_to_switch`].
    pub fn attach_spans(&mut self, spans: &crate::SpanReport) {
        self.time_to_switch = spans.time_to_switch_histogram();
    }

    /// The report as one JSON object. Deterministic: field order is
    /// fixed by the struct definitions and floats round-trip exactly.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("RunReport serialization cannot fail")
    }

    /// The report in Prometheus text exposition format (counters,
    /// gauges, and cumulative `le`-bucketed histograms).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let s = &self.summary;
        write_counter(&mut out, "vod_sessions_completed", s.completed);
        write_counter(&mut out, "vod_requests_failed", s.failed_requests);
        write_counter(&mut out, "vod_requests_rejected", s.rejected_requests);
        write_counter(&mut out, "vod_sessions_aborted", s.aborted_sessions);
        write_counter(&mut out, "vod_sessions_unfinished", s.unfinished_sessions);
        write_counter(&mut out, "vod_session_switches", self.switches);
        write_counter(&mut out, "vod_snmp_polls", s.snmp_polls);

        let _ = writeln!(out, "# TYPE vod_dma_requests counter");
        let _ = writeln!(out, "vod_dma_requests {}", s.dma_total.requests);
        let _ = writeln!(out, "# TYPE vod_dma_hits counter");
        let _ = writeln!(out, "vod_dma_hits {}", s.dma_total.hits);
        let _ = writeln!(out, "# TYPE vod_dma_admissions counter");
        let _ = writeln!(out, "vod_dma_admissions {}", s.dma_total.admissions);
        let _ = writeln!(out, "# TYPE vod_dma_evictions counter");
        let _ = writeln!(out, "vod_dma_evictions {}", s.dma_total.evictions);
        let _ = writeln!(out, "# TYPE vod_dma_server_hits counter");
        for (server, dma) in &s.per_server_dma {
            let _ = writeln!(
                out,
                "vod_dma_server_hits{{server=\"{}\"}} {}",
                server.index(),
                dma.hits
            );
        }
        let _ = writeln!(out, "# TYPE vod_dma_server_requests counter");
        for (server, dma) in &s.per_server_dma {
            let _ = writeln!(
                out,
                "vod_dma_server_requests{{server=\"{}\"}} {}",
                server.index(),
                dma.requests
            );
        }

        if let Some(e) = &s.engine {
            write_counter(&mut out, "vod_engine_requests", e.requests);
            write_counter(&mut out, "vod_engine_local_hits", e.local_hits);
            write_counter(
                &mut out,
                "vod_engine_weight_cache_hits",
                e.weight_cache_hits,
            );
            write_counter(&mut out, "vod_engine_full_rebuilds", e.full_rebuilds);
            write_counter(&mut out, "vod_engine_dijkstra_runs", e.dijkstra_runs);
            write_counter(&mut out, "vod_engine_path_cache_hits", e.path_cache_hits);
        }

        write_histogram(
            &mut out,
            "vod_startup_latency_seconds",
            &self.startup_latency,
        );
        write_histogram(&mut out, "vod_stall_duration_seconds", &self.stall_duration);
        write_histogram(&mut out, "vod_fetch_cost", &self.fetch_cost);
        write_histogram(&mut out, "vod_time_to_switch_seconds", &self.time_to_switch);
        out
    }
}

fn write_counter(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn write_histogram(out: &mut String, name: &str, h: &Histogram) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (_, upper, count) in h.nonzero_buckets() {
        cumulative += count;
        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut reg = MetricsRegistry::new();
        reg.record_startup(SimDuration::from_secs(2));
        reg.record_startup(SimDuration::from_secs(4));
        reg.record_stall(SimDuration::from_millis(500));
        reg.record_fetch_cost(0.25);
        reg.record_switch();
        reg.finish(RunSummary {
            selector: "vra".into(),
            seed: 42,
            completed: 2,
            snmp_polls: 7,
            dma_total: DmaStats {
                requests: 10,
                hits: 6,
                admissions: 3,
                evictions: 1,
                rejections: 1,
            },
            per_server_dma: vec![(
                NodeId::new(3),
                DmaStats {
                    requests: 10,
                    hits: 6,
                    admissions: 3,
                    evictions: 1,
                    rejections: 1,
                },
            )],
            engine: Some(EngineStats {
                requests: 12,
                local_hits: 4,
                path_cache_hits: 5,
                dijkstra_runs: 3,
                ..EngineStats::default()
            }),
            ..RunSummary::default()
        })
    }

    #[test]
    fn registry_accumulates_distributions() {
        let report = sample_report();
        assert_eq!(report.switches, 1);
        assert_eq!(report.startup_latency.count(), 2);
        assert_eq!(report.startup_latency.sum(), 6.0);
        assert_eq!(report.stall_duration.count(), 1);
        assert_eq!(report.fetch_cost.count(), 1);
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("# TYPE vod_sessions_completed counter\nvod_sessions_completed 2\n"));
        assert!(text.contains("vod_dma_server_hits{server=\"3\"} 6\n"));
        assert!(text.contains("vod_engine_path_cache_hits 5\n"));
        assert!(text.contains("# TYPE vod_startup_latency_seconds histogram\n"));
        assert!(text.contains("vod_startup_latency_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("vod_startup_latency_seconds_sum 6\n"));
        assert!(text.contains("vod_startup_latency_seconds_count 2\n"));
        // Cumulative le-buckets end at the total count.
        assert!(text.contains("vod_stall_duration_seconds_count 1\n"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        for v in [0.001, 0.001, 10.0] {
            h.record(v);
        }
        let mut out = String::new();
        write_histogram(&mut out, "x", &h);
        let buckets: Vec<&str> = out.lines().filter(|l| l.starts_with("x_bucket")).collect();
        // Two nonzero buckets plus +Inf; counts are 2, 3, 3.
        assert_eq!(buckets.len(), 3);
        assert!(buckets[0].ends_with(" 2"));
        assert!(buckets[1].ends_with(" 3"));
        assert!(buckets[2].ends_with(" 3"));
    }
}
