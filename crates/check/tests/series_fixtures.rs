//! Fixtures for rule `A013` (time-series reconciliation): a clean
//! series straight from an instrumented GRNET run, plus injected
//! violations — a tampered counter, an over-capacity utilization
//! sample, and a misaligned window — each asserting that exactly
//! `A013` fires with the expected complaint.

use vod_check::series::{audit_series, SeriesAuditSummary};
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_obs::{JsonlWriter, TeeSink, TimeSeriesSink};
use vod_workload::scenario::Scenario;

/// Runs the GRNET case study with a tee'd trace + series sink and
/// returns `(trace_jsonl, series_json)`.
fn instrumented_grnet_run() -> (String, String) {
    let scenario = Scenario::grnet_case_study(42);
    let sink = TeeSink::new(JsonlWriter::new(Vec::new()), TimeSeriesSink::new());
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
        sink,
    );
    let (_, sink) = service.run_full();
    let (jsonl, series) = sink.into_parts();
    let trace = String::from_utf8(jsonl.into_inner().expect("a Vec takes every write"))
        .expect("JSONL traces are UTF-8");
    (trace, series.finish().to_json())
}

fn assert_single_a013(summary: &SeriesAuditSummary, needle: &str) {
    assert!(
        !summary.is_clean(),
        "fixture should trip A013 but audited clean"
    );
    for v in &summary.violations {
        assert_eq!(v.rule, "A013");
    }
    assert!(
        summary
            .violations
            .iter()
            .any(|v| v.message.contains(needle)),
        "no A013 violation mentions {needle:?}: {:?}",
        summary.violations
    );
}

#[test]
fn real_run_series_reconciles_clean() {
    let (trace, series) = instrumented_grnet_run();
    let summary = audit_series(&series, &trace);
    assert!(
        summary.is_clean(),
        "GRNET series should reconcile: {:?}",
        summary.violations
    );
    assert!(summary.windows > 0, "case study must span several windows");
    // 16 one-to-one counters + the two-way VRA split.
    assert_eq!(summary.totals_verified, 18);
}

#[test]
fn prefix_tier_series_reconciles_clean() {
    use vod_core::service::PrefixTierConfig;
    // A repeat-heavy workload with the prefix tier on: the four
    // prefix_* counters reconcile with nonzero trace counts.
    let scenario = Scenario::flash_crowd(42);
    let sink = TeeSink::new(JsonlWriter::new(Vec::new()), TimeSeriesSink::new());
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig {
            prefix_tier: Some(PrefixTierConfig::default()),
            ..ServiceConfig::default()
        },
        sink,
    );
    let (_, sink) = service.run_full();
    let (jsonl, series) = sink.into_parts();
    let trace = String::from_utf8(jsonl.into_inner().expect("a Vec takes every write"))
        .expect("JSONL traces are UTF-8");
    let series = series.finish().to_json();
    assert!(
        trace.contains("\"kind\":\"prefix_hit\""),
        "flash crowd must produce prefix hits"
    );
    let summary = audit_series(&series, &trace);
    assert!(
        summary.is_clean(),
        "prefix series should reconcile: {:?}",
        summary.violations
    );
    assert_eq!(summary.totals_verified, 18);
}

#[test]
fn tampered_counter_trips_a013() {
    let (trace, series) = instrumented_grnet_run();
    // Inflate every window's arrival count by rewriting the field; the
    // series total then disagrees with the trace's request_arrival count.
    let tampered = series.replace("\"arrivals\":", "\"arrivals\":1000, \"was\":");
    assert_ne!(tampered, series, "fixture must actually change the series");
    let summary = audit_series(&tampered, &trace);
    assert_single_a013(&summary, "arrivals");
}

#[test]
fn over_capacity_utilization_trips_a013() {
    let trace = r#"{"at_us":0,"kind":"request_arrival","session":0,"video":0,"home":0}"#;
    let series = concat!(
        r#"{"window_us":60000000,"links":1,"events":1,"windows":["#,
        "\n",
        r#"{"start_us":0,"end_us":60000000,"arrivals":1,"starts":0,"completes":0,"aborts":0,"#,
        r#""failures":0,"rejections":0,"retries":0,"switches":0,"dma_hits":0,"dma_admits":0,"dma_evicts":0,"#,
        r#""dma_rejects":0,"dma_hit_ratio":null,"vra_local":0,"vra_remote":0,"snmp_polls":0,"#,
        r#""max_staleness_us":0,"sessions":0,"peak_sessions":0,"utilization":[1.5],"util_max":[1.5]}"#,
        "\n]}\n",
    );
    let summary = audit_series(series, trace);
    assert_single_a013(&summary, "exceeds link capacity");
}

#[test]
fn misaligned_window_trips_a013() {
    let (trace, series) = instrumented_grnet_run();
    // Shift the first window start off the width grid.
    let marker = "{\"start_us\":";
    let at = series.find(marker).expect("series has windows") + marker.len();
    let end = at
        + series[at..]
            .find(',')
            .expect("start_us is followed by a comma");
    let shifted: u64 = series[at..end].parse::<u64>().expect("start_us is numeric") + 7;
    let misaligned = format!("{}{shifted}{}", &series[..at], &series[end..]);
    assert_ne!(
        misaligned, series,
        "fixture must actually change the series"
    );
    let summary = audit_series(&misaligned, &trace);
    assert_single_a013(&summary, "not aligned");
}

#[test]
fn gapped_series_trips_a013() {
    let trace = "";
    // Two aligned windows with a missing window between them.
    let series = concat!(
        r#"{"window_us":10,"links":0,"events":0,"windows":["#,
        "\n",
        r#"{"start_us":0,"end_us":10,"arrivals":0,"starts":0,"completes":0,"aborts":0,"#,
        r#""failures":0,"rejections":0,"retries":0,"switches":0,"dma_hits":0,"dma_admits":0,"dma_evicts":0,"#,
        r#""dma_rejects":0,"dma_hit_ratio":null,"vra_local":0,"vra_remote":0,"snmp_polls":0,"#,
        r#""max_staleness_us":0,"sessions":0,"peak_sessions":0,"utilization":[],"util_max":[]}"#,
        ",\n",
        r#"{"start_us":20,"end_us":30,"arrivals":0,"starts":0,"completes":0,"aborts":0,"#,
        r#""failures":0,"rejections":0,"retries":0,"switches":0,"dma_hits":0,"dma_admits":0,"dma_evicts":0,"#,
        r#""dma_rejects":0,"dma_hit_ratio":null,"vra_local":0,"vra_remote":0,"snmp_polls":0,"#,
        r#""max_staleness_us":0,"sessions":0,"peak_sessions":0,"utilization":[],"util_max":[]}"#,
        "\n]}\n",
    );
    let summary = audit_series(series, trace);
    assert_single_a013(&summary, "gap-free");
}

#[test]
fn unparseable_series_trips_a013() {
    let summary = audit_series("not json at all", "");
    assert_single_a013(&summary, "not valid JSON");
}
