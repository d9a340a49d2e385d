//! Integration tests for the time-series and span layers: the golden
//! seed-42 determinism contract (byte-identical `--series` output
//! across reruns), `A013` reconciliation of
//! the series against its own trace, and property tests that span
//! assembly never produces negative or overlapping phase durations —
//! even under random fault plans with retries.

use proptest::prelude::*;

use vod_check::series::audit_series;
use vod_core::service::{RetryPolicy, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_obs::{JsonlWriter, SpanBuilder, SpanOutcome, SpanReport, TeeSink, TimeSeriesSink};
use vod_sim::fault::FaultPlan;
use vod_sim::SimDuration;
use vod_workload::scenario::Scenario;

/// Runs the seed-42 GRNET case study under `config` with a tee'd
/// JSONL + time-series sink; returns `(trace, series_json, series_csv)`.
fn instrumented_run(config: ServiceConfig) -> (String, String, String) {
    let scenario = Scenario::grnet_case_study(42);
    let sink = TeeSink::new(JsonlWriter::new(Vec::new()), TimeSeriesSink::new());
    let service = VodService::with_sink(&scenario, Box::new(Vra::default()), config, sink);
    let (_, _, sink) = service.run_full();
    let (jsonl, series) = sink.into_parts();
    let trace = String::from_utf8(jsonl.into_inner()).expect("JSONL traces are UTF-8");
    let report = series.finish();
    (trace, report.to_json(), report.to_csv())
}

/// The golden contract behind every committed `--series` artifact:
/// reruns are byte-identical.
#[test]
fn series_is_byte_identical_across_runs() {
    let (trace_a, json_a, csv_a) = instrumented_run(ServiceConfig::default());
    let (trace_b, json_b, csv_b) = instrumented_run(ServiceConfig::default());
    assert!(!json_a.is_empty() && json_a.contains("\"windows\":["));
    assert_eq!(trace_a, trace_b, "traces must replay byte-for-byte");
    assert_eq!(json_a, json_b, "series JSON must replay byte-for-byte");
    assert_eq!(csv_a, csv_b, "series CSV must replay byte-for-byte");
}

/// The series a run exports reconciles with the trace the same run
/// wrote, under the independent `A013` auditor.
#[test]
fn series_reconciles_with_own_trace() {
    let (trace, json, _) = instrumented_run(ServiceConfig::default());
    let summary = audit_series(&json, &trace);
    assert!(
        summary.is_clean(),
        "A013 violations on a clean run: {:?}",
        summary.violations
    );
    assert!(summary.windows > 0);
}

/// Checks every phase-duration invariant of one assembled span report:
/// request ≤ admission ≤ start ≤ end, with switches confined to the
/// streaming phase and strictly ordered.
fn assert_spans_well_formed(report: &SpanReport) -> Result<(), TestCaseError> {
    for span in &report.spans {
        prop_assert!(
            span.admitted_at >= span.requested_at,
            "session {} admitted before it was requested",
            span.session
        );
        if let Some(started) = span.started_at {
            prop_assert!(
                started >= span.admitted_at,
                "session {} started before admission",
                span.session
            );
            if let Some(ended) = span.ended_at {
                prop_assert!(
                    ended >= started,
                    "session {} ended before it started",
                    span.session
                );
                let mut prev = started;
                for &switch in &span.switch_times {
                    prop_assert!(
                        switch >= prev && switch <= ended,
                        "session {} switch at {:?} outside [{:?}, {:?}]",
                        span.session,
                        switch,
                        prev,
                        ended
                    );
                    prev = switch;
                }
                if let Some(streaming) = span.streaming_time() {
                    let gaps = span
                        .switch_gaps()
                        .into_iter()
                        .fold(SimDuration::default(), |a, b| a + b);
                    prop_assert!(
                        gaps <= streaming,
                        "session {} switch gaps exceed streaming time",
                        span.session
                    );
                }
            }
        }
        if span.outcome == SpanOutcome::Completed {
            prop_assert!(
                span.started_at.is_some() && span.ended_at.is_some(),
                "completed session {} lacks start/end",
                span.session
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under arbitrary fault plans and retry budgets, span assembly
    /// never yields a negative or overlapping phase duration.
    #[test]
    fn span_phases_stay_ordered_under_faults(
        seed in 0u64..10_000,
        faults in 0usize..6,
        budget in 0u32..4,
    ) {
        let scenario = Scenario::grnet_case_study(seed);
        let start = scenario
            .trace()
            .requests()
            .first()
            .map(|r| r.at)
            .unwrap_or_default();
        let plan = FaultPlan::random(
            seed,
            scenario.topology(),
            start,
            start + SimDuration::from_secs(1800),
            faults,
        );
        let config = ServiceConfig {
            fault_plan: plan,
            retry: RetryPolicy::with_attempts(budget),
            ..ServiceConfig::default()
        };
        let service = VodService::with_sink(
            &scenario,
            Box::new(Vra::default()),
            config,
            SpanBuilder::new(),
        );
        let (_, _, builder) = service.run_full();
        let report = builder.finish();
        prop_assert!(!report.spans.is_empty(), "case study must produce sessions");
        assert_spans_well_formed(&report)?;
    }
}

/// The span report's histograms digest only well-defined durations:
/// a run with zero switches yields an empty time-to-switch histogram,
/// and startup samples are exactly the started sessions.
#[test]
fn span_histograms_cover_expected_populations() {
    let scenario = Scenario::grnet_case_study(42);
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
        SpanBuilder::new(),
    );
    let (_, _, builder) = service.run_full();
    let report = builder.finish();
    let started = report
        .spans
        .iter()
        .filter(|s| s.started_at.is_some())
        .count();
    assert_eq!(report.startup_histogram().count(), started as u64);
    let switches: usize = report.spans.iter().map(|s| s.switch_times.len()).sum();
    assert_eq!(report.time_to_switch_histogram().count(), switches as u64);
}
