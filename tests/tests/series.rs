//! Integration tests for the time-series layer and the session
//! lifecycle: the golden seed-42 determinism contract (byte-identical
//! `--series` output across reruns, and pinned by length + FNV-1a so a
//! representation change cannot move both reruns together), `A013`
//! reconciliation of the series against its own trace, and a property
//! test that every session's lifecycle audits clean under `A007` —
//! even under random fault plans with retries.

use proptest::prelude::*;

use vod_check::audit::{audit_trace, AuditSink};
use vod_check::series::audit_series;
use vod_core::service::{PrefixTierConfig, RetryPolicy, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_integration_tests::fnv1a;
use vod_net::NodeId;
use vod_obs::{Event, EventSink, JsonlWriter, SeriesReport, SeriesWindow, TeeSink, TimeSeriesSink};
use vod_sim::fault::FaultPlan;
use vod_sim::{SimDuration, SimTime};
use vod_storage::VideoId;
use vod_workload::scenario::Scenario;

/// Runs `scenario` under `config` with a tee'd JSONL + time-series
/// sink; returns the trace and the finished series.
fn series_run(scenario: &Scenario, config: ServiceConfig) -> (String, SeriesReport) {
    let sink = TeeSink::new(JsonlWriter::new(Vec::new()), TimeSeriesSink::new());
    let service = VodService::with_sink(scenario, Box::new(Vra::default()), config, sink);
    let (_, sink) = service.run_full();
    let (jsonl, series) = sink.into_parts();
    let trace = String::from_utf8(jsonl.into_inner().expect("a Vec takes every write"))
        .expect("JSONL traces are UTF-8");
    (trace, series.finish())
}

/// Runs the seed-42 GRNET case study under `config`; returns
/// `(trace, series_json, series_csv)`.
fn instrumented_run(config: ServiceConfig) -> (String, String, String) {
    let (trace, report) = series_run(&Scenario::grnet_case_study(42), config);
    (trace, report.to_json(), report.to_csv())
}

/// The prefix × fault × retry scenario whose trace `scale_kernel` pins:
/// flash crowd, default prefix tier, ten random fault windows over the
/// arrival span, two retry attempts.
fn prefix_fault_run() -> (String, SeriesReport) {
    let scenario = Scenario::flash_crowd(42);
    let requests = scenario.trace().requests();
    let (start, end) = (requests[0].at, requests[requests.len() - 1].at);
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig::default()),
        fault_plan: FaultPlan::random(42, scenario.topology(), start, end, 10),
        retry: RetryPolicy::with_attempts(2),
        ..ServiceConfig::default()
    };
    series_run(&scenario, config)
}

/// A window no event fell into: every counter is zero and the gauges
/// are the ones carried in.
fn is_gap(w: &SeriesWindow) -> bool {
    *w == SeriesWindow {
        start_us: w.start_us,
        end_us: w.end_us,
        sessions: w.sessions,
        peak_sessions: w.sessions,
        utilization: w.utilization.clone(),
        util_max: w.utilization.clone(),
        ..SeriesWindow::default()
    }
}

/// The `--series` bytes of two seed-42 runs are pinned, JSON and CSV:
/// the rerun test below only shows two runs agree with each other, so
/// a change to how windows are stored or rendered that moved both would
/// pass it. Recorded from the `Vec<SeriesWindow>` representation.
#[test]
fn golden_seed42_series_exports_are_pinned() {
    let (_, grnet) = series_run(&Scenario::grnet_case_study(42), ServiceConfig::default());
    let (trace, faulted) = prefix_fault_run();

    // The pins must not go vacuous: between them the two runs hold the
    // window shapes a packed representation treats differently.
    let windows = || grnet.windows().chain(faulted.windows());
    assert!(
        windows().any(|w| w.tally.dma_evicts > 0 || w.tally.prefix_hits > 0),
        "no window with a dma_evict or prefix_hit"
    );
    assert!(
        windows().any(|w| w.util_max != w.utilization),
        "no window whose util_max differs from its utilization"
    );
    assert!(windows().any(|w| is_gap(&w)), "no gap window");

    let pins = [
        (
            "grnet json",
            grnet.to_json(),
            780_308usize,
            0x81b5_29a7_cd14_d089u64,
        ),
        ("grnet csv", grnet.to_csv(), 213_262, 0x1487_42e4_646b_5523),
        (
            "prefix x fault json",
            faulted.to_json(),
            399_144,
            0xa004_0fcb_e45a_d695,
        ),
        (
            "prefix x fault csv",
            faulted.to_csv(),
            112_967,
            0xfe56_6e7d_d4ad_0bd5,
        ),
    ];
    for (name, text, len, hash) in pins {
        assert_eq!(text.len(), len, "{name}: byte length drifted");
        assert_eq!(fnv1a(text.as_bytes()), hash, "{name}: content drifted");
    }

    let summary = audit_series(&faulted.to_json(), &audit_trace(&trace));
    assert!(
        summary.is_clean(),
        "A013 violations: {:?}",
        summary.violations
    );
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

/// The series a run exports reconciles with the events the same run
/// emitted, under the independent `A013` auditor tee'd into the run.
#[test]
fn series_reconciles_with_own_trace() {
    let sink = TeeSink::new(AuditSink::new(), TimeSeriesSink::new());
    let service = VodService::with_sink(
        &Scenario::grnet_case_study(42),
        Box::new(Vra::default()),
        ServiceConfig::default(),
        sink,
    );
    let (audit, series) = service.run_full().1.into_parts();
    let trace = audit.finish();
    assert!(trace.is_clean(), "{:?}", trace.violations);
    let summary = audit_series(&series.finish().to_json(), &trace);
    assert!(
        summary.is_clean(),
        "A013 violations on a clean run: {:?}",
        summary.violations
    );
    assert!(summary.windows > 0);
}

/// A sink that saw `link_state` rows without the `topology` preamble (a
/// flight-recorder tail replayed into it) still exports a rectangular
/// CSV and a `links` field that matches its rows.
#[test]
fn links_cover_rows_recorded_without_a_snapshot() {
    let arrival = |request| Event::RequestArrival {
        request,
        client: NodeId::new(0),
        video: VideoId::new(0),
    };
    let mut sink = TeeSink::new(AuditSink::new(), TimeSeriesSink::new());
    sink.record(
        SimTime::from_secs(1),
        &Event::LinkState {
            used: vec![1.0, 2.0, 3.0],
            utilization: vec![0.1, 0.2, 0.3],
            down: vec![],
        },
    );
    sink.record(SimTime::from_secs(2), &arrival(1));
    sink.record(SimTime::from_secs(150), &arrival(2));
    let (audit, series) = sink.into_parts();
    let trace = audit.finish();
    let report = series.finish();

    assert_eq!((report.links, report.len()), (3, 3));
    let csv = report.to_csv();
    let columns: Vec<usize> = csv.lines().map(|l| l.split(',').count()).collect();
    assert_eq!(columns, [25 + 3; 4], "header and rows must be one width");
    let summary = audit_series(&report.to_json(), &trace);
    assert!(
        summary.is_clean(),
        "A013 violations: {:?}",
        summary.violations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under arbitrary fault plans and retry budgets, every session's
    /// lifecycle audits clean in-process: A007 holds each session to at
    /// most one start, switches and completion only after it, and no
    /// event after its end.
    #[test]
    fn session_lifecycle_audits_clean_under_faults(
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
            AuditSink::new(),
        );
        let summary = service.run_full().1.finish();
        prop_assert!(
            summary.tally.starts > 0,
            "case study must start sessions"
        );
        prop_assert!(
            summary.is_clean(),
            "seed {} with {} faults, budget {} produced violations: {:?}",
            seed,
            faults,
            budget,
            summary.violations
        );
    }
}
