//! Integration tests for the event-driven flow kernel: the pinned
//! seed-42 GRNET golden trace (recorded with the lockstep kernel that
//! now lives on as vod-sim's test oracle) and a scale-stress smoke run.

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::Mbps;
use vod_obs::JsonlWriter;
use vod_workload::scenario::Scenario;

/// Runs `scenario` with a JSONL sink and returns the raw trace bytes.
fn traced_run(scenario: &Scenario, config: ServiceConfig) -> Vec<u8> {
    let service = VodService::with_sink(
        scenario,
        Box::new(Vra::default()),
        config,
        JsonlWriter::new(Vec::new()),
    );
    let (_report, _run_report, sink) = service.run_full();
    sink.into_inner()
}

/// FNV-1a 64 over the trace bytes — cheap, dependency-free, and stable
/// across platforms (the trace itself is byte-deterministic).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The seed-42 GRNET case-study trace is pinned byte-for-byte: any
/// kernel change that shifts a completion instant, reorders an event or
/// perturbs a float by one ulp moves the hash. Regenerate the expected
/// values with `cargo run --release -p vod-check --example dump_grnet`
/// if a deliberate trace-format change lands.
#[test]
fn golden_seed42_grnet_trace_is_pinned_and_audits_clean() {
    let scenario = Scenario::grnet_case_study(42);
    let bytes = traced_run(&scenario, ServiceConfig::default());
    let text = String::from_utf8(bytes).unwrap();

    assert_eq!(text.len(), 269_541, "trace byte length drifted");
    assert_eq!(text.lines().count(), 3_026, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0xe734_c43e_1097_1b45,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// A scaled-down scale-stress run: every arrival is admitted, stays live
/// to the end of the window (peak = arrival count) and completes.
#[test]
fn scale_stress_smoke_completes_every_session() {
    let scenario = Scenario::scale_stress(7, 3_000);
    let arrivals = scenario.trace().len();
    let mut service = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig {
            initial_replicas: 6,
            local_rate: Mbps::new(2.0),
            ..ServiceConfig::default()
        },
    );
    service.run_to_end();
    assert_eq!(service.peak_sessions(), arrivals);
    assert_eq!(service.live_sessions(), 0);
    assert!(service.next_event_at().is_none());
    let report = service.into_report();
    assert_eq!(report.completed.len(), arrivals);
    assert_eq!(report.failed_requests, 0);
    assert_eq!(report.aborted_sessions, 0);
}
