//! Fixtures for rule `A013` (time-series reconciliation): a clean
//! series straight from an instrumented GRNET run, plus injected
//! violations — each reconciled counter tampered in turn, an
//! over-capacity utilization sample, and a misaligned window — each
//! asserting that exactly `A013` fires with the expected complaint.

use vod_check::audit::{AuditSink, AuditSummary};
use vod_check::series::{audit_series, SeriesAuditSummary};
use vod_core::service::{PrefixTierConfig, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_obs::{Tally, TeeSink, TimeSeriesSink};
use vod_workload::scenario::Scenario;

/// Runs `scenario` under `config` with the auditor and a series sink
/// tee'd in; returns the audit and the series JSON.
fn audited_run(scenario: &Scenario, config: ServiceConfig) -> (AuditSummary, String) {
    let sink = TeeSink::new(AuditSink::new(), TimeSeriesSink::new());
    let service = VodService::with_sink(scenario, Box::new(Vra::default()), config, sink);
    let (audit, series) = service.run_full().1.into_parts();
    (audit.finish(), series.finish().to_json())
}

/// The GRNET case study, audited, with its series.
fn instrumented_grnet_run() -> (AuditSummary, String) {
    audited_run(&Scenario::grnet_case_study(42), ServiceConfig::default())
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
    // Every tally counter but `snmp_polls`.
    assert_eq!(summary.totals_verified, Tally::LEN - 1);
}

#[test]
fn prefix_tier_series_reconciles_clean() {
    // A repeat-heavy workload with the prefix tier on: the four
    // prefix_* counters reconcile with nonzero trace counts.
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig::default()),
        ..ServiceConfig::default()
    };
    let (trace, series) = audited_run(&Scenario::flash_crowd(42), config);
    assert!(
        trace.tally.prefix_hits > 0,
        "flash crowd must produce prefix hits"
    );
    let summary = audit_series(&series, &trace);
    assert!(
        summary.is_clean(),
        "prefix series should reconcile: {:?}",
        summary.violations
    );
    assert_eq!(summary.totals_verified, Tally::LEN - 1);
}

/// `series` with `by` added to the first window's integer field `name`.
fn bump_first(series: &str, name: &str, by: u64) -> String {
    let marker = format!("\"{name}\":");
    let at = series.find(&marker).expect("series has windows") + marker.len();
    let end = at + series[at..].find(',').expect("the field is not last");
    let value: u64 = series[at..end].parse().expect("the field is an integer");
    format!("{}{}{}", &series[..at], value + by, &series[end..])
}

#[test]
fn tampered_counter_trips_a013() {
    let (trace, series) = instrumented_grnet_run();
    for (name, _) in Tally::default().fields() {
        let summary = audit_series(&bump_first(&series, name, 1), &trace);
        let total = format!("series total {name} = ");
        let found: Vec<_> = summary
            .violations
            .iter()
            .map(|v| (v.rule, v.message.starts_with(&total)))
            .collect();
        // `snmp_polls` is not reconciled: the poller runs before the
        // series opens.
        let expected = vec![("A013", true); usize::from(name != "snmp_polls")];
        assert_eq!(found, expected, "{name}: {:?}", summary.violations);
    }
}

#[test]
fn over_capacity_utilization_trips_a013() {
    let trace = AuditSummary {
        tally: Tally {
            arrivals: 1,
            ..Tally::default()
        },
        ..AuditSummary::default()
    };
    let series = concat!(
        r#"{"window_us":60000000,"links":1,"events":1,"windows":["#,
        "\n",
        r#"{"start_us":0,"end_us":60000000,"arrivals":1,"starts":0,"completes":0,"aborts":0,"#,
        r#""failures":0,"rejections":0,"retries":0,"switches":0,"dma_hits":0,"dma_admits":0,"dma_evicts":0,"#,
        r#""dma_rejects":0,"dma_hit_ratio":null,"prefix_hits":0,"prefix_admits":0,"prefix_evicts":0,"#,
        r#""prefix_rejects":0,"vra_local":0,"vra_remote":0,"snmp_polls":0,"#,
        r#""max_staleness_us":0,"sessions":0,"peak_sessions":0,"utilization":[1.5],"util_max":[1.5]}"#,
        "\n]}\n",
    );
    let summary = audit_series(series, &trace);
    assert_single_a013(&summary, "exceeds link capacity");
}

#[test]
fn misaligned_window_trips_a013() {
    let (trace, series) = instrumented_grnet_run();
    // Shift the first window start off the width grid.
    let misaligned = bump_first(&series, "start_us", 7);
    let summary = audit_series(&misaligned, &trace);
    assert_single_a013(&summary, "not aligned");
}

#[test]
fn gapped_series_trips_a013() {
    let trace = AuditSummary::default();
    // Two aligned windows with a missing window between them.
    let series = concat!(
        r#"{"window_us":10,"links":0,"events":0,"windows":["#,
        "\n",
        r#"{"start_us":0,"end_us":10,"arrivals":0,"starts":0,"completes":0,"aborts":0,"#,
        r#""failures":0,"rejections":0,"retries":0,"switches":0,"dma_hits":0,"dma_admits":0,"dma_evicts":0,"#,
        r#""dma_rejects":0,"dma_hit_ratio":null,"prefix_hits":0,"prefix_admits":0,"prefix_evicts":0,"#,
        r#""prefix_rejects":0,"vra_local":0,"vra_remote":0,"snmp_polls":0,"#,
        r#""max_staleness_us":0,"sessions":0,"peak_sessions":0,"utilization":[],"util_max":[]}"#,
        ",\n",
        r#"{"start_us":20,"end_us":30,"arrivals":0,"starts":0,"completes":0,"aborts":0,"#,
        r#""failures":0,"rejections":0,"retries":0,"switches":0,"dma_hits":0,"dma_admits":0,"dma_evicts":0,"#,
        r#""dma_rejects":0,"dma_hit_ratio":null,"prefix_hits":0,"prefix_admits":0,"prefix_evicts":0,"#,
        r#""prefix_rejects":0,"vra_local":0,"vra_remote":0,"snmp_polls":0,"#,
        r#""max_staleness_us":0,"sessions":0,"peak_sessions":0,"utilization":[],"util_max":[]}"#,
        "\n]}\n",
    );
    let summary = audit_series(series, &trace);
    assert_single_a013(&summary, "gap-free");
}

#[test]
fn unparseable_series_trips_a013() {
    let summary = audit_series("not json at all", &AuditSummary::default());
    assert_single_a013(&summary, "not valid JSON");
}
