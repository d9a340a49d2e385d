//! `ServiceReport` is the one record of a run: the sink a run records
//! into never changes it, and what a traced run writes (the series
//! windows, the JSONL trace) counts the same outcomes, switches and
//! polls it does. Four runs that between them reach every session
//! outcome (chaos with retries, the prefix tier under faults, a
//! contended backbone, admission refusals) are run untraced and under
//! the full obs stack.

use vod_core::admission::AdmissionPolicy;
use vod_core::service::{PrefixTierConfig, RetryPolicy, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::Mbps;
use vod_obs::{JsonlWriter, Tally, TeeSink, TimeSeriesSink};
use vod_sim::fault::FaultPlan;
use vod_sim::SimDuration;
use vod_workload::scenario::Scenario;

/// A random plan of ten fault windows over `span` from the scenario's
/// first arrival.
fn chaos(scenario: &Scenario, span: SimDuration) -> FaultPlan {
    let start = scenario.trace().requests()[0].at;
    FaultPlan::random(42, scenario.topology(), start, start + span, 10)
}

/// Runs `scenario` untraced and traced into JSONL + series, checks the
/// two reports are one, reconciles the report with the summed series
/// tally and the trace, and checks the report's `[completes, aborts,
/// failures, rejections, switches, snmp_polls]` against `expected` so
/// no case goes vacuous.
fn check(scenario: &Scenario, config: ServiceConfig, expected: [u64; 6]) {
    let plain = VodService::new(scenario, Box::new(Vra::default()), config.clone()).run();
    let sink = TeeSink::new(JsonlWriter::new(Vec::new()), TimeSeriesSink::new());
    let service = VodService::with_sink(scenario, Box::new(Vra::default()), config, sink);
    let (report, sink) = service.run_full();
    assert_eq!(plain, report, "the sink changed the report");

    let (jsonl, series) = sink.into_parts();
    let trace = String::from_utf8(jsonl.into_inner().expect("a Vec takes every write"))
        .expect("JSONL traces are UTF-8");
    let mut summed = Tally::default();
    for w in series.finish().windows() {
        summed += w.tally;
    }
    assert_eq!(
        summed.arrivals,
        summed.completes
            + summed.aborts
            + summed.failures
            + summed.rejections
            + report.unfinished_sessions as u64,
        "every arrival completes, aborts, fails, is rejected or is still live"
    );
    let switches = trace
        .lines()
        .filter(|l| l.contains(r#""kind":"switch""#))
        .count();
    // The report's counts in the series' terms; the counters the report
    // does not keep are the series' own.
    let reported = Tally {
        completes: report.completed.len() as u64,
        aborts: report.aborted_sessions,
        failures: report.failed_requests,
        rejections: report.rejected_requests,
        switches: switches as u64,
        snmp_polls: report.snmp_polls,
        ..summed
    };
    assert_eq!(summed, reported, "the series and the report disagree");
    let pinned = [
        reported.completes,
        reported.aborts,
        reported.failures,
        reported.rejections,
        reported.switches,
        reported.snmp_polls,
    ];
    assert_eq!(pinned, expected, "the run's counts moved");
}

#[test]
fn grnet_chaos_report_is_sink_independent_and_reconciles() {
    let scenario = Scenario::grnet_case_study(42);
    let config = ServiceConfig {
        fault_plan: chaos(&scenario, SimDuration::from_secs(6 * 3600)),
        retry: RetryPolicy::with_attempts(2),
        ..ServiceConfig::default()
    };
    check(&scenario, config, [28, 5, 11, 0, 17, 481]);
}

#[test]
fn flash_crowd_prefix_chaos_report_is_sink_independent_and_reconciles() {
    let scenario = Scenario::flash_crowd(42);
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig::default()),
        fault_plan: chaos(&scenario, SimDuration::from_secs(3600)),
        retry: RetryPolicy::with_attempts(2),
        ..ServiceConfig::default()
    };
    check(&scenario, config, [65, 11, 31, 0, 42, 299]);
}

#[test]
fn contended_report_is_sink_independent_and_reconciles() {
    let scenario = Scenario::scale_stress(42, 400);
    let config = ServiceConfig {
        initial_replicas: 1,
        local_rate: Mbps::new(2.0),
        ..ServiceConfig::default()
    };
    check(&scenario, config, [384, 0, 0, 0, 170, 463]);
}

#[test]
fn admission_report_is_sink_independent_and_reconciles() {
    let scenario = Scenario::flash_crowd(21);
    let config = ServiceConfig {
        admission: Some(AdmissionPolicy::new(1.0)),
        ..ServiceConfig::default()
    };
    check(&scenario, config, [29, 0, 0, 66, 2, 71]);
}
