//! `experiments --metrics` writes a `ServiceReport` as one JSON object,
//! the only bytes the workspace serializes. Every float in it must read
//! back bit for bit and every record must be there: the file is as
//! exact as the run.

use serde::Value;
use vod_core::service::{PrefixTierConfig, RetryPolicy, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_sim::fault::FaultPlan;
use vod_sim::metrics::Summary;
use vod_sim::SimDuration;
use vod_workload::scenario::Scenario;

/// The object's field `name`.
fn field<'a>(object: &'a Value, name: &str) -> &'a Value {
    object
        .get_field(name)
        .unwrap_or_else(|| panic!("no field `{name}`"))
}

/// The float in `value`, which must have been written as one.
fn float(value: &Value) -> f64 {
    match value {
        Value::F64(x) => *x,
        other => panic!("not a float: {other:?}"),
    }
}

/// The integer in `value`, which must have been written as one.
fn integer(value: &Value) -> u64 {
    match value {
        Value::U64(n) => *n,
        other => panic!("not an unsigned integer: {other:?}"),
    }
}

fn assert_summary_is_exact(summary: &Summary, value: &Value) {
    assert_eq!(integer(field(value, "count")), summary.count as u64);
    for (name, x) in [
        ("mean", summary.mean),
        ("min", summary.min),
        ("max", summary.max),
        ("p50", summary.p50),
        ("p95", summary.p95),
        ("p99", summary.p99),
    ] {
        assert_eq!(float(field(value, name)).to_bits(), x.to_bits(), "{name}");
    }
}

#[test]
fn metrics_report_json_is_lossless() {
    let scenario = Scenario::flash_crowd(42);
    let start = scenario.trace().requests()[0].at;
    let span = SimDuration::from_secs(3600);
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig::default()),
        fault_plan: FaultPlan::random(42, scenario.topology(), start, start + span, 10),
        retry: RetryPolicy::with_attempts(2),
        ..ServiceConfig::default()
    };
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    let prefix = report.prefix.expect("the prefix tier is on");
    assert!(report.aborted_sessions > 0, "the faults cut sessions");

    let json = serde_json::to_string(&report).unwrap();
    let value: Value = serde_json::from_str(&json).unwrap();

    for (name, summary) in [
        ("max_link_utilization", &report.max_link_utilization),
        ("mean_link_utilization", &report.mean_link_utilization),
    ] {
        assert!(summary.count > 0, "{name}");
        assert_summary_is_exact(summary, field(&value, name));
    }
    let served = float(field(field(&value, "prefix"), "served_mbit"));
    assert!(served.fract() != 0.0, "a float with a fraction to lose");
    assert_eq!(served.to_bits(), prefix.served_mbit.to_bits());

    let completed = field(&value, "completed").as_array().unwrap();
    assert_eq!(completed.len(), report.completed.len());
    assert!(!completed.is_empty());
    for (record, written) in report.completed.iter().zip(completed) {
        let expected = [
            ("session", record.session.0),
            ("video", record.video.index() as u64),
            ("home", record.home.index() as u64),
            ("requested_at", record.requested_at.as_micros()),
            ("completed_at", record.completed_at.as_micros()),
            ("startup_delay", record.startup_delay.as_micros()),
            ("stall_count", u64::from(record.stall_count)),
            ("stall_time", record.stall_time.as_micros()),
            ("switches", u64::from(record.switches)),
            ("clusters", record.clusters as u64),
            ("local_clusters", record.local_clusters as u64),
            ("nominal_duration", record.nominal_duration.as_micros()),
        ];
        for (name, n) in expected {
            assert_eq!(integer(field(written, name)), n, "{name}");
        }
    }
}
