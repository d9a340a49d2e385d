//! Integration tests for the observability layer: the golden
//! determinism contract (same scenario + config → byte-identical JSONL
//! trace), sink equivalence and histogram invariants.

use proptest::prelude::*;

use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_integration_tests::TEST_SEED;
use vod_net::NodeId;
use vod_obs::{JsonlWriter, RingRecorder};
use vod_sim::metrics::Histogram;
use vod_sim::{FaultPlan, SimTime};
use vod_workload::scenario::Scenario;

/// Runs the GRNET case study with a JSONL sink and returns the raw
/// trace bytes.
fn traced_run(config: ServiceConfig) -> Vec<u8> {
    let scenario = Scenario::grnet_case_study(TEST_SEED);
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        config,
        JsonlWriter::new(Vec::new()),
    );
    let (_report, sink) = service.run_full();
    sink.into_inner().expect("a Vec takes every write")
}

/// The golden test: two identical runs produce byte-identical traces,
/// and the trace exercises every major event family.
#[test]
fn trace_is_byte_identical_across_runs() {
    let first = traced_run(ServiceConfig::default());
    let second = traced_run(ServiceConfig::default());
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "traces of identical runs must match byte-for-byte"
    );

    let text = String::from_utf8(first).unwrap();
    for kind in [
        "\"kind\":\"request_arrival\"",
        "\"kind\":\"vra_select\"",
        "\"kind\":\"dma_",
        "\"kind\":\"session_start\"",
        "\"kind\":\"session_complete\"",
        "\"kind\":\"snmp_poll\"",
        "\"kind\":\"background_update\"",
    ] {
        assert!(text.contains(kind), "trace is missing {kind}");
    }
}

/// Every trace line is a JSON object stamped with a monotonically
/// non-decreasing simulation time.
#[test]
fn trace_lines_are_json_objects_in_time_order() {
    let text = String::from_utf8(traced_run(ServiceConfig::default())).unwrap();
    let mut last_at = 0u64;
    let mut lines = 0u64;
    for line in text.lines() {
        assert!(line.starts_with("{\"at_us\":"), "bad line start: {line}");
        assert!(line.ends_with('}'), "bad line end: {line}");
        let at: u64 = line["{\"at_us\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(at >= last_at, "events out of order at line: {line}");
        last_at = at;
        lines += 1;
    }
    assert!(
        lines > 100,
        "expected a substantial trace, got {lines} lines"
    );
}

/// A large-enough ring recorder captures exactly the stream the JSONL
/// writer serializes.
#[test]
fn ring_recorder_matches_jsonl_writer() {
    let bytes = traced_run(ServiceConfig::default());
    let scenario = Scenario::grnet_case_study(TEST_SEED);
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
        RingRecorder::new(1 << 20),
    );
    let (_report, recorder) = service.run_full();
    assert_eq!(recorder.dropped(), 0);
    assert_eq!(recorder.to_jsonl(), String::from_utf8(bytes).unwrap());
}

/// A scheduled outage shows up in the trace as server_down/server_up
/// events, and the trace stays deterministic under it.
#[test]
fn outage_events_appear_in_trace() {
    let config = ServiceConfig {
        fault_plan: FaultPlan::new().server_outage(
            SimTime::from_secs(10 * 3600),
            SimTime::from_secs(12 * 3600),
            NodeId::new(0),
        ),
        ..ServiceConfig::default()
    };
    let text = String::from_utf8(traced_run(config.clone())).unwrap();
    assert!(text.contains("\"kind\":\"server_down\""));
    assert!(text.contains("\"kind\":\"server_up\""));

    // Determinism holds under failures too.
    assert_eq!(text, String::from_utf8(traced_run(config)).unwrap());
}

/// A fault plan surfaces every fault-event family in the trace, and the
/// trace stays deterministic under chaos.
#[test]
fn fault_plan_events_appear_in_trace() {
    use vod_core::service::RetryPolicy;
    use vod_net::topologies::grnet::{Grnet, GrnetLink};
    use vod_sim::fault::FaultPlan;
    use vod_sim::SimDuration;

    let grnet = Grnet::new();
    let start = SimTime::from_secs(9 * 3600);
    let plan = FaultPlan::new()
        .link_outage(
            start,
            start + SimDuration::from_secs(1200),
            grnet.link(GrnetLink::AthensHeraklio),
        )
        .link_degrade(
            start + SimDuration::from_secs(1800),
            start + SimDuration::from_secs(3600),
            grnet.link(GrnetLink::ThessalonikiAthens),
            0.5,
        )
        .snmp_outage(start, start + SimDuration::from_secs(1800));
    let config = ServiceConfig {
        fault_plan: plan,
        retry: RetryPolicy::with_attempts(2),
        ..ServiceConfig::default()
    };
    let text = String::from_utf8(traced_run(config.clone())).unwrap();
    for kind in [
        "\"kind\":\"link_down\"",
        "\"kind\":\"link_up\"",
        "\"kind\":\"link_degrade_start\"",
        "\"kind\":\"link_degrade_end\"",
        "\"kind\":\"snmp_outage_start\"",
        "\"kind\":\"snmp_outage_end\"",
        "\"kind\":\"snmp_stale_view\"",
    ] {
        assert!(text.contains(kind), "trace is missing {kind}");
    }
    assert_eq!(text, String::from_utf8(traced_run(config)).unwrap());
}

proptest! {
    /// Histogram bucket counts always sum to the number of samples.
    #[test]
    fn histogram_buckets_sum_to_count(values in proptest::collection::vec(0.0f64..1e9, 0..200)) {
        let mut h = Histogram::new(1e-6, 40, 8);
        for v in &values {
            h.record(*v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.bucket_total(), h.count());
        prop_assert_eq!(
            h.nonzero_buckets().map(|(_, _, n)| n).sum::<u64>(),
            h.count()
        );
    }

    /// Quantiles are monotone in the requested rank and stay within the
    /// observed range.
    #[test]
    fn histogram_quantiles_are_monotone(
        values in proptest::collection::vec(1e-9f64..1e12, 1..200),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..20),
    ) {
        let mut h = Histogram::new(1e-6, 40, 8);
        for v in &values {
            h.record(*v);
        }
        let mut sorted_qs = qs;
        sorted_qs.sort_by(f64::total_cmp);
        let mut last = f64::NEG_INFINITY;
        for q in sorted_qs {
            let v = h.quantile(q);
            prop_assert!(v >= last, "quantile({}) = {} < previous {}", q, v, last);
            prop_assert!(v >= h.min() && v <= h.max());
            last = v;
        }
    }
}
