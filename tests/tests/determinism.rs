//! Integration test: determinism and serializability guarantees across
//! the whole stack — the properties that make every number in
//! EXPERIMENTS.md reproducible.

use vod_core::selection::{SelectionContext, ServerSelector};
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_core::ServiceReport;
use vod_integration_tests::{grnet, TEST_SEED};
use vod_net::topologies::grnet::{GrnetNode, TimeOfDay};
use vod_net::NodeId;
use vod_sim::{SimDuration, SimTime};
use vod_workload::scenario::Scenario;

/// Every (time, home, candidate-set) decision on the case study is a pure
/// function — run twice, byte-identical.
#[test]
fn vra_decisions_are_pure_functions_of_state() {
    let g = grnet();
    let homes = GrnetNode::ALL;
    let mut first_pass = Vec::new();
    for round in 0..2 {
        let mut decisions = Vec::new();
        for time in TimeOfDay::ALL {
            let snap = g.snapshot(time);
            for home in homes {
                let candidates: Vec<NodeId> = GrnetNode::ALL
                    .iter()
                    .filter(|&&c| c != home)
                    .map(|&c| g.node(c))
                    .collect();
                let sel = Vra::default()
                    .select(&SelectionContext {
                        topology: g.topology(),
                        snapshot: &snap,
                        home: g.node(home),
                        candidates: &candidates,
                    })
                    .unwrap();
                decisions.push((time.label(), home.u_label(), sel.server, sel.route.cost()));
            }
        }
        if round == 0 {
            first_pass = decisions;
        } else {
            assert_eq!(first_pass, decisions);
        }
    }
    // 4 times × 6 homes.
    assert_eq!(first_pass.len(), 24);
}

/// A service report survives a JSON round trip intact — experiment
/// artifacts can be archived and diffed.
#[test]
fn service_report_serde_round_trip() {
    let scenario = Scenario::random_network(TEST_SEED);
    let report = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
    )
    .run();
    let json = serde_json::to_string(&report).unwrap();
    let back: ServiceReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert!(!report.completed.is_empty());
}

/// A scenario read back from JSON runs like the original even when the
/// file lists its requests out of order: the service walks the trace
/// with a cursor, so a deserialised trace has to come back sorted.
#[test]
fn scenario_from_shuffled_json_runs_like_the_original() {
    let scenario = Scenario::grnet_case_study(TEST_SEED);
    let json = serde_json::to_string(&scenario).unwrap();
    let trace_json = serde_json::to_string(scenario.trace()).unwrap();
    let reversed: Vec<String> = scenario
        .trace()
        .requests()
        .iter()
        .rev()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    let shuffled_trace = format!("{{\"requests\":[{}]}}", reversed.join(","));
    assert_ne!(trace_json, shuffled_trace);
    assert!(json.contains(&trace_json), "the trace is embedded verbatim");
    let shuffled: Scenario =
        serde_json::from_str(&json.replace(&trace_json, &shuffled_trace)).unwrap();
    assert_eq!(shuffled, scenario);

    let run = |scenario: &Scenario| {
        VodService::new(scenario, Box::new(Vra::default()), ServiceConfig::default()).run()
    };
    let (original, replayed) = (run(&scenario), run(&shuffled));
    assert!(!original.completed.is_empty());
    assert_eq!(replayed, original);
}

/// Incremental execution (run_until in steps) reaches exactly the same
/// final state as one uninterrupted run.
#[test]
fn stepped_and_continuous_runs_agree() {
    let scenario = Scenario::random_network(7);
    let continuous = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
    )
    .run();

    let mut stepped = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
    );
    let mut deadline = SimTime::ZERO;
    for _ in 0..50 {
        deadline += SimDuration::from_secs(30 * 60);
        stepped.run_until(deadline);
    }
    assert!(stepped.now() >= deadline);
    assert!(stepped.events_processed() > 0);
    // Drain whatever remains and compare.
    let report = {
        let mut s = stepped;
        // run() consumes; emulate by running until far future then report.
        s.run_until(SimTime::from_secs(100 * 24 * 3600));
        s.into_report()
    };
    assert_eq!(continuous, report);
}

/// The scenario builders themselves are seed-deterministic across types.
#[test]
fn all_scenario_builders_are_deterministic() {
    for build in [
        Scenario::grnet_case_study as fn(u64) -> Scenario,
        Scenario::flash_crowd,
        Scenario::random_network,
    ] {
        assert_eq!(build(5), build(5));
        assert_ne!(build(5).trace(), build(6).trace());
    }
}
