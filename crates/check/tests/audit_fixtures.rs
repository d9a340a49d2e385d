//! Injected-violation fixtures for the trace auditor: one hand-crafted
//! JSONL trace per rule (`A000`–`A012`), each asserting that exactly the
//! targeted rule fires, plus clean fixtures and a property test that
//! every trace the real service writes audits green.
//!
//! The fixtures share a minimal two-server topology (`S0 — S1`, one
//! 10 Mbps link, zero traffic) whose reference selection cost is
//! re-derived with the production LVN + Dijkstra so the clean lines are
//! optimal by construction.

use proptest::prelude::*;

use vod_check::audit::{audit_trace, AuditSummary};
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::dijkstra::dijkstra;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::node::NodeKind;
use vod_net::units::Fraction;
use vod_net::{LinkId, Mbps, NodeId, TopologyBuilder, TrafficSnapshot};
use vod_obs::JsonlWriter;
use vod_workload::scenario::Scenario;

/// The shared preamble: two video servers joined by one 10 Mbps link,
/// 1000 MB of cache each (2 disks × 500 MB, 100 MB clusters, admission
/// threshold 0), video 0 seeded at S0 and video 1 at S1, zero traffic.
fn preamble() -> Vec<String> {
    vec![
        r#"{"at_us":0,"kind":"topology","nodes":[["S0",true],["S1",true]],"links":[[0,1,10]]}"#
            .to_string(),
        r#"{"at_us":0,"kind":"run_config","selector":"vra","dynamic_rerouting":true,"snmp_smoothing":null,"lvn_normalization":10}"#
            .to_string(),
        r#"{"at_us":0,"kind":"cache_config","server":0,"disks":2,"capacity_mb":500,"cluster_mb":100,"admit_threshold":0}"#
            .to_string(),
        r#"{"at_us":0,"kind":"cache_config","server":1,"disks":2,"capacity_mb":500,"cluster_mb":100,"admit_threshold":0}"#
            .to_string(),
        r#"{"at_us":0,"kind":"dma_seed","server":0,"video":0,"size_mb":300.0,"parts":3}"#
            .to_string(),
        r#"{"at_us":0,"kind":"dma_seed","server":1,"video":1,"size_mb":300.0,"parts":3}"#
            .to_string(),
        r#"{"at_us":0,"kind":"link_state","used":[0.0],"utilization":[0.0]}"#.to_string(),
    ]
}

/// The fixture preamble with a retry budget declared in the run config.
fn preamble_with_retry(max: u64) -> Vec<String> {
    let mut t = preamble();
    t[1] = format!(
        r#"{{"at_us":0,"kind":"run_config","selector":"vra","dynamic_rerouting":true,"snmp_smoothing":null,"lvn_normalization":10,"retry_max_attempts":{max},"retry_backoff_us":2000000,"retry_stall_budget_us":30000000}}"#
    );
    t
}

/// The production-LVN cost of routing S0 → S1 over the idle fixture
/// link, so clean `vra_select` lines are optimal by construction.
fn fixture_cost() -> f64 {
    let mut b = TopologyBuilder::new();
    b.add_node_with_kind("S0", NodeKind::VideoServer);
    b.add_node_with_kind("S1", NodeKind::VideoServer);
    b.add_link(NodeId::new(0), NodeId::new(1), Mbps::new(10.0))
        .expect("fixture link is well-formed");
    let topo = b.build();
    let mut snap = TrafficSnapshot::zero(&topo);
    snap.set_used(LinkId::new(0), Mbps::new(0.0));
    if let Some(f) = Fraction::try_new(0.0) {
        snap.set_explicit_utilization(LinkId::new(0), f);
    }
    let weights = LvnComputer::new(&topo, &snap, LvnParams::with_normalization(10.0)).weights();
    let paths = dijkstra(&topo, &weights, NodeId::new(0)).expect("fixture topology is connected");
    paths
        .route_to(NodeId::new(1))
        .expect("S1 is reachable from S0")
        .cost()
}

/// A `vra_select` of video 1 (home S0, served by S1) at the given
/// session/cluster with an arbitrary cost.
fn select_line(at_us: u64, session: u64, cluster: u64, cost: f64) -> String {
    format!(
        r#"{{"at_us":{at_us},"kind":"vra_select","session":{session},"cluster":{cluster},"video":1,"home":0,"server":1,"cost":{cost},"cache_hit":false,"local":false}}"#
    )
}

fn audit(lines: &[String]) -> AuditSummary {
    audit_trace(&lines.join("\n"))
}

/// Every rule the fixture is expected to trip — and nothing else.
fn assert_only_rule(summary: &AuditSummary, rule: &str) {
    assert!(
        !summary.violations.is_empty(),
        "expected a {rule} violation, trace audited clean"
    );
    for v in &summary.violations {
        assert_eq!(
            v.rule, rule,
            "expected only {rule} violations, got {} at line {}: {}",
            v.rule, v.line, v.message
        );
    }
}

#[test]
fn clean_fixture_audits_green() {
    let mut t = preamble();
    let cost = fixture_cost();
    t.push(select_line(10, 0, 0, cost));
    t.push(select_line(20, 0, 1, cost));
    t.push(
        r#"{"at_us":30,"kind":"session_complete","session":0,"stalls":0,"stall_time_us":0,"switches":0}"#
            .to_string(),
    );
    let summary = audit(&t);
    assert!(
        summary.is_clean(),
        "clean fixture should audit green, got {:?}",
        summary.violations
    );
    assert_eq!(summary.events, t.len());
    assert_eq!(summary.selections_verified, 2);
}

#[test]
fn a000_time_going_backwards() {
    let mut t = preamble();
    t.push(r#"{"at_us":50,"kind":"dma_hit","server":0,"video":0}"#.to_string());
    t.push(r#"{"at_us":20,"kind":"dma_hit","server":0,"video":0}"#.to_string());
    assert_only_rule(&audit(&t), "A000");
}

#[test]
fn a000_event_before_preamble() {
    let t = vec![r#"{"at_us":0,"kind":"dma_hit","server":0,"video":0}"#.to_string()];
    assert_only_rule(&audit(&t), "A000");
}

#[test]
fn a001_admit_overflows_capacity() {
    let mut t = preamble();
    // 300 MB resident + 800 MB admitted > 2 × 500 MB of disks.
    t.push(
        r#"{"at_us":10,"kind":"dma_admit","server":0,"video":2,"after_eviction":false,"size_mb":800.0,"parts":8,"stripe":[0,1,0,1,0,1,0,1],"occupancy_mb":1100.0}"#
            .to_string(),
    );
    let summary = audit(&t);
    assert_only_rule(&summary, "A001");
    assert_eq!(summary.admits_verified, 1);
}

#[test]
fn a002_reject_below_threshold_after_passing_it() {
    let mut t = preamble();
    // The rejection awards the request's point first, so the counter is
    // at 1 > threshold 0 — a `below_threshold` verdict is inconsistent.
    t.push(
        r#"{"at_us":10,"kind":"dma_reject","server":0,"video":2,"reason":"below_threshold"}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A002");
}

#[test]
fn a003_evicts_a_popular_title() {
    let mut t = preamble();
    // Video 2 collects two points; video 0 has none — evicting 2 is wrong.
    t.push(
        r#"{"at_us":10,"kind":"dma_seed","server":0,"video":2,"size_mb":100.0,"parts":1}"#
            .to_string(),
    );
    t.push(r#"{"at_us":20,"kind":"dma_hit","server":0,"video":2}"#.to_string());
    t.push(r#"{"at_us":30,"kind":"dma_hit","server":0,"video":2}"#.to_string());
    t.push(r#"{"at_us":40,"kind":"dma_evict","server":0,"victim":2}"#.to_string());
    let summary = audit(&t);
    assert_only_rule(&summary, "A003");
    assert_eq!(summary.evictions_verified, 1);
}

#[test]
fn a004_stripe_off_the_round_robin() {
    let mut t = preamble();
    // Part 1 must land on disk 1 (i mod 2), not disk 0.
    t.push(
        r#"{"at_us":10,"kind":"dma_admit","server":0,"video":3,"after_eviction":false,"size_mb":200.0,"parts":2,"stripe":[0,0],"occupancy_mb":500.0}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A004");
}

#[test]
fn a005_selection_cost_diverges_from_reference() {
    let mut t = preamble();
    t.push(select_line(10, 0, 0, fixture_cost() + 1.0));
    let summary = audit(&t);
    assert_only_rule(&summary, "A005");
    assert_eq!(summary.selections_verified, 1);
}

#[test]
fn a006_switch_without_a_selection() {
    let mut t = preamble();
    t.push(r#"{"at_us":10,"kind":"switch","session":0,"cluster":1,"from":0,"to":1}"#.to_string());
    assert_only_rule(&audit(&t), "A006");
}

#[test]
fn a007_session_opens_mid_stream() {
    let mut t = preamble();
    t.push(select_line(10, 7, 3, fixture_cost()));
    assert_only_rule(&audit(&t), "A007");
}

#[test]
fn a007_selection_skips_clusters_only_under_static_routing() {
    let cost = fixture_cost();
    let mut t = preamble();
    t.push(select_line(10, 0, 0, cost));
    t.push(select_line(20, 0, 2, cost));
    assert_only_rule(&audit(&t), "A007");

    t[1] = t[1].replace(
        r#""dynamic_rerouting":true"#,
        r#""dynamic_rerouting":false"#,
    );
    let summary = audit(&t);
    assert!(summary.is_clean(), "{:?}", summary.violations);
}

#[test]
fn a008_link_used_exceeds_capacity() {
    let mut t = preamble();
    t.push(r#"{"at_us":10,"kind":"link_state","used":[999.0],"utilization":[0.5]}"#.to_string());
    assert_only_rule(&audit(&t), "A008");
}

#[test]
fn a009_hit_on_a_title_that_is_not_resident() {
    let mut t = preamble();
    t.push(r#"{"at_us":10,"kind":"dma_hit","server":0,"video":5}"#.to_string());
    assert_only_rule(&audit(&t), "A009");
}

#[test]
fn a005_selection_routes_over_a_down_link() {
    let mut t = preamble();
    // The only path S0 → S1 is the severed link: the reference Dijkstra
    // sees no reachable candidate, so the traced selection is bogus.
    t.push(r#"{"at_us":10,"kind":"link_down","link":0}"#.to_string());
    t.push(
        r#"{"at_us":20,"kind":"link_state","used":[0.0],"utilization":[0.0],"down":[0]}"#
            .to_string(),
    );
    t.push(select_line(30, 0, 0, fixture_cost()));
    assert_only_rule(&audit(&t), "A005");
}

#[test]
fn a010_link_state_contradicts_outage_replay() {
    let mut t = preamble();
    t.push(r#"{"at_us":10,"kind":"link_down","link":0}"#.to_string());
    // The next link_state claims every link is up.
    t.push(
        r#"{"at_us":20,"kind":"link_state","used":[0.0],"utilization":[0.0],"down":[]}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A010");
}

#[test]
fn a010_link_up_without_a_down() {
    let mut t = preamble();
    t.push(r#"{"at_us":10,"kind":"link_up","link":0}"#.to_string());
    assert_only_rule(&audit(&t), "A010");
}

#[test]
fn a011_retry_exceeds_the_budget() {
    let mut t = preamble_with_retry(2);
    t.push(
        r#"{"at_us":10,"kind":"session_retry","session":0,"attempt":1,"backoff_us":2000000}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":20,"kind":"session_retry","session":0,"attempt":2,"backoff_us":4000000}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":30,"kind":"session_retry","session":0,"attempt":3,"backoff_us":6000000}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A011");
}

#[test]
fn a011_retry_without_a_declared_budget() {
    let mut t = preamble();
    t.push(
        r#"{"at_us":10,"kind":"session_retry","session":0,"attempt":1,"backoff_us":2000000}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A011");
}

#[test]
fn a012_abort_reason_disagrees_with_the_budget() {
    let mut t = preamble_with_retry(3);
    // One retry observed, then an exhaustion abort — but the budget is 3.
    t.push(
        r#"{"at_us":10,"kind":"session_retry","session":0,"attempt":1,"backoff_us":2000000}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":20,"kind":"session_aborted","session":0,"reason":"retry_exhausted"}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A012");
}

#[test]
fn a012_unknown_abort_reason() {
    let mut t = preamble();
    t.push(
        r#"{"at_us":10,"kind":"session_aborted","session":0,"reason":"cosmic_rays"}"#.to_string(),
    );
    assert_only_rule(&audit(&t), "A012");
}

/// The fixture preamble plus a prefix store at proxy node 0: 300 MB of
/// space, 100 MB clusters, admit on first request (threshold 0), base
/// length 1 cluster growing by one per 2 further requests, capped at 3.
fn preamble_with_prefix() -> Vec<String> {
    let mut t = preamble();
    t.push(
        r#"{"at_us":0,"kind":"prefix_cache_config","server":0,"capacity_mb":300,"cluster_mb":100,"admit_threshold":0,"base_clusters":1,"max_clusters":3,"growth_points":2}"#
            .to_string(),
    );
    t
}

#[test]
fn clean_prefix_fixture_audits_green() {
    let mut t = preamble_with_prefix();
    // First request admits the base prefix, the second hits and serves.
    t.push(
        r#"{"at_us":10,"kind":"prefix_admit","server":0,"video":1,"after_eviction":false,"clusters":1,"size_mb":100,"occupancy_mb":100}"#
            .to_string(),
    );
    t.push(r#"{"at_us":20,"kind":"prefix_hit","server":0,"video":1,"clusters":1}"#.to_string());
    t.push(
        r#"{"at_us":20,"kind":"prefix_serve","session":0,"server":0,"video":1,"clusters":1}"#
            .to_string(),
    );
    // The third request's hit crosses the growth step and extends.
    t.push(r#"{"at_us":30,"kind":"prefix_hit","server":0,"video":1,"clusters":1}"#.to_string());
    t.push(
        r#"{"at_us":30,"kind":"prefix_extend","server":0,"video":1,"from_clusters":1,"to_clusters":2,"occupancy_mb":200}"#
            .to_string(),
    );
    // A newcomer's base prefix fits the remaining 100 MB.
    t.push(
        r#"{"at_us":40,"kind":"prefix_admit","server":0,"video":2,"after_eviction":false,"clusters":1,"size_mb":100,"occupancy_mb":300}"#
            .to_string(),
    );
    let summary = audit(&t);
    assert!(
        summary.is_clean(),
        "clean prefix fixture should audit green, got {:?}",
        summary.violations
    );
    assert_eq!(summary.prefix_verified, 4);
}

#[test]
fn clean_prefix_eviction_audits_green() {
    // Growth disabled: every prefix is stored at the full 3-cluster
    // base, so v1 fills the store on its first request.
    let mut t = preamble();
    t.push(
        r#"{"at_us":0,"kind":"prefix_cache_config","server":0,"capacity_mb":300,"cluster_mb":100,"admit_threshold":0,"base_clusters":3,"max_clusters":3,"growth_points":0}"#
            .to_string(),
    );
    // v1 resident with 1 point; v2's first request ties on points (no
    // strictly colder resident), its second out-ranks and evicts v1.
    t.push(
        r#"{"at_us":10,"kind":"prefix_admit","server":0,"video":1,"after_eviction":false,"clusters":3,"size_mb":300,"occupancy_mb":300}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":20,"kind":"prefix_reject","server":0,"video":2,"reason":"not_popular_enough"}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":30,"kind":"prefix_evict","server":0,"victim":1,"freed_mb":300}"#.to_string(),
    );
    t.push(
        r#"{"at_us":30,"kind":"prefix_admit","server":0,"video":2,"after_eviction":true,"clusters":3,"size_mb":300,"occupancy_mb":300}"#
            .to_string(),
    );
    let summary = audit(&t);
    assert!(
        summary.is_clean(),
        "clean prefix eviction fixture should audit green, got {:?}",
        summary.violations
    );
}

#[test]
fn a014_serve_exceeds_resident_prefix() {
    let mut t = preamble_with_prefix();
    t.push(
        r#"{"at_us":10,"kind":"prefix_admit","server":0,"video":1,"after_eviction":false,"clusters":1,"size_mb":100,"occupancy_mb":100}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":20,"kind":"prefix_serve","session":0,"server":0,"video":1,"clusters":2}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A014");
}

#[test]
fn a014_traced_occupancy_disagrees_with_replay() {
    let mut t = preamble_with_prefix();
    t.push(
        r#"{"at_us":10,"kind":"prefix_admit","server":0,"video":1,"after_eviction":false,"clusters":1,"size_mb":100,"occupancy_mb":250}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A014");
}

#[test]
fn a015_prefix_longer_than_the_popularity_target() {
    let mut t = preamble_with_prefix();
    // One point allows only the base length (1 cluster), not 3.
    t.push(
        r#"{"at_us":10,"kind":"prefix_admit","server":0,"video":1,"after_eviction":false,"clusters":3,"size_mb":300,"occupancy_mb":300}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A015");
}

#[test]
fn a016_evicts_a_hotter_prefix() {
    let mut t = preamble_with_prefix();
    // v1 (2 points) is hotter than v2 (1 point): evicting v1 is wrong,
    // and v1's 2 points also fail the strictly-colder check against
    // the newcomer's 1 point.
    t.push(
        r#"{"at_us":10,"kind":"prefix_admit","server":0,"video":1,"after_eviction":false,"clusters":1,"size_mb":100,"occupancy_mb":100}"#
            .to_string(),
    );
    t.push(r#"{"at_us":20,"kind":"prefix_hit","server":0,"video":1,"clusters":1}"#.to_string());
    t.push(
        r#"{"at_us":30,"kind":"prefix_admit","server":0,"video":2,"after_eviction":false,"clusters":1,"size_mb":100,"occupancy_mb":200}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":40,"kind":"prefix_evict","server":0,"victim":1,"freed_mb":100}"#.to_string(),
    );
    t.push(
        r#"{"at_us":40,"kind":"prefix_admit","server":0,"video":3,"after_eviction":true,"clusters":1,"size_mb":100,"occupancy_mb":200}"#
            .to_string(),
    );
    assert_only_rule(&audit(&t), "A016");
}

#[test]
fn a016_eviction_with_no_admission() {
    let mut t = preamble_with_prefix();
    t.push(
        r#"{"at_us":10,"kind":"prefix_admit","server":0,"video":1,"after_eviction":false,"clusters":1,"size_mb":100,"occupancy_mb":100}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":20,"kind":"prefix_evict","server":0,"victim":1,"freed_mb":100}"#.to_string(),
    );
    t.push(r#"{"at_us":30,"kind":"dma_hit","server":0,"video":0}"#.to_string());
    assert_only_rule(&audit(&t), "A016");
}

#[test]
fn clean_fault_fixture_audits_green() {
    let mut t = preamble_with_retry(2);
    t.push(r#"{"at_us":10,"kind":"link_down","link":0}"#.to_string());
    t.push(
        r#"{"at_us":20,"kind":"link_state","used":[0.0],"utilization":[0.0],"down":[0]}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":30,"kind":"session_retry","session":0,"attempt":1,"backoff_us":2000000}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":40,"kind":"session_retry","session":0,"attempt":2,"backoff_us":4000000}"#
            .to_string(),
    );
    t.push(r#"{"at_us":50,"kind":"link_up","link":0}"#.to_string());
    t.push(
        r#"{"at_us":60,"kind":"link_state","used":[0.0],"utilization":[0.0],"down":[]}"#
            .to_string(),
    );
    t.push(
        r#"{"at_us":70,"kind":"session_aborted","session":0,"reason":"retry_exhausted"}"#
            .to_string(),
    );
    let summary = audit(&t);
    assert!(
        summary.is_clean(),
        "clean fault fixture should audit green, got {:?}",
        summary.violations
    );
}

/// The fixtures above exercise seventeen distinct rule ids.
/// The auditor has taken a decision on every kind the workspace's
/// writer can emit: each is either dispatched to a replay rule or
/// listed in `UNAUDITED`. A new `Event` variant fails here until one of
/// the two is done; only foreign kinds fall through to the tolerated
/// `unknown_kinds` count.
#[test]
fn every_event_kind_is_dispatched_or_unaudited() {
    let topology = &preamble()[0];
    let unknown = |kind: &str| {
        audit_trace(&format!(
            "{topology}\n{{\"at_us\":0,\"kind\":\"{kind}\"}}\n"
        ))
        .unknown_kinds
    };
    for kind in vod_obs::Event::KINDS {
        assert_eq!(
            unknown(kind),
            0,
            "`{kind}` has neither an auditor dispatch arm nor an UNAUDITED entry"
        );
    }
    assert_eq!(unknown("phantom_probe"), 1);
}

#[test]
fn fixtures_cover_distinct_rules() {
    let rules = [
        "A000", "A001", "A002", "A003", "A004", "A005", "A006", "A007", "A008", "A009", "A010",
        "A011", "A012", "A013", "A014", "A015", "A016",
    ];
    let distinct: std::collections::BTreeSet<&str> = rules.iter().copied().collect();
    assert_eq!(distinct.len(), 17);
}

/// Runs one full service simulation and returns its JSONL trace.
fn service_trace(scenario: &Scenario) -> String {
    service_trace_with(scenario, ServiceConfig::default())
}

/// Runs one full service simulation under `config` and returns its
/// JSONL trace.
fn service_trace_with(scenario: &Scenario, config: ServiceConfig) -> String {
    let sink = JsonlWriter::new(Vec::new());
    let service = VodService::with_sink(scenario, Box::new(Vra::default()), config, sink);
    let (_, sink) = service.run_full();
    String::from_utf8(sink.into_inner()).expect("JSONL traces are UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the seed and scenario family, a trace written by the
    /// real service replays with zero violations.
    #[test]
    fn service_traces_audit_green(seed in 0u64..10_000, family in 0u8..3) {
        let scenario = match family {
            0 => Scenario::grnet_case_study(seed),
            1 => Scenario::flash_crowd(seed),
            _ => Scenario::random_network(seed),
        };
        let text = service_trace(&scenario);
        let summary = audit_trace(&text);
        prop_assert!(
            summary.is_clean(),
            "scenario {} seed {} produced violations: {:?}",
            scenario.name(),
            seed,
            summary.violations
        );
        prop_assert!(summary.events > 0);
    }

    /// With the regional prefix tier enabled, the whole prefix event
    /// family (admit / hit / extend / evict / reject / serve) replays
    /// against the auditor's independent store model: rules A014–A016
    /// verify real decisions, the session handoff passes the switch
    /// rules, and the trace stays byte-replayable.
    #[test]
    fn prefix_tier_traces_audit_green(seed in 0u64..10_000, family in 0u8..2) {
        use vod_core::service::PrefixTierConfig;
        let scenario = match family {
            0 => Scenario::flash_crowd(seed),
            _ => Scenario::grnet_case_study(seed),
        };
        let config = ServiceConfig {
            prefix_tier: Some(PrefixTierConfig::default()),
            ..ServiceConfig::default()
        };
        let first = service_trace_with(&scenario, config.clone());
        let second = service_trace_with(&scenario, config);
        prop_assert_eq!(&first, &second, "prefix traces must replay byte-for-byte");
        let summary = audit_trace(&first);
        prop_assert!(
            summary.is_clean(),
            "scenario {} seed {} produced violations: {:?}",
            scenario.name(),
            seed,
            summary.violations
        );
        prop_assert!(
            summary.prefix_verified > 0,
            "a repeat-heavy workload must exercise the prefix rules"
        );
    }

    /// Under an arbitrary seeded fault plan and retry budget, the trace
    /// replays byte-for-byte and still audits green — chaos does not
    /// break determinism or any replayed invariant.
    #[test]
    fn fault_plan_traces_replay_and_audit_green(
        seed in 0u64..10_000,
        faults in 1usize..5,
        budget in 0u32..4,
    ) {
        use vod_core::service::RetryPolicy;
        use vod_sim::fault::FaultPlan;
        use vod_sim::SimDuration;

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
        let first = service_trace_with(&scenario, config.clone());
        let second = service_trace_with(&scenario, config);
        prop_assert_eq!(&first, &second, "fault traces must replay byte-for-byte");
        let summary = audit_trace(&first);
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
