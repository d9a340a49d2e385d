//! Injected-violation fixtures for the trace auditor: one trace per
//! fixture, each asserting that exactly its rule fires (`A000`–`A016`;
//! `A013` is `series_fixtures.rs`'s), plus clean fixtures, the `A017`
//! counter's fixture, and property tests that every trace the real
//! service writes audits green.
//!
//! Fixture lines are typed events rendered by `Event::to_json` and read
//! back through `audit_trace`; only the `A000` line-level fixtures are
//! raw text. They share a minimal two-server topology (`S0 — S1`, one
//! 10 Mbps link, zero traffic) whose reference selection cost is
//! re-derived with the production LVN + Dijkstra so the clean lines are
//! optimal by construction.

use std::collections::BTreeSet;

use proptest::prelude::*;

use vod_check::audit::{audit_trace, AuditSink, AuditSummary};
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_net::dijkstra::dijkstra;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::node::NodeKind;
use vod_net::units::Fraction;
use vod_net::{LinkId, Mbps, NodeId, TopologyBuilder, TrafficSnapshot};
use vod_obs::{AbortReason, Event, JsonlWriter};
use vod_sim::{SimDuration, SimTime};
use vod_storage::dma::RejectKind;
use vod_storage::VideoId;
use vod_workload::scenario::Scenario;

/// `ev! { at_us, Variant { field: value, … } }`: one trace line, the
/// typed event rendered as the service's writer renders it.
macro_rules! ev {
    ($at:expr, $($event:tt)+) => {
        (Event::$($event)+).to_json(SimTime::from_micros($at))
    };
}

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}

fn v(id: u32) -> VideoId {
    VideoId::new(id)
}

fn us(micros: u64) -> SimDuration {
    SimDuration::from_micros(micros)
}

/// The shared preamble: two video servers joined by one 10 Mbps link,
/// 1000 MB of cache each (2 disks × 500 MB, 100 MB clusters, admission
/// threshold 0), video 0 seeded at S0 and video 1 at S1, zero traffic,
/// and no retry budget.
fn preamble() -> Vec<String> {
    preamble_with_retry(0)
}

/// The fixture preamble with a retry budget of `max` attempts.
fn preamble_with_retry(max: u32) -> Vec<String> {
    vec![
        ev! { 0, TopologySnapshot { nodes: vec![("S0".into(), true), ("S1".into(), true)], links: vec![(n(0), n(1), 10.0)] } },
        ev! { 0, RunConfig { selector: "vra".into(), dynamic_rerouting: true, snmp_smoothing: None, lvn_normalization: Some(10.0), retry_max_attempts: max, retry_backoff_us: 2_000_000, retry_stall_budget_us: 30_000_000 } },
        ev! { 0, CacheConfig { server: n(0), disks: 2, capacity_mb: 500.0, cluster_mb: 100.0, admit_threshold: 0 } },
        ev! { 0, CacheConfig { server: n(1), disks: 2, capacity_mb: 500.0, cluster_mb: 100.0, admit_threshold: 0 } },
        ev! { 0, DmaSeed { server: n(0), video: v(0), size_mb: 300.0, parts: 3 } },
        ev! { 0, DmaSeed { server: n(1), video: v(1), size_mb: 300.0, parts: 3 } },
        link_state(0, 0.0, &[]),
    ]
}

/// A `link_state` of the one fixture link.
fn link_state(at_us: u64, used: f64, down: &[u64]) -> String {
    ev! { at_us, LinkState { used: vec![used], utilization: vec![0.0], down: down.to_vec() } }
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
    ev! { at_us, VraSelect { session, cluster, video: v(1), home: n(0), server: n(1), cost, cache_hit: false, local: false } }
}

/// Session 0's playout start, 5 µs after its request.
fn start_line(at_us: u64) -> String {
    ev! { at_us, SessionStart { session: 0, startup: us(5) } }
}

/// Session 0 fetches from S1, then its home S0 advertises the title
/// and the selection for `cluster` moves the session there: every
/// selection is optimal and the switch matches the one that moved the
/// session (A005/A006 hold); playout has not started.
fn rerouted_home(cluster: u64) -> Vec<String> {
    with(
        preamble(),
        &[
            select_line(10, 0, 0, fixture_cost()),
            ev! { 20, CatalogAdd { server: n(0), video: v(1) } },
            ev! { 30, VraSelect { session: 0, cluster, video: v(1), home: n(0), server: n(0), cost: 0.0, cache_hit: false, local: true } },
            ev! { 30, Switch { session: 0, cluster, from: n(1), to: n(0) } },
        ],
    )
}

fn retry_line(at_us: u64, attempt: u32) -> String {
    ev! { at_us, SessionRetry { session: 0, attempt, backoff: us(2_000_000 * u64::from(attempt)) } }
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

/// `name: rule => trace [, check];` — one test per fixture asserting
/// that the trace trips exactly `rule` (and that `check` holds of its
/// summary), plus `fixtures()`, the whole table as `(rule, trace)`.
macro_rules! fixtures {
    ($($name:ident: $rule:literal => $trace:expr $(, $check:expr)?;)*) => {
        $(
            #[test]
            fn $name() {
                let summary = audit(&$trace);
                assert_only_rule(&summary, $rule);
                $(assert!($check(&summary), "{summary:?}");)?
            }
        )*

        fn fixtures() -> Vec<(&'static str, Vec<String>)> {
            vec![$(($rule, $trace)),*]
        }
    };
}

/// `base` plus `lines`.
fn with(mut base: Vec<String>, lines: &[String]) -> Vec<String> {
    base.extend_from_slice(lines);
    base
}

fixtures! {
    a000_time_going_backwards: "A000" => with(preamble(), &[
        ev! { 50, DmaHit { server: n(0), video: v(0) } },
        ev! { 20, DmaHit { server: n(0), video: v(0) } },
    ]);
    a000_event_before_preamble: "A000" => with(Vec::new(), &[ev! { 0, DmaHit { server: n(0), video: v(0) } }]);
    // Line-level: a run config written without its retry budget, and an
    // abort reason outside the closed set, do not read as events.
    a000_run_config_without_a_retry_budget: "A000" => {
        let mut t = preamble();
        t[1] = r#"{"at_us":0,"kind":"run_config","selector":"vra","dynamic_rerouting":true,"snmp_smoothing":null,"lvn_normalization":10}"#.to_string();
        t
    };
    a000_unknown_abort_reason: "A000" => with(preamble(), &[
        r#"{"at_us":10,"kind":"session_aborted","session":0,"reason":"cosmic_rays"}"#.to_string(),
    ]);
    // The writer renders a NaN cost as `NaN`, which is not JSON.
    a000_unparseable_line: "A000" => with(preamble(), &[select_line(10, 0, 0, f64::NAN)]);
    // 300 MB resident + 800 MB admitted > 2 × 500 MB of disks.
    a001_admit_overflows_capacity: "A001" => with(preamble(), &[
        ev! { 10, DmaAdmit { server: n(0), video: v(2), after_eviction: false, size_mb: 800.0, parts: 8, stripe: vec![0, 1, 0, 1, 0, 1, 0, 1], occupancy_mb: 1100.0 } },
    ]), |s: &AuditSummary| s.admits_verified == 1;
    // The rejection awards the request's point first, so the counter is
    // at 1 > threshold 0 — a `below_threshold` verdict is inconsistent.
    a002_reject_below_threshold_after_passing_it: "A002" => with(preamble(), &[
        ev! { 10, DmaReject { server: n(0), video: v(2), reason: RejectKind::BelowThreshold } },
    ]);
    // Video 2 collects two points; video 0 has none — evicting 2 is wrong.
    a003_evicts_a_popular_title: "A003" => with(preamble(), &[
        ev! { 10, DmaSeed { server: n(0), video: v(2), size_mb: 100.0, parts: 1 } },
        ev! { 20, DmaHit { server: n(0), video: v(2) } },
        ev! { 30, DmaHit { server: n(0), video: v(2) } },
        ev! { 40, DmaEvict { server: n(0), victim: v(2) } },
    ]), |s: &AuditSummary| s.evictions_verified == 1;
    // Part 1 must land on disk 1 (i mod 2), not disk 0.
    a004_stripe_off_the_round_robin: "A004" => with(preamble(), &[
        ev! { 10, DmaAdmit { server: n(0), video: v(3), after_eviction: false, size_mb: 200.0, parts: 2, stripe: vec![0, 0], occupancy_mb: 500.0 } },
    ]);
    a005_selection_cost_diverges_from_reference: "A005" => with(preamble(), &[
        select_line(10, 0, 0, fixture_cost() + 1.0),
    ]), |s: &AuditSummary| s.selections_verified == 1;
    // The only path S0 → S1 is the severed link: the reference Dijkstra
    // sees no reachable candidate, so the traced selection is bogus.
    a005_selection_routes_over_a_down_link: "A005" => with(preamble(), &[
        ev! { 10, LinkDown { link: LinkId::new(0) } },
        link_state(20, 0.0, &[0]),
        select_line(30, 0, 0, fixture_cost()),
    ]);
    a006_switch_without_a_selection: "A006" => with(preamble(), &[
        ev! { 10, Switch { session: 0, cluster: 1, from: n(0), to: n(1) } },
    ]);
    a007_session_opens_mid_stream: "A007" => with(preamble(), &[select_line(10, 7, 3, fixture_cost())]);
    a007_session_starts_twice: "A007" => with(preamble(), &[start_line(10), start_line(20)]);
    a007_session_completes_without_a_start: "A007" => with(preamble(), &[
        ev! { 10, SessionComplete { session: 0, stalls: 0, stall_time: us(0), switches: 0 } },
    ]);
    // Cluster 1 cannot be in flight before playout starts.
    a007_switch_before_the_start: "A007" => rerouted_home(1);
    a007_event_after_an_abort: "A007" => with(preamble(), &[
        ev! { 10, SessionAborted { session: 0, reason: AbortReason::HomeDown } },
        ev! { 20, SessionStall { session: 0 } },
    ]);
    a008_link_used_exceeds_capacity: "A008" => with(preamble(), &[link_state(10, 999.0, &[])]);
    a009_hit_on_a_title_that_is_not_resident: "A009" => with(preamble(), &[
        ev! { 10, DmaHit { server: n(0), video: v(5) } },
    ]);
    // The next link_state claims every link is up.
    a010_link_state_contradicts_outage_replay: "A010" => with(preamble(), &[
        ev! { 10, LinkDown { link: LinkId::new(0) } },
        link_state(20, 0.0, &[]),
    ]);
    a010_link_up_without_a_down: "A010" => with(preamble(), &[ev! { 10, LinkUp { link: LinkId::new(0) } }]);
    a011_retry_exceeds_the_budget: "A011" => with(preamble_with_retry(2), &[
        retry_line(10, 1),
        retry_line(20, 2),
        retry_line(30, 3),
    ]);
    // One retry observed, then an exhaustion abort — but the budget is 3.
    a012_abort_reason_disagrees_with_the_budget: "A012" => with(preamble_with_retry(3), &[
        retry_line(10, 1),
        ev! { 20, SessionAborted { session: 0, reason: AbortReason::RetryExhausted } },
    ]);
    a014_serve_exceeds_resident_prefix: "A014" => with(preamble_with_prefix(), &[
        prefix_admit(10, 1, false, 1, 100.0),
        ev! { 20, PrefixServe { session: 0, server: n(0), video: v(1), clusters: 2 } },
    ]);
    a014_traced_occupancy_disagrees_with_replay: "A014" => with(preamble_with_prefix(), &[
        prefix_admit(10, 1, false, 1, 250.0),
    ]);
    // One point allows only the base length (1 cluster), not 3.
    a015_prefix_longer_than_the_popularity_target: "A015" => with(preamble_with_prefix(), &[
        prefix_admit(10, 1, false, 3, 300.0),
    ]);
    // v1 (2 points) is hotter than v2 (1 point): evicting v1 is wrong,
    // and v1's 2 points also fail the strictly-colder check against
    // the newcomer's 1 point.
    a016_evicts_a_hotter_prefix: "A016" => with(preamble_with_prefix(), &[
        prefix_admit(10, 1, false, 1, 100.0),
        ev! { 20, PrefixHit { server: n(0), video: v(1), clusters: 1 } },
        prefix_admit(30, 2, false, 1, 200.0),
        ev! { 40, PrefixEvict { server: n(0), victim: v(1), freed_mb: 100.0 } },
        prefix_admit(40, 3, true, 1, 200.0),
    ]);
    a016_eviction_with_no_admission: "A016" => with(preamble_with_prefix(), &[
        prefix_admit(10, 1, false, 1, 100.0),
        ev! { 20, PrefixEvict { server: n(0), victim: v(1), freed_mb: 100.0 } },
        ev! { 30, DmaHit { server: n(0), video: v(0) } },
    ]);
}

/// The fixture table trips every trace rule but A013 (a series rule,
/// see `series_fixtures.rs`), each fixture its own rule only.
#[test]
fn fixtures_cover_distinct_rules() {
    let mut fired = BTreeSet::new();
    for (rule, trace) in fixtures() {
        let summary = audit(&trace);
        assert_only_rule(&summary, rule);
        fired.extend(summary.violations.iter().map(|v| v.rule));
    }
    let expected: BTreeSet<String> = (0..=16)
        .filter(|&i| i != 13)
        .map(|i| format!("A{i:03}"))
        .collect();
    let fired: BTreeSet<String> = fired.into_iter().map(str::to_string).collect();
    assert_eq!(fired, expected);
}

/// A kind outside the taxonomy (a newer writer's) is counted, not a
/// finding: the invariants known here still replay.
#[test]
fn unknown_kinds_are_counted_not_reported() {
    let t = with(
        preamble(),
        &[r#"{"at_us":10,"kind":"phantom_probe","x":1}"#.to_string()],
    );
    let summary = audit(&t);
    assert!(summary.is_clean(), "{:?}", summary.violations);
    assert_eq!((summary.unknown_kinds, summary.events), (1, t.len()));
}

#[test]
fn clean_fixture_audits_green() {
    let cost = fixture_cost();
    let t = with(
        preamble(),
        &[
            select_line(10, 0, 0, cost),
            start_line(15),
            select_line(20, 0, 1, cost),
            ev! { 30, SessionComplete { session: 0, stalls: 0, stall_time: us(0), switches: 0 } },
        ],
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

/// A retry may re-route the first cluster before playout starts.
#[test]
fn a007_first_cluster_rerouted_before_the_start_audits_green() {
    let summary = audit(&with(rerouted_home(0), &[start_line(40)]));
    assert!(summary.is_clean(), "{:?}", summary.violations);
}

#[test]
fn a007_selection_skips_clusters_only_under_static_routing() {
    let cost = fixture_cost();
    let mut t = with(
        preamble(),
        &[select_line(10, 0, 0, cost), select_line(20, 0, 2, cost)],
    );
    assert_only_rule(&audit(&t), "A007");

    t[1] = t[1].replace(
        r#""dynamic_rerouting":true"#,
        r#""dynamic_rerouting":false"#,
    );
    let summary = audit(&t);
    assert!(summary.is_clean(), "{:?}", summary.violations);
}

/// The fixture preamble plus a prefix store at proxy node 0: 300 MB of
/// space, 100 MB clusters, admit on first request (threshold 0), base
/// length 1 cluster growing by one per 2 further requests, capped at 3.
fn preamble_with_prefix() -> Vec<String> {
    with(preamble(), &[prefix_config(1, 2)])
}

fn prefix_config(base_clusters: u64, growth_points: u64) -> String {
    ev! { 0, PrefixCacheConfig { server: n(0), capacity_mb: 300.0, cluster_mb: 100.0, admit_threshold: 0, base_clusters, max_clusters: 3, growth_points } }
}

/// A prefix admission at proxy 0, 100 MB per cluster.
fn prefix_admit(
    at_us: u64,
    video: u32,
    after_eviction: bool,
    clusters: u64,
    occupancy_mb: f64,
) -> String {
    ev! { at_us, PrefixAdmit { server: n(0), video: v(video), after_eviction, clusters, size_mb: 100.0 * clusters as f64, occupancy_mb } }
}

#[test]
fn clean_prefix_fixture_audits_green() {
    let t = with(
        preamble_with_prefix(),
        &[
            // First request admits the base prefix, the second hits and serves.
            prefix_admit(10, 1, false, 1, 100.0),
            ev! { 20, PrefixHit { server: n(0), video: v(1), clusters: 1 } },
            ev! { 20, PrefixServe { session: 0, server: n(0), video: v(1), clusters: 1 } },
            // The third request's hit crosses the growth step and extends.
            ev! { 30, PrefixHit { server: n(0), video: v(1), clusters: 1 } },
            ev! { 30, PrefixExtend { server: n(0), video: v(1), from_clusters: 1, to_clusters: 2, occupancy_mb: 200.0 } },
            // A newcomer's base prefix fits the remaining 100 MB.
            prefix_admit(40, 2, false, 1, 300.0),
        ],
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
    // base, so v1 fills the store on its first request. v1 resident
    // with 1 point; v2's first request ties on points (no strictly
    // colder resident), its second out-ranks and evicts v1.
    let t = with(
        preamble(),
        &[
            prefix_config(3, 0),
            prefix_admit(10, 1, false, 3, 300.0),
            ev! { 20, PrefixReject { server: n(0), video: v(2), reason: RejectKind::NotPopularEnough } },
            ev! { 30, PrefixEvict { server: n(0), victim: v(1), freed_mb: 300.0 } },
            prefix_admit(30, 2, true, 3, 300.0),
        ],
    );
    let summary = audit(&t);
    assert!(
        summary.is_clean(),
        "clean prefix eviction fixture should audit green, got {:?}",
        summary.violations
    );
}

/// A017 counts a removal of a title's last advertised copy at a live
/// server, and reports nothing: Figure 2 deletes last copies by design.
/// A removal that leaves another holder, or that an outage caused, is
/// not counted.
#[test]
fn a017_last_copy_removal_is_counted_not_reported() {
    let t = with(
        preamble(),
        &[
            ev! { 10, CatalogAdd { server: n(0), video: v(1) } },
            // S0 still holds video 1.
            ev! { 20, CatalogRemove { server: n(1), video: v(1) } },
            // Video 0's only holder evicts it: counted.
            ev! { 30, CatalogRemove { server: n(0), video: v(0) } },
            // The outage takes video 1's last copy: not counted.
            ev! { 40, ServerDown { server: n(0) } },
            ev! { 40, CatalogRemove { server: n(0), video: v(1) } },
            ev! { 50, ServerUp { server: n(0) } },
            ev! { 60, CatalogAdd { server: n(0), video: v(1) } },
            // Back up, the server is no longer spared: counted.
            ev! { 70, CatalogRemove { server: n(0), video: v(1) } },
        ],
    );
    let summary = audit(&t);
    assert!(summary.is_clean(), "{:?}", summary.violations);
    assert_eq!(summary.last_copy_removals, 2);
}

#[test]
fn clean_fault_fixture_audits_green() {
    let t = with(
        preamble_with_retry(2),
        &[
            ev! { 10, LinkDown { link: LinkId::new(0) } },
            link_state(20, 0.0, &[0]),
            retry_line(30, 1),
            retry_line(40, 2),
            ev! { 50, LinkUp { link: LinkId::new(0) } },
            link_state(60, 0.0, &[]),
            ev! { 70, SessionAborted { session: 0, reason: AbortReason::RetryExhausted } },
        ],
    );
    let summary = audit(&t);
    assert!(
        summary.is_clean(),
        "clean fault fixture should audit green, got {:?}",
        summary.violations
    );
}

/// Runs one full service simulation under `config` and returns its
/// JSONL trace.
fn service_trace_with(scenario: &Scenario, config: ServiceConfig) -> String {
    let sink = JsonlWriter::new(Vec::new());
    let service = VodService::with_sink(scenario, Box::new(Vra::default()), config, sink);
    let (_, sink) = service.run_full();
    String::from_utf8(sink.into_inner().expect("a Vec takes every write"))
        .expect("JSONL traces are UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the seed and scenario family, a run of the real
    /// service, audited in-process, replays with zero violations.
    #[test]
    fn service_traces_audit_green(seed in 0u64..10_000, family in 0u8..3) {
        let scenario = match family {
            0 => Scenario::grnet_case_study(seed),
            1 => Scenario::flash_crowd(seed),
            _ => Scenario::random_network(seed),
        };
        let service = VodService::with_sink(
            &scenario,
            Box::new(Vra::default()),
            ServiceConfig::default(),
            AuditSink::new(),
        );
        let summary = service.run_full().1.finish();
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
