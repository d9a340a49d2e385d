//! Integration tests for the event-driven flow kernel and the session
//! lifecycle above it: the pinned seed-42 GRNET golden trace (recorded
//! with the lockstep kernel that now lives on as vod-sim's test oracle),
//! a pinned prefix × fault × retry trace, a pinned static-routing
//! trace with a server and a link outage, pinned contended traces on
//! GRNET and on a 200-node random graph, a pinned trace of arrivals
//! sharing their instant with ticks and a fault, a scale-stress smoke
//! run and a server outage at scale.

use std::collections::BTreeSet;

use vod_core::service::{PrefixTierConfig, RetryPolicy, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_core::ServiceReport;
use vod_integration_tests::{fnv1a, grnet};
use vod_net::topologies::random::connected_gnp;
use vod_net::Mbps;
use vod_obs::JsonlWriter;
use vod_sim::fault::FaultPlan;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_snmp::ServerAgent;
use vod_workload::arrivals::HourlyShape;
use vod_workload::scenario::Scenario;
use vod_workload::{LibraryConfig, LibraryGenerator, Request, RequestTrace, TraceConfig};

/// Runs `scenario` with a JSONL sink and returns the report and the
/// trace text.
fn traced_run(scenario: &Scenario, config: ServiceConfig) -> (ServiceReport, String) {
    let service = VodService::with_sink(
        scenario,
        Box::new(Vra::default()),
        config,
        JsonlWriter::new(Vec::new()),
    );
    let (report, sink) = service.run_full();
    (
        report,
        String::from_utf8(sink.into_inner().unwrap()).unwrap(),
    )
}

/// The seed-42 GRNET case-study trace is pinned byte-for-byte: any
/// kernel change that shifts a completion instant, reorders an event or
/// perturbs a float by one ulp moves the hash. Regenerate the expected
/// values with `cargo run --release -p vod-check --example dump_grnet`
/// if a deliberate trace-format change lands.
#[test]
fn golden_seed42_grnet_trace_is_pinned_and_audits_clean() {
    let scenario = Scenario::grnet_case_study(42);
    let (_, text) = traced_run(&scenario, ServiceConfig::default());

    assert_eq!(text.len(), 266_128, "trace byte length drifted");
    assert_eq!(text.lines().count(), 3_031, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x8f11_1f6a_ec5a_7b46,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// Prefix tier × fault plan × retry budget in one run — the session
/// paths the seed-42 GRNET trace above never enters (split start, full
/// prefix, re-route, retry, `home_down` and `retry_exhausted` aborts),
/// pinned the same way.
/// The flash crowd is the smallest stock scenario where split-start and
/// full-prefix sessions both occur, and ten windows is where the seed-42
/// plan first holds a link outage and two server outages.
#[test]
fn golden_seed42_prefix_fault_trace_is_pinned_and_audits_clean() {
    let scenario = Scenario::flash_crowd(42);
    let requests = scenario.trace().requests();
    let (start, end) = (requests[0].at, requests[requests.len() - 1].at);
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig::default()),
        fault_plan: FaultPlan::random(42, scenario.topology(), start, end, 10),
        retry: RetryPolicy::with_attempts(2),
        ..ServiceConfig::default()
    };
    let (_, text) = traced_run(&scenario, config);

    // The pin must not go vacuous: every rewritten path leaves its event.
    let count = |kind: &str| text.matches(&format!("\"kind\":\"{kind}\"")).count();
    for kind in [
        "prefix_serve",
        "session_retry",
        "session_aborted",
        "switch",
        "link_down",
        "server_down",
    ] {
        assert!(count(kind) > 0, "no {kind} event in the trace");
    }
    // A split start selects an origin for its suffix; a full-prefix
    // session never does. Both shapes must be in the pinned run.
    let sessions_with = |kind: &str| -> BTreeSet<&str> {
        let tag = format!("\"kind\":\"{kind}\",\"session\":");
        text.lines()
            .filter_map(|l| l.split_once(tag.as_str()))
            .filter_map(|(_, rest)| rest.split(',').next())
            .collect()
    };
    let served = sessions_with("prefix_serve");
    let selected = sessions_with("vra_select");
    assert!(
        served.intersection(&selected).next().is_some(),
        "no split start"
    );
    assert!(
        served.difference(&selected).next().is_some(),
        "no full prefix"
    );

    assert_eq!(text.len(), 166_044, "trace byte length drifted");
    assert_eq!(text.lines().count(), 1_932, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0xb20f_15d2_8a7d_7978,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// Static routing (`dynamic_rerouting: false`) pinned the same way: a
/// session re-uses the route of its last launch until a fault severs
/// it, then selects afresh. A server outage and a link outage inside
/// the arrival window sever transfers; a retry budget of two lets the
/// stranded sessions wait the outages out.
#[test]
fn golden_seed42_static_routing_trace_is_pinned_and_audits_clean() {
    let scenario = Scenario::grnet_case_study(42);
    let topology = scenario.topology();
    let server = topology.video_server_nodes()[0];
    let link = topology.link_ids().nth(4).expect("GRNET has seven links");
    let at = |hours: u64, mins: u64| SimTime::from_secs(hours * 3600 + mins * 60);
    let config = ServiceConfig {
        dynamic_rerouting: false,
        fault_plan: FaultPlan::new()
            .server_outage(at(12, 0), at(13, 30), server)
            .link_outage(at(14, 0), at(15, 0), link),
        retry: RetryPolicy::with_attempts(2),
        ..ServiceConfig::default()
    };
    let (_, text) = traced_run(&scenario, config);

    let count = |kind: &str| text.matches(&format!("\"kind\":\"{kind}\"")).count();
    assert!(count("server_down") >= 1, "no server outage");
    assert!(count("session_retry") >= 1, "no retry");
    assert_eq!(count("switch"), 0, "a static route switched servers");
    // A severed route is selected afresh: more selections than arrivals.
    assert!(
        count("vra_select") > count("request_arrival"),
        "no re-selection after a severed route"
    );

    assert_eq!(text.len(), 250_317, "trace byte length drifted");
    assert_eq!(text.lines().count(), 3_694, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x8912_a8b0_bdff_927b,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// The contended backbone regime, pinned the same way: one replica per
/// title, so most sessions fetch over GRNET's 2 and 18 Mbps links and
/// hundreds of flows share two dozen routes far past saturation. The
/// seed-42 GRNET pin above has 44 arrivals and barely shares a link;
/// this is the trace in which a max-min rate, a link-load sum or a
/// completion instant that moves by one ulp shows.
#[test]
fn golden_seed42_contended_trace_is_pinned_and_audits_clean() {
    let scenario = Scenario::scale_stress(42, 400);
    let config = ServiceConfig {
        initial_replicas: 1,
        local_rate: Mbps::new(2.0),
        ..ServiceConfig::default()
    };
    let (report, text) = traced_run(&scenario, config);
    assert_eq!(report.completed.len(), scenario.trace().len());

    // The pin must not go vacuous: the regime is contended.
    let count = |kind: &str| text.matches(&format!("\"kind\":\"{kind}\"")).count();
    assert!(count("switch") > 0, "no switch");
    assert!(count("session_stall") > 0, "no stall");
    // A session fetches its clusters back to back, so from a remote
    // `vra_select` until the session's next one its transfer is a live
    // network flow (the last cluster has no next select: not counted).
    let field = |line: &str, key: &str| -> u64 {
        let (_, rest) = line.split_once(key).expect("field present");
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        digits.expect("digits").parse().expect("integer field")
    };
    let selects: Vec<(u64, u64, bool)> = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"vra_select\""))
        .map(|l| {
            let remote = l.contains("\"local\":false");
            (field(l, "\"session\":"), field(l, "\"cluster\":"), remote)
        })
        .collect();
    let last_cluster = selects.iter().map(|s| s.1).max().expect("selections");
    let remote_selects = selects.iter().filter(|s| s.2).count();
    assert!(remote_selects > 300, "{remote_selects} remote selections");
    let mut on_backbone = BTreeSet::new();
    let mut peak = 0;
    for (session, cluster, remote) in selects {
        if remote && cluster < last_cluster {
            on_backbone.insert(session);
        } else {
            on_backbone.remove(&session);
        }
        peak = peak.max(on_backbone.len());
    }
    assert!(peak > 100, "peak of {peak} concurrent network flows");

    assert_eq!(text.len(), 404_950, "trace byte length drifted");
    assert_eq!(text.lines().count(), 4_537, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0xc58e_5ebc_7148_4fda,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// The many-distinct-routes regime, pinned the same way: a 200-node
/// random graph with one replica per title, so nearly every session
/// pulls its clusters over its own multi-hop route and a fill runs
/// dozens of rounds over a hundred-odd route classes. The three pins
/// above are all GRNET (7 links, at most two dozen classes); this is
/// the trace in which the order links saturate in, or a class's rate
/// after many rounds, shows.
#[test]
fn golden_seed42_gnp200_trace_is_pinned_and_audits_clean() {
    let topology = connected_gnp(200, 0.05, 42);
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 200,
        min_size_mb: 150.0,
        max_size_mb: 400.0,
        ..LibraryConfig::default()
    })
    .generate(42);
    let trace = TraceConfig {
        start: SimTime::ZERO,
        duration: SimDuration::from_secs(400),
        rate_per_sec: 400.0 / 400.0,
        shape: HourlyShape::flat(),
        zipf_skew: 0.8,
        client_weights: None,
    }
    .generate(&topology, &library, 42);
    let background = BackgroundModel::uniform(topology.link_count(), Mbps::ZERO);
    let scenario = Scenario::new("gnp200-pin", topology, library, trace, background, 42);
    let config = ServiceConfig {
        initial_replicas: 1,
        ..ServiceConfig::default()
    };
    let (report, text) = traced_run(&scenario, config);
    assert_eq!(report.completed.len(), scenario.trace().len());

    // The pin must not go vacuous: fills are deep and wide.
    let kernel = report.kernel;
    let per_fill = |total: u64| total as f64 / kernel.reallocations as f64;
    assert!(
        per_fill(kernel.classes_filled) > 100.0,
        "{} route classes per fill",
        per_fill(kernel.classes_filled)
    );
    assert!(
        per_fill(kernel.fill_rounds) > 20.0,
        "{} rounds per fill",
        per_fill(kernel.fill_rounds)
    );

    assert_eq!(text.len(), 1_970_800, "trace byte length drifted");
    assert_eq!(text.lines().count(), 4_894, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x2dd0_2156_28f1_c6a2,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// The scheduler's depth follows the live sessions, not the trace:
/// `grnet_diurnal` in small — 30 days of GRNET at 0.0008 requests/s
/// with the evening-peak shape and Table 2 background.
fn grnet_30d() -> Scenario {
    let grnet = grnet();
    let topology = grnet.topology().clone();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 100,
        ..LibraryConfig::default()
    })
    .generate(42);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(30 * 24 * 3600),
        rate_per_sec: 0.0008,
        shape: HourlyShape::evening_peak(),
        zipf_skew: 0.8,
        client_weights: None,
    }
    .generate(&topology, &library, 42);
    let background = BackgroundModel::grnet_table2(&grnet);
    Scenario::new("grnet-30d", topology, library, trace, background, 42)
}

/// Arrivals come off the trace through the engine's input lane and the
/// recurring ticks and the flow check sit in the scheduler's timer
/// slots, so the queue only ever holds what the live sessions
/// scheduled. A scheduler seeded with the trace would start at
/// `arrivals`.
#[test]
fn scheduler_depth_follows_live_sessions_not_the_trace() {
    let scenario = grnet_30d();
    let arrivals = scenario.trace().len() as u64;
    assert!((1_500..3_000).contains(&arrivals), "{arrivals} arrivals");
    let service = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
    );
    let stats = service.run().scheduler;
    assert_eq!(stats.inputs, arrivals);
    assert_eq!(stats.pushes, stats.pops, "run() drains the queue");
    assert!(stats.pushes > arrivals, "{stats:?}");
    assert!(stats.peak_depth < arrivals / 4, "{stats:?}");
}

/// The periodic path's work on the same 30 days, counted rather than
/// timed: what a poll writes, how many refreshes find the backbone
/// idle, and what the others cost the kernel.
#[test]
fn tick_work_is_counted_and_mostly_over_an_idle_backbone() {
    let scenario = grnet_30d();
    let agents_links: u64 = ServerAgent::all_servers(scenario.topology())
        .iter()
        .map(|agent| agent.links().len() as u64)
        .sum();
    assert_eq!(agents_links, 14);
    let config = ServiceConfig::default();
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    let (ticks, kernel) = (report.ticks, report.kernel);

    // A poll every two minutes and a refresh every minute, from the
    // first arrival until the last session of the 30 days has drained.
    assert!((21_000..22_000).contains(&ticks.polls), "{ticks:?}");
    assert!(ticks.refreshes.abs_diff(2 * ticks.polls) <= 1, "{ticks:?}");
    assert_eq!(
        ticks.polls, report.snmp_polls,
        "no poller outage was planned"
    );
    assert_eq!(ticks.readings, ticks.polls * agents_links);

    // More than half the refreshes have no network flow to re-rate; each
    // of the others moves every link's residual capacity under live
    // flows, which costs a fill of at least one round over at least one
    // class. Other events (arrivals, completions) fill too.
    assert!(2 * ticks.idle_refreshes > ticks.refreshes, "{ticks:?}");
    let busy_refreshes = ticks.refreshes - ticks.idle_refreshes;
    assert!(busy_refreshes > 0, "{ticks:?}");
    assert!(kernel.fill_rounds >= busy_refreshes, "{ticks:?} {kernel:?}");
    assert!(
        kernel.classes_filled >= busy_refreshes,
        "{ticks:?} {kernel:?}"
    );
    assert!(
        kernel.reallocations >= ticks.refreshes,
        "{ticks:?} {kernel:?}"
    );
    assert_eq!(
        kernel.settles,
        kernel.reallocations + kernel.fills_unchanged
    );
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

/// A city fails with thousands of sessions homed on it: every one of
/// them aborts (`home_down`), nothing re-routes because every serve in
/// this scenario is local, and every arrival still ends in exactly one
/// outcome. The outage outlasts the arrival window, so the city never
/// rejoins cold and pulls titles across the backbone.
#[test]
fn server_outage_at_scale_closes_every_session() {
    let scenario = Scenario::scale_stress(7, 30_000);
    let arrivals = scenario.trace().len();
    let victim = scenario.topology().video_server_nodes()[0];
    let config = ServiceConfig {
        initial_replicas: 6,
        local_rate: Mbps::new(2.0),
        fault_plan: FaultPlan::new().server_outage(
            SimTime::from_secs(300),
            SimTime::from_secs(700),
            victim,
        ),
        ..ServiceConfig::default()
    };
    let (report, text) = traced_run(&scenario, config);

    assert_eq!(report.unfinished_sessions, 0);
    assert_eq!(
        report.completed.len()
            + (report.failed_requests + report.rejected_requests + report.aborted_sessions)
                as usize,
        arrivals
    );
    assert!(report.aborted_sessions > 0);
    let aborts = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"session_aborted\""));
    for line in aborts {
        assert!(line.contains("\"reason\":\"home_down\""), "{line}");
    }

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}

/// Requests that share an instant with a tick or a fault: the seeded
/// traces above draw Poisson arrivals, which essentially never land on
/// the microsecond of a poll, so none of them sees the order the engine
/// gives simultaneous events of different kinds. Here two requests
/// arrive at exactly `t0 + 2 min` — the first `SnmpPoll` and the second
/// `BackgroundUpdate` of a default config — and one at the exact start
/// of a degradation window. An arrival goes before anything scheduled
/// for its instant; the whole trace is pinned like the others.
#[test]
fn same_instant_arrivals_precede_ticks_and_faults() {
    let grnet = grnet();
    let topology = grnet.topology().clone();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 12,
        ..LibraryConfig::default()
    })
    .generate(42);
    let servers = topology.video_server_nodes();
    let videos: Vec<_> = library.ids().collect();
    let t0 = SimTime::from_secs(8 * 3600);
    let tick = t0 + SimDuration::from_mins(2);
    let fault = t0 + SimDuration::from_secs(150);
    let request = |at, i: usize| Request {
        at,
        client: servers[i % servers.len()],
        video: videos[(5 * i + 3) % videos.len()],
    };
    // Out of time order on purpose: `RequestTrace::new` sorts (stably).
    let trace = RequestTrace::new(vec![
        request(fault, 3),
        request(tick, 1),
        request(t0, 0),
        request(tick, 2),
    ]);
    let link = topology.link_ids().next().expect("GRNET has links");
    let config = ServiceConfig {
        fault_plan: FaultPlan::new().link_degrade(
            fault,
            t0 + SimDuration::from_mins(10),
            link,
            0.5,
        ),
        ..ServiceConfig::default()
    };
    assert_eq!(config.snmp_interval, SimDuration::from_mins(2));
    assert_eq!(config.background_interval, SimDuration::from_mins(1));
    let background = BackgroundModel::grnet_table2(&grnet);
    let scenario = Scenario::new("same-instant", topology, library, trace, background, 42);
    let (report, text) = traced_run(&scenario, config);
    assert_eq!(report.completed.len(), 4);

    // In plain terms: at each shared instant, every arrival (ascending
    // `request`) comes before the tick and fault lines.
    let lines_at = |at: SimTime| -> Vec<&str> {
        let prefix = format!("{{\"at_us\":{},", at.as_micros());
        text.lines().filter(|l| l.starts_with(&prefix)).collect()
    };
    let position = |lines: &[&str], needle: &str| {
        let found = lines.iter().position(|l| l.contains(needle));
        found.unwrap_or_else(|| panic!("no {needle} line at the shared instant"))
    };
    let at_tick = lines_at(tick);
    let first = position(&at_tick, "\"kind\":\"request_arrival\",\"request\":1,");
    let second = position(&at_tick, "\"kind\":\"request_arrival\",\"request\":2,");
    assert!(first < second, "arrivals out of request order");
    for kind in ["snmp_poll", "background_update"] {
        let tick_line = position(&at_tick, &format!("\"kind\":\"{kind}\""));
        assert!(second < tick_line, "{kind} ran before an arrival");
    }
    let at_fault = lines_at(fault);
    let arrival = position(&at_fault, "\"kind\":\"request_arrival\",\"request\":3,");
    let degrade = position(&at_fault, "\"kind\":\"link_degrade_start\"");
    assert!(arrival < degrade, "the fault ran before the arrival");

    assert_eq!(text.len(), 19_740, "trace byte length drifted");
    assert_eq!(text.lines().count(), 221, "trace line count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x1cc1_0606_fafe_bede,
        "trace content drifted"
    );

    let summary = vod_check::audit::audit_trace(&text);
    assert!(summary.is_clean(), "audit violations: {summary:?}");
}
