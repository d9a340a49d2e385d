//! Unit tests of the service simulation.

use vod_net::{Mbps, Topology};
use vod_sim::fault::FaultPlan;
use vod_sim::{SimDuration, SimTime};
use vod_storage::cluster::ClusterSize;
use vod_storage::video::{Megabytes, VideoId, VideoMeta};
use vod_workload::scenario::Scenario;

use super::{PrefixTierConfig, RetryPolicy, ServiceConfig, VodService};
use crate::error::CoreError;
use crate::selection::{FirstCandidate, HopCountNearest, RandomReplica, ServerSelector};
use crate::vra::Vra;

fn quick_scenario(seed: u64) -> Scenario {
    let grnet = vod_net::topologies::grnet::Grnet::new();
    quick_scenario_over(
        grnet.topology().clone(),
        vod_sim::traffic::BackgroundModel::grnet_table2(&grnet),
        seed,
    )
}

fn quick_scenario_over(
    topology: Topology,
    background: vod_sim::traffic::BackgroundModel,
    seed: u64,
) -> Scenario {
    use vod_workload::arrivals::HourlyShape;
    use vod_workload::library::{LibraryConfig, LibraryGenerator};
    use vod_workload::trace::TraceConfig;
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 12,
        min_size_mb: 50.0,
        max_size_mb: 120.0,
        bitrate_mbps: 1.5,
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(1800),
        rate_per_sec: 0.01,
        shape: HourlyShape::flat(),
        zipf_skew: 0.9,
        client_weights: None,
    }
    .generate(&topology, &library, seed);
    Scenario::new("quick", topology, library, trace, background, seed)
}

fn quick_config() -> ServiceConfig {
    ServiceConfig {
        cluster: ClusterSize::new(Megabytes::new(25.0)),
        ..ServiceConfig::default()
    }
}

#[test]
fn vra_run_completes_all_sessions() {
    let scenario = quick_scenario(1);
    let n = scenario.trace().len();
    assert!(n > 0);
    let report = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
    assert_eq!(report.selector, "vra");
    assert_eq!(report.completed.len() + report.unfinished_sessions, n);
    assert_eq!(report.failed_requests, 0);
    assert!(report.completed.len() >= n * 9 / 10, "most sessions finish");
    for r in &report.completed {
        assert!(r.startup_delay.as_secs_f64() >= 0.0);
        assert!(r.clusters > 0);
    }
    // The DMA saw every request.
    assert_eq!(report.dma.requests, n as u64);
}

#[test]
fn runs_are_deterministic() {
    let a = VodService::new(&quick_scenario(7), Box::new(Vra::default()), quick_config()).run();
    let b = VodService::new(&quick_scenario(7), Box::new(Vra::default()), quick_config()).run();
    assert_eq!(a, b);
}

#[test]
fn baselines_also_run_to_completion() {
    let scenario = quick_scenario(3);
    let selectors: Vec<Box<dyn ServerSelector>> = vec![
        Box::new(HopCountNearest),
        Box::new(FirstCandidate),
        Box::new(RandomReplica::new(3)),
    ];
    for selector in selectors {
        let name = selector.name().to_string();
        let report = VodService::new(&scenario, selector, quick_config()).run();
        assert!(!report.completed.is_empty(), "{name} completed no sessions");
    }
}

#[test]
fn title_lookup_finds_dense_and_sparse_ids() {
    let meta = |id: u32| {
        let size = Megabytes::new(100.0 + f64::from(id));
        VideoMeta::new(VideoId::new(id), "t", size, 1.5)
    };
    let dense: Vec<VideoMeta> = (0..4).map(meta).collect();
    let sparse: Vec<VideoMeta> = [1, 3, 8, 20].into_iter().map(meta).collect();
    for titles in [&dense, &sparse] {
        for expected in titles {
            let found = super::model::title(titles, expected.id());
            assert_eq!((found.id(), found.size()), (expected.id(), expected.size()));
        }
    }
    // An arrival for a title outside the library finds nothing.
    for (titles, missing) in [(&dense, 4), (&sparse, 2), (&sparse, 21)] {
        assert!(super::model::find_title(titles, VideoId::new(missing)).is_none());
    }
}

#[test]
fn static_mode_never_switches() {
    let scenario = quick_scenario(5);
    let config = ServiceConfig {
        dynamic_rerouting: false,
        ..quick_config()
    };
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    for r in &report.completed {
        assert_eq!(r.switches, 0);
    }
}

#[test]
fn local_requests_have_zero_network_cost() {
    // Seed every title everywhere: every request is a local hit.
    let scenario = quick_scenario(9);
    let config = ServiceConfig {
        initial_replicas: 6,
        disk_capacity: Megabytes::new(100_000.0),
        ..quick_config()
    };
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    assert!(!report.completed.is_empty());
    for r in &report.completed {
        assert_eq!(r.local_clusters, r.clusters, "all clusters local");
        assert_eq!(r.switches, 0);
    }
    // Startup = first 25 MB cluster at 100 Mbps = 2 s.
    let startup = report.startup_summary();
    assert!((startup.mean - 2.0).abs() < 0.2, "mean = {}", startup.mean);
}

#[test]
fn popular_titles_get_replicated_by_the_dma() {
    let scenario = quick_scenario(11);
    let report = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
    // With Zipf skew and per-request DMA admission, remote fetches
    // admit titles into home caches.
    assert!(report.dma.admissions > 0, "DMA never admitted anything");
    assert!(report.dma.hits > 0, "DMA never hit");
}

#[test]
fn admission_control_protects_the_floor() {
    use crate::admission::AdmissionPolicy;
    // A congested flash crowd: without admission everything is
    // admitted and stalls; with it, some requests are turned away and
    // the admitted remote sessions stall less.
    let scenario = Scenario::flash_crowd(21);
    let open = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
    )
    .run();
    let gated = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig {
            admission: Some(AdmissionPolicy::new(1.0)),
            ..ServiceConfig::default()
        },
    )
    .run();
    assert_eq!(open.rejected_requests, 0);
    assert!(
        gated.rejected_requests > 0,
        "congestion must trigger rejections"
    );
    assert!(
        gated.mean_stall_ratio() <= open.mean_stall_ratio(),
        "admission control should not worsen stalls: {} vs {}",
        gated.mean_stall_ratio(),
        open.mean_stall_ratio()
    );
    // Conservation including rejections.
    assert_eq!(
        gated.completed.len()
            + gated.unfinished_sessions
            + gated.failed_requests as usize
            + gated.aborted_sessions as usize
            + gated.rejected_requests as usize,
        scenario.trace().len()
    );
}

#[test]
fn smoothed_snapshots_run_and_differ_from_raw() {
    let scenario = quick_scenario(23);
    let raw = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
    let smoothed = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig {
            snmp_smoothing: Some(0.3),
            ..quick_config()
        },
    )
    .run();
    // Both complete the workload; smoothing is a view change, not a
    // correctness change.
    assert_eq!(
        raw.completed.len() + raw.unfinished_sessions,
        smoothed.completed.len() + smoothed.unfinished_sessions
    );
}

#[test]
fn server_failure_reroutes_and_service_recovers() {
    let scenario = quick_scenario(17);
    let n = scenario.trace().len();
    let start = scenario.trace().requests().first().unwrap().at;
    let victim = scenario.topology().video_server_nodes()[0];
    // With 2 replicas per title, every title survives one failure.
    let config = ServiceConfig {
        initial_replicas: 2,
        fault_plan: FaultPlan::new().server_outage(
            start + SimDuration::from_secs(300),
            start + SimDuration::from_secs(2_400),
            victim,
        ),
        ..quick_config()
    };
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    // Conservation still holds.
    assert_eq!(
        report.completed.len()
            + report.unfinished_sessions
            + report.failed_requests as usize
            + report.aborted_sessions as usize
            + report.rejected_requests as usize,
        n
    );
    // The service kept serving: most sessions completed despite the
    // outage (only clients homed at the victim are lost).
    assert!(
        report.completed.len() * 2 > n,
        "{} of {n} completed",
        report.completed.len()
    );
    // No completed session was served its last cluster by a ghost:
    // every record is internally consistent.
    for r in &report.completed {
        assert!(r.local_clusters <= r.clusters);
    }
}

#[test]
fn server_outage_withdraws_each_replica_it_held() {
    let scenario = quick_scenario(17);
    let start = scenario.trace().requests().first().unwrap().at;
    let victim = scenario.topology().video_server_nodes()[0];
    let down_at = start + SimDuration::from_secs(300);
    let config = ServiceConfig {
        initial_replicas: 2,
        fault_plan: FaultPlan::new().server_outage(
            down_at,
            down_at + SimDuration::from_secs(2_400),
            victim,
        ),
        ..quick_config()
    };
    let mut service = VodService::new(&scenario, Box::new(Vra::default()), config);
    let ids: Vec<VideoId> = scenario.library().ids().collect();
    let counts = |service: &VodService| -> Vec<usize> {
        let catalog = service.sim.model().db.full_access();
        ids.iter().map(|&v| catalog.replica_count(v)).collect()
    };
    service.run_until(SimTime::from_micros(down_at.as_micros() - 1));
    let before = counts(&service);
    let held = service
        .sim
        .model()
        .db
        .full_access()
        .titles_at(victim)
        .unwrap();
    assert!(!held.is_empty());
    service.run_until(down_at);
    let after = counts(&service);
    let catalog = service.sim.model().db.full_access();
    assert!(catalog.titles_at(victim).unwrap().is_empty());
    for (i, &video) in ids.iter().enumerate() {
        let lost = usize::from(held.contains(&video));
        assert_eq!(after[i], before[i] - lost, "{video:?}");
        assert_eq!(after[i], catalog.servers_with_title(video).len());
    }
}

#[test]
fn failure_of_sole_replica_aborts_cleanly() {
    let scenario = quick_scenario(19);
    let start = scenario.trace().requests().first().unwrap().at;
    let victim = scenario.topology().video_server_nodes()[0];
    // Single-copy seeding: titles on the victim vanish with it.
    let config = ServiceConfig {
        initial_replicas: 1,
        fault_plan: FaultPlan::new().server_outage(
            start + SimDuration::from_secs(60),
            start + SimDuration::from_secs(30_000),
            victim,
        ),
        ..quick_config()
    };
    let n = scenario.trace().len();
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    // Requests for vanished titles fail rather than hang.
    assert!(report.failed_requests > 0);
    assert_eq!(
        report.completed.len()
            + report.unfinished_sessions
            + report.failed_requests as usize
            + report.aborted_sessions as usize
            + report.rejected_requests as usize,
        n
    );
}

#[test]
fn overlapping_outage_windows_nest_instead_of_reviving_early() {
    use vod_obs::RingRecorder;
    let scenario = quick_scenario(19);
    let start = scenario.trace().requests().first().unwrap().at;
    let victim = scenario.topology().video_server_nodes()[0];
    // Two overlapping windows: the first `up` (at +600) must NOT
    // revive the server — the enclosing window runs to +900.
    let config = ServiceConfig {
        initial_replicas: 2,
        fault_plan: FaultPlan::new()
            .server_outage(
                start + SimDuration::from_secs(60),
                start + SimDuration::from_secs(600),
                victim,
            )
            .server_outage(
                start + SimDuration::from_secs(120),
                start + SimDuration::from_secs(900),
                victim,
            ),
        ..quick_config()
    };
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        config,
        RingRecorder::new(65_536),
    );
    let (_, recorder) = service.run_full();
    let mut downs = Vec::new();
    let mut ups = Vec::new();
    for (at, ev) in recorder.iter() {
        match ev.kind() {
            "server_down" => downs.push(at),
            "server_up" => ups.push(at),
            _ => {}
        }
    }
    assert_eq!(downs, vec![start + SimDuration::from_secs(60)]);
    assert_eq!(ups, vec![start + SimDuration::from_secs(900)]);
}

/// A denser workload for fault tests: enough concurrent sessions that
/// a mid-run outage always catches transfers in flight.
fn chaos_scenario(seed: u64) -> Scenario {
    use vod_sim::traffic::BackgroundModel;
    use vod_workload::arrivals::HourlyShape;
    use vod_workload::library::{LibraryConfig, LibraryGenerator};
    use vod_workload::trace::TraceConfig;
    let grnet = vod_net::topologies::grnet::Grnet::new();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 12,
        min_size_mb: 50.0,
        max_size_mb: 120.0,
        bitrate_mbps: 1.5,
    })
    .generate(seed);
    let trace = TraceConfig {
        start: SimTime::from_secs(8 * 3600),
        duration: SimDuration::from_secs(1800),
        rate_per_sec: 0.05,
        shape: HourlyShape::flat(),
        zipf_skew: 0.9,
        client_weights: None,
    }
    .generate(grnet.topology(), &library, seed);
    Scenario::new(
        "chaos",
        grnet.topology().clone(),
        library,
        trace,
        BackgroundModel::grnet_table2(&grnet),
        seed,
    )
}

#[test]
fn retry_budget_bounds_reattempts_and_heals_transients() {
    use vod_net::topologies::grnet::{Grnet, GrnetLink};
    use vod_sim::fault::FaultPlan;
    // Sever both of Heraklio's links mid-run: sessions streaming to
    // or from the island lose every route. Instant abort kills them;
    // a retry budget generous enough to outlast the outage saves
    // them, because the links come back (unlike a crashed server,
    // which rejoins with a cold cache).
    let grnet = Grnet::new();
    let scenario = chaos_scenario(19);
    let start = scenario.trace().requests().first().unwrap().at;
    let outage_start = start + SimDuration::from_secs(300);
    let outage_end = start + SimDuration::from_secs(1200);
    let plan = FaultPlan::new()
        .link_outage(
            outage_start,
            outage_end,
            grnet.link(GrnetLink::AthensHeraklio),
        )
        .link_outage(
            outage_start,
            outage_end,
            grnet.link(GrnetLink::XanthiHeraklio),
        );
    let base = ServiceConfig {
        initial_replicas: 1,
        fault_plan: plan,
        ..quick_config()
    };
    let instant = VodService::new(&scenario, Box::new(Vra::default()), base.clone()).run();
    assert!(
        instant.aborted_sessions > 0,
        "the severed island must abort sessions under instant abort"
    );
    let patient = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 5,
                backoff: SimDuration::from_secs(120),
                stall_budget: SimDuration::from_secs(1500),
            },
            ..base.clone()
        },
    )
    .run();
    assert!(
        patient.aborted_sessions < instant.aborted_sessions,
        "retry must save sessions: {} vs {}",
        patient.aborted_sessions,
        instant.aborted_sessions
    );
    // A budget too small to outlast the outage still aborts — the
    // retry loop is bounded, not infinite.
    let bounded = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff: SimDuration::from_secs(1),
                stall_budget: SimDuration::from_secs(10),
            },
            ..base
        },
    )
    .run();
    assert!(bounded.aborted_sessions > 0, "bounded retry still aborts");
    for report in [&instant, &patient, &bounded] {
        assert_eq!(
            report.completed.len()
                + report.unfinished_sessions
                + report.failed_requests as usize
                + report.aborted_sessions as usize
                + report.rejected_requests as usize,
            scenario.trace().len()
        );
    }
}

#[test]
fn link_outage_reroutes_or_retries() {
    use vod_obs::RingRecorder;
    use vod_sim::fault::FaultPlan;
    let scenario = quick_scenario(17);
    let start = scenario.trace().requests().first().unwrap().at;
    // Take a backbone link down for 10 minutes mid-run.
    let link = scenario.topology().link_ids().next().unwrap();
    let plan = FaultPlan::new().link_outage(
        start + SimDuration::from_secs(300),
        start + SimDuration::from_secs(900),
        link,
    );
    let config = ServiceConfig {
        initial_replicas: 2,
        fault_plan: plan,
        retry: RetryPolicy::with_attempts(4),
        ..quick_config()
    };
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        config,
        RingRecorder::new(65_536),
    );
    let (report, recorder) = service.run_full();
    let kinds: Vec<&str> = recorder.iter().map(|(_, e)| e.kind()).collect();
    assert!(kinds.contains(&"link_down"), "outage must be traced");
    assert!(kinds.contains(&"link_up"), "recovery must be traced");
    assert_eq!(
        report.completed.len()
            + report.unfinished_sessions
            + report.failed_requests as usize
            + report.aborted_sessions as usize
            + report.rejected_requests as usize,
        scenario.trace().len()
    );
}

#[test]
fn snmp_outage_freezes_the_view_and_flags_staleness() {
    use vod_obs::RingRecorder;
    use vod_sim::fault::FaultPlan;
    let scenario = quick_scenario(13);
    let start = scenario.trace().requests().first().unwrap().at;
    let plan = FaultPlan::new().snmp_outage(
        start + SimDuration::from_secs(300),
        start + SimDuration::from_mins(10),
    );
    let config = ServiceConfig {
        fault_plan: plan,
        ..quick_config()
    };
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        config,
        RingRecorder::new(65_536),
    );
    let (report, recorder) = service.run_full();
    let mut stale = 0u32;
    let mut max_staleness = SimDuration::ZERO;
    for (_, ev) in recorder.iter() {
        if let vod_obs::Event::SnmpStaleView { staleness } = ev {
            stale += 1;
            if *staleness > max_staleness {
                max_staleness = *staleness;
            }
        }
    }
    assert!(stale >= 2, "each skipped poll is flagged, got {stale}");
    // Staleness grows while the poller is dark (interval is 2 min).
    assert!(max_staleness >= SimDuration::from_mins(4));
    // The run itself is unharmed: the last-known-good view routes on.
    assert!(report.completed.len() + report.unfinished_sessions > 0);
    assert_eq!(report.failed_requests, 0);
}

#[test]
#[should_panic(expected = "only video servers can fail")]
fn failing_a_non_server_is_rejected() {
    // A transit node is in the topology (the plan validates) but
    // hosts no video server.
    let mut b = vod_net::TopologyBuilder::new();
    let a = b.add_node("a");
    let hub = b.add_node_with_kind("hub", vod_net::node::NodeKind::Transit);
    let c = b.add_node("c");
    b.add_link(a, hub, Mbps::new(18.0)).unwrap();
    b.add_link(hub, c, Mbps::new(18.0)).unwrap();
    let background = vod_sim::traffic::BackgroundModel::uniform(2, Mbps::ZERO);
    let scenario = quick_scenario_over(b.build(), background, 1);
    let config = ServiceConfig {
        fault_plan: FaultPlan::new().server_outage(SimTime::ZERO, SimTime::from_secs(1), hub),
        ..quick_config()
    };
    let _ = VodService::new(&scenario, Box::new(Vra::default()), config);
}

#[test]
fn prefix_tier_disabled_changes_nothing() {
    // The tier knob defaults to off; the report must say so and the
    // run must match a config that never mentions the tier.
    let scenario = quick_scenario(7);
    let plain = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
    assert!(plain.prefix.is_none());
    let explicit = VodService::new(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig {
            prefix_tier: None,
            ..quick_config()
        },
    )
    .run();
    assert_eq!(plain, explicit);
}

#[test]
fn prefix_tier_serves_hot_titles_and_offloads_the_origin() {
    let scenario = chaos_scenario(31);
    let n = scenario.trace().len();
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig::default()),
        ..quick_config()
    };
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    let prefix = report.prefix.expect("tier enabled");
    // Every serviceable request consulted its regional store.
    assert_eq!(prefix.stats.requests, n as u64);
    assert!(prefix.stats.admissions > 0, "hot prefixes must be stored");
    assert!(prefix.stats.hits > 0, "repeat requests must hit");
    assert!(prefix.served_clusters > 0, "hits must stream clusters");
    assert!(prefix.served_mbit > 0.0);
    // Proxy-streamed clusters show up as locally served ones.
    assert!(
        report.completed.iter().any(|r| r.local_clusters > 0),
        "prefix clusters count as local service"
    );
    assert_eq!(
        report.completed.len()
            + report.unfinished_sessions
            + report.failed_requests as usize
            + report.aborted_sessions as usize
            + report.rejected_requests as usize,
        n
    );
}

#[test]
fn prefix_runs_are_deterministic() {
    let config = || ServiceConfig {
        prefix_tier: Some(PrefixTierConfig::default()),
        ..quick_config()
    };
    let a = VodService::new(&chaos_scenario(33), Box::new(Vra::default()), config()).run();
    let b = VodService::new(&chaos_scenario(33), Box::new(Vra::default()), config()).run();
    assert_eq!(a, b);
}

#[test]
fn full_prefix_sessions_never_touch_the_backbone() {
    // A base grant larger than any title (5 clusters max at 25 MB
    // against 120 MB titles) makes the second request of each title
    // store it whole; later requests stream everything locally.
    let scenario = chaos_scenario(37);
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig {
            base_clusters: 8,
            max_clusters: 8,
            ..PrefixTierConfig::default()
        }),
        ..quick_config()
    };
    let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
    let prefix = report.prefix.expect("tier enabled");
    assert!(
        prefix.full_prefix_sessions > 0,
        "whole-title prefixes must produce origin-free sessions"
    );
    // An origin-free session fetches every cluster locally and
    // never switches servers.
    assert!(report
        .completed
        .iter()
        .any(|r| { r.local_clusters == r.clusters && r.switches == 0 }));
}

#[test]
fn session_records_stay_consistent_under_prefix_and_faults() {
    let scenario = chaos_scenario(41);
    let requests = scenario.trace().requests();
    let (start, end) = (requests[0].at, requests[requests.len() - 1].at);
    let config = ServiceConfig {
        // Fast prefix growth, so hot titles end up held whole.
        prefix_tier: Some(PrefixTierConfig {
            growth_points: 1,
            ..PrefixTierConfig::default()
        }),
        fault_plan: FaultPlan::random(41, scenario.topology(), start, end, 12),
        retry: RetryPolicy::with_attempts(2),
        ..quick_config()
    };
    let mut service = VodService::new(&scenario, Box::new(Vra::default()), config);
    let mut deadline = start;
    while deadline < end + SimDuration::from_mins(10) {
        deadline += SimDuration::from_secs(5);
        service.run_until(deadline);
        service.sim.model().assert_consistent();
    }
    service.run_to_end();
    let model = service.sim.model();
    model.assert_consistent();
    assert_eq!(service.live_sessions(), 0);
    assert_eq!(model.flows.flow_count(), 0);
    // The run visited the states the invariant is about.
    assert!(model.aborted_sessions > 0);
    assert!(model.prefix_served_clusters > 0);
    assert!(model.full_prefix_sessions > 0);
}

/// The contended regime of the pinned `scale_stress(42, 400)` trace:
/// one replica per title and a 2 Mbps local rate, so most sessions
/// fetch over the backbone.
fn contended_service(fault_plan: FaultPlan) -> VodService {
    let config = ServiceConfig {
        initial_replicas: 1,
        local_rate: Mbps::new(2.0),
        fault_plan,
        ..ServiceConfig::default()
    };
    let scenario = Scenario::scale_stress(42, 400);
    VodService::new(&scenario, Box::new(Vra::default()), config)
}

/// Runs a contended service up to a fault at `at` (built by `plan`),
/// then the fault's event alone, and returns the `(settles, fills)` that
/// one event cost the flow kernel.
fn kernel_work_of_fault_event(
    at: SimTime,
    plan: impl FnOnce(FaultPlan, SimTime) -> FaultPlan,
) -> (u64, u64) {
    let until = at + SimDuration::from_secs(600);
    let mut service = contended_service(plan(FaultPlan::new(), until));
    service.run_until(SimTime::from_micros(at.as_micros() - 1));
    assert_eq!(service.next_event_at(), Some(at));
    let (events, before) = (
        service.events_processed(),
        service.sim.model().flows.stats(),
    );
    service.run_until(at);
    assert_eq!(service.events_processed(), events + 1, "the fault alone");
    let after = service.sim.model().flows.stats();
    service.sim.model().assert_consistent();
    (
        after.settles - before.settles,
        after.reallocations - before.reallocations,
    )
}

/// An instant no periodic event shares, mid-way through the arrivals.
const FAULT_AT: SimTime = SimTime::from_micros(310_000_007);

#[test]
fn link_outage_severing_dozens_of_flows_costs_one_fill() {
    // The link most transfers cross when the fault strikes.
    let mut probe = contended_service(FaultPlan::new());
    probe.run_until(FAULT_AT);
    let flows = &probe.sim.model().flows;
    let crossing = |l| flows.flows_crossing(l).count();
    let busiest = flows.topology().link_ids().max_by_key(|&l| crossing(l));
    let busiest = busiest.expect("GRNET has links");
    assert!(crossing(busiest) >= 50, "{} severed", crossing(busiest));

    let work = kernel_work_of_fault_event(FAULT_AT, |plan, until| {
        plan.link_outage(FAULT_AT, until, busiest)
    });
    assert_eq!(work, (1, 1));
}

#[test]
fn city_outage_costs_one_fill() {
    // The city most transfers are sourced from when the fault strikes.
    let mut probe = contended_service(FaultPlan::new());
    probe.run_until(FAULT_AT);
    let model = probe.sim.model();
    // Live remote transfers: an origin flow from a server not its home.
    let sourced = |node| {
        let sessions = model.sessions.iter().map(|(_, rec)| rec);
        sessions
            .filter(|rec| rec.origin.is_some() && rec.session.home() != node)
            .filter(|rec| rec.session.current_server() == Some(node))
            .count()
    };
    let servers = model.topology.video_server_nodes();
    let victim = servers.iter().copied().max_by_key(|&n| sourced(n));
    let victim = victim.expect("GRNET has servers");
    assert!(sourced(victim) >= 20, "{} severed", sourced(victim));

    let work = kernel_work_of_fault_event(FAULT_AT, |plan, until| {
        plan.server_outage(FAULT_AT, until, victim)
    });
    assert_eq!(work, (1, 1));
}

/// Deferred settling bounds the fills of a run by its events, and on
/// the contended pin scenario cuts them by a third: a cluster boundary
/// (completion, then the next cluster's transfer) is one batch, and
/// needs no fill at all when the transfer keeps its route.
#[test]
fn contended_run_fills_at_most_once_per_event() {
    let mut service = contended_service(FaultPlan::new());
    service.run_to_end();
    let events = service.events_processed();
    let kernel = service.into_report().kernel;
    assert!(kernel.reallocations <= events);
    assert_eq!(
        kernel.settles,
        kernel.reallocations + kernel.fills_unchanged
    );
    assert!(kernel.fills_unchanged > 100, "{kernel:?}");
    // The eager kernel this one replaced ran 1 210 fills on this run;
    // arrivals and last-cluster completions, one fill each either way,
    // are most of the 800 left.
    assert!(kernel.reallocations * 100 <= 1_210 * 70, "{kernel:?}");
}

/// The routing engine's counters partition its requests: each is a
/// local hit, a cached tree or a Dijkstra run, and each non-local one
/// finds the weight table current or rebuilds it in full. A rebuild
/// needs a new view of the network, and with no fault plan only an SNMP
/// poll (or the first request) provides one.
#[test]
fn engine_counters_partition_requests_and_rebuilds_follow_polls() {
    let grnet_day = VodService::new(
        &Scenario::grnet_case_study(42),
        Box::new(Vra::default()),
        ServiceConfig::default(),
    );
    for service in [grnet_day, contended_service(FaultPlan::new())] {
        let report = service.run();
        let e = report.engine.expect("the VRA is engine-backed");
        assert!(e.full_rebuilds > 0 && e.path_cache_hits > 0, "{e:?}");
        assert_eq!(
            e.requests,
            e.local_hits + e.path_cache_hits + e.dijkstra_runs
        );
        assert_eq!(
            e.requests - e.local_hits,
            e.weight_cache_hits + e.full_rebuilds
        );
        assert!(e.full_rebuilds <= report.snmp_polls + 1, "{e:?}");
    }
}

#[test]
fn snmp_metrics_are_sampled() {
    let scenario = quick_scenario(13);
    let report = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
    assert!(report.max_link_utilization.count > 0);
    assert!(report.max_link_utilization.max <= 1.0 + 1e-9);
}

/// The message of the `InvalidConfig` a bad setup must be refused with.
fn invalid_config(scenario: &Scenario, config: ServiceConfig) -> String {
    match VodService::try_new(scenario, Box::new(Vra::default()), config) {
        Err(CoreError::InvalidConfig(message)) => message,
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("expected InvalidConfig, got a service"),
    }
}

#[test]
fn zero_snmp_interval_is_a_typed_error() {
    let config = ServiceConfig {
        snmp_interval: SimDuration::ZERO,
        ..quick_config()
    };
    let message = invalid_config(&quick_scenario(3), config);
    assert!(message.contains("snmp_interval"), "{message}");
}

/// Before the check, the refresh re-armed itself at the same instant
/// for ever and `run()` never returned.
#[test]
fn zero_background_interval_is_a_typed_error() {
    let config = ServiceConfig {
        background_interval: SimDuration::ZERO,
        ..quick_config()
    };
    let message = invalid_config(&quick_scenario(3), config);
    assert!(message.contains("background_interval"), "{message}");
}

/// A local serve is a timer of `volume / rate`. Before the check a zero
/// rate parked every local session until the run ended, as unfinished.
#[test]
fn a_local_rate_that_is_not_positive_and_finite_is_a_typed_error() {
    let config = ServiceConfig {
        local_rate: Mbps::ZERO,
        ..quick_config()
    };
    let message = invalid_config(&quick_scenario(3), config);
    assert!(message.contains("local_rate"), "{message}");
}

/// The proxy streams prefix clusters on the same kind of timer.
#[test]
fn a_proxy_rate_that_is_not_positive_and_finite_is_a_typed_error() {
    let config = ServiceConfig {
        prefix_tier: Some(PrefixTierConfig {
            proxy_rate: Mbps::ZERO,
            ..PrefixTierConfig::default()
        }),
        ..quick_config()
    };
    let message = invalid_config(&quick_scenario(3), config);
    assert!(message.contains("proxy_rate"), "{message}");
}

/// `Scenario::new` does not compare the topology with the background
/// model's size; the service does.
#[test]
fn background_of_another_topology_is_a_typed_error() {
    use vod_sim::traffic::BackgroundModel;
    let grnet = vod_net::topologies::grnet::Grnet::new();
    let scenario = quick_scenario_over(
        grnet.topology().clone(),
        BackgroundModel::uniform(5, Mbps::new(0.1)),
        3,
    );
    let message = invalid_config(&scenario, quick_config());
    assert!(
        message.contains("background covers 5 links") && message.contains("has 7"),
        "{message}"
    );
}

/// The three runs the bookkeeping-invariance property is checked on:
/// the GRNET case study under a fault plan with retries, the contended
/// `scale_stress(42, 400)` backbone, and a prefix-tier flash crowd
/// under faults — every completion path, the retry and abort paths and
/// the split prefix/suffix start between them.
fn invariance_case(which: u8) -> (Scenario, ServiceConfig) {
    let chaotic = |scenario: Scenario, span_secs: u64, config: ServiceConfig| {
        let start = scenario.trace().requests()[0].at;
        let end = start + SimDuration::from_secs(span_secs);
        let fault_plan = FaultPlan::random(42, scenario.topology(), start, end, 10);
        let config = ServiceConfig {
            fault_plan,
            retry: RetryPolicy::with_attempts(2),
            ..config
        };
        (scenario, config)
    };
    match which {
        0 => chaotic(
            Scenario::grnet_case_study(42),
            6 * 3600,
            ServiceConfig::default(),
        ),
        1 => (
            Scenario::scale_stress(42, 400),
            ServiceConfig {
                initial_replicas: 1,
                local_rate: Mbps::new(2.0),
                ..ServiceConfig::default()
            },
        ),
        _ => chaotic(
            Scenario::flash_crowd(42),
            3600,
            ServiceConfig {
                prefix_tier: Some(PrefixTierConfig::default()),
                ..ServiceConfig::default()
            },
        ),
    }
}

/// One run of `invariance_case(which)` into a JSONL trace, with an
/// extra `Event::FlowCheck` at each of `checks`: the report and the
/// trace bytes.
fn run_with_checks(which: u8, checks: &[SimTime]) -> (crate::qos::ServiceReport, Vec<u8>) {
    use vod_obs::JsonlWriter;
    let (scenario, config) = invariance_case(which);
    let sink = JsonlWriter::new(Vec::new());
    let mut service = VodService::with_sink(&scenario, Box::new(Vra::default()), config, sink);
    for &at in checks {
        let sched = service.sim.scheduler_mut();
        sched.schedule(at, super::model::Event::FlowCheck);
    }
    let (report, sink) = service.run_full();
    (report, sink.into_inner().unwrap())
}

/// The instants of a trace's events, in order (each line opens with
/// `{"at_us":N`).
fn trace_instants(jsonl: &[u8]) -> Vec<u64> {
    let text = std::str::from_utf8(jsonl).unwrap();
    let instants = text.lines().map(|line| {
        let digits = line.strip_prefix("{\"at_us\":").unwrap();
        let end = digits.find(',').unwrap();
        digits[..end].parse::<u64>().unwrap()
    });
    let mut instants: Vec<u64> = instants.collect();
    instants.dedup();
    instants
}

mod bookkeeping_invariance {
    use super::*;
    use proptest::prelude::*;

    /// Checks scheduled where nothing is due, on an instant something
    /// else happens, one microsecond either side of it, or on the
    /// instant a completion is due: none of them may move a byte of the
    /// trace or a field of the report but the scheduler's counters. A
    /// completion instant and a link integral are closed forms of the
    /// load history, so no event that changes no load can reach them.
    fn check(which: u8, picks: &[(bool, u64, u64)]) -> Result<(), TestCaseError> {
        let (plain, plain_trace) = run_with_checks(which, &[]);
        let instants = trace_instants(&plain_trace);
        let (first, last) = (instants[0], instants[instants.len() - 1]);
        let checks: Vec<SimTime> = picks
            .iter()
            .map(|&(near_event, pick, offset)| {
                let at = if near_event {
                    instants[pick as usize % instants.len()] + offset % 3
                } else {
                    first + pick % (last - first)
                };
                SimTime::from_micros(at.saturating_sub(1).max(first).min(last))
            })
            .collect();
        let (mut checked, checked_trace) = run_with_checks(which, &checks);
        prop_assert!(checked.scheduler.pushes > plain.scheduler.pushes);
        checked.scheduler = plain.scheduler;
        prop_assert_eq!(&checked, &plain, "case {}: the report moved", which);
        prop_assert!(
            checked_trace == plain_trace,
            "case {}: the trace moved",
            which
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn extra_flow_checks_move_no_byte(
            picks in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<u64>()), 1..400),
        ) {
            for which in 0..3 {
                check(which, &picks)?;
            }
        }
    }
}
