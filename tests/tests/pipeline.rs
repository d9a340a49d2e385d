//! Integration test: the SNMP → database → VRA information pipeline,
//! checking that the routing algorithm really operates on the database's
//! (stale) view, as the paper prescribes.

use vod_core::selection::{SelectionContext, ServerSelector};
use vod_core::vra::Vra;
use vod_db::Database;
use vod_integration_tests::grnet;
use vod_net::topologies::grnet::{GrnetLink, GrnetNode, TimeOfDay};
use vod_net::Mbps;
use vod_sim::flow::FlowNetwork;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_snmp::SnmpSystem;
use vod_storage::video::VideoLibrary;

#[test]
fn vra_sees_the_database_not_the_network() {
    let g = grnet();
    let mut db = Database::from_topology(g.topology(), VideoLibrary::new());
    let mut net = FlowNetwork::new(g.topology().clone());
    let mut snmp = SnmpSystem::new(g.topology(), SimDuration::from_mins(2));

    // Load the Patra-Athens link heavily and poll at t = 2 min.
    let pa = g.link(GrnetLink::PatraAthens);
    net.set_background(pa, Mbps::new(1.8));
    let _ = net.advance(SimDuration::from_mins(2));
    snmp.sync_counters(&net);
    snmp.poll(g.topology(), &mut db, SimTime::from_secs(120))
        .unwrap();

    // The network then changes, but no poll happens.
    net.set_background(pa, Mbps::ZERO);

    let snapshot = db.limited_access().snapshot(g.topology());
    // The database still reports the congested reading…
    assert!((snapshot.used(pa).as_f64() - 1.8).abs() < 1e-9);
    // …so the VRA avoids Patra-Athens even though the real link is idle.
    let candidates = [g.node(GrnetNode::Athens)];
    let ctx = SelectionContext {
        topology: g.topology(),
        snapshot: &snapshot,
        home: g.node(GrnetNode::Patra),
        candidates: &candidates,
    };
    let selection = Vra::default().select(&ctx).unwrap();
    assert!(
        !selection.route.contains_link(pa),
        "stale DB view must steer routing away from Patra-Athens, got {}",
        selection.route.display_with(g.topology())
    );

    // After the next poll the fresh state is visible and the direct link
    // wins again.
    let _ = net.advance(SimDuration::from_mins(2));
    snmp.sync_counters(&net);
    snmp.poll(g.topology(), &mut db, SimTime::from_secs(240))
        .unwrap();
    let snapshot = db.limited_access().snapshot(g.topology());
    let ctx = SelectionContext {
        topology: g.topology(),
        snapshot: &snapshot,
        home: g.node(GrnetNode::Patra),
        candidates: &candidates,
    };
    let selection = Vra::default().select(&ctx).unwrap();
    assert!(selection.route.contains_link(pa));
    assert_eq!(selection.route.hops(), 1);
}

#[test]
fn background_model_through_snmp_matches_table2() {
    // Drive the Table 2 diurnal model through the network + polling and
    // compare the database readings against the recorded values.
    let g = grnet();
    let model = BackgroundModel::grnet_table2(&g);
    let mut db = Database::from_topology(g.topology(), VideoLibrary::new());
    let mut net = FlowNetwork::new(g.topology().clone());
    let mut snmp = SnmpSystem::new(g.topology(), SimDuration::from_mins(2));

    let at = SimTime::from_secs(16 * 3600); // 4pm
    snmp.reset_epoch(at);
    model.apply(&mut net, at);
    let _ = net.advance(SimDuration::from_mins(2));
    snmp.sync_counters(&net);
    snmp.poll(g.topology(), &mut db, at + SimDuration::from_mins(2))
        .unwrap();

    let la = db.limited_access();
    for link in GrnetLink::ALL {
        let reading = la.link(g.link(link)).unwrap().last_reading().unwrap();
        let expected = g.table2(link, TimeOfDay::T1600).traffic;
        // The model interpolates across the 2-minute window; the drift at
        // the table's own sample point is tiny.
        assert!(
            (reading.used.as_f64() - expected.as_f64()).abs() < 0.05,
            "{}: read {} vs table {}",
            link.label(),
            reading.used,
            expected
        );
    }
}

#[test]
fn catalog_updates_flow_from_storage_to_routing() {
    use vod_storage::cluster::ClusterSize;
    use vod_storage::dma::{DmaCache, DmaConfig};
    use vod_storage::video::{Megabytes, VideoId, VideoMeta};

    let g = grnet();
    let mut library = VideoLibrary::new();
    let video = VideoMeta::new(VideoId::new(0), "hot", Megabytes::new(200.0), 1.5);
    library.insert(video.clone());
    let mut db = Database::from_topology(g.topology(), library);

    // Initially only Athens lists the title.
    let athens = g.node(GrnetNode::Athens);
    let patra = g.node(GrnetNode::Patra);
    db.limited_access().add_title(athens, video.id()).unwrap();

    // Patra's DMA caches the title after a request; the service mirrors
    // the admission into the database (as vod-core does on completion).
    let mut cache = DmaCache::new(DmaConfig {
        disk_count: 2,
        disk_capacity: Megabytes::new(500.0),
        cluster_size: ClusterSize::new(Megabytes::new(100.0)),
        ..DmaConfig::default()
    })
    .unwrap();
    assert!(cache.on_request(&video).is_resident_after());
    db.limited_access().add_title(patra, video.id()).unwrap();

    // A Patra client is now served locally.
    let candidates = db.full_access().servers_with_title(video.id());
    assert_eq!(candidates, vec![athens, patra]);
    let snapshot = db.limited_access().snapshot(g.topology());
    let ctx = SelectionContext {
        topology: g.topology(),
        snapshot: &snapshot,
        home: patra,
        candidates: &candidates,
    };
    let selection = Vra::default().select(&ctx).unwrap();
    assert!(selection.is_local());
}

/// Candidates come from the database, the VRA picks the route, the
/// paper's minimum-QoS floor gates it. At 10 am a Patra client's copy on
/// Thessaloniki or Xanthi is reached over U2,U3,U4 (`case_study.rs` pins
/// that route), whose Thessaloniki–Ioannina leg is 74 % loaded: 0.52 Mbps
/// free, too little for a 1.5 Mbps stream, enough for 0.5 Mbps. A title
/// held only in Athens goes over Patra–Athens (91 % loaded) and is gated
/// too.
#[test]
fn admission_gates_the_route_the_vra_picks_from_the_database() {
    use vod_core::admission::{AdmissionDecision, AdmissionPolicy};
    use vod_storage::video::{Megabytes, VideoId, VideoMeta};

    let g = grnet();
    let mut library = VideoLibrary::new();
    for id in 0..2 {
        library.insert(VideoMeta::new(
            VideoId::new(id),
            format!("t{id}"),
            Megabytes::new(600.0),
            1.5,
        ));
    }
    let mut db = Database::from_topology(g.topology(), library);
    {
        let mut la = db.limited_access();
        la.add_title(g.node(GrnetNode::Thessaloniki), VideoId::new(0))
            .unwrap();
        la.add_title(g.node(GrnetNode::Xanthi), VideoId::new(0))
            .unwrap();
        la.add_title(g.node(GrnetNode::Athens), VideoId::new(1))
            .unwrap();
    }
    let snapshot = g.snapshot(TimeOfDay::T1000);
    let route_to = |video| {
        let candidates = db.full_access().servers_with_title(VideoId::new(video));
        Vra::default()
            .select(&SelectionContext {
                topology: g.topology(),
                snapshot: &snapshot,
                home: g.node(GrnetNode::Patra),
                candidates: &candidates,
            })
            .unwrap()
            .route
    };

    let policy = AdmissionPolicy::new(1.0);
    let route = route_to(0);
    match policy.check(g.topology(), &snapshot, &route, 1.5) {
        AdmissionDecision::Reject {
            bottleneck,
            available,
            ..
        } => {
            assert_eq!(
                g.grnet_link(bottleneck),
                Some(GrnetLink::ThessalonikiIoannina)
            );
            assert!((available.as_f64() - 0.52).abs() < 1e-9);
        }
        AdmissionDecision::Admit => panic!("a 74%-loaded 2 Mbit link cannot carry 1.5 Mbps"),
    }
    assert!(policy
        .check(g.topology(), &snapshot, &route, 0.5)
        .is_admit());
    assert!(!policy
        .check(g.topology(), &snapshot, &route_to(1), 1.5)
        .is_admit());
}
