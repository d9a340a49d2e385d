//! Property test: the epoch-cached routing engine is bit-identical to the
//! slow reference pipeline (LvnComputer + dijkstra_with_trace) and agrees
//! with Bellman–Ford, on randomized connected topologies with randomized
//! traffic — including after in-place snapshot mutations, which must
//! invalidate every cached weight and tree. Plain Dijkstra is held to
//! Bellman–Ford on its own as well.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vod_core::selection::{SelectionContext, ServerSelector};
use vod_core::vra::Vra;
use vod_integration_tests::bellman_ford;
use vod_net::dijkstra::{dijkstra, dijkstra_with_trace};
use vod_net::engine::RoutingEngine;
use vod_net::lvn::{LinkWeights, LvnComputer, LvnParams};
use vod_net::topologies::random::connected_gnp;
use vod_net::units::Fraction;
use vod_net::{LinkId, Mbps, NodeId, Topology, TopologyBuilder, TrafficSnapshot};

/// Randomized traffic: every link carries a random fraction of its
/// capacity; a few links additionally get explicit (rounded) utilization
/// readings, as the paper's Table 2 does.
fn random_snapshot(topology: &Topology, rng: &mut StdRng) -> TrafficSnapshot {
    let mut snap = TrafficSnapshot::zero(topology);
    for link in topology.link_ids() {
        let capacity = topology.link(link).capacity();
        snap.set_used(link, capacity * rng.gen_range(0.0..0.95));
        if rng.gen_bool(0.2) {
            snap.set_explicit_utilization(link, Fraction::new(rng.gen_range(0.0..1.0)));
        }
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_matches_references_on_random_topologies(
        n in 4usize..32,
        seed in any::<u64>(),
        mutations in 1usize..6,
    ) {
        let topology = connected_gnp(n, 0.2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut snapshot = random_snapshot(&topology, &mut rng);
        let params = LvnParams::default();
        let mut engine = RoutingEngine::new(params);

        // 1. Cached weight table == the reference computation, float for
        //    float.
        let reference = LvnComputer::new(&topology, &snapshot, params).weights();
        {
            let weights = engine.weights(&topology, &snapshot).unwrap();
            prop_assert_eq!(weights, &reference);
        }

        // 2. Engine shortest paths == dijkstra_with_trace (identical
        //    distances, predecessors and tie-breaks) and Bellman–Ford
        //    agrees on every distance.
        let home = NodeId::new(rng.gen_range(0..n as u32));
        let engine_paths = engine.paths_from(&topology, &snapshot, home).unwrap();
        let (trace_paths, _) = dijkstra_with_trace(&topology, &reference, home).unwrap();
        prop_assert_eq!(&*engine_paths, &trace_paths);
        let bf = bellman_ford(&topology, &reference, home).unwrap();
        for node in topology.node_ids() {
            match (engine_paths.distance_to(node), bf[node.index()]) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (None, None) => {}
                other => prop_assert!(false, "reachability mismatch: {:?}", other),
            }
        }

        // 3. Engine selection == the trace-producing Vra report path
        //    (same server, same route, same tie-breaks).
        let candidate_count = rng.gen_range(1..=3usize.min(n - 1));
        let candidates: Vec<NodeId> = (0..candidate_count)
            .map(|_| NodeId::new(rng.gen_range(0..n as u32)))
            .collect();
        let ctx = SelectionContext {
            topology: &topology,
            snapshot: &snapshot,
            home,
            candidates: &candidates,
        };
        let report = Vra::new(params).select_with_report(&ctx).unwrap();
        let engine_sel = engine
            .select(&topology, &snapshot, home, &candidates)
            .unwrap()
            .unwrap();
        prop_assert_eq!(engine_sel.server, report.selection.server);
        prop_assert_eq!(&engine_sel.route, &report.selection.route);

        // 4. After in-place mutations the engine notices the new epoch:
        //    its table and tree are bit-identical to a cold recompute.
        for _ in 0..mutations {
            let link = vod_net::LinkId::new(rng.gen_range(0..topology.link_count() as u32));
            let capacity = topology.link(link).capacity();
            snapshot.set_used(link, capacity * rng.gen_range(0.0..0.95));
        }
        let patched = engine.weights(&topology, &snapshot).unwrap().clone();
        let recomputed = LvnComputer::new(&topology, &snapshot, params).weights();
        prop_assert_eq!(&patched, &recomputed);
        let after = engine.paths_from(&topology, &snapshot, home).unwrap();
        let (trace_after, _) = dijkstra_with_trace(&topology, &recomputed, home).unwrap();
        prop_assert_eq!(&*after, &trace_after);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Epoch invalidation: with a tree cached for every home server, a
    /// random *sequence* of in-place snapshot epochs (weight increases
    /// and decreases, admin-down/up flips, 600-mutation bursts) never
    /// leaks a stale tree — each answer is bit-identical (`==`, distances
    /// *and* parents) to a from-scratch Dijkstra over the reference
    /// weights, with Bellman–Ford co-signing the distances.
    #[test]
    fn repaired_trees_match_from_scratch_over_mutation_sequences(
        n in 6usize..36,
        seed in any::<u64>(),
        epochs in 1usize..5,
    ) {
        let topology = connected_gnp(n, 0.25, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01_2345_6789);
        let mut snapshot = random_snapshot(&topology, &mut rng);
        let params = LvnParams::default();
        let mut engine = RoutingEngine::new(params);

        // Warm one tree per home so every epoch change has n trees to
        // invalidate.
        for home in topology.node_ids() {
            engine.paths_from(&topology, &snapshot, home).unwrap();
        }

        for epoch in 0..epochs {
            let m = topology.link_count() as u32;
            match rng.gen_range(0u8..10) {
                // Burst: hundreds of mutations between two selects.
                0 => {
                    for _ in 0..600 {
                        let link = LinkId::new(rng.gen_range(0..m));
                        snapshot.add_used(link, Mbps::new(0.0001));
                    }
                }
                // Admin flips: tree edges vanish (∞) and come back.
                1 | 2 => {
                    let link = LinkId::new(rng.gen_range(0..m));
                    let down = !snapshot.is_admin_down(link);
                    snapshot.set_admin_down(link, down);
                }
                // Plain traffic drift: 1–3 links re-read, weights move
                // up or down.
                _ => {
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let link = LinkId::new(rng.gen_range(0..m));
                        let capacity = topology.link(link).capacity();
                        snapshot.set_used(link, capacity * rng.gen_range(0.0..0.95));
                    }
                }
            }

            let reference = LvnComputer::new(&topology, &snapshot, params).weights();
            for home in topology.node_ids() {
                let tree = engine.paths_from(&topology, &snapshot, home).unwrap();
                let (oracle, _) = dijkstra_with_trace(&topology, &reference, home).unwrap();
                prop_assert_eq!(&*tree, &oracle, "epoch {} home {:?}", epoch, home);
                let bf = bellman_ford(&topology, &reference, home).unwrap();
                for node in topology.node_ids() {
                    match (tree.distance_to(node), bf[node.index()]) {
                        (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                        (None, None) => {}
                        other => prop_assert!(false, "reachability mismatch: {:?}", other),
                    }
                }
            }
        }
    }
}

/// The Vra fast path (ServerSelector::select) and the report path agree
/// on 100+ seeded random cases — the selector-level variant of the
/// engine property above.
#[test]
fn vra_fast_path_matches_report_on_seeded_cases() {
    for case in 0u64..110 {
        let n = 4 + (case as usize % 24);
        let topology = connected_gnp(n, 0.25, case * 7 + 1);
        let mut rng = StdRng::seed_from_u64(case.wrapping_mul(0x5851_f42d_4c95_7f2d));
        let snapshot = random_snapshot(&topology, &mut rng);
        let home = NodeId::new(rng.gen_range(0..n as u32));
        let candidates: Vec<NodeId> = (0..1 + case as usize % 3)
            .map(|_| NodeId::new(rng.gen_range(0..n as u32)))
            .collect();
        let ctx = SelectionContext {
            topology: &topology,
            snapshot: &snapshot,
            home,
            candidates: &candidates,
        };
        let mut vra = Vra::default();
        let report = vra.select_with_report(&ctx).unwrap();
        let fast = vra.select(&ctx).unwrap();
        assert_eq!(fast, report.selection, "case {case}");
    }
}

/// The four-node diamond of `vod_net::dijkstra`'s unit tests:
///
/// ```text
/// s - a - t
///  \  |  /
///     b
/// ```
fn diamond() -> (Topology, [NodeId; 4], [LinkId; 5]) {
    let mut builder = TopologyBuilder::new();
    let s = builder.add_node("s");
    let a = builder.add_node("a");
    let b = builder.add_node("b");
    let t = builder.add_node("t");
    let sa = builder.add_link(s, a, Mbps::new(1.0)).unwrap();
    let sb = builder.add_link(s, b, Mbps::new(1.0)).unwrap();
    let ab = builder.add_link(a, b, Mbps::new(1.0)).unwrap();
    let at = builder.add_link(a, t, Mbps::new(1.0)).unwrap();
    let bt = builder.add_link(b, t, Mbps::new(1.0)).unwrap();
    (builder.build(), [s, a, b, t], [sa, sb, ab, at, bt])
}

/// Bellman–Ford masks infinite weights as Dijkstra does: with every link
/// into `t` down, `t` is unreachable.
#[test]
fn infinite_weights_mask_links_in_bellman_ford() {
    let (topo, [s, .., t], [_, sb, ab, at, bt]) = diamond();
    let mut w = LinkWeights::uniform(5, 1.0);
    for link in [sb, bt, ab, at] {
        w.set_weight(link, f64::INFINITY);
    }
    let bf = bellman_ford(&topo, &w, s).unwrap();
    assert_eq!(bf[t.index()], None);
}

#[test]
fn matches_bellman_ford_on_diamond() {
    let (topo, [s, ..], links) = diamond();
    let mut w = LinkWeights::uniform(5, 1.0);
    for (i, l) in links.iter().enumerate() {
        w.set_weight(*l, 0.3 + i as f64 * 0.7);
    }
    let d = dijkstra(&topo, &w, s).unwrap();
    let bf = bellman_ford(&topo, &w, s).unwrap();
    for id in topo.node_ids() {
        match (d.distance_to(id), bf[id.index()]) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
            (None, None) => {}
            other => panic!("reachability mismatch: {other:?}"),
        }
    }
}

proptest! {
    /// On random connected-ish graphs, Dijkstra and Bellman–Ford agree
    /// and every returned route is valid with the claimed cost.
    #[test]
    fn agrees_with_bellman_ford(
        n in 2usize..12,
        extra_edges in proptest::collection::vec((0usize..12, 0usize..12, 0.0f64..5.0), 0..30),
        spine in proptest::collection::vec(0.0f64..5.0, 11),
    ) {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("v{i}"))).collect();
        let mut weights = Vec::new();
        // Spine keeps the graph connected.
        for i in 1..n {
            b.add_link(nodes[i - 1], nodes[i], Mbps::new(1.0)).unwrap();
            weights.push(spine[i - 1]);
        }
        for (a, c, w) in extra_edges {
            let (a, c) = (a % n, c % n);
            if a != c {
                if let Ok(_l) = b.add_link(nodes[a], nodes[c], Mbps::new(1.0)) {
                    weights.push(w);
                }
            }
        }
        let topo = b.build();
        let w = LinkWeights::from_vec(weights);
        let src = nodes[0];
        let d = dijkstra(&topo, &w, src).unwrap();
        let bf = bellman_ford(&topo, &w, src).unwrap();
        for id in topo.node_ids() {
            let dd = d.distance_to(id);
            let bd = bf[id.index()];
            prop_assert_eq!(dd.is_some(), bd.is_some());
            if let (Some(x), Some(y)) = (dd, bd) {
                prop_assert!((x - y).abs() < 1e-9);
            }
            if let Some(route) = d.route_to(id) {
                prop_assert!(route.is_valid_in(&topo));
                let sum: f64 = route.links().iter().map(|&l| w.weight(l)).sum();
                prop_assert!((sum - route.cost()).abs() < 1e-9);
            }
        }
    }
}
