//! Property test: the routing engine's early-stopping Dijkstra answers
//! every request exactly as a full run would. Within one epoch, repeated
//! requests from a few homes start, resume and answer from partial runs,
//! on random graphs with zero-weight plateaus (idle regions), equal-cost
//! ties (capacity tiers loaded at the same few shares) and infinite
//! weights (administratively down links). Each answer's server, route
//! and cost must equal plain `dijkstra` plus the reference
//! (cost, node id) pick, and `paths_from` must complete every partial
//! run into `dijkstra`'s tree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vod_net::dijkstra::{dijkstra, ShortestPaths};
use vod_net::engine::RoutingEngine;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::topologies::random::connected_gnp;
use vod_net::{LinkId, NodeId, Route, Topology, TrafficSnapshot};

/// Traffic that makes plateaus and ties: with probability `idle` a
/// link carries nothing (a node all of whose links are idle is the
/// zero-weight end of each), otherwise a quarter, a half or three
/// quarters of its capacity; a few links are down.
fn plateau_snapshot(topology: &Topology, idle: f64, rng: &mut StdRng) -> TrafficSnapshot {
    let mut snap = TrafficSnapshot::zero(topology);
    for link in topology.link_ids() {
        if !rng.gen_bool(idle) {
            let share = f64::from(rng.gen_range(1u8..=3)) / 4.0;
            snap.set_used(link, topology.link(link).capacity() * share);
        }
        if rng.gen_bool(0.06) {
            snap.set_admin_down(link, true);
        }
    }
    snap
}

/// The reference answer: the cheapest reachable candidate of the full
/// tree by (cost, node id), with its route.
fn reference_pick(paths: &ShortestPaths, candidates: &[NodeId]) -> Option<Route> {
    candidates
        .iter()
        .filter_map(|&c| paths.distance_to(c).map(|d| (d, c)))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .and_then(|(_, c)| paths.route_to(c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn early_stop_matches_full_dijkstra(
        n in 4usize..48,
        seed in any::<u64>(),
        requests in 2usize..40,
        idle_percent in 0u8..=100,
    ) {
        let topology = connected_gnp(n, 0.12, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0e57_0a11);
        // A fifth of the cases leave every link idle: every weight is
        // 0, and each pick is the lowest reachable candidate id.
        let idle = if idle_percent >= 80 { 1.0 } else { f64::from(idle_percent) / 100.0 };
        let mut snapshot = plateau_snapshot(&topology, idle, &mut rng);
        let params = LvnParams::default();
        let mut engine = RoutingEngine::new(params);
        // Few homes, so most requests find a run already started.
        let homes: Vec<NodeId> = (0..rng.gen_range(1..=3))
            .map(|_| NodeId::new(rng.gen_range(0..n as u32)))
            .collect();

        for round in 0..2 {
            let weights = LvnComputer::new(&topology, &snapshot, params).weights();
            for _ in 0..requests {
                let home = homes[rng.gen_range(0..homes.len())];
                let candidates: Vec<NodeId> = (0..rng.gen_range(0..=5usize))
                    .map(|_| NodeId::new(rng.gen_range(0..n as u32)))
                    .collect();
                let answer = engine.select(&topology, &snapshot, home, &candidates).unwrap();
                if candidates.contains(&home) {
                    prop_assert!(answer.is_some_and(|s| s.served_locally && s.server == home));
                    continue;
                }
                let full = dijkstra(&topology, &weights, home).unwrap();
                let expected = reference_pick(&full, &candidates);
                let got = answer.map(|s| s.route);
                prop_assert_eq!(
                    got.as_ref().map(|r| (r.target(), r.cost().to_bits())),
                    expected.as_ref().map(|r| (r.target(), r.cost().to_bits())),
                    "round {} home {:?} candidates {:?}", round, home, &candidates
                );
                prop_assert_eq!(got, expected);
            }
            for &home in &homes {
                let full = dijkstra(&topology, &weights, home).unwrap();
                prop_assert_eq!(engine.paths_from(&topology, &snapshot, home).unwrap(), &full);
            }
            // A new epoch: the next round's runs start in recycled
            // buffers.
            let link = LinkId::new(rng.gen_range(0..topology.link_count() as u32));
            let down = !snapshot.is_admin_down(link);
            snapshot.set_admin_down(link, down);
        }
        // Every remote request and every `paths_from` call either
        // started its home's run or found it.
        let stats = engine.stats();
        prop_assert_eq!(
            stats.dijkstra_runs + stats.path_cache_hits,
            stats.requests - stats.local_hits + 2 * homes.len() as u64
        );
    }
}
