//! The epoch-cached routing engine — the per-request hot path of the VRA.
//!
//! [`LvnComputer`](crate::lvn::LvnComputer) and
//! [`dijkstra_with_trace`](crate::dijkstra::dijkstra_with_trace) recompute
//! everything from scratch on every call; that is the right shape for
//! reproducing the paper's tables, but a service answering a stream of
//! video requests recomputes identical state over and over: the traffic
//! snapshot only changes every 1–2 minutes (the paper's SNMP poll
//! interval), while requests arrive continuously.
//!
//! [`RoutingEngine`] memoizes every derived artefact and keys the cache on
//! the snapshot's [`SnapshotEpoch`]:
//!
//! * the **link-weight table** is computed once per epoch by
//!   [`LvnComputer::weights`](crate::lvn::LvnComputer::weights);
//! * **shortest-path trees** are cached per home server in an
//!   [`Arc<ShortestPaths>`] and built lazily, at most once per
//!   (epoch, home) pair;
//! * cold Dijkstra runs reuse a [`DijkstraScratch`], so the steady state
//!   allocates nothing beyond the cached trees themselves.
//!
//! Any other (topology, epoch) pair — an in-place snapshot mutation, a
//! new snapshot instance, a different topology — drops both and rebuilds
//! the weight table. The SNMP module re-reads every link each poll, so
//! between two routing epochs every reading has moved and there is no
//! smaller unit of invalidation worth tracking (DESIGN.md §9).
//!
//! The engine's results are bit-identical to the slow reference path —
//! the property test `engine_vs_reference` and the unit tests below pin
//! this against [`LvnComputer`](crate::lvn::LvnComputer) +
//! [`dijkstra`](crate::dijkstra::dijkstra).
//!
//! # Examples
//!
//! ```
//! use vod_net::engine::RoutingEngine;
//! use vod_net::lvn::LvnParams;
//! use vod_net::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};
//!
//! # fn main() -> Result<(), vod_net::NetError> {
//! let grnet = Grnet::new();
//! let snapshot = grnet.snapshot(TimeOfDay::T1000);
//! let mut engine = RoutingEngine::new(LvnParams::default());
//! let home = grnet.node(GrnetNode::Patra);
//! let candidates = [grnet.node(GrnetNode::Thessaloniki), grnet.node(GrnetNode::Xanthi)];
//!
//! let first = engine.select(grnet.topology(), &snapshot, home, &candidates)?.unwrap();
//! assert_eq!(first.server, grnet.node(GrnetNode::Thessaloniki));
//!
//! // Same epoch, same home: served entirely from cache.
//! let again = engine.select(grnet.topology(), &snapshot, home, &candidates)?.unwrap();
//! assert_eq!(again.server, first.server);
//! assert_eq!(engine.stats().dijkstra_runs, 1);
//! assert_eq!(engine.stats().path_cache_hits, 1);
//! # Ok(())
//! # }
//! ```

#[expect(clippy::disallowed_types, reason = "lookup only, never iterated")]
use std::collections::HashMap;
use std::sync::Arc;

use serde::Serialize;

use crate::dijkstra::{dijkstra_with_scratch, DijkstraScratch, ShortestPaths};
use crate::error::NetError;
use crate::ids::NodeId;
use crate::lvn::{LinkWeights, LvnComputer, LvnParams};
use crate::route::Route;
use crate::snapshot::{SnapshotEpoch, TrafficSnapshot};
use crate::topology::Topology;

/// Identity of a [`Topology`] instance, used to detect cache invalidation
/// across topology swaps. The engine compares the *instance* (address +
/// dimensions), so callers must keep one `Topology` value alive across the
/// calls that should share cached state — which is the natural shape of a
/// long-running service anyway.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
struct TopologyKey {
    addr: usize,
    nodes: usize,
    links: usize,
}

impl TopologyKey {
    fn of(topology: &Topology) -> Self {
        TopologyKey {
            addr: topology as *const Topology as usize,
            nodes: topology.node_count(),
            links: topology.link_count(),
        }
    }
}

/// Counters describing how the engine answered its requests so far.
///
/// Useful for tests ("the warm path must not run Dijkstra") and for
/// operational visibility; see [`RoutingEngine::stats`].
#[derive(Debug, Copy, Clone, Default, PartialEq, Eq, Serialize)]
pub struct EngineStats {
    /// Total [`RoutingEngine::select`] calls.
    pub requests: u64,
    /// Requests answered by the home server itself (the VRA's "IF the
    /// adjacent video server can provide the requested video" short
    /// circuit) — no weights, no Dijkstra.
    pub local_hits: u64,
    /// Calls that found the weight cache already at the snapshot's epoch.
    pub weight_cache_hits: u64,
    /// Weight tables rebuilt from scratch (cold cache, topology change,
    /// snapshot instance change or in-place mutation).
    pub full_rebuilds: u64,
    /// Dijkstra executions (cache misses on the shortest-path cache).
    pub dijkstra_runs: u64,
    /// Requests answered from a cached shortest-path tree.
    pub path_cache_hits: u64,
}

/// The outcome of one engine selection: the chosen server and the
/// least-cost route to it.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSelection {
    /// The selected video server.
    pub server: NodeId,
    /// The least-cost route from the home server to [`Self::server`]
    /// (trivial when served locally).
    pub route: Route,
    /// True when the home server itself held the title and the request
    /// never reached the routing stage.
    pub served_locally: bool,
}

/// Cached state derived from one (topology, snapshot-epoch) pair.
#[derive(Debug, Clone)]
struct EngineCache {
    key: TopologyKey,
    epoch: SnapshotEpoch,
    /// Per-link LVN weights (equation (1)), in link-id order.
    weights: LinkWeights,
    /// Shortest-path trees at this epoch, keyed by home server, built on
    /// demand.
    #[expect(clippy::disallowed_types, reason = "lookup only, never iterated")]
    paths: HashMap<NodeId, Arc<ShortestPaths>>,
}

/// Epoch-cached implementation of the paper's Virtual Routing Algorithm
/// hot path. See the [module docs](self) for the caching model.
#[derive(Debug)]
pub struct RoutingEngine {
    params: LvnParams,
    cache: Option<EngineCache>,
    scratch: DijkstraScratch,
    stats: EngineStats,
}

impl Default for RoutingEngine {
    fn default() -> Self {
        RoutingEngine::new(LvnParams::default())
    }
}

impl Clone for RoutingEngine {
    fn clone(&self) -> Self {
        RoutingEngine {
            params: self.params,
            cache: self.cache.clone(),
            // Scratch buffers are cheap to regrow; don't clone the heap.
            scratch: DijkstraScratch::new(),
            stats: self.stats,
        }
    }
}

impl RoutingEngine {
    /// Creates an engine with the given LVN parameters and a cold cache.
    pub fn new(params: LvnParams) -> Self {
        RoutingEngine {
            params,
            cache: None,
            scratch: DijkstraScratch::new(),
            stats: EngineStats::default(),
        }
    }

    /// The LVN parameters in use.
    pub fn params(&self) -> LvnParams {
        self.params
    }

    /// Counters of cache hits, rebuilds and Dijkstra runs so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Drops all cached state; the next call rebuilds from scratch.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// Ensures the weight cache matches `snapshot`'s current epoch: a
    /// cache hit for the same (topology, epoch) pair, a full rebuild for
    /// anything else.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::WeightCountMismatch`] when the snapshot does
    /// not cover `topology`'s links.
    pub fn prepare(
        &mut self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
    ) -> Result<(), NetError> {
        let key = TopologyKey::of(topology);
        let epoch = snapshot.epoch();
        match &self.cache {
            Some(cache) if cache.key == key && cache.epoch == epoch => {
                self.stats.weight_cache_hits += 1;
                Ok(())
            }
            _ => self.rebuild_full(topology, snapshot, key, epoch),
        }
    }

    /// The cached per-link weight table for `snapshot`'s current epoch —
    /// bit-identical to
    /// [`LvnComputer::weights`](crate::lvn::LvnComputer::weights).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoutingEngine::prepare`].
    pub fn weights(
        &mut self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
    ) -> Result<&LinkWeights, NetError> {
        self.prepare(topology, snapshot)?;
        #[expect(clippy::expect_used, reason = "`prepare` populates the cache")]
        Ok(&self
            .cache
            .as_ref()
            .expect("prepare populates the cache")
            .weights)
    }

    /// The shortest-path tree from `home` at `snapshot`'s current epoch,
    /// computed at most once per (epoch, home) pair.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoutingEngine::prepare`], plus
    /// [`NetError::UnknownNode`] for a foreign `home`.
    pub fn paths_from(
        &mut self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
        home: NodeId,
    ) -> Result<Arc<ShortestPaths>, NetError> {
        self.prepare(topology, snapshot)?;
        topology.try_node(home)?;
        #[expect(clippy::expect_used, reason = "`prepare` populates the cache")]
        let cache = self.cache.as_mut().expect("prepare populates the cache");
        if let Some(paths) = cache.paths.get(&home) {
            self.stats.path_cache_hits += 1;
            return Ok(Arc::clone(paths));
        }
        let paths = Arc::new(dijkstra_with_scratch(
            topology,
            &cache.weights,
            home,
            &mut self.scratch,
        )?);
        self.stats.dijkstra_runs += 1;
        cache.paths.insert(home, Arc::clone(&paths));
        Ok(paths)
    }

    /// Runs the VRA selection for one request: local short circuit, then
    /// cheapest candidate by (cost, node id) over the cached tree.
    /// Returns `None` when no candidate is reachable (including an empty
    /// candidate list) — identical decisions, costs and tie-breaks to the
    /// trace-producing slow path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoutingEngine::paths_from`].
    ///
    /// # Panics
    ///
    /// Panics if a candidate id is out of range for `topology`.
    pub fn select(
        &mut self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
        home: NodeId,
        candidates: &[NodeId],
    ) -> Result<Option<EngineSelection>, NetError> {
        self.stats.requests += 1;
        if candidates.contains(&home) {
            self.stats.local_hits += 1;
            return Ok(Some(local_selection(home)));
        }
        let paths = self.paths_from(topology, snapshot, home)?;
        Ok(pick_candidate(&paths, candidates))
    }

    /// Rebuilds the whole cache for (`key`, `epoch`), reusing the path
    /// map's allocation when possible.
    fn rebuild_full(
        &mut self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
        key: TopologyKey,
        epoch: SnapshotEpoch,
    ) -> Result<(), NetError> {
        let weights = LvnComputer::try_new(topology, snapshot, self.params)?.weights();
        #[expect(clippy::disallowed_types, reason = "lookup only, never iterated")]
        let paths = match self.cache.take() {
            Some(old) => {
                let mut paths = old.paths;
                paths.clear();
                paths
            }
            None => HashMap::new(),
        };
        self.cache = Some(EngineCache {
            key,
            epoch,
            weights,
            paths,
        });
        self.stats.full_rebuilds += 1;
        Ok(())
    }
}

/// The trivial selection for a locally-served request.
fn local_selection(home: NodeId) -> EngineSelection {
    EngineSelection {
        server: home,
        route: Route::trivial(home),
        served_locally: true,
    }
}

/// The cheapest reachable candidate by (cost, node id) — the exact
/// tie-break of the slow reference path.
#[expect(
    clippy::expect_used,
    reason = "a candidate with a distance was reached by Dijkstra, so it has a route"
)]
fn pick_candidate(paths: &ShortestPaths, candidates: &[NodeId]) -> Option<EngineSelection> {
    let mut best: Option<(NodeId, f64)> = None;
    for &candidate in candidates {
        if let Some(dist) = paths.distance_to(candidate) {
            let better = match best {
                None => true,
                Some((best_node, best_dist)) => match dist.total_cmp(&best_dist) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => candidate < best_node,
                    std::cmp::Ordering::Greater => false,
                },
            };
            if better {
                best = Some((candidate, dist));
            }
        }
    }
    best.map(|(server, _)| EngineSelection {
        server,
        route: paths
            .route_to(server)
            .expect("reachable candidate has a route"),
        served_locally: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::ids::LinkId;
    use crate::topologies::grnet::{Grnet, GrnetLink, GrnetNode, TimeOfDay};
    use crate::topology::TopologyBuilder;
    use crate::units::Mbps;

    fn grnet_fixture() -> (Grnet, TrafficSnapshot) {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T1000);
        (grnet, snap)
    }

    #[test]
    fn engine_weights_match_lvn_computer_exactly() {
        let (grnet, snap) = grnet_fixture();
        let reference = LvnComputer::new(grnet.topology(), &snap, LvnParams::default()).weights();
        let mut engine = RoutingEngine::new(LvnParams::default());
        let weights = engine.weights(grnet.topology(), &snap).unwrap();
        assert_eq!(weights, &reference);
    }

    #[test]
    fn admin_down_masking_is_identical_on_both_engine_paths() {
        let (grnet, mut snap) = grnet_fixture();
        let link = grnet.link(GrnetLink::PatraAthens);

        // Warm the cache, then flip admin state in place: the warm engine
        // must notice the epoch change and mask the link.
        let mut engine = RoutingEngine::new(LvnParams::default());
        let _ = engine.weights(grnet.topology(), &snap).unwrap();
        snap.set_admin_down(link, true);
        let warm = engine.weights(grnet.topology(), &snap).unwrap().clone();
        assert!(warm.weight(link).is_infinite());

        // A cold engine and the reference computer agree.
        let mut cold = RoutingEngine::new(LvnParams::default());
        let full = cold.weights(grnet.topology(), &snap).unwrap();
        assert_eq!(&warm, full);
        let reference = LvnComputer::new(grnet.topology(), &snap, LvnParams::default()).weights();
        assert_eq!(warm, reference);

        // Bringing the link back restores finite weights.
        snap.set_admin_down(link, false);
        let restored = engine.weights(grnet.topology(), &snap).unwrap();
        assert!(restored.weight(link).is_finite());
        let reference = LvnComputer::new(grnet.topology(), &snap, LvnParams::default()).weights();
        assert_eq!(restored, &reference);
    }

    #[test]
    fn warm_epoch_serves_from_cache() {
        let (grnet, snap) = grnet_fixture();
        let mut engine = RoutingEngine::default();
        let home = grnet.node(GrnetNode::Patra);
        let candidates = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let first = engine
            .select(grnet.topology(), &snap, home, &candidates)
            .unwrap()
            .unwrap();
        let second = engine
            .select(grnet.topology(), &snap, home, &candidates)
            .unwrap()
            .unwrap();
        assert_eq!(first, second);
        let stats = engine.stats();
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.dijkstra_runs, 1);
        assert_eq!(stats.path_cache_hits, 1);
        assert_eq!(stats.weight_cache_hits, 1);
    }

    #[test]
    fn in_place_mutation_invalidates_weights_and_every_cached_tree() {
        let (grnet, mut snap) = grnet_fixture();
        let topo = grnet.topology();
        let link = grnet.link(GrnetLink::PatraAthens);
        let homes: Vec<NodeId> = topo.node_ids().collect();
        let mut engine = RoutingEngine::default();

        // Weights and the tree of every home — all cached by the previous
        // round — must equal a cold engine's and the reference path's.
        let check = |engine: &mut RoutingEngine, snap: &TrafficSnapshot| {
            let reference = LvnComputer::new(topo, snap, LvnParams::default()).weights();
            let mut cold = RoutingEngine::default();
            assert_eq!(engine.weights(topo, snap).unwrap(), &reference);
            assert_eq!(cold.weights(topo, snap).unwrap(), &reference);
            for &home in &homes {
                let warm = engine.paths_from(topo, snap, home).unwrap();
                assert_eq!(warm, cold.paths_from(topo, snap, home).unwrap());
                assert_eq!(*warm, dijkstra(topo, &reference, home).unwrap());
            }
        };
        check(&mut engine, &snap);
        snap.set_used(LinkId::new(2), Mbps::new(9.0));
        check(&mut engine, &snap);
        snap.set_admin_down(link, true);
        check(&mut engine, &snap);
        snap.set_admin_down(link, false);
        check(&mut engine, &snap);

        let stats = engine.stats();
        assert_eq!(stats.full_rebuilds, 4);
        assert_eq!(stats.dijkstra_runs, 4 * homes.len() as u64);
        assert_eq!(stats.path_cache_hits, 0);
    }

    #[test]
    fn local_hit_short_circuits_without_touching_the_cache() {
        let (grnet, snap) = grnet_fixture();
        let mut engine = RoutingEngine::default();
        let home = grnet.node(GrnetNode::Patra);
        let sel = engine
            .select(grnet.topology(), &snap, home, &[home])
            .unwrap()
            .unwrap();
        assert!(sel.served_locally);
        assert_eq!(sel.server, home);
        assert_eq!(sel.route.hops(), 0);
        assert_eq!(engine.stats().local_hits, 1);
        assert_eq!(engine.stats().full_rebuilds, 0);
    }

    #[test]
    fn snapshot_instance_change_forces_full_rebuild() {
        let (grnet, snap) = grnet_fixture();
        let mut engine = RoutingEngine::default();
        engine.prepare(grnet.topology(), &snap).unwrap();
        // A clone is a distinct instance: equal traffic, foreign token.
        let clone = snap.clone();
        engine.prepare(grnet.topology(), &clone).unwrap();
        assert_eq!(engine.stats().full_rebuilds, 2);
    }

    #[test]
    fn topology_swap_forces_full_rebuild() {
        let (grnet, snap) = grnet_fixture();
        let other = Grnet::new();
        let mut engine = RoutingEngine::default();
        engine.prepare(grnet.topology(), &snap).unwrap();
        let other_snap = other.snapshot(TimeOfDay::T1000);
        engine.prepare(other.topology(), &other_snap).unwrap();
        assert_eq!(engine.stats().full_rebuilds, 2);
    }

    #[test]
    fn select_matches_reference_dijkstra_on_grnet() {
        let (grnet, snap) = grnet_fixture();
        let mut engine = RoutingEngine::default();
        let home = grnet.node(GrnetNode::Patra);
        let candidates = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let sel = engine
            .select(grnet.topology(), &snap, home, &candidates)
            .unwrap()
            .unwrap();

        let weights = LvnComputer::new(grnet.topology(), &snap, LvnParams::default()).weights();
        let reference = dijkstra(grnet.topology(), &weights, home).unwrap();
        assert_eq!(sel.server, grnet.node(GrnetNode::Thessaloniki));
        assert_eq!(Some(sel.route.clone()), reference.route_to(sel.server));
        assert_eq!(sel.route.cost(), reference.distance_to(sel.server).unwrap());
    }

    #[test]
    fn unreachable_and_empty_candidates_yield_none() {
        let mut b = TopologyBuilder::new();
        let home = b.add_node("home");
        let island = b.add_node("island");
        let other = b.add_node("other");
        b.add_link(home, other, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        let snap = TrafficSnapshot::zero(&topo);
        let mut engine = RoutingEngine::default();
        assert!(engine
            .select(&topo, &snap, home, &[island])
            .unwrap()
            .is_none());
        assert!(engine.select(&topo, &snap, home, &[]).unwrap().is_none());
    }

    #[test]
    fn tie_break_prefers_lowest_node_id() {
        let mut b = TopologyBuilder::new();
        let home = b.add_node("home");
        let c1 = b.add_node("c1");
        let c2 = b.add_node("c2");
        b.add_link(home, c1, Mbps::new(2.0)).unwrap();
        b.add_link(home, c2, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        let snap = TrafficSnapshot::zero(&topo);
        let mut engine = RoutingEngine::default();
        let sel = engine
            .select(&topo, &snap, home, &[c2, c1])
            .unwrap()
            .unwrap();
        assert_eq!(sel.server, c1);
    }

    #[test]
    fn mismatched_snapshot_is_an_error() {
        let (grnet, _) = grnet_fixture();
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link(x, y, Mbps::new(1.0)).unwrap();
        let foreign = TrafficSnapshot::zero(&b.build());
        let mut engine = RoutingEngine::default();
        assert!(matches!(
            engine.prepare(grnet.topology(), &foreign),
            Err(NetError::WeightCountMismatch { .. })
        ));
    }
}
