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
//! * the **link-weight table** is computed (and validated) once per
//!   epoch by [`LvnComputer::weights`](crate::lvn::LvnComputer::weights);
//! * each home server keeps one **resumable Dijkstra** per epoch, started
//!   at the home's first remote request and run only as far as a request
//!   needs: until the cheapest candidate is settled, plus every node at
//!   exactly its cost, so the `(cost, node id)` tie rule sees every
//!   candidate it could pick (DESIGN.md §9). A later request from the
//!   same home resumes the same run; [`RoutingEngine::paths_from`] runs
//!   it to the end;
//! * a stopped run keeps its labels only; a resume rebuilds its frontier
//!   in one heap the engine shares between homes, and the labels'
//!   buffers are recycled from epoch to epoch, so the steady state
//!   allocates nothing.
//!
//! Any other (topology, epoch) pair — an in-place snapshot mutation, a
//! new snapshot instance, a different topology — drops every run and
//! rebuilds the weight table. The SNMP module re-reads every link each
//! poll, so between two routing epochs every reading has moved and there
//! is no smaller unit of invalidation worth tracking (DESIGN.md §9).
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

use serde::Serialize;

use crate::dijkstra::{FrontierHeap, Search, ShortestPaths};
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
    /// Dijkstra runs started: requests (and [`RoutingEngine::paths_from`]
    /// calls) that found no run from their home at this epoch.
    pub dijkstra_runs: u64,
    /// Requests answered from the run their home already started at this
    /// epoch, resumed or not.
    pub path_cache_hits: u64,
    /// Nodes Dijkstra settled, over all runs: a request stops its run
    /// once the cheapest candidate and every node at its cost are
    /// settled.
    pub nodes_settled: u64,
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
    /// Per-link LVN weights (equation (1)), in link-id order, validated
    /// against the topology once for every run of the epoch.
    weights: LinkWeights,
    /// The Dijkstra runs of this epoch.
    runs: Runs,
}

/// The Dijkstra runs of one epoch, one per home that asked, in buffers
/// recycled across epochs.
#[derive(Debug, Clone, Default)]
struct Runs {
    /// Per node: the index in `searches` of the run from it, or
    /// [`NO_RUN`].
    slot: Vec<u32>,
    /// The runs started this epoch (the first `started`), then spares
    /// from earlier epochs whose buffers the next homes take over.
    searches: Vec<Search>,
    started: usize,
}

/// `Runs::slot` of a node with no run this epoch.
const NO_RUN: u32 = u32::MAX;

impl Runs {
    /// Forgets every run for a topology of `nodes` nodes, keeping the
    /// buffers.
    fn reset(&mut self, nodes: usize) {
        self.slot.clear();
        self.slot.resize(nodes, NO_RUN);
        self.started = 0;
    }

    /// The run from `home` (a node of the topology `reset` sized for),
    /// started in a recycled buffer if the epoch has none yet.
    #[expect(
        clippy::indexing_slicing,
        reason = "`slot` is sized by `node_count` and `home` was checked by `try_node`; a slot names one of the `started` searches"
    )]
    fn run_from(&mut self, home: NodeId, stats: &mut EngineStats) -> &mut Search {
        let nodes = self.slot.len();
        let slot = &mut self.slot[home.index()];
        if *slot == NO_RUN {
            if self.started == self.searches.len() {
                self.searches.push(Search::new());
            }
            *slot = self.started as u32;
            self.searches[self.started].restart(nodes, home);
            self.started += 1;
            stats.dijkstra_runs += 1;
        } else {
            stats.path_cache_hits += 1;
        }
        &mut self.searches[*slot as usize]
    }
}

/// Epoch-cached implementation of the paper's Virtual Routing Algorithm
/// hot path. See the [module docs](self) for the caching model.
#[derive(Debug, Clone)]
pub struct RoutingEngine {
    params: LvnParams,
    cache: Option<EngineCache>,
    /// The frontier of whichever run is being resumed.
    frontier: FrontierHeap,
    stats: EngineStats,
}

impl Default for RoutingEngine {
    fn default() -> Self {
        RoutingEngine::new(LvnParams::default())
    }
}

impl RoutingEngine {
    /// Creates an engine with the given LVN parameters and a cold cache.
    pub fn new(params: LvnParams) -> Self {
        RoutingEngine {
            params,
            cache: None,
            frontier: FrontierHeap::new(),
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

    /// The shortest-path tree from `home` at `snapshot`'s current epoch:
    /// the epoch's run from `home`, started if there is none and run to
    /// the end — at most one run per (epoch, home) pair.
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
    ) -> Result<&ShortestPaths, NetError> {
        self.prepare(topology, snapshot)?;
        topology.try_node(home)?;
        #[expect(clippy::expect_used, reason = "`prepare` populates the cache")]
        let EngineCache { weights, runs, .. } =
            self.cache.as_mut().expect("prepare populates the cache");
        let search = runs.run_from(home, &mut self.stats);
        let mut run = search.resume(&mut self.frontier);
        while run.settle_next(topology, weights, f64::INFINITY).is_some() {
            self.stats.nodes_settled += 1;
        }
        Ok(search.paths())
    }

    /// Runs the VRA selection for one request: local short circuit, then
    /// cheapest candidate by (cost, node id), resuming the home's run
    /// only until that candidate is certain. Returns `None` when no
    /// candidate is reachable (including an empty candidate list) —
    /// identical decisions, costs, routes and tie-breaks to the
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
        self.prepare(topology, snapshot)?;
        topology.try_node(home)?;
        #[expect(clippy::expect_used, reason = "`prepare` populates the cache")]
        let EngineCache { weights, runs, .. } =
            self.cache.as_mut().expect("prepare populates the cache");
        let search = runs.run_from(home, &mut self.stats);
        self.stats.nodes_settled +=
            settle_cheapest(search, &mut self.frontier, topology, weights, candidates);
        Ok(pick_candidate(search, candidates))
    }

    /// Rebuilds the whole cache for (`key`, `epoch`): a new, validated
    /// weight table and no run, in the previous epoch's buffers.
    fn rebuild_full(
        &mut self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
        key: TopologyKey,
        epoch: SnapshotEpoch,
    ) -> Result<(), NetError> {
        let weights = LvnComputer::try_new(topology, snapshot, self.params)?.weights();
        weights.validate(topology)?;
        let mut runs = self.cache.take().map(|old| old.runs).unwrap_or_default();
        runs.reset(topology.node_count());
        self.cache = Some(EngineCache {
            key,
            epoch,
            weights,
            runs,
        });
        self.stats.full_rebuilds += 1;
        Ok(())
    }
}

/// Resumes `search` until the cheapest of `candidates` by (cost, node
/// id) is certain, and returns how many nodes it settled.
///
/// A run always stops having settled exactly the nodes that cost at
/// most some `c`, every other node costing more. So a candidate already
/// settled beats every unsettled one, and the answer is among the
/// settled candidates. Otherwise the run resumes until the first
/// candidate settles, at cost `c`, and then settles every node at
/// exactly `c`: a candidate of lower id at that cost may still sit in
/// the frontier, or behind a zero-weight link from a node that does.
fn settle_cheapest(
    search: &mut Search,
    frontier: &mut FrontierHeap,
    topology: &Topology,
    weights: &LinkWeights,
    candidates: &[NodeId],
) -> u64 {
    if candidates.iter().any(|&c| search.is_settled(c)) {
        return 0;
    }
    let mut run = search.resume(frontier);
    let mut settled = 0;
    let cost = loop {
        match run.settle_next(topology, weights, f64::INFINITY) {
            None => return settled,
            Some((node, cost)) => {
                settled += 1;
                if candidates.contains(&node) {
                    break cost;
                }
            }
        }
    };
    while run.settle_next(topology, weights, cost).is_some() {
        settled += 1;
    }
    settled
}

/// The trivial selection for a locally-served request.
fn local_selection(home: NodeId) -> EngineSelection {
    EngineSelection {
        server: home,
        route: Route::trivial(home),
        served_locally: true,
    }
}

/// The cheapest settled candidate by (cost, node id) — after
/// [`settle_cheapest`], the exact pick and tie-break of the slow
/// reference path over every reachable candidate.
#[expect(
    clippy::expect_used,
    reason = "a settled candidate was reached by Dijkstra, so it has a route"
)]
fn pick_candidate(search: &Search, candidates: &[NodeId]) -> Option<EngineSelection> {
    let paths = search.paths();
    let mut best: Option<(NodeId, f64)> = None;
    for &candidate in candidates {
        if !search.is_settled(candidate) {
            continue;
        }
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

    /// Home 0 and candidates 1–4 on a zero-weight chain 0–4–3–2–1 (an
    /// idle snapshot): candidate 4 is the first to settle, at cost 0,
    /// but the full run's (cost, node id) pick is 1 — found only by
    /// settling every node at that cost before picking.
    #[test]
    fn early_stop_settles_every_node_at_the_winning_cost() {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("n{i}"))).collect();
        for pair in [[0, 4], [4, 3], [3, 2], [2, 1]] {
            b.add_link(nodes[pair[0]], nodes[pair[1]], Mbps::new(2.0))
                .unwrap();
        }
        let topo = b.build();
        let snap = TrafficSnapshot::zero(&topo);
        let weights = LvnComputer::new(&topo, &snap, LvnParams::default()).weights();
        assert!(weights.iter().all(|(_, w)| w == 0.0));
        let candidates = [nodes[4], nodes[3], nodes[2], nodes[1]];
        let mut engine = RoutingEngine::default();
        let sel = engine
            .select(&topo, &snap, nodes[0], &candidates)
            .unwrap()
            .unwrap();
        let reference = dijkstra(&topo, &weights, nodes[0]).unwrap();
        assert_eq!(sel.server, nodes[1]);
        assert_eq!(Some(sel.route), reference.route_to(nodes[1]));
        assert_eq!(engine.stats().nodes_settled, 5);
    }

    /// A request stops its home's run early; the next one from the same
    /// home resumes it (or answers from it), and `paths_from` completes
    /// it into the full tree — one run per (epoch, home) throughout.
    #[test]
    fn requests_resume_one_run_per_home() {
        let (grnet, snap) = grnet_fixture();
        let topo = grnet.topology();
        let weights = LvnComputer::new(topo, &snap, LvnParams::default()).weights();
        let home = grnet.node(GrnetNode::Patra);
        let reference = dijkstra(topo, &weights, home).unwrap();
        let mut by_cost: Vec<NodeId> = topo.node_ids().filter(|&n| n != home).collect();
        by_cost.sort_by(|a, b| {
            let (da, db) = (reference.distance_to(*a), reference.distance_to(*b));
            da.unwrap().total_cmp(&db.unwrap()).then(a.cmp(b))
        });
        let mut engine = RoutingEngine::default();
        let nearest = engine
            .select(topo, &snap, home, &by_cost[..1])
            .unwrap()
            .unwrap();
        assert_eq!(nearest.server, by_cost[0]);
        let partial = engine.stats().nodes_settled;
        assert!(partial < topo.node_count() as u64, "{partial}");
        let farthest = engine
            .select(topo, &snap, home, &by_cost[by_cost.len() - 1..])
            .unwrap()
            .unwrap();
        assert_eq!(Some(farthest.route), reference.route_to(farthest.server));
        assert_eq!(engine.paths_from(topo, &snap, home).unwrap(), &reference);
        let stats = engine.stats();
        assert_eq!(stats.dijkstra_runs, 1);
        assert_eq!(stats.path_cache_hits, 2);
        assert_eq!(stats.nodes_settled, topo.node_count() as u64);
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
