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
//! * **node validations and link weights** are cached per epoch; when the
//!   snapshot advances by `k` journaled link mutations, only the ≤ `2k`
//!   nodes adjacent to those links have their NV re-derived (and only the
//!   links incident to them re-weighted) — bit-identical to a full
//!   recompute because each NV is re-summed in the same adjacency order;
//! * **shortest-path trees** are cached per home server in an
//!   [`Arc<ShortestPaths>`] and survive epoch changes: a small journaled
//!   mutation *repairs* every cached tree in place (dynamic SSSP,
//!   `crate::sssp`) instead of dropping them, so the warm path after a
//!   traffic update re-settles only the affected subtrees;
//! * cold Dijkstra runs reuse a [`DijkstraScratch`], so the steady state
//!   allocates nothing beyond the cached trees themselves.
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

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::dijkstra::{dijkstra_with_scratch, DijkstraScratch, ShortestPaths};
use crate::error::NetError;
use crate::ids::{LinkId, NodeId};
use crate::lvn::{LinkWeights, LvnParams};
use crate::route::Route;
use crate::snapshot::{SnapshotEpoch, TrafficSnapshot};
use crate::sssp::{align_weights, repair_tree, RepairScratch};
use crate::topology::Topology;
use crate::units::Mbps;

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
#[derive(Debug, Copy, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// snapshot instance change, or journal overflow).
    pub full_rebuilds: u64,
    /// Weight tables patched incrementally from the snapshot's mutation
    /// journal.
    pub incremental_rebuilds: u64,
    /// Dijkstra executions (cache misses on the shortest-path cache).
    pub dijkstra_runs: u64,
    /// Requests answered from a cached shortest-path tree.
    pub path_cache_hits: u64,
    /// Incremental `prepare` calls that repaired the cached trees in
    /// place (dynamic SSSP) instead of dropping them.
    pub tree_repairs: u64,
    /// Total shortest-path trees repaired across all those calls.
    pub trees_repaired: u64,
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
    /// Per-node NV values (equation (2)), in node-id order.
    nv: Vec<f64>,
    /// Per-link LVN weights (equation (1)), in link-id order.
    weights: LinkWeights,
    /// Number of links whose weight is exactly `0.0`. Dynamic tree
    /// repair requires every finite weight to be strictly positive (see
    /// [`crate::sssp`]); while this is non-zero an epoch change drops
    /// the cached trees instead of repairing them.
    zero_weights: usize,
    /// Shortest-path trees at this epoch, keyed by home server —
    /// built from scratch on demand, then *repaired* across epochs.
    paths: HashMap<NodeId, Arc<ShortestPaths>>,
}

/// Epoch-cached implementation of the paper's Virtual Routing Algorithm
/// hot path. See the [module docs](self) for the caching model.
#[derive(Debug)]
pub struct RoutingEngine {
    params: LvnParams,
    cache: Option<EngineCache>,
    scratch: DijkstraScratch,
    /// Working memory for dynamic tree repair, shared across all trees.
    repair: RepairScratch,
    /// Reused dirty-link buffer for `prepare` (journal drain).
    dirty_scratch: Vec<LinkId>,
    /// Links whose weight *value* changed in the last incremental patch.
    changed_scratch: Vec<LinkId>,
    /// Per-epoch adjacency-aligned weight gather: `aligned_scratch[i]` is
    /// the weight of `adjacency_entries()[i].link`, so tree repair reads
    /// weights sequentially instead of through a link-indexed lookup.
    aligned_scratch: Vec<f64>,
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
            repair: RepairScratch::new(),
            dirty_scratch: Vec::new(),
            changed_scratch: Vec::new(),
            aligned_scratch: Vec::new(),
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
            repair: RepairScratch::new(),
            dirty_scratch: Vec::new(),
            changed_scratch: Vec::new(),
            aligned_scratch: Vec::new(),
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

    /// Resets the statistics counters (the cache is kept).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Drops all cached state; the next call rebuilds from scratch.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// Ensures the weight cache matches `snapshot`'s current epoch,
    /// rebuilding as little as possible.
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
        snapshot.check_matches(topology)?;
        let key = TopologyKey::of(topology);
        let epoch = snapshot.epoch();

        if let Some(cache) = self.cache.as_mut() {
            if cache.key == key {
                if cache.epoch == epoch {
                    self.stats.weight_cache_hits += 1;
                    return Ok(());
                }
                let in_window = snapshot.collect_dirty_into(cache.epoch, &mut self.dirty_scratch);
                // Patching beats a full pass only while the affected
                // neighbourhood is small relative to the graph; journal
                // overflow (`!in_window`) always falls back to a full
                // rebuild, which also drops the cached trees.
                if in_window && 2 * self.dirty_scratch.len() < topology.node_count().max(1) {
                    let zero_before = cache.zero_weights;
                    patch_cache(
                        cache,
                        topology,
                        snapshot,
                        self.params,
                        &self.dirty_scratch,
                        &mut self.changed_scratch,
                    );
                    cache.epoch = epoch;
                    self.stats.incremental_rebuilds += 1;
                    if self.changed_scratch.is_empty() {
                        // Every mutation cancelled out: the weight table
                        // is bit-identical, so every cached tree is
                        // still exact as-is.
                    } else if zero_before == 0 && cache.zero_weights == 0 {
                        // Dynamic SSSP: repair every cached tree in
                        // place. Strict positivity held before and after
                        // the patch, so the canonical-parent invariant
                        // repair relies on is intact (crate::sssp docs).
                        align_weights(topology, &cache.weights, &mut self.aligned_scratch);
                        let mut repaired = 0u64;
                        for tree in cache.paths.values_mut() {
                            repair_tree(
                                topology,
                                &cache.weights,
                                &self.aligned_scratch,
                                &self.changed_scratch,
                                Arc::make_mut(tree),
                                &mut self.repair,
                            );
                            repaired += 1;
                        }
                        if repaired > 0 {
                            self.stats.tree_repairs += 1;
                            self.stats.trees_repaired += repaired;
                        }
                    } else {
                        // A zero weight (fully idle link on an idle
                        // neighbourhood) makes from-scratch parents
                        // discovery-order-dependent; repair cannot
                        // reproduce them bit-for-bit, so fall back to
                        // the old behaviour and rebuild trees lazily.
                        cache.paths.clear();
                    }
                    return Ok(());
                }
            }
        }

        self.rebuild_full(topology, snapshot, key, epoch);
        Ok(())
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
    ) {
        let nv: Vec<f64> = (0..topology.node_count())
            .map(|i| node_validation(topology, snapshot, NodeId::new(i as u32)))
            .collect();
        let weights: LinkWeights = topology
            .link_ids()
            .map(|l| link_weight(topology, snapshot, self.params, &nv, l))
            .collect();
        let zero_weights = count_zero_weights(&weights);
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
            nv,
            weights,
            zero_weights,
            paths,
        });
        self.stats.full_rebuilds += 1;
    }
}

/// Equation (2) re-derived for one node — the exact summation order of
/// [`LvnComputer::node_validation`](crate::lvn::LvnComputer::node_validation)
/// (adjacency order, i.e. link-id order), so full and incremental rebuilds
/// produce bit-identical floats.
fn node_validation(topology: &Topology, snapshot: &TrafficSnapshot, node: NodeId) -> f64 {
    let mut used = Mbps::ZERO;
    let mut capacity = Mbps::ZERO;
    for inc in topology.adjacent(node) {
        used += snapshot.used(inc.link);
        capacity += topology.link(inc.link).capacity();
    }
    if capacity.is_zero() {
        0.0
    } else {
        used / capacity
    }
}

/// Equation (1) from cached NV values — the exact operation order of
/// [`LvnComputer::lvn`](crate::lvn::LvnComputer::lvn).
fn link_weight(
    topology: &Topology,
    snapshot: &TrafficSnapshot,
    params: LvnParams,
    nv: &[f64],
    link: LinkId,
) -> f64 {
    if snapshot.is_admin_down(link) {
        return f64::INFINITY;
    }
    let l = topology.link(link);
    let combined = params
        .combiner
        .combine(nv[l.a().index()], nv[l.b().index()]);
    let link_value = l.capacity().as_f64() / params.normalization_constant;
    combined + snapshot.utilization(topology, link).get() * link_value
}

/// Number of links whose weight is exactly `0.0` — the gate maintained in
/// [`EngineCache::zero_weights`] for dynamic tree repair.
fn count_zero_weights(weights: &LinkWeights) -> usize {
    weights.values().iter().filter(|w| **w == 0.0).count()
}

/// Patches `cache` for the `dirty` links: re-derive NV for their ≤ 2k
/// endpoint nodes, then re-weight every link incident to an affected node
/// (which covers the dirty links themselves — their endpoints are
/// affected by construction).
///
/// `changed` receives the sorted, deduplicated ids of the links whose
/// weight *value* actually changed (bitwise) — the input dynamic tree
/// repair needs. `cache.zero_weights` is kept in sync along the way.
fn patch_cache(
    cache: &mut EngineCache,
    topology: &Topology,
    snapshot: &TrafficSnapshot,
    params: LvnParams,
    dirty: &[LinkId],
    changed: &mut Vec<LinkId>,
) {
    changed.clear();
    let mut affected: Vec<NodeId> = Vec::with_capacity(2 * dirty.len());
    for &link in dirty {
        let l = topology.link(link);
        affected.push(l.a());
        affected.push(l.b());
    }
    affected.sort_unstable();
    affected.dedup();

    for &node in &affected {
        cache.nv[node.index()] = node_validation(topology, snapshot, node);
    }
    let weights = &mut cache.weights;
    // Links incident to two affected nodes are re-weighted twice; both
    // passes write the same value, so the second pass never re-pushes
    // (the bitwise comparison sees the already-updated weight).
    for &node in &affected {
        for inc in topology.adjacent(node) {
            let w = link_weight(topology, snapshot, params, &cache.nv, inc.link);
            let old = weights.weight(inc.link);
            if old.to_bits() != w.to_bits() {
                changed.push(inc.link);
                if old == 0.0 {
                    cache.zero_weights -= 1;
                }
                if w == 0.0 {
                    cache.zero_weights += 1;
                }
                weights.set_weight(inc.link, w);
            }
        }
    }
    changed.sort_unstable();
    changed.dedup();
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
    use crate::lvn::LvnComputer;
    use crate::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};
    use crate::topology::TopologyBuilder;

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
        let link = grnet.link(crate::topologies::grnet::GrnetLink::PatraAthens);

        // Warm the cache, then flip admin state so `prepare` takes the
        // incremental patch path (1 dirty link on a 6-node topology).
        let mut engine = RoutingEngine::new(LvnParams::default());
        let _ = engine.weights(grnet.topology(), &snap).unwrap();
        snap.set_admin_down(link, true);
        let patched = engine.weights(grnet.topology(), &snap).unwrap().clone();
        assert_eq!(engine.stats().incremental_rebuilds, 1);
        assert!(patched.weight(link).is_infinite());

        // A cold engine (full rebuild) and the reference computer agree.
        let mut cold = RoutingEngine::new(LvnParams::default());
        let full = cold.weights(grnet.topology(), &snap).unwrap();
        assert_eq!(&patched, full);
        let reference = LvnComputer::new(grnet.topology(), &snap, LvnParams::default()).weights();
        assert_eq!(patched, reference);

        // Bringing the link back restores finite weights incrementally.
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
        assert_eq!(stats.incremental_rebuilds, 0);
        assert_eq!(stats.dijkstra_runs, 1);
        assert_eq!(stats.path_cache_hits, 1);
        assert_eq!(stats.weight_cache_hits, 1);
    }

    #[test]
    fn incremental_patch_is_bit_identical_to_full_rebuild() {
        let (grnet, mut snap) = grnet_fixture();
        let mut engine = RoutingEngine::default();
        engine.prepare(grnet.topology(), &snap).unwrap();

        // Nudge two links, then compare the patched table against a cold
        // engine's full rebuild — float-for-float.
        snap.add_used(LinkId::new(0), Mbps::new(3.5));
        snap.add_used(LinkId::new(4), Mbps::new(1.25));
        let patched = engine.weights(grnet.topology(), &snap).unwrap().clone();
        assert_eq!(engine.stats().incremental_rebuilds, 1);
        assert_eq!(engine.stats().full_rebuilds, 1);

        let mut cold = RoutingEngine::default();
        let full = cold.weights(grnet.topology(), &snap).unwrap();
        assert_eq!(&patched, full);
        let reference = LvnComputer::new(grnet.topology(), &snap, LvnParams::default()).weights();
        assert_eq!(patched, reference);
    }

    #[test]
    fn epoch_change_repairs_cached_trees_instead_of_dropping_them() {
        let (grnet, mut snap) = grnet_fixture();
        let mut engine = RoutingEngine::default();
        let home = grnet.node(GrnetNode::Athens);
        let candidates = [grnet.node(GrnetNode::Ioannina)];
        engine
            .select(grnet.topology(), &snap, home, &candidates)
            .unwrap();
        snap.add_used(LinkId::new(2), Mbps::new(9.0));
        let warm = engine
            .select(grnet.topology(), &snap, home, &candidates)
            .unwrap();
        // Dynamic SSSP: the cached tree is repaired in place, so the
        // second select never re-runs Dijkstra — and still answers
        // exactly like a cold engine over the new weights.
        let stats = engine.stats();
        assert_eq!(stats.dijkstra_runs, 1);
        assert_eq!(stats.path_cache_hits, 1);
        assert_eq!(stats.tree_repairs, 1);
        assert_eq!(stats.trees_repaired, 1);
        let mut cold = RoutingEngine::default();
        let expected = cold
            .select(grnet.topology(), &snap, home, &candidates)
            .unwrap();
        assert_eq!(warm, expected);
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
        assert_eq!(engine.stats().incremental_rebuilds, 0);
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

    #[test]
    fn zero_weights_gate_repair_and_drop_trees_instead() {
        // A zero-traffic snapshot yields all-zero LVN weights, so the
        // positivity gate must refuse to repair and drop the trees.
        let mut b = TopologyBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        for i in 1..4 {
            b.add_link(n[i - 1], n[i], Mbps::new(10.0)).unwrap();
        }
        let topo = b.build();
        let mut snap = TrafficSnapshot::zero(&topo);
        let mut engine = RoutingEngine::default();
        engine.select(&topo, &snap, n[0], &[n[3]]).unwrap();
        snap.add_used(LinkId::new(2), Mbps::new(1.0));
        let warm = engine.select(&topo, &snap, n[0], &[n[3]]).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.incremental_rebuilds, 1);
        assert_eq!(stats.tree_repairs, 0);
        assert_eq!(stats.dijkstra_runs, 2); // tree was dropped and rebuilt
        let mut cold = RoutingEngine::default();
        assert_eq!(warm, cold.select(&topo, &snap, n[0], &[n[3]]).unwrap());
    }

    #[test]
    fn journal_overflow_falls_back_to_full_rebuild() {
        let (grnet, mut snap) = grnet_fixture();
        let mut engine = RoutingEngine::default();
        engine.prepare(grnet.topology(), &snap).unwrap();
        for _ in 0..600 {
            snap.add_used(LinkId::new(0), Mbps::new(0.001));
        }
        engine.prepare(grnet.topology(), &snap).unwrap();
        assert_eq!(engine.stats().full_rebuilds, 2);
        assert_eq!(engine.stats().incremental_rebuilds, 0);
    }
}
