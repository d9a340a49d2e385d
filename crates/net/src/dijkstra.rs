//! Dijkstra's shortest-path algorithm over [`LinkWeights`].
//!
//! The paper's Virtual Routing Algorithm "proposes the use of the
//! Dijkstra's routing algorithm … The Dijkstra algorithm runs at the server
//! with which the client is directly connected. It determines, for each
//! server that has the video stored, the best route until the client's
//! adjacent server."
//!
//! [`dijkstra_with_trace`] additionally records the label table after every
//! settle step, which [`DijkstraTrace`] renders
//! in exactly the row format of the paper's Tables 4 and 5.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::NetError;
use crate::ids::{LinkId, NodeId};
use crate::lvn::LinkWeights;
use crate::route::Route;
use crate::topology::Topology;
use crate::trace::{DijkstraTrace, NodeLabel, TraceStep};

/// Shortest paths from a single source, as produced by [`dijkstra`].
///
/// Distances are stored densely as `f64` with `f64::INFINITY` marking
/// unreachable nodes — every finite label is a genuine path cost (the
/// relaxations skip non-finite weights), so the sentinel is unambiguous
/// and the hot loops compare plain floats instead of branching on an
/// `Option` discriminant.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, LinkId)>>,
}

impl ShortestPaths {
    /// The source node the paths start from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The cost of the cheapest path to `target`, or `None` if `target` is
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn distance_to(&self, target: NodeId) -> Option<f64> {
        let d = self.dist[target.index()];
        d.is_finite().then_some(d)
    }

    /// Returns true if `target` is reachable from the source.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn is_reachable(&self, target: NodeId) -> bool {
        self.dist[target.index()].is_finite()
    }

    /// Reconstructs the cheapest route from the source to `target`, or
    /// `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn route_to(&self, target: NodeId) -> Option<Route> {
        let cost = self.distance_to(target)?;
        let mut nodes = vec![target];
        let mut links = Vec::new();
        let mut cur = target;
        while let Some((parent, link)) = self.prev[cur.index()] {
            nodes.push(parent);
            links.push(link);
            cur = parent;
        }
        debug_assert_eq!(cur, self.source);
        nodes.reverse();
        links.reverse();
        Some(Route::new(nodes, links, cost))
    }
}

/// Priority-queue entry ordered for a min-heap over f64 costs.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the smallest cost;
        // tie-break on node id for determinism.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable working memory for repeated Dijkstra runs.
///
/// [`dijkstra_with_scratch`] keeps its heap and settled-flag buffers
/// here between runs, so steady-state routing (the engine's per-request
/// hot path) performs no heap allocation beyond the returned
/// [`ShortestPaths`] — and none at all once the engine's path cache is
/// warm.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    heap: BinaryHeap<HeapEntry>,
    settled: Vec<bool>,
}

impl DijkstraScratch {
    /// Creates empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs Dijkstra's algorithm from `source` over the given link weights.
///
/// # Errors
///
/// Returns an error if the weight table does not match the topology or
/// contains negative or NaN weights (Dijkstra requires non-negative
/// weights).
pub fn dijkstra(
    topology: &Topology,
    weights: &LinkWeights,
    source: NodeId,
) -> Result<ShortestPaths, NetError> {
    run(topology, weights, source, None).map(|(paths, _)| paths)
}

/// Like [`dijkstra`], reusing `scratch`'s internal buffers instead of
/// allocating fresh ones per run. Produces bit-identical results to
/// [`dijkstra`] (same relaxation order, same tie-breaking).
///
/// # Errors
///
/// Same conditions as [`dijkstra`].
pub fn dijkstra_with_scratch(
    topology: &Topology,
    weights: &LinkWeights,
    source: NodeId,
    scratch: &mut DijkstraScratch,
) -> Result<ShortestPaths, NetError> {
    weights.validate(topology)?;
    topology.try_node(source)?;

    let n = topology.node_count();
    let mut dist: Vec<f64> = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    scratch.settled.clear();
    scratch.settled.resize(n, false);
    scratch.heap.clear();

    dist[source.index()] = 0.0;
    scratch.heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost, node }) = scratch.heap.pop() {
        if scratch.settled[node.index()] {
            continue;
        }
        scratch.settled[node.index()] = true;

        for inc in topology.adjacent(node) {
            let w = weights.weight(inc.link);
            // Non-finite weights mask administratively-down links: an
            // unreachable-only-through-them node must stay `None`.
            if !w.is_finite() {
                continue;
            }
            let next = cost + w;
            let entry = &mut dist[inc.neighbor.index()];
            if next < *entry {
                *entry = next;
                prev[inc.neighbor.index()] = Some((node, inc.link));
                scratch.heap.push(HeapEntry {
                    cost: next,
                    node: inc.neighbor,
                });
            }
        }
    }

    Ok(ShortestPaths { source, dist, prev })
}

/// Like [`dijkstra`], but also records a [`DijkstraTrace`] with the label
/// table after each settle step — the paper's Tables 4 and 5.
///
/// # Errors
///
/// Same conditions as [`dijkstra`].
pub fn dijkstra_with_trace(
    topology: &Topology,
    weights: &LinkWeights,
    source: NodeId,
) -> Result<(ShortestPaths, DijkstraTrace), NetError> {
    let mut trace = DijkstraTrace::new(source);
    let (paths, _) = run(topology, weights, source, Some(&mut trace))?;
    Ok((paths, trace))
}

fn run(
    topology: &Topology,
    weights: &LinkWeights,
    source: NodeId,
    mut trace: Option<&mut DijkstraTrace>,
) -> Result<(ShortestPaths, ()), NetError> {
    weights.validate(topology)?;
    topology.try_node(source)?;

    let n = topology.node_count();
    let mut dist: Vec<f64> = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut settled_order = Vec::with_capacity(n);

    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        settled_order.push(node);

        for inc in topology.adjacent(node) {
            let w = weights.weight(inc.link);
            // Same non-finite masking as `dijkstra_with_scratch` — the
            // two paths must stay bit-identical.
            if !w.is_finite() {
                continue;
            }
            let next = cost + w;
            let entry = &mut dist[inc.neighbor.index()];
            if next < *entry {
                *entry = next;
                prev[inc.neighbor.index()] = Some((node, inc.link));
                heap.push(HeapEntry {
                    cost: next,
                    node: inc.neighbor,
                });
            }
        }

        if let Some(trace) = trace.as_deref_mut() {
            let labels = (0..n)
                .map(|i| {
                    let id = NodeId::new(i as u32);
                    NodeLabel {
                        node: id,
                        dist: dist[i].is_finite().then_some(dist[i]),
                        path: label_path(&prev, source, id, dist[i].is_finite()),
                    }
                })
                .collect();
            trace.push_step(TraceStep {
                settled: settled_order.clone(),
                labels,
            });
        }
    }

    Ok((ShortestPaths { source, dist, prev }, ()))
}

/// Reconstructs the tentative path for the trace table (empty when the
/// node is still unreached — rendered as the paper's "R").
fn label_path(
    prev: &[Option<(NodeId, LinkId)>],
    source: NodeId,
    target: NodeId,
    reached: bool,
) -> Vec<NodeId> {
    if !reached {
        return Vec::new();
    }
    let mut nodes = vec![target];
    let mut cur = target;
    while cur != source {
        match prev[cur.index()] {
            Some((parent, _)) => {
                nodes.push(parent);
                cur = parent;
            }
            None => break,
        }
    }
    nodes.reverse();
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::units::Mbps;
    use proptest::prelude::*;

    fn diamond() -> (Topology, [NodeId; 4], [LinkId; 5]) {
        // s - a - t
        //  \  |  /
        //     b
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

    #[test]
    fn picks_cheapest_path() {
        let (topo, [s, _a, b, t], [sa, sb, ab, at, bt]) = diamond();
        let mut w = LinkWeights::uniform(5, 1.0);
        w.set_weight(sa, 10.0);
        w.set_weight(sb, 1.0);
        w.set_weight(bt, 1.0);
        w.set_weight(ab, 5.0);
        w.set_weight(at, 5.0);
        let paths = dijkstra(&topo, &w, s).unwrap();
        assert_eq!(paths.distance_to(t), Some(2.0));
        let route = paths.route_to(t).unwrap();
        assert_eq!(route.nodes(), &[s, b, t]);
        assert_eq!(route.links(), &[sb, bt]);
        assert!(route.is_valid_in(&topo));
    }

    #[test]
    fn source_has_zero_distance_and_trivial_route() {
        let (topo, [s, ..], _) = diamond();
        let w = LinkWeights::uniform(5, 1.0);
        let paths = dijkstra(&topo, &w, s).unwrap();
        assert_eq!(paths.distance_to(s), Some(0.0));
        let route = paths.route_to(s).unwrap();
        assert_eq!(route.hops(), 0);
        assert_eq!(paths.source(), s);
    }

    #[test]
    fn unreachable_nodes_have_no_route() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        let _z = b.add_node("z"); // isolated
        b.add_link(x, y, Mbps::new(1.0)).unwrap();
        let topo = b.build();
        let paths = dijkstra(&topo, &LinkWeights::uniform(1, 1.0), x).unwrap();
        assert!(paths.is_reachable(y));
        assert!(!paths.is_reachable(NodeId::new(2)));
        assert_eq!(paths.route_to(NodeId::new(2)), None);
    }

    #[test]
    fn zero_weights_are_allowed() {
        let (topo, [s, _, _, t], _) = diamond();
        let w = LinkWeights::uniform(5, 0.0);
        let paths = dijkstra(&topo, &w, s).unwrap();
        assert_eq!(paths.distance_to(t), Some(0.0));
    }

    #[test]
    fn infinite_weights_mask_links() {
        let (topo, [s, a, b, t], [sa, sb, ab, at, bt]) = diamond();
        let mut w = LinkWeights::uniform(5, 1.0);
        // Down every link into t except via a: the route must detour.
        w.set_weight(sb, f64::INFINITY);
        w.set_weight(bt, f64::INFINITY);
        let paths = dijkstra(&topo, &w, s).unwrap();
        let route = paths.route_to(t).unwrap();
        assert_eq!(route.links(), &[sa, at]);
        assert!(paths.is_reachable(b), "b is still reachable via a");
        assert_eq!(paths.distance_to(b), Some(2.0)); // s-a-b

        // Masking every incident link makes the node unreachable, on
        // both implementations identically.
        w.set_weight(ab, f64::INFINITY);
        w.set_weight(at, f64::INFINITY);
        let paths = dijkstra(&topo, &w, s).unwrap();
        assert!(!paths.is_reachable(t));
        assert_eq!(paths.distance_to(a), Some(1.0));
        let mut scratch = DijkstraScratch::new();
        let scratch_paths = dijkstra_with_scratch(&topo, &w, s, &mut scratch).unwrap();
        assert_eq!(scratch_paths.distance_to(t), None);
    }

    #[test]
    fn negative_weights_rejected() {
        let (topo, [s, ..], _) = diamond();
        let w = LinkWeights::uniform(5, -1.0);
        assert!(matches!(
            dijkstra(&topo, &w, s),
            Err(NetError::NegativeWeight(..))
        ));
    }

    #[test]
    fn foreign_source_rejected() {
        let (topo, ..) = diamond();
        let w = LinkWeights::uniform(5, 1.0);
        assert!(matches!(
            dijkstra(&topo, &w, NodeId::new(77)),
            Err(NetError::UnknownNode(..))
        ));
    }

    #[test]
    fn trace_settles_every_reachable_node_once() {
        let (topo, [s, ..], _) = diamond();
        let w = LinkWeights::uniform(5, 1.0);
        let (_, trace) = dijkstra_with_trace(&topo, &w, s).unwrap();
        assert_eq!(trace.steps().len(), 4);
        let last = trace.steps().last().unwrap();
        assert_eq!(last.settled.len(), 4);
        // First settled node is the source.
        assert_eq!(trace.steps()[0].settled, vec![s]);
    }

    #[test]
    fn trace_paths_match_final_routes() {
        let (topo, [s, _, _, t], _) = diamond();
        let w = LinkWeights::uniform(5, 1.0);
        let (paths, trace) = dijkstra_with_trace(&topo, &w, s).unwrap();
        let last = trace.steps().last().unwrap();
        let label = &last.labels[t.index()];
        assert_eq!(label.dist, paths.distance_to(t));
        assert_eq!(label.path, paths.route_to(t).unwrap().nodes().to_vec());
    }

    #[test]
    fn scratch_variant_matches_plain_dijkstra() {
        let (topo, [s, a, b, t], links) = diamond();
        let mut w = LinkWeights::uniform(5, 1.0);
        for (i, l) in links.iter().enumerate() {
            w.set_weight(*l, 0.25 + i as f64 * 0.5);
        }
        let mut scratch = DijkstraScratch::new();
        for src in [s, a, b, t] {
            let plain = dijkstra(&topo, &w, src).unwrap();
            let scratched = dijkstra_with_scratch(&topo, &w, src, &mut scratch).unwrap();
            assert_eq!(plain, scratched);
        }
        // Scratch adapts when reused across topologies of other sizes.
        let mut builder = TopologyBuilder::new();
        let x = builder.add_node("x");
        let y = builder.add_node("y");
        builder.add_link(x, y, Mbps::new(1.0)).unwrap();
        let small = builder.build();
        let w1 = LinkWeights::uniform(1, 2.0);
        let p = dijkstra_with_scratch(&small, &w1, x, &mut scratch).unwrap();
        assert_eq!(p.distance_to(y), Some(2.0));
        assert!(matches!(
            dijkstra_with_scratch(&small, &w1, NodeId::new(9), &mut scratch),
            Err(NetError::UnknownNode(..))
        ));
    }

    proptest! {
        /// Distances satisfy the triangle inequality over direct links.
        #[test]
        fn settled_distances_respect_link_relaxation(
            seed_weights in proptest::collection::vec(0.0f64..3.0, 6),
        ) {
            let (topo, [s, ..], links) = diamond();
            let mut w = LinkWeights::uniform(5, 1.0);
            for (i, l) in links.iter().enumerate() {
                w.set_weight(*l, seed_weights[i]);
            }
            let d = dijkstra(&topo, &w, s).unwrap();
            for link in topo.links() {
                let (a, b) = link.endpoints();
                if let (Some(da), Some(db)) = (d.distance_to(a), d.distance_to(b)) {
                    let wl = w.weight(link.id());
                    prop_assert!(db <= da + wl + 1e-9);
                    prop_assert!(da <= db + wl + 1e-9);
                }
            }
        }
    }
}
