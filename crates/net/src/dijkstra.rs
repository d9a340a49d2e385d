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
/// One [`Label`] per node, in node order: distances are `f64` with
/// `f64::INFINITY` marking unreachable nodes — every finite label is a
/// genuine path cost (the relaxations skip non-finite weights), so the
/// sentinel is unambiguous and the hot loops compare plain floats
/// instead of branching on an `Option` discriminant.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    source: NodeId,
    labels: Vec<Label>,
}

/// One node's entry of a Dijkstra run, 16 bytes: the cost of the
/// cheapest path found so far, the node and link it arrives from, and
/// whether the cost is final.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Label {
    /// `f64::INFINITY` while unreached.
    dist: f64,
    /// The parent node, or [`Label::NO_PARENT`] at the source and while
    /// unreached.
    parent: u32,
    /// The link from `parent`, with [`Label::SETTLED`] set once `dist`
    /// is final (link ids stay below 2³¹).
    link: u32,
}

impl Label {
    const NO_PARENT: u32 = u32::MAX;
    const SETTLED: u32 = 1 << 31;
    const UNREACHED: Label = Label {
        dist: f64::INFINITY,
        parent: Label::NO_PARENT,
        link: 0,
    };

    /// The parent node and the link from it.
    fn prev(self) -> Option<(NodeId, LinkId)> {
        (self.parent != Label::NO_PARENT).then(|| {
            (
                NodeId::new(self.parent),
                LinkId::new(self.link & !Label::SETTLED),
            )
        })
    }

    fn is_settled(self) -> bool {
        self.link & Label::SETTLED != 0
    }
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
        #[expect(
            clippy::indexing_slicing,
            reason = "documented panic: `target` is a node of the searched topology"
        )]
        let d = self.labels[target.index()].dist;
        d.is_finite().then_some(d)
    }

    /// Returns true if `target` is reachable from the source.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `target` is a node of the searched topology"
    )]
    pub fn is_reachable(&self, target: NodeId) -> bool {
        self.labels[target.index()].dist.is_finite()
    }

    /// Reconstructs the cheapest route from the source to `target`, or
    /// `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: the parent chain ends at the source"
    )]
    pub fn route_to(&self, target: NodeId) -> Option<Route> {
        let cost = self.distance_to(target)?;
        let mut nodes = vec![target];
        let mut links = Vec::new();
        let mut cur = target;
        #[expect(
            clippy::indexing_slicing,
            reason = "`labels` holds one entry per node, and `target` and every parent are nodes of the searched topology"
        )]
        while let Some((parent, link)) = self.labels[cur.index()].prev() {
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

/// A Dijkstra frontier entry, ordered for a min-heap over f64 costs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Frontier {
    cost: f64,
    node: NodeId,
}

impl Eq for Frontier {}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the smallest cost;
        // tie-break on node id for determinism.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The frontier of a Dijkstra run: a lazy min-heap of (cost, node).
pub(crate) type FrontierHeap = BinaryHeap<Frontier>;

/// One Dijkstra run from one source that can stop between two settles
/// and resume later: its labels and settled flags.
///
/// Every entry point of this module drives one: [`dijkstra`] and
/// [`dijkstra_with_trace`] to exhaustion, and the routing engine
/// (`RoutingEngine`) only as far as a request needs. A stopped run keeps
/// no frontier: [`Search::resume`] rebuilds it from the labels — one
/// entry per reached, unsettled node at its label. The heap a run had
/// when it stopped holds those entries plus stale ones, which are never
/// the minimum before their node settles and are skipped after, so the
/// rebuilt frontier pops the same nodes in the same order (the (cost,
/// node id) order is total). Resuming therefore replays exactly the
/// settles of the uninterrupted run: a settled node's label and parent
/// chain are already the final ones, and every unsettled node costs at
/// least the cheapest frontier entry (weights are non-negative).
#[derive(Debug, Clone)]
pub(crate) struct Search {
    paths: ShortestPaths,
}

/// A [`Search`] being advanced, with its frontier.
pub(crate) struct Resumed<'a> {
    search: &'a mut Search,
    heap: &'a mut FrontierHeap,
}

impl Search {
    /// A search with empty buffers, to be [`restart`](Self::restart)ed.
    pub(crate) fn new() -> Self {
        Search {
            paths: ShortestPaths {
                source: NodeId::new(0),
                labels: Vec::new(),
            },
        }
    }

    /// Starts over from `source` on a topology of `nodes` nodes, keeping
    /// the buffers' allocations.
    #[expect(
        clippy::indexing_slicing,
        reason = "`labels` was just sized by `nodes`, and callers pass a `source` of the topology"
    )]
    pub(crate) fn restart(&mut self, nodes: usize, source: NodeId) {
        let ShortestPaths {
            source: from,
            labels,
        } = &mut self.paths;
        *from = source;
        labels.clear();
        labels.resize(nodes, Label::UNREACHED);
        labels[source.index()].dist = 0.0;
    }

    /// The run with its frontier rebuilt into `heap` (emptied first).
    pub(crate) fn resume<'a>(&'a mut self, heap: &'a mut FrontierHeap) -> Resumed<'a> {
        heap.clear();
        heap.extend(
            self.paths
                .labels
                .iter()
                .enumerate()
                .filter(|(_, label)| !label.is_settled() && label.dist.is_finite())
                .map(|(i, label)| Frontier {
                    cost: label.dist,
                    node: NodeId::new(i as u32),
                }),
        );
        Resumed { search: self, heap }
    }

    /// Whether `node`'s label is final.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `node` is a node of the searched topology"
    )]
    pub(crate) fn is_settled(&self, node: NodeId) -> bool {
        self.paths.labels[node.index()].is_settled()
    }

    /// The labels so far: final for the settled nodes, and the complete
    /// shortest-path tree once a resume has run dry.
    pub(crate) fn paths(&self) -> &ShortestPaths {
        &self.paths
    }
}

impl Resumed<'_> {
    /// Pops the frontier until it settles a node costing at most
    /// `limit`, relaxes that node's links and returns it with its cost;
    /// `None` once the frontier is empty or its cheapest entry costs
    /// more than `limit`.
    ///
    /// `weights` must have passed [`LinkWeights::validate`] against
    /// `topology`, and `topology` must be the one the search restarted
    /// on.
    #[expect(
        clippy::indexing_slicing,
        reason = "`labels` is sized by `node_count`, and frontier nodes and neighbours come from the same topology's CSR"
    )]
    pub(crate) fn settle_next(
        &mut self,
        topology: &Topology,
        weights: &LinkWeights,
        limit: f64,
    ) -> Option<(NodeId, f64)> {
        let labels = &mut self.search.paths.labels;
        while self.heap.peek().is_some_and(|top| top.cost <= limit) {
            let Frontier { cost, node } = self.heap.pop()?;
            let label = &mut labels[node.index()];
            if label.is_settled() {
                continue;
            }
            label.link |= Label::SETTLED;
            for inc in topology.adjacent(node) {
                let w = weights.weight(inc.link);
                // Non-finite weights mask administratively-down links: an
                // unreachable-only-through-them node must stay `None`.
                if !w.is_finite() {
                    continue;
                }
                let next = cost + w;
                let entry = &mut labels[inc.neighbor.index()];
                if next < entry.dist {
                    *entry = Label {
                        dist: next,
                        parent: node.index() as u32,
                        link: inc.link.index() as u32,
                    };
                    self.heap.push(Frontier {
                        cost: next,
                        node: inc.neighbor,
                    });
                }
            }
            return Some((node, cost));
        }
        None
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
    run(topology, weights, source, None)
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
    let paths = run(topology, weights, source, Some(&mut trace))?;
    Ok((paths, trace))
}

fn run(
    topology: &Topology,
    weights: &LinkWeights,
    source: NodeId,
    mut trace: Option<&mut DijkstraTrace>,
) -> Result<ShortestPaths, NetError> {
    weights.validate(topology)?;
    topology.try_node(source)?;

    let mut search = Search::new();
    search.restart(topology.node_count(), source);
    let mut heap = FrontierHeap::new();
    let mut run = search.resume(&mut heap);
    let mut settled_order = Vec::new();
    while let Some((node, _)) = run.settle_next(topology, weights, f64::INFINITY) {
        if let Some(trace) = trace.as_deref_mut() {
            settled_order.push(node);
            let paths = &run.search.paths;
            let labels = paths
                .labels
                .iter()
                .enumerate()
                .map(|(i, label)| {
                    let id = NodeId::new(i as u32);
                    NodeLabel {
                        node: id,
                        dist: label.dist.is_finite().then_some(label.dist),
                        path: label_path(paths, id),
                    }
                })
                .collect();
            trace.push_step(TraceStep {
                settled: settled_order.clone(),
                labels,
            });
        }
    }

    Ok(search.paths)
}

/// Reconstructs the tentative path for the trace table (empty when the
/// node is still unreached — rendered as the paper's "R").
fn label_path(paths: &ShortestPaths, target: NodeId) -> Vec<NodeId> {
    if !paths.is_reachable(target) {
        return Vec::new();
    }
    let mut nodes = vec![target];
    let mut cur = target;
    while cur != paths.source {
        #[expect(
            clippy::indexing_slicing,
            reason = "`labels` holds one entry per node of the searched topology"
        )]
        match paths.labels[cur.index()].prev() {
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

        // Masking every incident link makes the node unreachable.
        w.set_weight(ab, f64::INFINITY);
        w.set_weight(at, f64::INFINITY);
        let paths = dijkstra(&topo, &w, s).unwrap();
        assert!(!paths.is_reachable(t));
        assert_eq!(paths.distance_to(a), Some(1.0));
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
