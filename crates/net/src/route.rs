//! Routes (paths) through the topology.

use std::fmt;

use crate::ids::{LinkId, NodeId};
use crate::topology::Topology;

/// A simple path through the topology, with its total cost under the
/// weights it was computed from.
///
/// A `Route` always contains at least one node; a single-node route (the
/// source itself) has zero links and zero cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
    cost: f64,
}

impl Route {
    /// Creates a route from its node sequence, link sequence and cost.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or `links.len() + 1 != nodes.len()`.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: a route has at least one node, and `links.len() + 1` nodes; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(nodes: Vec<NodeId>, links: Vec<LinkId>, cost: f64) -> Self {
        assert!(!nodes.is_empty(), "a route has at least one node");
        assert_eq!(
            links.len() + 1,
            nodes.len(),
            "a route over k links visits k+1 nodes"
        );
        Route { nodes, links, cost }
    }

    /// The trivial route that never leaves `node`.
    pub fn trivial(node: NodeId) -> Self {
        Route {
            nodes: vec![node],
            links: Vec::new(),
            cost: 0.0,
        }
    }

    /// First node of the route.
    #[expect(
        clippy::indexing_slicing,
        reason = "`Route::new` asserts a route has at least one node"
    )]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the route.
    #[expect(clippy::expect_used, reason = "`new` rejects an empty node list")]
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("route is non-empty")
    }

    /// Number of links traversed.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Total cost of the route under the weights it was computed from.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The node sequence, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The link sequence, in traversal order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Returns true if the route traverses `link`.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// Checks this route is well-formed in `topology`: consecutive nodes
    /// joined by the listed links.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` indexes `links`, and `nodes` holds `links.len() + 1` entries"
    )]
    pub fn is_valid_in(&self, topology: &Topology) -> bool {
        self.links.iter().enumerate().all(|(i, &link)| {
            topology
                .try_link(link)
                .map(|l| {
                    l.touches(self.nodes[i]) && l.opposite(self.nodes[i]) == Some(self.nodes[i + 1])
                })
                .unwrap_or(false)
        })
    }

    /// Renders the route with node names from `topology`, in the paper's
    /// comma-separated style, e.g. `U2,U1,U6,U5`.
    pub fn display_with<'a>(&'a self, topology: &'a Topology) -> RouteDisplay<'a> {
        RouteDisplay {
            route: self,
            topology,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for n in &self.nodes {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        write!(f, " (cost {:.4})", self.cost)
    }
}

/// Helper returned by [`Route::display_with`]; formats node names.
#[derive(Debug)]
pub struct RouteDisplay<'a> {
    route: &'a Route,
    topology: &'a Topology,
}

impl fmt::Display for RouteDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &n in self.route.nodes() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", self.topology.node(n).name())?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::units::Mbps;

    fn line() -> (Topology, [NodeId; 3], [LinkId; 2]) {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("x");
        let n1 = b.add_node("y");
        let n2 = b.add_node("z");
        let l0 = b.add_link(n0, n1, Mbps::new(2.0)).unwrap();
        let l1 = b.add_link(n1, n2, Mbps::new(2.0)).unwrap();
        (b.build(), [n0, n1, n2], [l0, l1])
    }

    #[test]
    fn accessors() {
        let (_, [n0, n1, n2], [l0, l1]) = line();
        let r = Route::new(vec![n0, n1, n2], vec![l0, l1], 0.5);
        assert_eq!(r.source(), n0);
        assert_eq!(r.target(), n2);
        assert_eq!(r.hops(), 2);
        assert_eq!(r.cost(), 0.5);
        assert!(r.contains_link(l0));
        assert!(!r.contains_link(LinkId::new(99)));
    }

    #[test]
    fn trivial_route() {
        let r = Route::trivial(NodeId::new(4));
        assert_eq!(r.source(), r.target());
        assert_eq!(r.hops(), 0);
        assert_eq!(r.cost(), 0.0);
    }

    #[test]
    #[should_panic(expected = "k+1 nodes")]
    fn mismatched_lengths_rejected() {
        let _ = Route::new(vec![NodeId::new(0)], vec![LinkId::new(0)], 0.0);
    }

    #[test]
    fn validity_check() {
        let (topo, [n0, n1, n2], [l0, l1]) = line();
        let good = Route::new(vec![n0, n1, n2], vec![l0, l1], 1.0);
        assert!(good.is_valid_in(&topo));
        // l1 does not join n0 and n1.
        let bad = Route::new(vec![n0, n1], vec![l1], 1.0);
        assert!(!bad.is_valid_in(&topo));
    }

    #[test]
    fn display_with_names() {
        let (topo, [n0, n1, n2], [l0, l1]) = line();
        let r = Route::new(vec![n0, n1, n2], vec![l0, l1], 1.0);
        assert_eq!(r.display_with(&topo).to_string(), "x,y,z");
        assert!(r.to_string().contains("n0,n1,n2"));
    }
}
