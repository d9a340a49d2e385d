//! The network topology: nodes, links and adjacency.

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::node::{Node, NodeKind};
use crate::units::Mbps;

/// An entry in a node's adjacency list: the incident link and the node at
/// its far end.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Incidence {
    /// The incident link.
    pub link: LinkId,
    /// The neighbor reached over [`Incidence::link`].
    pub neighbor: NodeId,
}

/// An immutable network topology of named nodes and capacity-labelled
/// bidirectional links.
///
/// Built with [`TopologyBuilder`]. The node set is fixed once built — the
/// paper's service assumes "a network the participating nodes of which are
/// known in advance"; growing the network means building a new topology
/// (and, in `vod-db`, updating the corresponding database entries).
///
/// # Examples
///
/// ```
/// use vod_net::{Mbps, TopologyBuilder};
///
/// # fn main() -> Result<(), vod_net::NetError> {
/// let mut b = TopologyBuilder::new();
/// let patra = b.add_node("Patra");
/// let athens = b.add_node("Athens");
/// let l = b.add_link(patra, athens, Mbps::new(2.0))?;
/// let topo = b.build();
/// assert_eq!(topo.link(l).capacity(), Mbps::new(2.0));
/// assert!(topo.is_connected());
/// # Ok(())
/// # }
/// ```
/// Adjacency is stored in CSR (compressed sparse row) form: the
/// incidences of node `i` are the contiguous slice
/// `adj_entries[adj_offsets[i] .. adj_offsets[i + 1]]`, in link-id
/// order. The flat layout keeps the Dijkstra/LVN hot loops on one
/// cache-friendly array instead of chasing per-node `Vec` pointers.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adj_offsets: Vec<u32>,
    adj_entries: Vec<Incidence>,
}

/// Builds the CSR arrays from a link list. Filling scans links in id
/// order, so each node's incidences come out sorted by link id — the
/// same order the old per-node `Vec<Incidence>` lists had, which keeps
/// relaxation order (and therefore float summation and tie-breaking)
/// bit-identical.
#[expect(
    clippy::indexing_slicing,
    reason = "CSR: `offsets` holds `node_count + 1` entries (`offsets[link.a().index() + 1]`, `offsets[link.b().index() + 1]`, `offsets[i + 1] += offsets[i]`) and each cursor stays below its node's prefix sum (`entries[cursor[a] as usize]`, `entries[cursor[b] as usize]`)"
)]
fn build_csr(node_count: usize, links: &[Link]) -> (Vec<u32>, Vec<Incidence>) {
    let mut offsets = vec![0u32; node_count + 1];
    for link in links {
        offsets[link.a().index() + 1] += 1;
        offsets[link.b().index() + 1] += 1;
    }
    for i in 0..node_count {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
    let mut entries = vec![
        Incidence {
            link: LinkId::new(0),
            neighbor: NodeId::new(0),
        };
        links.len() * 2
    ];
    for link in links {
        let a = link.a().index();
        let b = link.b().index();
        entries[cursor[a] as usize] = Incidence {
            link: link.id(),
            neighbor: link.b(),
        };
        cursor[a] += 1;
        entries[cursor[b] as usize] = Incidence {
            link: link.id(),
            neighbor: link.a(),
        };
        cursor[b] += 1;
    }
    (offsets, entries)
}

impl Topology {
    fn from_parts(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        let (adj_offsets, adj_entries) = build_csr(nodes.len(), &links);
        Topology {
            nodes,
            links,
            adj_offsets,
            adj_entries,
        }
    }

    /// Returns the number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `id` belongs to this topology"
    )]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `id` belongs to this topology"
    )]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Returns the node with the given id, or an error for foreign ids.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, NetError> {
        self.nodes.get(id.index()).ok_or(NetError::UnknownNode(id))
    }

    /// Returns the link with the given id, or an error for foreign ids.
    pub fn try_link(&self, id: LinkId) -> Result<&Link, NetError> {
        self.links.get(id.index()).ok_or(NetError::UnknownLink(id))
    }

    /// Iterates over all nodes in id order.
    #[inline]
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates over all links in id order.
    #[inline]
    pub fn links(&self) -> impl ExactSizeIterator<Item = &Link> {
        self.links.iter()
    }

    /// Iterates over all node ids.
    #[inline]
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates over all link ids.
    #[inline]
    pub fn link_ids(&self) -> impl ExactSizeIterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId::new)
    }

    /// Returns the adjacency list of `node`: each incident link together
    /// with the neighbor it leads to.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this topology.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic for a foreign node; the CSR holds `node_count + 1` offsets, so `adj_offsets[node.index() + 1]` is in range"
    )]
    pub fn adjacent(&self, node: NodeId) -> &[Incidence] {
        let start = self.adj_offsets[node.index()] as usize;
        let end = self.adj_offsets[node.index() + 1] as usize;
        &self.adj_entries[start..end]
    }

    /// Returns the degree (number of incident links) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this topology.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacent(node).len()
    }

    /// Finds a node by its name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.name() == name).map(Node::id)
    }

    /// Returns true if every node can reach every other node.
    ///
    /// An empty topology is considered connected.
    #[expect(
        clippy::indexing_slicing,
        reason = "`seen` holds one flag per node, and node 0 exists because `nodes` is non-empty"
    )]
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for inc in self.adjacent(n) {
                if !seen[inc.neighbor.index()] {
                    seen[inc.neighbor.index()] = true;
                    count += 1;
                    stack.push(inc.neighbor);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Sum of all link capacities.
    pub fn total_capacity(&self) -> Mbps {
        self.links.iter().map(Link::capacity).sum()
    }

    /// Node ids of all nodes that host a video server.
    pub fn video_server_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_video_server())
            .map(Node::id)
            .collect()
    }
}

/// Incremental builder for [`Topology`] (C-BUILDER).
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a video-server node with the given name and returns its id.
    /// Names need not be unique; [`Topology::find_node`] returns the
    /// first node of a name.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node_with_kind(name, NodeKind::VideoServer)
    }

    /// Adds a node with an explicit [`NodeKind`] and returns its id.
    pub fn add_node_with_kind(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, name.into(), kind));
        id
    }

    /// Adds a bidirectional link between `a` and `b` with the given
    /// capacity and returns its id.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] if either endpoint has not been added.
    /// * [`NetError::SelfLoop`] if `a == b`.
    /// * [`NetError::DuplicateLink`] if `a` and `b` are already connected.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity: Mbps) -> Result<LinkId, NetError> {
        if a.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode(a));
        }
        if b.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode(b));
        }
        if a == b {
            return Err(NetError::SelfLoop(a));
        }
        if self.links.iter().any(|l| l.touches(a) && l.touches(b)) {
            return Err(NetError::DuplicateLink(a, b));
        }
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(Link::new(id, a, b, capacity));
        Ok(id)
    }

    /// Returns the number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of links added so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Finalizes the topology, computing the CSR adjacency arrays.
    pub fn build(self) -> Topology {
        Topology::from_parts(self.nodes, self.links)
    }
}

// Manual serde impls: only nodes and links are persisted; the CSR
// adjacency is derived data and is rebuilt on deserialize, so a stored
// topology can never carry inconsistent adjacency.
impl Serialize for Topology {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("links".to_string(), self.links.to_value()),
        ])
    }
}

impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let nodes: Vec<Node> = match v.get_field("nodes") {
            Some(f) => Deserialize::from_value(f)?,
            None => return Err(serde::Error::custom("missing field `nodes` of `Topology`")),
        };
        let links: Vec<Link> = match v.get_field("links") {
            Some(f) => Deserialize::from_value(f)?,
            None => return Err(serde::Error::custom("missing field `links` of `Topology`")),
        };
        Ok(Topology::from_parts(nodes, links))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, [NodeId; 3], [LinkId; 3]) {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("a");
        let n1 = b.add_node("b");
        let n2 = b.add_node("c");
        let l0 = b.add_link(n0, n1, Mbps::new(2.0)).unwrap();
        let l1 = b.add_link(n1, n2, Mbps::new(18.0)).unwrap();
        let l2 = b.add_link(n2, n0, Mbps::new(34.0)).unwrap();
        (b.build(), [n0, n1, n2], [l0, l1, l2])
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let (topo, nodes, links) = triangle();
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.link_count(), 3);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.index(), i);
        }
        for (i, l) in links.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (topo, nodes, _) = triangle();
        for n in nodes {
            assert_eq!(topo.degree(n), 2);
            for inc in topo.adjacent(n) {
                assert!(topo
                    .adjacent(inc.neighbor)
                    .iter()
                    .any(|back| back.neighbor == n && back.link == inc.link));
            }
        }
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = TopologyBuilder::new();
        let n = b.add_node("solo");
        assert_eq!(b.add_link(n, n, Mbps::new(1.0)), Err(NetError::SelfLoop(n)));
    }

    #[test]
    fn duplicate_links_rejected() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link(x, y, Mbps::new(1.0)).unwrap();
        assert_eq!(
            b.add_link(y, x, Mbps::new(1.0)),
            Err(NetError::DuplicateLink(y, x))
        );
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let ghost = NodeId::new(9);
        assert_eq!(
            b.add_link(x, ghost, Mbps::new(1.0)),
            Err(NetError::UnknownNode(ghost))
        );
    }

    #[test]
    fn find_node_by_name() {
        let (topo, [a, ..], _) = triangle();
        assert_eq!(topo.find_node("a"), Some(a));
        assert_eq!(topo.find_node("zz"), None);
    }

    #[test]
    fn connectivity() {
        let (topo, ..) = triangle();
        assert!(topo.is_connected());

        let mut b = TopologyBuilder::new();
        b.add_node("island1");
        b.add_node("island2");
        assert!(!b.build().is_connected());

        assert!(TopologyBuilder::new().build().is_connected());
    }

    #[test]
    fn total_capacity_sums_links() {
        let (topo, ..) = triangle();
        assert_eq!(topo.total_capacity(), Mbps::new(54.0));
    }

    #[test]
    fn video_server_nodes_filters_transit() {
        let mut b = TopologyBuilder::new();
        let s = b.add_node("server");
        let t = b.add_node_with_kind("router", NodeKind::Transit);
        b.add_link(s, t, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        assert_eq!(topo.video_server_nodes(), vec![s]);
    }

    #[test]
    fn try_accessors_reject_foreign_ids() {
        let (topo, ..) = triangle();
        assert!(topo.try_node(NodeId::new(99)).is_err());
        assert!(topo.try_link(LinkId::new(99)).is_err());
        assert!(topo.try_node(NodeId::new(0)).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let (topo, ..) = triangle();
        let json = serde_json::to_string(&topo).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(topo, back);
    }
}
