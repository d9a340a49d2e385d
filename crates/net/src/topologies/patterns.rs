//! Deterministic synthetic topologies: a line (path graph) of video
//! servers joined by links of one capacity, for tests that need a graph
//! of known structure.

use crate::topology::{Topology, TopologyBuilder};
use crate::units::Mbps;

/// A line (path graph) of `n` nodes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize, capacity: Mbps) -> Topology {
    assert!(n > 0, "a line needs at least one node");
    let mut b = TopologyBuilder::new();
    let nodes: Vec<_> = (0..n).map(|i| b.add_node(format!("v{i}"))).collect();
    for i in 1..n {
        #[expect(clippy::expect_used, reason = "line links are well-formed")]
        b.add_link(nodes[i - 1], nodes[i], capacity)
            .expect("line links are well-formed");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    const CAP: Mbps = Mbps::ZERO;

    #[test]
    fn line_counts() {
        let t = line(5, Mbps::new(2.0));
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.link_count(), 4);
        assert!(t.is_connected());
        assert_eq!(t.degree(NodeId::new(0)), 1);
        assert_eq!(t.degree(NodeId::new(2)), 2);
    }

    #[test]
    fn single_node_line() {
        let t = line(1, CAP);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.link_count(), 0);
        assert!(t.is_connected());
    }
}
