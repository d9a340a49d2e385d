//! Deterministic synthetic topologies: line, ring, star, grid, full mesh.
//!
//! Used by scale benchmarks (DESIGN.md E5) and by tests that need graphs
//! with known structure. All nodes are video servers and all links share
//! one capacity.

use crate::error::NetError;
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

/// A ring of `n` nodes.
///
/// # Panics
///
/// Panics if `n < 3` (a smaller ring would need parallel links).
pub fn ring(n: usize, capacity: Mbps) -> Topology {
    assert!(n >= 3, "a ring needs at least three nodes");
    let mut b = TopologyBuilder::new();
    let nodes: Vec<_> = (0..n).map(|i| b.add_node(format!("v{i}"))).collect();
    for i in 0..n {
        #[expect(clippy::expect_used, reason = "ring links are well-formed")]
        b.add_link(nodes[i], nodes[(i + 1) % n], capacity)
            .expect("ring links are well-formed");
    }
    b.build()
}

/// A star: node 0 is the hub, nodes `1..n` are leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize, capacity: Mbps) -> Topology {
    assert!(n >= 2, "a star needs a hub and at least one leaf");
    let mut b = TopologyBuilder::new();
    let hub = b.add_node("hub");
    for i in 1..n {
        let leaf = b.add_node(format!("v{i}"));
        #[expect(clippy::expect_used, reason = "star links are well-formed")]
        b.add_link(hub, leaf, capacity)
            .expect("star links are well-formed");
    }
    b.build()
}

/// A `width × height` grid with 4-neighbor connectivity.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(width: usize, height: usize, capacity: Mbps) -> Topology {
    assert!(width > 0 && height > 0, "grid dimensions must be positive");
    let mut b = TopologyBuilder::new();
    let mut ids = Vec::with_capacity(width * height);
    for y in 0..height {
        for x in 0..width {
            ids.push(b.add_node(format!("g{x}_{y}")));
        }
    }
    let at = |x: usize, y: usize| ids[y * width + x];
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                #[expect(clippy::expect_used, reason = "grid links are well-formed")]
                b.add_link(at(x, y), at(x + 1, y), capacity)
                    .expect("grid links are well-formed");
            }
            if y + 1 < height {
                #[expect(clippy::expect_used, reason = "grid links are well-formed")]
                b.add_link(at(x, y), at(x, y + 1), capacity)
                    .expect("grid links are well-formed");
            }
        }
    }
    b.build()
}

/// A complete graph on `n` nodes.
///
/// # Errors
///
/// Returns an error only if the builder rejects a link, which cannot
/// happen for distinct dense ids; the `Result` mirrors the builder API.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn full_mesh(n: usize, capacity: Mbps) -> Result<Topology, NetError> {
    assert!(n >= 2, "a mesh needs at least two nodes");
    let mut b = TopologyBuilder::new();
    let nodes: Vec<_> = (0..n).map(|i| b.add_node(format!("v{i}"))).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_link(nodes[i], nodes[j], capacity)?;
        }
    }
    Ok(b.build())
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

    #[test]
    fn ring_counts() {
        let t = ring(6, Mbps::new(2.0));
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.link_count(), 6);
        assert!(t.node_ids().all(|n| t.degree(n) == 2));
        assert!(t.is_connected());
    }

    #[test]
    #[should_panic(expected = "three nodes")]
    fn tiny_ring_rejected() {
        let _ = ring(2, CAP);
    }

    #[test]
    fn star_counts() {
        let t = star(5, Mbps::new(2.0));
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.link_count(), 4);
        assert_eq!(t.degree(NodeId::new(0)), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn grid_counts() {
        let t = grid(3, 4, Mbps::new(2.0));
        assert_eq!(t.node_count(), 12);
        // links: horizontal 2*4 + vertical 3*3 = 17
        assert_eq!(t.link_count(), 17);
        assert!(t.is_connected());
    }

    #[test]
    fn mesh_counts() {
        let t = full_mesh(5, Mbps::new(2.0)).unwrap();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.link_count(), 10);
        assert!(t.node_ids().all(|n| t.degree(n) == 4));
    }
}
