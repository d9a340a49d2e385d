//! Strongly-typed identifiers for topology elements.
//!
//! Nodes and links are stored densely inside a [`Topology`](crate::Topology)
//! and addressed by index; the [`NodeId`] and [`LinkId`] newtypes keep the
//! two index spaces from being confused (C-NEWTYPE).

use std::fmt;

use serde::Serialize;

/// Identifier of a node within a [`Topology`](crate::Topology).
///
/// A `NodeId` is only meaningful for the topology that issued it (via
/// [`TopologyBuilder::add_node`](crate::TopologyBuilder::add_node)).
///
/// # Examples
///
/// ```
/// use vod_net::NodeId;
///
/// let id = NodeId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "n3");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    #[inline]
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// Identifier of a link within a [`Topology`](crate::Topology).
///
/// # Examples
///
/// ```
/// use vod_net::LinkId;
///
/// let id = LinkId::new(0);
/// assert_eq!(id.index(), 0);
/// assert_eq!(id.to_string(), "l0");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        LinkId(raw)
    }

    /// Returns the dense index of this link.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<LinkId> for usize {
    #[inline]
    fn from(id: LinkId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[expect(clippy::disallowed_types, reason = "tests `NodeId`'s `Hash`")]
    use std::collections::HashSet;

    #[test]
    fn node_id_round_trips_index() {
        for raw in [0u32, 1, 17, u32::MAX] {
            assert_eq!(NodeId::new(raw).index(), raw as usize);
        }
    }

    #[test]
    fn link_id_round_trips_index() {
        for raw in [0u32, 1, 17, u32::MAX] {
            assert_eq!(LinkId::new(raw).index(), raw as usize);
        }
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(LinkId::new(0) < LinkId::new(9));
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "tests `NodeId`'s `Hash`")]
    fn ids_are_hashable_and_distinct() {
        let set: HashSet<NodeId> = (0..10).map(NodeId::new).collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(42).to_string(), "n42");
        assert_eq!(LinkId::new(7).to_string(), "l7");
    }
}
