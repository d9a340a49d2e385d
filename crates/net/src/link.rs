//! Network links.

use serde::{Deserialize, Serialize};

use crate::ids::{LinkId, NodeId};
use crate::units::Mbps;

/// A bidirectional network link between two nodes.
///
/// The paper models each backbone connection as a single bidirectional pipe
/// whose SNMP utilization is `(traffic_in + traffic_out) / capacity`
/// (its equation (5)); we follow that convention, so a `Link` carries one
/// capacity and is shared by both directions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    id: LinkId,
    a: NodeId,
    b: NodeId,
    capacity: Mbps,
}

impl Link {
    #[inline]
    pub(crate) fn new(id: LinkId, a: NodeId, b: NodeId, capacity: Mbps) -> Self {
        Link { id, a, b, capacity }
    }

    /// Returns this link's identifier.
    #[inline]
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Returns the first endpoint (the one passed first at construction).
    #[inline]
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// Returns the second endpoint.
    #[inline]
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Returns both endpoints as `(a, b)`.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Returns the total capacity of the link.
    #[inline]
    pub fn capacity(&self) -> Mbps {
        self.capacity
    }

    /// Returns true if `node` is one of this link's endpoints.
    #[inline]
    pub fn touches(&self, node: NodeId) -> bool {
        self.a == node || self.b == node
    }

    /// Given one endpoint, returns the other one.
    ///
    /// Returns `None` if `node` is not an endpoint of this link.
    #[inline]
    pub fn opposite(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(
            LinkId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            Mbps::new(2.0),
        )
    }

    #[test]
    fn accessors() {
        let l = link();
        assert_eq!(l.id(), LinkId::new(0));
        assert_eq!(l.a(), NodeId::new(1));
        assert_eq!(l.b(), NodeId::new(2));
        assert_eq!(l.endpoints(), (NodeId::new(1), NodeId::new(2)));
        assert_eq!(l.capacity(), Mbps::new(2.0));
    }

    #[test]
    fn touches_both_endpoints_only() {
        let l = link();
        assert!(l.touches(NodeId::new(1)));
        assert!(l.touches(NodeId::new(2)));
        assert!(!l.touches(NodeId::new(3)));
    }

    #[test]
    fn opposite_endpoint() {
        let l = link();
        assert_eq!(l.opposite(NodeId::new(1)), Some(NodeId::new(2)));
        assert_eq!(l.opposite(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(l.opposite(NodeId::new(9)), None);
    }
}
