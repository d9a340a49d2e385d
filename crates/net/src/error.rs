//! Error types for the network model.

use std::error::Error;
use std::fmt;

use crate::ids::{LinkId, NodeId};

/// Errors produced by topology construction and routing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// A node id referred to a node that does not exist in the topology.
    UnknownNode(NodeId),
    /// A link id referred to a link that does not exist in the topology.
    UnknownLink(LinkId),
    /// A link was added with both endpoints equal.
    SelfLoop(NodeId),
    /// A link was added between endpoints that are already connected.
    DuplicateLink(NodeId, NodeId),
    /// A weight table did not match the topology's link count.
    WeightCountMismatch {
        /// Number of links in the topology.
        expected: usize,
        /// Number of weights supplied.
        actual: usize,
    },
    /// Dijkstra's algorithm was invoked with a negative link weight.
    NegativeWeight(LinkId, f64),
    /// Dijkstra's algorithm was invoked with a NaN link weight.
    InvalidWeight(LinkId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(id) => write!(f, "unknown node {id}"),
            NetError::UnknownLink(id) => write!(f, "unknown link {id}"),
            NetError::SelfLoop(id) => write!(f, "self loop at node {id}"),
            NetError::DuplicateLink(a, b) => {
                write!(f, "nodes {a} and {b} are already connected")
            }
            NetError::WeightCountMismatch { expected, actual } => write!(
                f,
                "weight table has {actual} entries but the topology has {expected} links"
            ),
            NetError::NegativeWeight(id, w) => {
                write!(f, "link {id} has negative weight {w}")
            }
            NetError::InvalidWeight(id) => write!(f, "link {id} has a NaN weight"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msgs = [
            NetError::UnknownNode(NodeId::new(3)).to_string(),
            NetError::UnknownLink(LinkId::new(2)).to_string(),
            NetError::SelfLoop(NodeId::new(0)).to_string(),
            NetError::DuplicateLink(NodeId::new(0), NodeId::new(1)).to_string(),
            NetError::WeightCountMismatch {
                expected: 7,
                actual: 6,
            }
            .to_string(),
            NetError::NegativeWeight(LinkId::new(1), -0.5).to_string(),
            NetError::InvalidWeight(LinkId::new(1)).to_string(),
        ];
        for msg in msgs {
            assert!(!msg.is_empty());
        }
        assert!(NetError::UnknownNode(NodeId::new(3))
            .to_string()
            .contains("n3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}
