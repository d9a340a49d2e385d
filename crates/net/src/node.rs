//! Network nodes.

use crate::ids::NodeId;

/// A node of the VoD network.
///
/// In the paper every participating node hosts a video server (it may also
/// run other Internet services); pure transit routers are modelled with
/// [`NodeKind::Transit`].
///
/// # Examples
///
/// ```
/// use vod_net::TopologyBuilder;
///
/// let mut b = TopologyBuilder::new();
/// let athens = b.add_node("Athens");
/// let topo = b.build();
/// assert_eq!(topo.node(athens).name(), "Athens");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    id: NodeId,
    name: String,
    kind: NodeKind,
}

/// The role a node plays in the VoD service.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum NodeKind {
    /// The node hosts a video server participating in the service.
    #[default]
    VideoServer,
    /// The node only forwards traffic and hosts no video server.
    Transit,
}

impl Node {
    pub(crate) fn new(id: NodeId, name: String, kind: NodeKind) -> Self {
        Node { id, name, kind }
    }

    /// Returns this node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Returns this node's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the node's role in the service.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Returns true if a video server runs on this node.
    pub fn is_video_server(&self) -> bool {
        self.kind == NodeKind::VideoServer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_accessors() {
        let n = Node::new(NodeId::new(1), "Patra".to_string(), NodeKind::VideoServer);
        assert_eq!(n.id(), NodeId::new(1));
        assert_eq!(n.name(), "Patra");
        assert_eq!(n.kind(), NodeKind::VideoServer);
        assert!(n.is_video_server());
    }

    #[test]
    fn transit_nodes_host_no_server() {
        let n = Node::new(NodeId::new(0), "ix".to_string(), NodeKind::Transit);
        assert!(!n.is_video_server());
    }

    #[test]
    fn default_kind_is_video_server() {
        assert_eq!(NodeKind::default(), NodeKind::VideoServer);
    }
}
