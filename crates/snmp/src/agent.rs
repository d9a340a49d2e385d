//! Per-server SNMP agents.
//!
//! Each video server's statistics module is responsible for "all the
//! adjacent to the node links used by the VoD network"; a [`ServerAgent`]
//! captures that responsibility set.

use vod_net::{LinkId, NodeId, Topology};

/// The SNMP statistics module of one video server: the node it runs on
/// and the links it reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerAgent {
    node: NodeId,
    links: Vec<LinkId>,
}

impl ServerAgent {
    /// Creates the agent for `node`, responsible for its adjacent links.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in `topology`.
    pub fn new(topology: &Topology, node: NodeId) -> Self {
        let links = topology.adjacent(node).iter().map(|inc| inc.link).collect();
        ServerAgent { node, links }
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The links this agent reports, in adjacency order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Builds one agent per video-server node of `topology`.
    pub fn all_servers(topology: &Topology) -> Vec<ServerAgent> {
        topology
            .video_server_nodes()
            .into_iter()
            .map(|n| ServerAgent::new(topology, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies::grnet::{Grnet, GrnetLink, GrnetNode};

    #[test]
    fn agent_covers_adjacent_links() {
        let g = Grnet::new();
        let agent = ServerAgent::new(g.topology(), g.node(GrnetNode::Athens));
        assert_eq!(agent.node(), g.node(GrnetNode::Athens));
        let mut links = agent.links().to_vec();
        links.sort();
        let mut expected = vec![
            g.link(GrnetLink::PatraAthens),
            g.link(GrnetLink::ThessalonikiAthens),
            g.link(GrnetLink::AthensHeraklio),
        ];
        expected.sort();
        assert_eq!(links, expected);
    }

    #[test]
    fn every_server_gets_an_agent_and_every_link_is_covered() {
        let g = Grnet::new();
        let agents = ServerAgent::all_servers(g.topology());
        assert_eq!(agents.len(), 6);
        // Union of responsibilities covers all 7 links.
        let mut covered: Vec<LinkId> = agents
            .iter()
            .flat_map(|a| a.links().iter().copied())
            .collect();
        covered.sort();
        covered.dedup();
        assert_eq!(covered.len(), 7);
    }
}
