//! The in-memory database store.

use std::collections::BTreeSet;

use vod_net::{LinkId, NodeId, Topology};
use vod_storage::video::VideoLibrary;

use crate::access::{FullAccess, LimitedAccess};
use crate::catalog::Catalog;
use crate::entry::LinkEntry;
use crate::error::DbError;

/// The service database: the registered servers, one entry per link,
/// the catalog of which server holds which title, and the service-wide
/// video library.
///
/// Reads and writes go through the typed views returned by
/// [`Database::full_access`] and [`Database::limited_access`]; see the
/// [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Database {
    servers: BTreeSet<NodeId>,
    /// The link entries, indexed by [`LinkId`]: entry `i` is link `i`'s.
    links: Vec<LinkEntry>,
    /// The full-access sub-module: each title's holders.
    catalog: Catalog,
    library: VideoLibrary,
    /// Monotonic counter bumped on every traffic write (SNMP reading),
    /// letting consumers cache snapshots derived from the link entries.
    /// Bookkeeping only: ignored by equality.
    traffic_version: u64,
}

// Two databases are equal iff their *data* is; the traffic-version
// counter is cache bookkeeping.
impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.servers == other.servers
            && self.links == other.links
            && self.catalog == other.catalog
            && self.library == other.library
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new(library: VideoLibrary) -> Self {
        Database {
            servers: BTreeSet::new(),
            links: Vec::new(),
            catalog: Catalog::default(),
            library,
            traffic_version: 0,
        }
    }

    /// Initializes the database from a topology: every video-server node
    /// is registered and every link gets a [`LinkEntry`] — the paper's
    /// service initialization, where participants contribute their
    /// links and title lists. The links' bandwidth stays in the
    /// topology, which every reader of a snapshot already holds.
    pub fn from_topology(topology: &Topology, library: VideoLibrary) -> Self {
        let mut db = Database::new(library);
        db.servers.extend(topology.video_server_nodes());
        db.links.extend(topology.link_ids().map(LinkEntry::new));
        db
    }

    /// The user-facing, read-only view of the full-access sub-module.
    pub fn full_access(&self) -> FullAccess<'_> {
        FullAccess::new(self)
    }

    /// The administrator view of the limited-access sub-module.
    pub fn limited_access(&mut self) -> LimitedAccess<'_> {
        LimitedAccess::new(self)
    }

    /// The service-wide video library.
    pub fn library(&self) -> &VideoLibrary {
        &self.library
    }

    /// Number of registered servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of link entries.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Monotonic version of the stored traffic state, bumped whenever an
    /// SNMP reading is recorded. Snapshots derived from this database
    /// stay valid exactly as long as the version does not change, so
    /// callers can reuse one snapshot instance across requests — which
    /// keeps epoch-keyed routing caches (see `vod_net::engine`) warm.
    pub fn traffic_version(&self) -> u64 {
        self.traffic_version
    }

    pub(crate) fn bump_traffic_version(&mut self, writes: u64) {
        self.traffic_version += writes;
    }

    // Crate-internal accessors used by the views.

    pub(crate) fn check_server(&self, node: NodeId) -> Result<(), DbError> {
        if self.servers.contains(&node) {
            Ok(())
        } else {
            Err(DbError::UnknownServer(node))
        }
    }

    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    pub(crate) fn link(&self, link: LinkId) -> Result<&LinkEntry, DbError> {
        self.links
            .get(link.index())
            .ok_or(DbError::UnknownLink(link))
    }

    pub(crate) fn link_mut(&mut self, link: LinkId) -> Result<&mut LinkEntry, DbError> {
        self.links
            .get_mut(link.index())
            .ok_or(DbError::UnknownLink(link))
    }

    pub(crate) fn links(&self) -> impl Iterator<Item = &LinkEntry> {
        self.links.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies::grnet::Grnet;
    use vod_storage::video::{Megabytes, VideoId, VideoMeta};

    fn library(n: u32) -> VideoLibrary {
        (0..n)
            .map(|i| VideoMeta::new(VideoId::new(i), format!("t{i}"), Megabytes::new(100.0), 1.5))
            .collect()
    }

    #[test]
    fn from_topology_registers_everything() {
        let grnet = Grnet::new();
        let db = Database::from_topology(grnet.topology(), library(3));
        assert_eq!(db.server_count(), 6);
        assert_eq!(db.link_count(), 7);
        assert_eq!(db.library().len(), 3);
    }

    #[test]
    fn transit_nodes_get_no_server_entry() {
        use vod_net::node::NodeKind;
        use vod_net::{Mbps, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let s = b.add_node("server");
        let t = b.add_node_with_kind("router", NodeKind::Transit);
        b.add_link(s, t, Mbps::new(2.0)).unwrap();
        let db = Database::from_topology(&b.build(), VideoLibrary::new());
        assert_eq!(db.server_count(), 1);
        assert_eq!(db.link_count(), 1);
    }

    #[test]
    fn unknown_lookups_error() {
        let db = Database::new(VideoLibrary::new());
        assert_eq!(
            db.check_server(NodeId::new(0)),
            Err(DbError::UnknownServer(NodeId::new(0)))
        );
        assert_eq!(
            db.link(LinkId::new(0)).err(),
            Some(DbError::UnknownLink(LinkId::new(0)))
        );
    }
}
