//! The in-memory database store.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use vod_net::{LinkId, NodeId, Topology};
use vod_storage::video::VideoLibrary;

use crate::access::{AdminCredential, FullAccess, LimitedAccess};
use crate::catalog::Catalog;
use crate::entry::{LinkEntry, ServerConfig, ServerEntry};
use crate::error::DbError;

/// The service database: one entry per server and per link, the
/// catalog of which server holds which title, the service-wide video
/// library, and the set of registered administrators.
///
/// Reads and writes go through the typed views returned by
/// [`Database::full_access`] and [`Database::limited_access`]; see the
/// [crate-level example](crate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    servers: BTreeMap<NodeId, ServerEntry>,
    links: BTreeMap<LinkId, LinkEntry>,
    /// The full-access sub-module: each title's holders.
    catalog: Catalog,
    library: VideoLibrary,
    admins: BTreeSet<String>,
    /// Monotonic counter bumped on every traffic write (SNMP reading),
    /// letting consumers cache snapshots derived from the link entries.
    /// Bookkeeping only: not persisted, ignored by equality.
    #[serde(skip)]
    traffic_version: u64,
}

// Two databases are equal iff their *data* is; the traffic-version
// counter is cache bookkeeping (a deserialized copy restarts at 0 yet
// must compare equal to its source).
impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.servers == other.servers
            && self.links == other.links
            && self.catalog == other.catalog
            && self.library == other.library
            && self.admins == other.admins
    }
}

impl Database {
    /// Creates an empty database with one registered administrator,
    /// `"root"`.
    pub fn new(library: VideoLibrary) -> Self {
        let mut admins = BTreeSet::new();
        admins.insert("root".to_string());
        Database {
            servers: BTreeMap::new(),
            links: BTreeMap::new(),
            catalog: Catalog::default(),
            library,
            admins,
            traffic_version: 0,
        }
    }

    /// Initializes the database from a topology: every video-server node
    /// gets a [`ServerEntry`] with the default configuration, every link a
    /// [`LinkEntry`] carrying its capacity — the paper's service
    /// initialization, where participants contribute their links'
    /// bandwidth and title lists.
    pub fn from_topology(topology: &Topology, library: VideoLibrary) -> Self {
        let mut db = Database::new(library);
        for node in topology.nodes() {
            if node.is_video_server() {
                db.servers.insert(
                    node.id(),
                    ServerEntry::new(node.id(), ServerConfig::default()),
                );
            }
        }
        for link in topology.links() {
            db.links
                .insert(link.id(), LinkEntry::new(link.id(), link.capacity()));
        }
        db
    }

    /// The user-facing, read-only view of the full-access sub-module.
    pub fn full_access(&self) -> FullAccess<'_> {
        FullAccess::new(self)
    }

    /// The administrator view of the limited-access sub-module.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::AccessDenied`] if `credential` is not a
    /// registered administrator.
    pub fn limited_access(
        &mut self,
        credential: &AdminCredential,
    ) -> Result<LimitedAccess<'_>, DbError> {
        if self.admins.contains(credential.name()) {
            Ok(LimitedAccess::new(self))
        } else {
            Err(DbError::AccessDenied)
        }
    }

    /// The service-wide video library.
    pub fn library(&self) -> &VideoLibrary {
        &self.library
    }

    /// Number of server entries.
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

    pub(crate) fn server(&self, node: NodeId) -> Result<&ServerEntry, DbError> {
        self.servers.get(&node).ok_or(DbError::UnknownServer(node))
    }

    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    pub(crate) fn link(&self, link: LinkId) -> Result<&LinkEntry, DbError> {
        self.links.get(&link).ok_or(DbError::UnknownLink(link))
    }

    pub(crate) fn link_mut(&mut self, link: LinkId) -> Result<&mut LinkEntry, DbError> {
        self.links.get_mut(&link).ok_or(DbError::UnknownLink(link))
    }

    pub(crate) fn links(&self) -> impl Iterator<Item = &LinkEntry> {
        self.links.values()
    }

    pub(crate) fn links_mut(&mut self) -> impl Iterator<Item = &mut LinkEntry> {
        self.links.values_mut()
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
    fn root_admin_is_preregistered() {
        let grnet = Grnet::new();
        let mut db = Database::from_topology(grnet.topology(), VideoLibrary::new());
        assert!(db.limited_access(&AdminCredential::new("root")).is_ok());
        assert_eq!(
            db.limited_access(&AdminCredential::new("mallory")).err(),
            Some(DbError::AccessDenied)
        );
    }

    #[test]
    fn database_serde_round_trip_preserves_everything() {
        // The service's state survives restarts: serialize the whole
        // database (entries, catalog, admins) and read it back.
        let grnet = Grnet::new();
        let mut db = Database::from_topology(grnet.topology(), library(2));
        db.limited_access(&AdminCredential::new("root"))
            .unwrap()
            .add_title(grnet.topology().video_server_nodes()[1], VideoId::new(1))
            .unwrap();
        let json = serde_json::to_string(&db).unwrap();
        let restored: Database = serde_json::from_str(&json).unwrap();
        assert_eq!(db, restored);
        // Restored database still honours access control.
        let mut restored = restored;
        assert!(restored
            .limited_access(&AdminCredential::new("root"))
            .is_ok());
        assert!(restored
            .limited_access(&AdminCredential::new("mallory"))
            .is_err());
    }

    #[test]
    fn unknown_lookups_error() {
        let db = Database::new(VideoLibrary::new());
        assert_eq!(
            db.server(NodeId::new(0)).err(),
            Some(DbError::UnknownServer(NodeId::new(0)))
        );
        assert_eq!(
            db.link(LinkId::new(0)).err(),
            Some(DbError::UnknownLink(LinkId::new(0)))
        );
    }
}
