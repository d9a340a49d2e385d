//! Typed access levels over the database.
//!
//! The paper's web module has "a full access module, with which the user
//! is able to find and watch the available video titles … and a limited
//! access module to which only the administrators of the service can have
//! access". [`FullAccess`] and [`LimitedAccess`] encode those levels in
//! the type system: user code holding a `FullAccess` simply has no way to
//! read link utilizations or rewrite catalogs.

use vod_net::units::Fraction;
use vod_net::{LinkId, Mbps, NodeId, Topology, TrafficSnapshot};
use vod_sim::{SimDuration, SimTime};
use vod_storage::video::{VideoId, VideoMeta};

use crate::database::Database;
use crate::entry::{LinkEntry, ServerConfig, ServerEntry, UtilizationReading};
use crate::error::DbError;

/// An administrator identity presented to
/// [`Database::limited_access`](crate::Database::limited_access).
///
/// This stands in for the paper's password-protected admin web module; in
/// a simulation there is nothing to authenticate against, so a credential
/// is just a name checked against the registered-admin set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdminCredential {
    name: String,
}

impl AdminCredential {
    /// Creates a credential for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AdminCredential { name: name.into() }
    }

    /// The administrator name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// One link's share of an SNMP poll: the reading taken on the link and
/// the number of agents (adjacent video servers) that each insert it.
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct LinkPoll {
    /// The polled link.
    pub link: LinkId,
    /// Average combined in+out traffic since the previous poll.
    pub used: Mbps,
    /// `used / capacity` per the paper's equation (5).
    pub utilization: Fraction,
    /// How many agents report the link, i.e. how many times the reading
    /// is inserted.
    pub agents: usize,
}

/// The user view: full-access sub-module only (catalog queries).
#[derive(Debug, Clone, Copy)]
pub struct FullAccess<'a> {
    db: &'a Database,
}

impl<'a> FullAccess<'a> {
    pub(crate) fn new(db: &'a Database) -> Self {
        FullAccess { db }
    }

    /// All titles in the service-wide catalog, in id order.
    pub fn titles(&self) -> impl Iterator<Item = &'a VideoMeta> {
        self.db.library().iter()
    }

    /// Looks up a title's metadata.
    pub fn video(&self, id: VideoId) -> Option<&'a VideoMeta> {
        self.db.library().get(id)
    }

    /// Searches for a title by exact name — the web module's "search for
    /// a certain video title".
    pub fn find_title(&self, title: &str) -> Option<&'a VideoMeta> {
        self.db.library().find_by_title(title)
    }

    /// The servers currently listing `video`, in node order.
    pub fn servers_with_title(&self, video: VideoId) -> Vec<NodeId> {
        self.servers_with_title_iter(video).collect()
    }

    /// [`FullAccess::servers_with_title`] without the allocation, for
    /// callers that run once per cluster and keep their own buffer.
    pub fn servers_with_title_iter(&self, video: VideoId) -> impl Iterator<Item = NodeId> + 'a {
        self.db
            .servers()
            .filter(move |s| s.has_title(video))
            .map(ServerEntry::node)
    }

    /// The titles available on `server`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownServer`] for an unregistered node.
    pub fn titles_at(&self, server: NodeId) -> Result<Vec<VideoId>, DbError> {
        Ok(self.db.server(server)?.titles().collect())
    }
}

/// The administrator view: limited-access sub-module (network state and
/// configuration), plus all writes.
#[derive(Debug)]
pub struct LimitedAccess<'a> {
    db: &'a mut Database,
}

impl<'a> LimitedAccess<'a> {
    pub(crate) fn new(db: &'a mut Database) -> Self {
        LimitedAccess { db }
    }

    // ---- reads -----------------------------------------------------

    /// One server's entry.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownServer`] for an unregistered node.
    pub fn server(&self, node: NodeId) -> Result<&ServerEntry, DbError> {
        self.db.server(node)
    }

    /// One link's entry.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownLink`] for an unregistered link.
    pub fn link(&self, link: LinkId) -> Result<&LinkEntry, DbError> {
        self.db.link(link)
    }

    /// Age of the newest SNMP reading of `link` at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownLink`] for an unregistered link.
    pub fn reading_age(&self, link: LinkId, now: SimTime) -> Result<Option<SimDuration>, DbError> {
        Ok(self.db.link(link)?.reading_age(now))
    }

    /// Builds the traffic snapshot the Virtual Routing Algorithm consumes:
    /// the latest SNMP reading of every link (zero traffic for links never
    /// polled). This is deliberately the *database's* view — between polls
    /// it lags the true network state, exactly as in the paper.
    pub fn snapshot(&self, topology: &Topology) -> TrafficSnapshot {
        let mut snap = TrafficSnapshot::zero(topology);
        for entry in self.db.links() {
            if entry.link().index() >= topology.link_count() {
                continue;
            }
            if let Some(reading) = entry.last_reading() {
                snap.set_used(entry.link(), reading.used);
                snap.set_explicit_utilization(entry.link(), reading.utilization);
            }
        }
        snap
    }

    /// Like [`LimitedAccess::snapshot`], but each link's traffic is the
    /// exponentially-weighted moving average of its reading history
    /// rather than the latest reading — a staleness-smoothing variant
    /// used by the E2/E9 ablations. The latest reading's explicit
    /// utilization is replaced by the smoothed `used / capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not within `(0, 1]`.
    pub fn smoothed_snapshot(&self, topology: &Topology, alpha: f64) -> TrafficSnapshot {
        let mut snap = TrafficSnapshot::zero(topology);
        for entry in self.db.links() {
            if entry.link().index() >= topology.link_count() {
                continue;
            }
            if let Some(used) = entry.smoothed_used(alpha) {
                snap.set_used(entry.link(), used);
            }
        }
        snap
    }

    // ---- writes ----------------------------------------------------

    /// Registers a new server entry (a node joining the service).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::ServerExists`] if the node already has an entry.
    pub fn register_server(&mut self, node: NodeId, config: ServerConfig) -> Result<(), DbError> {
        self.db.insert_server(ServerEntry::new(node, config))
    }

    /// Registers a new link entry.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::LinkExists`] if the link already has an entry.
    pub fn register_link(&mut self, link: LinkId, total_bandwidth: Mbps) -> Result<(), DbError> {
        self.db.insert_link(LinkEntry::new(link, total_bandwidth))
    }

    /// Adds a title to the service-wide library (new content ingested).
    pub fn add_video(&mut self, meta: VideoMeta) {
        self.db.library_mut().insert(meta);
    }

    /// Marks `video` as available on `server` (the DMA cached it).
    /// Returns `false` if it was already listed.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownServer`] or [`DbError::UnknownVideo`].
    pub fn add_title(&mut self, server: NodeId, video: VideoId) -> Result<bool, DbError> {
        if self.db.library().get(video).is_none() {
            return Err(DbError::UnknownVideo(video));
        }
        Ok(self.db.server_mut(server)?.add_title(video))
    }

    /// Removes `video` from `server`'s catalog (the DMA evicted it).
    /// Returns `false` if it was not listed.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownServer`] for an unregistered node.
    pub fn remove_title(&mut self, server: NodeId, video: VideoId) -> Result<bool, DbError> {
        Ok(self.db.server_mut(server)?.remove_title(video))
    }

    /// Records an SNMP utilization reading for `link` — what the
    /// statistics module does every 1–2 minutes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownLink`] for an unregistered link.
    pub fn record_reading(
        &mut self,
        link: LinkId,
        at: SimTime,
        used: Mbps,
        utilization: Fraction,
    ) -> Result<(), DbError> {
        let reading = UtilizationReading {
            at,
            used,
            utilization,
        };
        self.db.link_mut(link)?.record(reading, 1);
        self.db.bump_traffic_version(1);
        Ok(())
    }

    /// Records one whole SNMP poll taken at `at` in a single walk over
    /// the link entries: each link's reading is inserted once per
    /// reporting agent, exactly as that many
    /// [`LimitedAccess::record_reading`] calls would. `readings` must
    /// ascend strictly by link. Returns the number of readings
    /// inserted.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownLink`] for a link that has no entry or
    /// is out of order; the readings before it stay recorded.
    pub fn record_poll<I>(&mut self, at: SimTime, readings: I) -> Result<usize, DbError>
    where
        I: IntoIterator<Item = LinkPoll>,
    {
        let mut written = 0;
        let mut unknown = None;
        {
            let mut entries = self.db.links_mut();
            for poll in readings {
                // Both sides ascend, so the walk never turns back.
                let entry = entries.find(|e| e.link() >= poll.link);
                let Some(entry) = entry.filter(|e| e.link() == poll.link) else {
                    unknown = Some(poll.link);
                    break;
                };
                let reading = UtilizationReading {
                    at,
                    used: poll.used,
                    utilization: poll.utilization,
                };
                entry.record(reading, poll.agents);
                written += poll.agents;
            }
        }
        self.db.bump_traffic_version(written as u64);
        match unknown {
            Some(link) => Err(DbError::UnknownLink(link)),
            None => Ok(written),
        }
    }

    /// Updates a server's configuration (an administrator reporting a
    /// configuration change).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownServer`] for an unregistered node.
    pub fn set_server_config(&mut self, node: NodeId, config: ServerConfig) -> Result<(), DbError> {
        self.db.server_mut(node)?.set_config(config);
        Ok(())
    }

    /// Updates a link's administrator-entered total bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownLink`] for an unregistered link.
    pub fn set_link_bandwidth(&mut self, link: LinkId, bw: Mbps) -> Result<(), DbError> {
        self.db.link_mut(link)?.set_total_bandwidth(bw);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies::grnet::{Grnet, GrnetLink, GrnetNode};
    use vod_storage::video::{Megabytes, VideoLibrary};

    fn setup() -> (Grnet, Database) {
        let grnet = Grnet::new();
        let mut library = VideoLibrary::new();
        for i in 0..3u32 {
            library.insert(VideoMeta::new(
                VideoId::new(i),
                format!("t{i}"),
                Megabytes::new(100.0),
                1.5,
            ));
        }
        let db = Database::from_topology(grnet.topology(), library);
        (grnet, db)
    }

    #[test]
    fn catalog_queries_via_full_access() {
        let (grnet, mut db) = setup();
        let admin = AdminCredential::new("root");
        let patra = grnet.node(GrnetNode::Patra);
        let athens = grnet.node(GrnetNode::Athens);
        {
            let mut la = db.limited_access(&admin).unwrap();
            la.add_title(patra, VideoId::new(0)).unwrap();
            la.add_title(athens, VideoId::new(0)).unwrap();
            la.add_title(patra, VideoId::new(1)).unwrap();
        }
        let fa = db.full_access();
        assert_eq!(
            fa.servers_with_title(VideoId::new(0)),
            vec![athens, patra] // node order: Athens is U1
        );
        assert_eq!(fa.titles_at(patra).unwrap().len(), 2);
        assert_eq!(fa.find_title("t1").unwrap().id(), VideoId::new(1));
        assert_eq!(fa.video(VideoId::new(2)).unwrap().title(), "t2");
        assert_eq!(fa.titles().count(), 3);
    }

    #[test]
    fn add_title_validates_video_and_server() {
        let (grnet, mut db) = setup();
        let mut la = db.limited_access(&AdminCredential::new("root")).unwrap();
        assert_eq!(
            la.add_title(grnet.node(GrnetNode::Patra), VideoId::new(99)),
            Err(DbError::UnknownVideo(VideoId::new(99)))
        );
        assert!(matches!(
            la.add_title(NodeId::new(77), VideoId::new(0)),
            Err(DbError::UnknownServer(_))
        ));
        // Adding twice reports false the second time.
        assert!(la
            .add_title(grnet.node(GrnetNode::Patra), VideoId::new(0))
            .unwrap());
        assert!(!la
            .add_title(grnet.node(GrnetNode::Patra), VideoId::new(0))
            .unwrap());
    }

    #[test]
    fn remove_title_round_trip() {
        let (grnet, mut db) = setup();
        let patra = grnet.node(GrnetNode::Patra);
        let mut la = db.limited_access(&AdminCredential::new("root")).unwrap();
        la.add_title(patra, VideoId::new(0)).unwrap();
        assert!(la.remove_title(patra, VideoId::new(0)).unwrap());
        assert!(!la.remove_title(patra, VideoId::new(0)).unwrap());
        assert!(db
            .full_access()
            .servers_with_title(VideoId::new(0))
            .is_empty());
    }

    #[test]
    fn snapshot_reflects_latest_readings_only() {
        let (grnet, mut db) = setup();
        let link = grnet.link(GrnetLink::PatraAthens);
        let mut la = db.limited_access(&AdminCredential::new("root")).unwrap();
        la.record_reading(
            link,
            SimTime::from_secs(60),
            Mbps::new(0.2),
            Fraction::from_percent(10.0),
        )
        .unwrap();
        la.record_reading(
            link,
            SimTime::from_secs(120),
            Mbps::new(1.82),
            Fraction::from_percent(91.0),
        )
        .unwrap();
        let snap = la.snapshot(grnet.topology());
        assert_eq!(snap.used(link), Mbps::new(1.82));
        assert!((snap.utilization(grnet.topology(), link).get() - 0.91).abs() < 1e-12);
        // Unpolled links read as idle.
        let other = grnet.link(GrnetLink::XanthiHeraklio);
        assert_eq!(snap.used(other), Mbps::ZERO);
        assert_eq!(
            la.reading_age(link, SimTime::from_secs(180)).unwrap(),
            Some(SimDuration::from_secs(60))
        );
        assert_eq!(
            la.reading_age(other, SimTime::from_secs(180)).unwrap(),
            None
        );
    }

    #[test]
    fn smoothed_snapshot_averages_history() {
        let (grnet, mut db) = setup();
        let link = grnet.link(GrnetLink::PatraAthens);
        let mut la = db.limited_access(&AdminCredential::new("root")).unwrap();
        for (i, mb) in [0.0, 2.0, 0.0, 2.0].iter().enumerate() {
            la.record_reading(
                link,
                SimTime::from_secs(i as u64 * 120),
                Mbps::new(*mb),
                Fraction::new(mb / 2.0),
            )
            .unwrap();
        }
        let latest = la.snapshot(grnet.topology());
        let smoothed = la.smoothed_snapshot(grnet.topology(), 0.5);
        assert_eq!(latest.used(link), Mbps::new(2.0));
        // EWMA(0.5) over 0,2,0,2 = 1.25.
        assert!((smoothed.used(link).as_f64() - 1.25).abs() < 1e-12);
        // Unpolled links are idle in both views.
        let other = grnet.link(GrnetLink::XanthiHeraklio);
        assert_eq!(smoothed.used(other), Mbps::ZERO);
    }

    #[test]
    fn registration_and_config_updates() {
        let (grnet, mut db) = setup();
        let mut la = db.limited_access(&AdminCredential::new("root")).unwrap();
        // Registering an existing server/link fails.
        assert!(matches!(
            la.register_server(grnet.node(GrnetNode::Patra), ServerConfig::default()),
            Err(DbError::ServerExists(_))
        ));
        assert!(matches!(
            la.register_link(grnet.link(GrnetLink::PatraAthens), Mbps::new(2.0)),
            Err(DbError::LinkExists(_))
        ));
        // New entries succeed.
        la.register_server(NodeId::new(42), ServerConfig::default())
            .unwrap();
        la.register_link(LinkId::new(42), Mbps::new(34.0)).unwrap();
        // Config and bandwidth updates.
        la.set_server_config(
            NodeId::new(42),
            ServerConfig {
                disk_count: 16,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(la.server(NodeId::new(42)).unwrap().config().disk_count, 16);
        la.set_link_bandwidth(LinkId::new(42), Mbps::new(155.0))
            .unwrap();
        assert_eq!(
            la.link(LinkId::new(42)).unwrap().total_bandwidth(),
            Mbps::new(155.0)
        );
    }

    #[test]
    fn add_video_extends_library() {
        let (_, mut db) = setup();
        let mut la = db.limited_access(&AdminCredential::new("root")).unwrap();
        la.add_video(VideoMeta::new(
            VideoId::new(10),
            "new",
            Megabytes::new(50.0),
            1.5,
        ));
        assert_eq!(db.library().len(), 4);
    }
}
