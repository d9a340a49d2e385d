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
use crate::entry::{LinkEntry, UtilizationReading};
use crate::error::DbError;

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

    /// The servers currently listing `video`, in node order.
    pub fn servers_with_title(&self, video: VideoId) -> Vec<NodeId> {
        self.servers_with_title_iter(video).collect()
    }

    /// [`FullAccess::servers_with_title`] without the allocation, for
    /// callers that run once per cluster and keep their own buffer. It
    /// walks the title's holders only, whatever the number of servers.
    pub fn servers_with_title_iter(&self, video: VideoId) -> impl Iterator<Item = NodeId> + 'a {
        self.db.catalog().holders(video).iter().copied()
    }

    /// How many servers list `video`: the number of replicas the network
    /// can serve it from (0 once the last copy is withdrawn). One catalog
    /// lookup; no server is visited.
    pub fn replica_count(&self, video: VideoId) -> usize {
        self.db.catalog().holders(video).len()
    }

    /// The titles available on `server`, in id order. This scans the
    /// whole catalog; the service asks it only when a server fails.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownServer`] for an unregistered node.
    pub fn titles_at(&self, server: NodeId) -> Result<Vec<VideoId>, DbError> {
        self.db.check_server(server)?;
        Ok(self.db.catalog().titles_at(server).collect())
    }
}

/// The administrator view: limited-access sub-module (network state),
/// plus all writes.
#[derive(Debug)]
pub struct LimitedAccess<'a> {
    db: &'a mut Database,
}

impl<'a> LimitedAccess<'a> {
    pub(crate) fn new(db: &'a mut Database) -> Self {
        LimitedAccess { db }
    }

    // ---- reads -----------------------------------------------------

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
        self.db.check_server(server)?;
        Ok(self.db.catalog_mut().add_holder(video, server))
    }

    /// Removes `video` from `server`'s catalog (the DMA evicted it).
    /// Returns `false` if it was not listed.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownServer`] for an unregistered node.
    pub fn remove_title(&mut self, server: NodeId, video: VideoId) -> Result<bool, DbError> {
        self.db.check_server(server)?;
        Ok(self.db.catalog_mut().remove_holder(video, server))
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
        let patra = grnet.node(GrnetNode::Patra);
        let athens = grnet.node(GrnetNode::Athens);
        {
            let mut la = db.limited_access();
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
        assert_eq!(fa.video(VideoId::new(2)).unwrap().title(), "t2");
        assert_eq!(fa.titles().count(), 3);
    }

    #[test]
    fn add_title_validates_video_and_server() {
        let (grnet, mut db) = setup();
        let mut la = db.limited_access();
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
        let mut la = db.limited_access();
        la.add_title(patra, VideoId::new(0)).unwrap();
        assert!(la.remove_title(patra, VideoId::new(0)).unwrap());
        assert!(!la.remove_title(patra, VideoId::new(0)).unwrap());
        assert!(matches!(
            la.remove_title(NodeId::new(77), VideoId::new(0)),
            Err(DbError::UnknownServer(_))
        ));
        assert!(db
            .full_access()
            .servers_with_title(VideoId::new(0))
            .is_empty());
    }

    #[test]
    fn replica_count_follows_adds_removes_and_outages() {
        let (grnet, mut db) = setup();
        let [patra, athens, xanthi] =
            [GrnetNode::Patra, GrnetNode::Athens, GrnetNode::Xanthi].map(|n| grnet.node(n));
        let v = VideoId::new(0);
        assert_eq!(db.full_access().replica_count(v), 0);
        {
            let mut la = db.limited_access();
            for server in [patra, athens, xanthi] {
                la.add_title(server, v).unwrap();
            }
            // A repeated placement is not a second replica.
            la.add_title(patra, v).unwrap();
            la.add_title(patra, VideoId::new(1)).unwrap();
        }
        assert_eq!(db.full_access().replica_count(v), 3);
        db.limited_access().remove_title(athens, v).unwrap();
        assert_eq!(db.full_access().replica_count(v), 2);
        // A server outage withdraws everything the server lists, the way
        // the service does it: ask for its titles, remove each.
        let listed = db.full_access().titles_at(patra).unwrap();
        assert_eq!(listed, vec![v, VideoId::new(1)]);
        {
            let mut la = db.limited_access();
            for title in listed {
                assert!(la.remove_title(patra, title).unwrap());
            }
        }
        let fa = db.full_access();
        assert_eq!(fa.replica_count(v), 1);
        assert_eq!(fa.replica_count(VideoId::new(1)), 0);
        assert_eq!(fa.servers_with_title(v), vec![xanthi]);
        assert!(fa.titles_at(patra).unwrap().is_empty());
        assert_eq!(
            fa.titles_at(NodeId::new(77)),
            Err(DbError::UnknownServer(NodeId::new(77)))
        );
    }

    #[test]
    fn snapshot_reflects_latest_readings_only() {
        let (grnet, mut db) = setup();
        let link = grnet.link(GrnetLink::PatraAthens);
        let mut la = db.limited_access();
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
        let mut la = db.limited_access();
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
}
