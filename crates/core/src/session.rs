//! Playback sessions: cluster-by-cluster download with playout tracking.
//!
//! The paper's dynamic feature: *"If the optimal server changes due to the
//! change of certain network features during the downloading of a certain
//! cluster, then the next cluster will be requested by the new optimal
//! server."* A [`Session`] tracks which cluster is being fetched from
//! which server, how far playout has advanced, and every QoS-relevant
//! incident (startup wait, stalls, server switches).

use std::fmt;

use serde::Serialize;

use vod_net::NodeId;
use vod_sim::{SimDuration, SimTime};
use vod_storage::cluster::ClusterSize;
use vod_storage::video::{VideoId, VideoMeta};

use crate::qos::QosRecord;

/// Identifier of a playback session.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
#[serde(transparent)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Lifecycle of one client watching one video.
///
/// A session holds only what varies per client. The title's size and
/// bitrate and the service's cluster size are read where they are used
/// ([`cluster_volume_mbit`], [`cluster_play_time`], [`Session::finish`]),
/// not copied into every live session.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    id: SessionId,
    video: VideoId,
    home: NodeId,
    requested_at: SimTime,
    clusters_total: u32,
    clusters_fetched: u32,
    clusters_played: u32,
    current_server: Option<NodeId>,
    switches: u32,
    local_clusters: u32,
    /// Leading clusters streamed by the regional proxy's prefix store
    /// (0 for ordinary sessions). While the prefix phase is in flight
    /// the suffix fetch chain starts *after* the reservation, so
    /// [`Session::next_cluster`] never re-fetches a proxy-covered
    /// cluster from the origin.
    prefix_reserved: u32,
    /// When the first cluster landed; meaningful once
    /// `clusters_fetched > 0`, which only that landing makes true.
    first_cluster_at: SimTime,
    stall_started_at: Option<SimTime>,
    stall_total: SimDuration,
    stall_count: u32,
}

/// A cluster count as stored on a [`Session`]. A title of more than
/// `u32::MAX` clusters would be petabytes long; the count saturates.
fn count(clusters: usize) -> u32 {
    u32::try_from(clusters).unwrap_or(u32::MAX)
}

/// Size of cluster `index` of `video` in megabits (the network transfer
/// volume), with clusters of `cluster`.
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn cluster_volume_mbit(video: &VideoMeta, cluster: ClusterSize, index: usize) -> f64 {
    cluster.part_size(video.size(), index).as_megabits()
}

/// Playout duration of cluster `index` of `video` at its nominal
/// bitrate, with clusters of `cluster`.
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn cluster_play_time(video: &VideoMeta, cluster: ClusterSize, index: usize) -> SimDuration {
    SimDuration::from_secs_f64(cluster_volume_mbit(video, cluster, index) / video.bitrate_mbps())
}

impl Session {
    /// Opens a session for `video` requested at `requested_at` by a client
    /// homed at `home`.
    pub fn new(
        id: SessionId,
        video: &VideoMeta,
        home: NodeId,
        cluster: ClusterSize,
        requested_at: SimTime,
    ) -> Self {
        Session {
            id,
            video: video.id(),
            home,
            requested_at,
            clusters_total: count(cluster.parts(video.size())),
            clusters_fetched: 0,
            clusters_played: 0,
            current_server: None,
            switches: 0,
            local_clusters: 0,
            prefix_reserved: 0,
            first_cluster_at: requested_at,
            stall_started_at: None,
            stall_total: SimDuration::ZERO,
            stall_count: 0,
        }
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The requested video.
    pub fn video(&self) -> VideoId {
        self.video
    }

    /// The client's home server.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Index of the next cluster to fetch *from the origin*, or `None`
    /// when fully fetched. While a prefix reservation is outstanding the
    /// suffix cursor sits past it — the proxy streams the reserved
    /// leading clusters on its own flow chain.
    pub fn next_cluster(&self) -> Option<usize> {
        let next = self.clusters_fetched.max(self.prefix_reserved);
        (next < self.clusters_total).then_some(next as usize)
    }

    /// Reserves the leading `clusters` for the regional proxy's prefix
    /// phase (clamped to the title length).
    pub fn set_prefix_reserved(&mut self, clusters: usize) {
        self.prefix_reserved = count(clusters).min(self.clusters_total);
    }

    /// Clusters reserved for the proxy's prefix phase.
    pub fn prefix_reserved(&self) -> usize {
        self.prefix_reserved as usize
    }

    /// Counts one proxy-streamed prefix cluster as locally served
    /// without touching the current-server assignment (the suffix may
    /// already be assigned to the origin while the prefix streams).
    pub fn count_local_cluster(&mut self) {
        self.local_clusters += 1;
    }

    /// Clusters fetched so far.
    pub fn clusters_fetched(&self) -> usize {
        self.clusters_fetched as usize
    }

    /// Clusters fully played so far.
    pub fn clusters_played(&self) -> usize {
        self.clusters_played as usize
    }

    /// Fetched-but-unplayed clusters.
    pub fn buffered(&self) -> usize {
        (self.clusters_fetched - self.clusters_played) as usize
    }

    /// The server the current/most recent cluster was fetched from.
    pub fn current_server(&self) -> Option<NodeId> {
        self.current_server
    }

    /// Returns true while playout is stalled waiting for data.
    pub fn is_stalled(&self) -> bool {
        self.stall_started_at.is_some()
    }

    /// Returns true when every cluster has been fetched.
    pub fn fetch_complete(&self) -> bool {
        self.clusters_fetched == self.clusters_total
    }

    /// Returns true when every cluster has been played.
    pub fn playback_complete(&self) -> bool {
        self.clusters_played == self.clusters_total
    }

    /// Records which server the next cluster will be fetched from,
    /// returning `true` when it changes the source: any assignment after
    /// the first, whether or not playout has started.
    pub fn assign_server(&mut self, server: NodeId, local: bool) -> bool {
        let switched = match self.current_server {
            Some(prev) => prev != server,
            None => false,
        };
        if switched {
            self.switches += 1;
        }
        if local {
            self.local_clusters += 1;
        }
        self.current_server = Some(server);
        switched
    }

    /// Records the completion of the in-flight cluster fetch at `now`.
    /// Returns `true` if this was the first cluster (playout may start).
    ///
    /// # Panics
    ///
    /// Panics if the session is already fully fetched.
    #[expect(
        clippy::disallowed_macros,
        reason = "per-event contract `self.clusters_fetched < self.clusters_total`: the trace auditor relies on it"
    )]
    pub fn on_cluster_fetched(&mut self, now: SimTime) -> bool {
        assert!(
            self.clusters_fetched < self.clusters_total,
            "fetched more clusters than the video has"
        );
        self.clusters_fetched += 1;
        let first = self.clusters_fetched == 1;
        if first {
            self.first_cluster_at = now;
        }
        first
    }

    /// Records the completion of one played cluster.
    ///
    /// # Panics
    ///
    /// Panics if it would overtake fetching.
    #[expect(
        clippy::disallowed_macros,
        reason = "per-event contract `self.clusters_played < self.clusters_fetched`: the trace auditor relies on it"
    )]
    pub fn on_cluster_played(&mut self) {
        assert!(
            self.clusters_played < self.clusters_fetched,
            "cannot play an unfetched cluster"
        );
        self.clusters_played += 1;
    }

    /// Enters a stall (buffer ran dry) at `now`.
    ///
    /// # Panics
    ///
    /// Panics if already stalled.
    #[expect(
        clippy::disallowed_macros,
        reason = "per-event contract: a session that is `already stalled` cannot stall again"
    )]
    pub fn stall(&mut self, now: SimTime) {
        assert!(self.stall_started_at.is_none(), "already stalled");
        self.stall_started_at = Some(now);
        self.stall_count += 1;
    }

    /// Leaves a stall at `now`, accumulating the stalled duration.
    /// Returns how long this stall lasted.
    ///
    /// # Panics
    ///
    /// Panics if not stalled.
    pub fn resume(&mut self, now: SimTime) -> SimDuration {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: a stall is recorded before any resume"
        )]
        let started = self.stall_started_at.take().expect("resume without stall");
        let stalled = now.duration_since(started);
        self.stall_total += stalled;
        stalled
    }

    /// Startup delay: request → first cluster available.
    pub fn startup_delay(&self) -> Option<SimDuration> {
        (self.clusters_fetched > 0).then(|| self.first_cluster_at.duration_since(self.requested_at))
    }

    /// Closes the session at `now` (playback finished) and produces its
    /// QoS record; `video` is the library entry of the session's title.
    ///
    /// # Panics
    ///
    /// Panics if playback is not complete.
    #[expect(
        clippy::disallowed_macros,
        reason = "per-event contract: no `finish before playback completed`, and with the session's own title"
    )]
    pub fn finish(&self, now: SimTime, video: &VideoMeta) -> QosRecord {
        assert!(self.playback_complete(), "finish before playback completed");
        debug_assert_eq!(video.id(), self.video, "finish with another title");
        QosRecord {
            session: self.id,
            video: self.video,
            home: self.home,
            requested_at: self.requested_at,
            completed_at: now,
            startup_delay: self.startup_delay().unwrap_or(SimDuration::ZERO),
            stall_count: self.stall_count,
            stall_time: self.stall_total,
            switches: self.switches,
            clusters: self.clusters_total as usize,
            local_clusters: self.local_clusters as usize,
            nominal_duration: SimDuration::from_secs_f64(video.duration_secs()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_storage::video::Megabytes;

    fn video() -> VideoMeta {
        VideoMeta::new(VideoId::new(7), "m", Megabytes::new(250.0), 2.0)
    }

    fn session() -> Session {
        Session::new(
            SessionId(1),
            &video(),
            NodeId::new(0),
            ClusterSize::new(Megabytes::new(100.0)),
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn cluster_math() {
        let s = session();
        assert_eq!(s.clusters_total, 3); // 100 + 100 + 50
        assert_eq!(s.next_cluster(), Some(0));
        let cluster = ClusterSize::new(Megabytes::new(100.0));
        assert!((cluster_volume_mbit(&video(), cluster, 0) - 800.0).abs() < 1e-9);
        assert!((cluster_volume_mbit(&video(), cluster, 2) - 400.0).abs() < 1e-9);
        assert_eq!(
            cluster_play_time(&video(), cluster, 0),
            SimDuration::from_secs(400)
        );
        assert_eq!(
            cluster_play_time(&video(), cluster, 2),
            SimDuration::from_secs(200)
        );
    }

    #[test]
    fn fetch_and_play_progression() {
        let mut s = session();
        assert!(!s.assign_server(NodeId::new(2), false));
        let first = s.on_cluster_fetched(SimTime::from_secs(20));
        assert!(first);
        assert_eq!(s.startup_delay(), Some(SimDuration::from_secs(10)));
        assert_eq!(s.buffered(), 1);
        s.on_cluster_played();
        assert_eq!(s.buffered(), 0);
        assert!(!s.playback_complete());
    }

    #[test]
    fn switches_count_only_changes() {
        let mut s = session();
        assert!(!s.assign_server(NodeId::new(2), false)); // first assignment
        assert!(!s.assign_server(NodeId::new(2), false)); // same server
        assert!(s.assign_server(NodeId::new(3), false)); // switch
        assert!(s.assign_server(NodeId::new(2), false)); // switch back
        assert_eq!(s.switches, 2);
    }

    #[test]
    fn local_clusters_tracked() {
        let mut s = session();
        s.assign_server(NodeId::new(0), true);
        s.assign_server(NodeId::new(0), true);
        s.assign_server(NodeId::new(1), false);
        assert_eq!(s.switches, 1);
        // finish() carries local_clusters; check via record below.
    }

    #[test]
    fn prefix_reservation_moves_the_suffix_cursor() {
        let mut s = session();
        assert_eq!(s.prefix_reserved(), 0);
        s.set_prefix_reserved(2);
        assert_eq!(s.prefix_reserved(), 2);
        // The origin-facing cursor starts past the reservation while the
        // proxy streams clusters 0 and 1.
        assert_eq!(s.next_cluster(), Some(2));
        s.on_cluster_fetched(SimTime::from_secs(11)); // prefix cluster 0
        s.on_cluster_fetched(SimTime::from_secs(12)); // prefix cluster 1
        assert_eq!(s.next_cluster(), Some(2));
        s.on_cluster_fetched(SimTime::from_secs(13)); // suffix cluster 2
        assert!(s.fetch_complete());
        assert_eq!(s.next_cluster(), None);
        // Reservations clamp to the title length.
        let mut t = session();
        t.set_prefix_reserved(99);
        assert_eq!(t.prefix_reserved(), 3);
        assert_eq!(t.next_cluster(), None);
    }

    #[test]
    fn stall_accounting() {
        let mut s = session();
        s.stall(SimTime::from_secs(100));
        assert!(s.is_stalled());
        s.resume(SimTime::from_secs(130));
        assert!(!s.is_stalled());
        s.stall(SimTime::from_secs(200));
        s.resume(SimTime::from_secs(210));
        assert_eq!(s.stall_total, SimDuration::from_secs(40));
        assert_eq!(s.stall_count, 2);
    }

    #[test]
    #[should_panic(expected = "already stalled")]
    fn double_stall_panics() {
        let mut s = session();
        s.stall(SimTime::from_secs(1));
        s.stall(SimTime::from_secs(2));
    }

    #[test]
    fn finish_produces_complete_record() {
        let mut s = session();
        s.assign_server(NodeId::new(0), true);
        for i in 0..3 {
            s.on_cluster_fetched(SimTime::from_secs(20 + i));
        }
        assert!(s.fetch_complete());
        for _ in 0..3 {
            s.on_cluster_played();
        }
        assert!(s.playback_complete());
        let rec = s.finish(SimTime::from_secs(1_000), &video());
        assert_eq!(rec.session, SessionId(1));
        assert_eq!(rec.video, VideoId::new(7));
        assert_eq!(rec.clusters, 3);
        assert_eq!(rec.local_clusters, 1);
        assert_eq!(rec.startup_delay, SimDuration::from_secs(10));
        assert_eq!(rec.completed_at, SimTime::from_secs(1_000));
        // 250 MB × 8 / 2 Mbps = 1000 s nominal.
        assert_eq!(rec.nominal_duration, SimDuration::from_secs(1000));
    }

    #[test]
    #[should_panic(expected = "unfetched")]
    fn playing_ahead_of_fetch_panics() {
        let mut s = session();
        s.on_cluster_played();
    }

    #[test]
    #[should_panic(expected = "more clusters")]
    fn over_fetching_panics() {
        let mut s = session();
        for _ in 0..4 {
            s.on_cluster_fetched(SimTime::ZERO);
        }
    }
}
