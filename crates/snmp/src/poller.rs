//! The periodic polling system tying counters, agents and the database
//! together.

use vod_db::{AdminCredential, Database};
use vod_net::Topology;
use vod_sim::flow::FlowNetwork;
use vod_sim::{SimDuration, SimTime};

use crate::agent::ServerAgent;
use crate::counters::CounterBank;
use crate::utilization::combined_utilization;

/// The service-wide SNMP statistics system.
///
/// Drive it from the simulation loop:
///
/// 1. whenever simulated time advances by `dt` with a constant flow
///    allocation, call [`SnmpSystem::accumulate`];
/// 2. whenever `now >= `[`SnmpSystem::next_poll_at`], call
///    [`SnmpSystem::poll`], which writes one utilization reading per link
///    into the limited-access database.
///
/// # Examples
///
/// ```
/// use vod_db::Database;
/// use vod_net::topologies::grnet::Grnet;
/// use vod_sim::flow::FlowNetwork;
/// use vod_sim::{SimDuration, SimTime};
/// use vod_snmp::SnmpSystem;
/// use vod_storage::video::VideoLibrary;
///
/// let grnet = Grnet::new();
/// let mut db = Database::from_topology(grnet.topology(), VideoLibrary::new());
/// let mut net = FlowNetwork::new(grnet.topology().clone());
/// let mut snmp = SnmpSystem::new(grnet.topology(), SimDuration::from_mins(2));
///
/// snmp.accumulate(&mut net, SimDuration::from_mins(2));
/// let written = snmp.poll(grnet.topology(), &mut db, SimTime::from_secs(120)).unwrap();
/// assert_eq!(written, 14); // every GRNET link reported by both adjacent servers
/// ```
#[derive(Debug, Clone)]
pub struct SnmpSystem {
    agents: Vec<ServerAgent>,
    counters: CounterBank,
    interval: SimDuration,
    last_poll: SimTime,
    baseline: Vec<f64>,
    credential: AdminCredential,
    polls: u64,
}

impl SnmpSystem {
    /// Creates the system with one agent per video-server node and the
    /// given polling interval (the paper suggests 1–2 minutes).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(topology: &Topology, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "polling interval must be positive");
        let counters = CounterBank::new(topology.link_count());
        let baseline = counters.snapshot();
        SnmpSystem {
            agents: ServerAgent::all_servers(topology),
            counters,
            interval,
            last_poll: SimTime::ZERO,
            baseline,
            credential: AdminCredential::new("root"),
            polls: 0,
        }
    }

    /// Uses a non-default administrator credential for database writes.
    pub fn with_credential(mut self, credential: AdminCredential) -> Self {
        self.credential = credential;
        self
    }

    /// The polling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of polls performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// The per-server agents.
    pub fn agents(&self) -> &[ServerAgent] {
        &self.agents
    }

    /// Read access to the counters (diagnostics).
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// Restarts the polling clock at `now` (e.g. when a simulation begins
    /// mid-day): the next poll is due at `now + interval` and averages
    /// from `now`.
    pub fn reset_epoch(&mut self, now: SimTime) {
        self.last_poll = now;
        self.baseline = self.counters.snapshot();
    }

    /// Accumulates `dt` of the current link loads into the counters.
    ///
    /// # Panics
    ///
    /// Panics if `net` has a different link count.
    pub fn accumulate(&mut self, net: &mut FlowNetwork, dt: SimDuration) {
        self.counters.accumulate(net, dt);
    }

    /// Adopts the volume integrals `net` maintains incrementally as the
    /// counter values — call once just before [`SnmpSystem::poll`]
    /// instead of calling [`SnmpSystem::accumulate`] on every event.
    ///
    /// # Panics
    ///
    /// Panics if `net` has a different link count or a counter would
    /// move backwards.
    pub fn sync_counters(&mut self, net: &FlowNetwork) {
        self.counters.sync_from_network(net);
    }

    /// The instant of the most recent poll (or the epoch start before
    /// any) — the age of the database's traffic view is `now −
    /// last_poll_at()`, the staleness the routing application works
    /// with.
    pub fn last_poll_at(&self) -> SimTime {
        self.last_poll
    }

    /// The instant of the next scheduled poll.
    pub fn next_poll_at(&self) -> SimTime {
        self.last_poll + self.interval
    }

    /// Returns true if a poll is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_poll_at()
    }

    /// Performs a poll at `now`: each agent computes, for each of its
    /// adjacent links, the average combined rate since the previous poll
    /// and inserts the utilization reading into the database. Links
    /// adjacent to two servers are simply written twice with the same
    /// value, as in the paper's per-server design. Returns the number of
    /// readings written.
    ///
    /// # Errors
    ///
    /// Propagates database errors (missing link entries, rejected
    /// credential).
    pub fn poll(
        &mut self,
        topology: &Topology,
        db: &mut Database,
        now: SimTime,
    ) -> Result<usize, vod_db::DbError> {
        let elapsed = now.duration_since(self.last_poll);
        let mut written = 0;
        {
            let mut admin = db.limited_access(&self.credential)?;
            for agent in &self.agents {
                for &link in agent.links() {
                    let avg = self.counters.average_rate_since(
                        link,
                        self.baseline[link.index()],
                        elapsed,
                    );
                    let capacity = topology.link(link).capacity();
                    let utilization = combined_utilization(avg, capacity);
                    admin.record_reading(link, now, avg, utilization)?;
                    written += 1;
                }
            }
        }
        self.baseline = self.counters.snapshot();
        self.last_poll = now;
        self.polls += 1;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies::grnet::{Grnet, GrnetLink};
    use vod_net::Mbps;
    use vod_storage::video::VideoLibrary;

    fn setup() -> (Grnet, Database, FlowNetwork, SnmpSystem) {
        let grnet = Grnet::new();
        let db = Database::from_topology(grnet.topology(), VideoLibrary::new());
        let net = FlowNetwork::new(grnet.topology().clone());
        let snmp = SnmpSystem::new(grnet.topology(), SimDuration::from_mins(2));
        (grnet, db, net, snmp)
    }

    #[test]
    fn poll_writes_average_utilization() {
        let (grnet, mut db, mut net, mut snmp) = setup();
        let link = grnet.link(GrnetLink::PatraAthens);
        // 1 Mbps for the first minute, idle for the second → 0.5 Mbps avg.
        net.set_background(link, Mbps::new(1.0));
        snmp.accumulate(&mut net, SimDuration::from_mins(1));
        net.set_background(link, Mbps::ZERO);
        snmp.accumulate(&mut net, SimDuration::from_mins(1));

        let t = SimTime::from_secs(120);
        assert!(snmp.due(t));
        snmp.poll(grnet.topology(), &mut db, t).unwrap();

        let admin = db.limited_access(&AdminCredential::new("root")).unwrap();
        let entry = admin.link(link).unwrap();
        let reading = entry.last_reading().unwrap();
        assert!((reading.used.as_f64() - 0.5).abs() < 1e-9);
        assert!((reading.utilization.get() - 0.25).abs() < 1e-9);
        assert_eq!(reading.at, t);
        // And the snapshot hands the VRA exactly this view.
        let snap = admin.snapshot(grnet.topology());
        assert!((snap.used(link).as_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deltas_reset_between_polls() {
        let (grnet, mut db, mut net, mut snmp) = setup();
        let link = grnet.link(GrnetLink::AthensHeraklio);
        net.set_background(link, Mbps::new(9.0));
        snmp.accumulate(&mut net, SimDuration::from_mins(2));
        snmp.poll(grnet.topology(), &mut db, SimTime::from_secs(120))
            .unwrap();
        // Second interval idle.
        net.set_background(link, Mbps::ZERO);
        snmp.accumulate(&mut net, SimDuration::from_mins(2));
        snmp.poll(grnet.topology(), &mut db, SimTime::from_secs(240))
            .unwrap();
        let admin = db.limited_access(&AdminCredential::new("root")).unwrap();
        let reading = admin.link(link).unwrap().last_reading().unwrap();
        assert_eq!(reading.used, Mbps::ZERO);
        assert_eq!(snmp.polls(), 2);
        let _ = admin.snapshot(grnet.topology());
    }

    #[test]
    fn scheduling_helpers() {
        let (.., snmp) = setup();
        assert_eq!(snmp.next_poll_at(), SimTime::from_secs(120));
        assert!(!snmp.due(SimTime::from_secs(119)));
        assert!(snmp.due(SimTime::from_secs(120)));
        assert_eq!(snmp.interval(), SimDuration::from_mins(2));
    }

    #[test]
    fn shared_links_written_twice_consistently() {
        let (grnet, mut db, mut net, mut snmp) = setup();
        snmp.accumulate(&mut net, SimDuration::from_mins(2));
        let written = snmp
            .poll(grnet.topology(), &mut db, SimTime::from_secs(120))
            .unwrap();
        // Every link has two adjacent video servers on GRNET → 14 writes.
        assert_eq!(written, 14);
        assert_eq!(snmp.agents().len(), 6);
    }

    #[test]
    fn bad_credential_is_rejected() {
        let (grnet, mut db, _, snmp) = setup();
        let mut snmp = snmp.with_credential(AdminCredential::new("intruder"));
        let err = snmp
            .poll(grnet.topology(), &mut db, SimTime::from_secs(120))
            .unwrap_err();
        assert_eq!(err, vod_db::DbError::AccessDenied);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let grnet = Grnet::new();
        let _ = SnmpSystem::new(grnet.topology(), SimDuration::ZERO);
    }
}
