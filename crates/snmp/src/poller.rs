//! The periodic polling system tying counters, agents and the database
//! together.
//!
//! A poll is one walk over the links: each link's average rate and
//! utilization since the previous poll are computed once, and the
//! database takes the whole poll as one batch
//! ([`LimitedAccess::record_poll`](vod_db::LimitedAccess::record_poll))
//! that inserts each reading once per agent reporting the link — the
//! paper's per-server design, in which a link between two video servers
//! is written twice with the same value. The poll allocates nothing:
//! the per-link reporter counts are fixed at construction and the
//! counter baseline is refreshed in place.
//!
//! Real SNMP agents expose monotone octet counters, and utilization over
//! an interval is computed from counter *deltas*. Here the counters are
//! the per-link volume integrals the flow network keeps
//! ([`FlowNetwork::link_cumulative_mbit`]), read at each sync.

use vod_db::{Database, LinkPoll};
use vod_net::{Mbps, Topology};
use vod_sim::flow::FlowNetwork;
use vod_sim::{SimDuration, SimTime};

use crate::agent::ServerAgent;
use crate::utilization::combined_utilization;

/// The service-wide SNMP statistics system.
///
/// Drive it from the simulation loop: whenever `now >=
/// `[`SnmpSystem::next_poll_at`], advance the [`FlowNetwork`] to `now`,
/// call [`SnmpSystem::sync_counters`], then [`SnmpSystem::poll`], which
/// writes one utilization reading per link into the limited-access
/// database.
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
/// let _ = net.advance(SimDuration::from_mins(2));
/// snmp.sync_counters(&net);
/// let written = snmp.poll(grnet.topology(), &mut db, SimTime::from_secs(120)).unwrap();
/// assert_eq!(written, 14); // every GRNET link reported by both adjacent servers
/// ```
#[derive(Debug, Clone)]
pub struct SnmpSystem {
    /// Per link, the megabits carried up to the last sync: the agents'
    /// monotone counters.
    counters: Vec<f64>,
    interval: SimDuration,
    last_poll: SimTime,
    /// The counters at the previous poll.
    baseline: Vec<f64>,
    /// Per link, the number of agents reporting it.
    reporters: Vec<usize>,
    polls: u64,
}

impl SnmpSystem {
    /// Creates the system with one agent per video-server node and the
    /// given polling interval (the paper suggests 1–2 minutes).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `polling interval must be positive`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(topology: &Topology, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "polling interval must be positive");
        let counters = vec![0.0; topology.link_count()];
        let baseline = counters.clone();
        let agents = ServerAgent::all_servers(topology);
        let mut reporters = vec![0; topology.link_count()];
        #[expect(
            clippy::indexing_slicing,
            reason = "`reporters` is sized by `link_count`, and agents report links of the same topology"
        )]
        for link in agents.iter().flat_map(ServerAgent::links) {
            reporters[link.index()] += 1;
        }
        SnmpSystem {
            counters,
            interval,
            last_poll: SimTime::ZERO,
            baseline,
            reporters,
            polls: 0,
        }
    }

    /// Number of polls performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Restarts the polling clock at `now` (e.g. when a simulation begins
    /// mid-day): the next poll is due at `now + interval` and averages
    /// from `now`.
    pub fn reset_epoch(&mut self, now: SimTime) {
        self.last_poll = now;
        self.rebase();
    }

    /// Takes the current counters as the next poll's baseline, in place.
    fn rebase(&mut self) {
        self.baseline.clear();
        self.baseline.extend_from_slice(&self.counters);
    }

    /// Adopts the volume integrals `net` maintains incrementally as the
    /// counter values — call once just before [`SnmpSystem::poll`].
    /// Counters and integrals share the same origin (both start at
    /// zero), so the sync preserves monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if `net` has a different link count or a counter would
    /// move backwards.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `net` covers the polled topology, and `SNMP counters are monotone`"
    )]
    pub fn sync_counters(&mut self, net: &FlowNetwork) {
        let links = net.topology().link_ids();
        assert_eq!(
            links.len(),
            self.counters.len(),
            "counters do not match topology"
        );
        for (counter, link) in self.counters.iter_mut().zip(links) {
            let total = net.link_cumulative_mbit(link);
            assert!(total >= *counter - 1e-9, "SNMP counters are monotone");
            *counter = total;
        }
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

    /// Performs a poll at `now`: for each link some agent reports, the
    /// average combined rate since the previous poll and its utilization
    /// are computed once and inserted into the database once per
    /// reporting agent. Links adjacent to two servers are simply written
    /// twice with the same value, as in the paper's per-server design.
    /// Returns the number of readings written.
    ///
    /// # Errors
    ///
    /// Propagates database errors (missing link entries).
    pub fn poll(
        &mut self,
        topology: &Topology,
        db: &mut Database,
        now: SimTime,
    ) -> Result<usize, vod_db::DbError> {
        let secs = now.duration_since(self.last_poll).as_secs_f64();
        let per_link = topology
            .links()
            .zip(&self.reporters)
            .zip(self.counters.iter().zip(&self.baseline));
        let readings = per_link.filter(|((_, &agents), _)| agents > 0).map(
            |((link, &agents), (&counter, &baseline))| {
                let used = average_rate(counter - baseline, secs);
                LinkPoll {
                    link: link.id(),
                    used,
                    utilization: combined_utilization(used, link.capacity()),
                    agents,
                }
            },
        );
        let written = db.limited_access().record_poll(now, readings)?;
        self.rebase();
        self.last_poll = now;
        self.polls += 1;
        Ok(written)
    }
}

/// The average rate that carried `delta_mbit` over `secs` seconds: the
/// SNMP delta computation. Zero for a zero-length interval.
fn average_rate(delta_mbit: f64, secs: f64) -> Mbps {
    if secs <= 0.0 {
        Mbps::ZERO
    } else {
        Mbps::new((delta_mbit / secs).max(0.0))
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
        let _ = net.advance(SimDuration::from_mins(1));
        net.set_background(link, Mbps::ZERO);
        let _ = net.advance(SimDuration::from_mins(1));

        let t = SimTime::from_secs(120);
        assert!(snmp.due(t));
        snmp.sync_counters(&net);
        snmp.poll(grnet.topology(), &mut db, t).unwrap();

        let admin = db.limited_access();
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
        let _ = net.advance(SimDuration::from_mins(2));
        snmp.sync_counters(&net);
        snmp.poll(grnet.topology(), &mut db, SimTime::from_secs(120))
            .unwrap();
        // Second interval idle.
        net.set_background(link, Mbps::ZERO);
        let _ = net.advance(SimDuration::from_mins(2));
        snmp.sync_counters(&net);
        snmp.poll(grnet.topology(), &mut db, SimTime::from_secs(240))
            .unwrap();
        let admin = db.limited_access();
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
    }

    #[test]
    fn shared_links_written_twice_consistently() {
        let (grnet, mut db, mut net, mut snmp) = setup();
        let _ = net.advance(SimDuration::from_mins(2));
        snmp.sync_counters(&net);
        let written = snmp
            .poll(grnet.topology(), &mut db, SimTime::from_secs(120))
            .unwrap();
        // Every link has two adjacent video servers on GRNET → 14 writes.
        assert_eq!(written, 14);
    }

    #[test]
    fn sync_reads_the_network_integrals() {
        let (grnet, _, mut net, mut snmp) = setup();
        let link = grnet.link(GrnetLink::PatraAthens);
        net.set_background(link, Mbps::new(1.0));
        let _ = net.advance(SimDuration::from_secs(60));
        snmp.sync_counters(&net);
        assert_eq!(snmp.counters[link.index()], 60.0);
        let _ = net.advance(SimDuration::from_secs(30));
        snmp.sync_counters(&net);
        assert_eq!(snmp.counters[link.index()], 90.0);
    }

    #[test]
    fn average_rate_from_deltas() {
        let rate = average_rate(240.0, 120.0);
        assert_eq!(rate, Mbps::new(2.0));
    }

    #[test]
    fn average_rate_over_zero_interval_is_zero() {
        assert_eq!(average_rate(5.0, 0.0), Mbps::ZERO);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn a_counter_moving_backwards_panics() {
        let (grnet, _, mut net, mut snmp) = setup();
        net.set_background(grnet.link(GrnetLink::PatraAthens), Mbps::new(1.0));
        let _ = net.advance(SimDuration::from_secs(60));
        snmp.sync_counters(&net);
        // A network restarted from zero would run the counters back.
        snmp.sync_counters(&FlowNetwork::new(grnet.topology().clone()));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let grnet = Grnet::new();
        let _ = SnmpSystem::new(grnet.topology(), SimDuration::ZERO);
    }

    /// The poll as it was before the batch: every agent, in order,
    /// computes and inserts a reading for each of its links. Kept as
    /// the reference `poll` is compared with.
    fn poll_per_reading(
        snmp: &SnmpSystem,
        topology: &Topology,
        db: &mut Database,
        now: SimTime,
    ) -> usize {
        let secs = now.duration_since(snmp.last_poll).as_secs_f64();
        let mut admin = db.limited_access();
        let mut written = 0;
        for agent in &ServerAgent::all_servers(topology) {
            for &link in agent.links() {
                let i = link.index();
                let avg = average_rate(snmp.counters[i] - snmp.baseline[i], secs);
                let utilization = combined_utilization(avg, topology.link(link).capacity());
                admin.record_reading(link, now, avg, utilization).unwrap();
                written += 1;
            }
        }
        written
    }

    /// Polls `topology` forty times (past the reading history's depth)
    /// under a load that differs per link and per interval, comparing
    /// the batch with the per-reading reference after every poll.
    fn batch_matches_per_reading_on(topology: &Topology, expect_written: usize) {
        let mut db = Database::from_topology(topology, VideoLibrary::new());
        let mut reference = db.clone();
        let mut net = FlowNetwork::new(topology.clone());
        let mut snmp = SnmpSystem::new(topology, SimDuration::from_mins(2));
        for round in 1..=40u64 {
            for link in topology.link_ids() {
                let load = 0.07 * ((round * 5 + link.index() as u64 * 3) % 11) as f64;
                net.set_background(link, Mbps::new(load));
            }
            let _ = net.advance(SimDuration::from_mins(2));
            snmp.sync_counters(&net);
            let now = SimTime::from_secs(120 * round);
            let expected = poll_per_reading(&snmp, topology, &mut reference, now);
            let written = snmp.poll(topology, &mut db, now).unwrap();
            assert_eq!(written, expected);
            assert_eq!(written, expect_written);
            assert_eq!(db, reference, "poll {round}");
        }
    }

    #[test]
    fn batch_poll_matches_per_reading_writes_on_grnet() {
        batch_matches_per_reading_on(Grnet::new().topology(), 14);
    }

    #[test]
    fn batch_poll_matches_per_reading_writes_with_transit_nodes() {
        use vod_net::node::NodeKind;
        use vod_net::TopologyBuilder;
        // Links reported by two agents (a–b), one (b–r1, a–r2) and
        // none (r1–r2): 2 + 1 + 1 readings per poll, and the unreported
        // link never gets one.
        let mut b = TopologyBuilder::new();
        let s1 = b.add_node("a");
        let s2 = b.add_node("b");
        let r1 = b.add_node_with_kind("r1", NodeKind::Transit);
        let r2 = b.add_node_with_kind("r2", NodeKind::Transit);
        b.add_link(s1, s2, Mbps::new(2.0)).unwrap();
        b.add_link(s2, r1, Mbps::new(18.0)).unwrap();
        let dark = b.add_link(r1, r2, Mbps::new(2.0)).unwrap();
        b.add_link(s1, r2, Mbps::new(34.0)).unwrap();
        let topology = b.build();
        batch_matches_per_reading_on(&topology, 4);

        let mut db = Database::from_topology(&topology, VideoLibrary::new());
        let mut snmp = SnmpSystem::new(&topology, SimDuration::from_mins(2));
        snmp.poll(&topology, &mut db, SimTime::from_secs(120))
            .unwrap();
        let admin = db.limited_access();
        assert_eq!(admin.link(dark).unwrap().last_reading(), None);
    }

    #[test]
    fn poll_of_an_unregistered_link_is_an_error() {
        let (grnet, _, _, mut snmp) = setup();
        let mut db = Database::new(VideoLibrary::new());
        let err = snmp
            .poll(grnet.topology(), &mut db, SimTime::from_secs(120))
            .unwrap_err();
        assert!(matches!(err, vod_db::DbError::UnknownLink(_)), "{err:?}");
        assert_eq!(snmp.polls(), 0);
    }
}
