//! The trace invariant auditor: rules `A000`–`A016` over typed events,
//! and the `A017` replica-floor counter.
//!
//! A trace written by `vod-obs`'s `JsonlWriter` is *self-auditing*: it
//! opens with the topology, the run configuration, each server's DMA
//! sizing and the initial placement, and then interleaves every link
//! state the selector worked from plus every catalog mutation.
//! [`AuditSink`] replays that stream with independent re-implementations
//! of the paper's algorithms and reports every divergence. It is an
//! [`EventSink`], so a run can be audited in-process; [`audit_trace`]
//! and the CLI read a JSONL file through [`Event::read_json`] into the
//! same sink.
//!
//! | rule | invariant |
//! |------|-----------|
//! | A000 | well-formed stream: every line reads as an event (parseable JSON, the kind's fields), preamble first, non-decreasing `at_us` |
//! | A001 | DMA occupancy: resident megabytes match the traced occupancy and never exceed `disks × capacity_mb` |
//! | A002 | DMA admission threshold: admits only after a title's points exceed the threshold (Figure 2) |
//! | A003 | DMA eviction victim is the least-popular resident, ties to the lowest id |
//! | A004 | striping: part `i` lands on disk `i mod n`, and the part count matches `ceil(size/cluster)` (Figure 3) |
//! | A005 | VRA optimality: each selection matches a reference LVN-weighted Dijkstra over the traced link state (Figure 5) |
//! | A006 | switches: every server change is announced by a `switch` matching the adjacent selection, and vice versa |
//! | A007 | sessions: cluster indices start at 0 and step by at most 1 (repeats only after a re-route; with `dynamic_rerouting` off a selection may skip the clusters fetched along the kept route); the lifecycle is ordered: at most one `session_start`, `session_complete` only after it, a `switch` before it only at the first cluster to fetch (0, or the prefix length after a `prefix_serve`), and no event naming the session after its `session_complete`/`session_aborted` |
//! | A008 | link conservation: traced used bandwidth and utilization are non-negative and leave no negative residual |
//! | A009 | catalog/residency consistency: hits are resident, selections come from advertising servers, no double add/remove |
//! | A010 | fault windows: `link_down`/`link_up` pair up, `link_state.down` matches the replayed outage set, and the A005 reference masks down links (no selection routes over them) |
//! | A011 | retry budget: `session_retry` attempts are 1-based, step by one within an episode, and never exceed `retry_max_attempts` from the run config |
//! | A012 | abort accounting: every `session_aborted.reason` is consistent with the configured budget and the session's observed retries |
//! | A013 | series reconciliation ([`crate::series`]): a `TimeSeriesSink` export's windows are contiguous and aligned, per-window counter sums equal the sink's per-kind event counts, and per-link utilization never exceeds capacity |
//! | A014 | prefix-store occupancy/residency: replayed occupancy matches the traced `occupancy_mb`, never exceeds the proxy's capacity, and hits/serves/extensions only touch resident prefixes |
//! | A015 | prefix admission sizing: admits only after points exceed the threshold, stored lengths never exceed the popularity target `min(base + (points−1)/growth, max)`, sizes fit the cluster geometry, and reject reasons respect the gate order |
//! | A016 | prefix eviction discipline: victims are the least-popular residents (ties to the lowest id), strictly colder than the admitted newcomer, freed space matches the replayed resident size, and every eviction run is immediately followed by its admission |
//! | A017 | replica floor, *counted, not a finding*: a `catalog_remove` that leaves its title with no advertising holder while its server is up ([`AuditSummary::last_copy_removals`]). Figure 2's single attempt deletes the network's last copy by design, so this baselines the defect until a replica-floor policy lands |
//!
//! The replayed DMA popularity counter exploits that every `dma_*`
//! decision event corresponds to exactly one `on_request` call, which
//! awards exactly one point before deciding — so points are re-derived
//! from the decision stream itself, with no access to the workload.

use std::collections::{BTreeMap, BTreeSet};

use vod_net::dijkstra::dijkstra;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::node::NodeKind;
use vod_net::units::Fraction;
use vod_net::{LinkId, Mbps, NodeId, Topology, TopologyBuilder, TrafficSnapshot};
use vod_obs::{AbortReason, Event, EventSink, ReadError, Tally};
use vod_sim::SimTime;
use vod_storage::dma::RejectKind;
use vod_storage::VideoId;

/// One invariant violation, pointing at a trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated rule (`"A000"`…`"A016"`).
    pub rule: &'static str,
    /// 1-based line number in the trace (the event's ordinal).
    pub line: usize,
    /// What diverged.
    pub message: String,
}

/// The outcome of one audit run.
#[derive(Debug, Default)]
pub struct AuditSummary {
    /// Events replayed, lines of an unknown kind included.
    pub events: usize,
    /// `vra_select` events re-derived against the reference Dijkstra.
    pub selections_verified: usize,
    /// `dma_admit` events checked for occupancy/threshold/striping.
    pub admits_verified: usize,
    /// `dma_evict` events checked for victim optimality.
    pub evictions_verified: usize,
    /// `prefix_*` decision events replayed against the reference
    /// prefix store (hits, admits, evictions, rejections).
    pub prefix_verified: usize,
    /// Lines whose kind is outside this build's taxonomy: tolerated (a
    /// trace from a newer writer must still replay under the invariants
    /// known here), but counted.
    pub unknown_kinds: usize,
    /// A017: `catalog_remove` events that left their title with no
    /// advertising holder while their server was up — a cache eviction
    /// of the network's last copy, not an outage. Counted, not a
    /// finding.
    pub last_copy_removals: usize,
    /// The replayed events' per-kind counts, which rule A013 reconciles
    /// a series against.
    pub tally: Tally,
    /// All violations, in trace order.
    pub violations: Vec<Violation>,
}

impl AuditSummary {
    /// True when every replayed invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replayed DMA state of one video server.
#[derive(Debug, Clone, Default)]
struct ServerState {
    disks: u64,
    capacity_mb: f64,
    cluster_mb: f64,
    admit_threshold: u64,
    /// Resident titles and their sizes in MB.
    residents: BTreeMap<u64, f64>,
    /// Replayed popularity points (Figure 2's counter).
    points: BTreeMap<u64, u64>,
}

impl ServerState {
    fn total_capacity(&self) -> f64 {
        self.disks as f64 * self.capacity_mb
    }

    fn occupancy(&self) -> f64 {
        self.residents.values().sum()
    }

    fn award(&mut self, video: u64) -> u64 {
        let p = self.points.entry(video).or_insert(0);
        *p += 1;
        *p
    }

    fn least_popular(&self) -> Option<u64> {
        self.residents
            .keys()
            .min_by_key(|&&v| (self.points.get(&v).copied().unwrap_or(0), v))
            .copied()
    }
}

/// Replayed prefix-store state of one regional proxy (rules
/// A014–A016), mirroring `vod-storage`'s `PrefixStore` the way
/// [`ServerState`] mirrors the DMA.
#[derive(Debug, Clone, Default)]
struct PrefixState {
    capacity_mb: f64,
    cluster_mb: f64,
    admit_threshold: u64,
    base_clusters: u64,
    max_clusters: u64,
    growth_points: u64,
    /// Resident prefixes: video → (clusters, exact MB occupied).
    residents: BTreeMap<u64, (u64, f64)>,
    /// Replayed popularity points (one per prefix decision event).
    points: BTreeMap<u64, u64>,
}

impl PrefixState {
    fn occupancy(&self) -> f64 {
        self.residents.values().map(|&(_, mb)| mb).sum()
    }

    fn award(&mut self, video: u64) -> u64 {
        let p = self.points.entry(video).or_insert(0);
        *p += 1;
        *p
    }

    fn least_popular(&self) -> Option<u64> {
        self.residents
            .keys()
            .min_by_key(|&&v| (self.points.get(&v).copied().unwrap_or(0), v))
            .copied()
    }

    /// The popularity target `min(base + (points−1)/growth, max)` —
    /// the store additionally caps at the title's own length, which
    /// only lowers it, so replayed lengths must stay ≤ this.
    fn target_clusters(&self, points: u64) -> u64 {
        let grown = points
            .saturating_sub(1)
            .checked_div(self.growth_points)
            .unwrap_or(0);
        self.base_clusters
            .saturating_add(grown)
            .min(self.max_clusters)
    }
}

/// One prefix eviction awaiting its admission: the service evicts and
/// admits inside a single `on_request`, so the events are adjacent.
#[derive(Debug, Clone)]
struct PendingPrefixEvict {
    line: usize,
    server: u64,
    victim: u64,
    /// The victim's replayed points at eviction time, for the
    /// strictly-colder check against the admitted newcomer.
    victim_points: u64,
}

/// Where a session stands in its lifecycle (A007); a session the
/// auditor has seen neither start nor take a prefix is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// A proxy serves this many leading clusters; playout not started.
    Prefixed(u64),
    Started,
    Ended,
}

/// A selection whose server change must be confirmed by the next event.
#[derive(Debug, Clone)]
struct PendingSwitch {
    line: usize,
    session: u64,
    cluster: u64,
    from: u64,
    to: u64,
}

/// The trace auditor as an [`EventSink`]: tee it into a run to audit
/// the run in-process, or feed it a JSONL file with
/// [`AuditSink::record_line`]. [`AuditSink::finish`] closes the replay
/// and returns the findings.
#[derive(Default)]
pub struct AuditSink {
    /// 1-based ordinal of the event being replayed: the JSONL line
    /// number, as `JsonlWriter` writes one line per event.
    line: usize,
    topology: Option<Topology>,
    link_capacities: Vec<f64>,
    lvn_normalization: Option<f64>,
    retry_max_attempts: u64,
    /// The run config turned dynamic re-routing off: a session selects
    /// only at its start and after a severed route, and fetches the
    /// clusters in between along the route it kept.
    static_routing: bool,
    servers: BTreeMap<u64, ServerState>,
    prefixes: BTreeMap<u64, PrefixState>,
    prefix_pending_evicts: Vec<PendingPrefixEvict>,
    /// Advertised replicas as `(video, server)`: a title's holders are
    /// one range, in node order.
    catalog: BTreeSet<(u64, u64)>,
    /// Servers inside an outage, replayed from `server_down` /
    /// `server_up` (emitted at depth edges only, like the link events).
    down_servers: BTreeSet<u64>,
    snapshot: Option<TrafficSnapshot>,
    /// session → (current server, last selected cluster, video).
    sessions: BTreeMap<u64, (u64, u64, u64)>,
    /// session → lifecycle phase, kept after the session ends so a late
    /// event naming it is caught.
    lifecycle: BTreeMap<u64, Lifecycle>,
    /// session → last `session_retry` attempt number seen.
    retries: BTreeMap<u64, u64>,
    /// Links currently inside an outage window, replayed from
    /// `link_down`/`link_up` (the service emits them only at depth
    /// edges, so a plain set suffices even under nested windows).
    down_links: BTreeSet<u64>,
    pending_switch: Option<PendingSwitch>,
    last_at_us: Option<u64>,
    summary: AuditSummary,
}

/// Numeric-comparison slack for replayed f64 accumulations (occupancy
/// sums and path costs re-derived in a different evaluation order).
const EPS: f64 = 1e-6;

/// The raw index of an id, as the auditor's state and messages key it.
trait Raw {
    fn raw(self) -> u64;
}

macro_rules! raw_via_index {
    ($($ty:ty),*) => {$(
        impl Raw for $ty {
            fn raw(self) -> u64 {
                self.index() as u64
            }
        }
    )*};
}
raw_via_index!(NodeId, LinkId, VideoId);

/// Audits one JSONL trace; never panics on malformed input — every
/// problem becomes an [`AuditSummary`] violation instead.
pub fn audit_trace(text: &str) -> AuditSummary {
    let mut sink = AuditSink::new();
    for line in text.lines() {
        sink.record_line(line);
    }
    sink.finish()
}

impl EventSink for AuditSink {
    fn record(&mut self, at: SimTime, event: &Event) {
        self.line += 1;
        self.replay(at, event);
    }
}

impl AuditSink {
    /// An auditor that has seen nothing yet.
    pub fn new() -> Self {
        AuditSink::default()
    }

    /// Reads the next JSONL line and replays its event. A line that does
    /// not read is an `A000` finding; a kind outside the taxonomy is
    /// only counted ([`AuditSummary::unknown_kinds`]); a blank line is
    /// skipped.
    pub fn record_line(&mut self, line: &str) {
        self.line += 1;
        if line.trim().is_empty() {
            return;
        }
        match Event::read_json(line) {
            Ok((at, event)) => self.replay(at, &event),
            Err(ReadError::UnknownKind(_)) => {
                self.summary.events += 1;
                self.summary.unknown_kinds += 1;
            }
            Err(e) => self.violate("A000", e.to_string()),
        }
    }

    /// Closes the replay: a selection still waiting for its switch and
    /// evictions still waiting for their admission are findings.
    pub fn finish(mut self) -> AuditSummary {
        if let Some(p) = self.pending_switch.take() {
            self.violate_at(
                "A006",
                p.line,
                format!(
                    "selection moved session {} to server {} but no switch event followed",
                    p.session, p.to
                ),
            );
        }
        for p in std::mem::take(&mut self.prefix_pending_evicts) {
            self.violate_at(
                "A016",
                p.line,
                format!(
                    "prefix eviction of v{} at proxy {} was never followed by an admission",
                    p.victim, p.server
                ),
            );
        }
        self.summary
    }

    fn violate_at(&mut self, rule: &'static str, line: usize, message: String) {
        self.summary.violations.push(Violation {
            rule,
            line,
            message,
        });
    }

    /// A finding at the event being replayed.
    fn violate(&mut self, rule: &'static str, message: String) {
        self.violate_at(rule, self.line, message);
    }

    /// Flushes violations collected while a server's replay state was
    /// mutably borrowed.
    fn flush(&mut self, pending: Vec<(&'static str, String)>) {
        for (rule, message) in pending {
            self.violate(rule, message);
        }
    }

    fn replay(&mut self, at: SimTime, event: &Event) {
        self.summary.events += 1;
        self.summary.tally.apply(event);
        let kind = event.kind();
        let at_us = at.as_micros();
        if self.last_at_us.is_some_and(|prev| at_us < prev) {
            self.violate(
                "A000",
                format!(
                    "time went backwards: at_us {at_us} after {:?}",
                    self.last_at_us
                ),
            );
        }
        self.last_at_us = Some(at_us);

        if self.topology.is_none() && !matches!(event, Event::TopologySnapshot { .. }) {
            self.violate("A000", format!("`{kind}` before the topology preamble"));
            return;
        }

        // A pending server change must be confirmed by the very next
        // event (the service emits the switch immediately).
        if let Some(p) = self.pending_switch.take() {
            if let Event::Switch {
                session,
                cluster,
                from,
                to,
            } = event
            {
                self.check_switch(*session, *cluster, from.raw(), to.raw(), &p);
                self.check_lifecycle(*session, event);
                return;
            }
            self.violate(
                "A006",
                format!(
                    "selection moved session {} from {} to {} but the next event is `{kind}`, not a switch",
                    p.session, p.from, p.to
                ),
            );
        } else if let Event::Switch { .. } = event {
            self.violate(
                "A006",
                "switch without a preceding server-changing selection".to_string(),
            );
            return;
        }

        // A016: the prefix store evicts and admits inside one decision,
        // so a run of prefix_evict events must lead straight into the
        // prefix_admit that caused it.
        if !self.prefix_pending_evicts.is_empty()
            && !matches!(event, Event::PrefixEvict { .. } | Event::PrefixAdmit { .. })
        {
            for p in std::mem::take(&mut self.prefix_pending_evicts) {
                self.violate_at(
                    "A016",
                    p.line,
                    format!(
                        "prefix eviction of v{} at proxy {} is followed by `{kind}`, not its admission",
                        p.victim, p.server
                    ),
                );
            }
        }
        self.dispatch(event);
    }

    /// One arm per kind, so a new `Event` variant does not compile until
    /// the auditor replays it or says why not.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn dispatch(&mut self, event: &Event) {
        match event {
            Event::TopologySnapshot { nodes, links } => self.on_topology(nodes, links),
            Event::RunConfig {
                dynamic_rerouting,
                lvn_normalization,
                retry_max_attempts,
                ..
            } => {
                self.lvn_normalization = *lvn_normalization;
                self.static_routing = !dynamic_rerouting;
                self.retry_max_attempts = u64::from(*retry_max_attempts);
            }
            Event::CacheConfig {
                server,
                disks,
                capacity_mb,
                cluster_mb,
                admit_threshold,
            } => {
                let state = ServerState {
                    disks: *disks,
                    capacity_mb: *capacity_mb,
                    cluster_mb: *cluster_mb,
                    admit_threshold: *admit_threshold,
                    ..ServerState::default()
                };
                self.servers.insert(server.raw(), state);
            }
            Event::PrefixCacheConfig {
                server,
                capacity_mb,
                cluster_mb,
                admit_threshold,
                base_clusters,
                max_clusters,
                growth_points,
            } => {
                let state = PrefixState {
                    capacity_mb: *capacity_mb,
                    cluster_mb: *cluster_mb,
                    admit_threshold: *admit_threshold,
                    base_clusters: *base_clusters,
                    max_clusters: *max_clusters,
                    growth_points: *growth_points,
                    ..PrefixState::default()
                };
                self.prefixes.insert(server.raw(), state);
            }
            Event::DmaSeed {
                server,
                video,
                size_mb,
                ..
            } => self.on_dma_seed(server.raw(), video.raw(), *size_mb),
            Event::CatalogAdd { server, video } => self.on_catalog(server.raw(), video.raw(), true),
            Event::CatalogRemove { server, video } => {
                self.on_catalog(server.raw(), video.raw(), false)
            }
            Event::LinkState {
                used,
                utilization,
                down,
            } => self.on_link_state(used, utilization, down),
            Event::DmaHit { server, video } => self.on_dma_hit(server.raw(), video.raw()),
            Event::DmaAdmit {
                server,
                video,
                size_mb,
                parts,
                stripe,
                occupancy_mb,
                ..
            } => self.on_dma_admit(
                server.raw(),
                video.raw(),
                *size_mb,
                *parts,
                stripe,
                *occupancy_mb,
            ),
            Event::DmaEvict { server, victim } => self.on_dma_evict(server.raw(), victim.raw()),
            Event::DmaReject {
                server,
                video,
                reason,
            } => self.on_dma_reject(server.raw(), video.raw(), *reason),
            Event::PrefixHit {
                server,
                video,
                clusters,
            } => self.on_prefix_hit(server.raw(), video.raw(), *clusters),
            Event::PrefixExtend {
                server,
                video,
                from_clusters,
                to_clusters,
                occupancy_mb,
            } => self.on_prefix_extend(
                server.raw(),
                video.raw(),
                *from_clusters,
                *to_clusters,
                *occupancy_mb,
            ),
            Event::PrefixAdmit {
                server,
                video,
                after_eviction,
                clusters,
                size_mb,
                occupancy_mb,
            } => self.on_prefix_admit(
                server.raw(),
                video.raw(),
                *after_eviction,
                *clusters,
                *size_mb,
                *occupancy_mb,
            ),
            Event::PrefixEvict {
                server,
                victim,
                freed_mb,
            } => self.on_prefix_evict(server.raw(), victim.raw(), *freed_mb),
            Event::PrefixReject {
                server,
                video,
                reason,
            } => self.on_prefix_reject(server.raw(), video.raw(), *reason),
            Event::PrefixServe {
                session,
                server,
                video,
                clusters,
            } => {
                self.check_lifecycle(*session, event);
                self.on_prefix_serve(*session, server.raw(), video.raw(), *clusters);
            }
            Event::VraSelect {
                session,
                cluster,
                video,
                home,
                server,
                cost,
                local,
                ..
            } => {
                self.check_lifecycle(*session, event);
                self.on_vra_select(
                    *session,
                    *cluster,
                    video.raw(),
                    home.raw(),
                    server.raw(),
                    *cost,
                    *local,
                );
            }
            Event::LinkDown { link } => self.on_link_down(link.raw()),
            Event::LinkUp { link } => self.on_link_up(link.raw()),
            Event::SessionRetry {
                session, attempt, ..
            } => {
                self.check_lifecycle(*session, event);
                self.on_session_retry(*session, u64::from(*attempt));
            }
            Event::SessionStart { session, .. }
            | Event::SessionStall { session }
            | Event::SessionResume { session, .. } => self.check_lifecycle(*session, event),
            Event::SessionComplete { session, .. } => {
                self.check_lifecycle(*session, event);
                self.sessions.remove(session);
                self.retries.remove(session);
            }
            Event::SessionAborted { session, reason } => {
                self.check_lifecycle(*session, event);
                self.on_session_aborted(*session, *reason);
            }
            Event::ServerDown { server } => {
                self.down_servers.insert(server.raw());
                // The cache is retired with the server; a recovering
                // server starts cold (fresh points, empty disks).
                if let Some(state) = self.servers.get_mut(&server.raw()) {
                    state.residents.clear();
                    state.points.clear();
                }
                if let Some(state) = self.prefixes.get_mut(&server.raw()) {
                    state.residents.clear();
                    state.points.clear();
                }
            }
            // Checked before the dispatch: it must follow its selection.
            Event::Switch { .. } => {}
            // Request markers carry no invariant beyond the time order
            // every event gets; A013 reconciles their counts with a
            // series instead.
            Event::RequestArrival { .. }
            | Event::RequestFailed { .. }
            | Event::RequestRejected { .. } => {}
            // A recovering server is replayed cold already; it only
            // leaves the outage set A017 spares.
            Event::ServerUp { server } => {
                self.down_servers.remove(&server.raw());
            }
            // SNMP, outage, degradation and background markers only
            // explain the link states that A005, A008 and A010 verify
            // directly.
            Event::SnmpPoll { .. }
            | Event::BackgroundUpdate
            | Event::LinkDegradeStart { .. }
            | Event::LinkDegradeEnd { .. }
            | Event::SnmpOutageStart
            | Event::SnmpOutageEnd
            | Event::SnmpStaleView { .. } => {}
        }
    }

    fn on_topology(&mut self, nodes: &[(String, bool)], links: &[(NodeId, NodeId, f64)]) {
        if self.topology.is_some() {
            self.violate("A000", "duplicate topology preamble".to_string());
            return;
        }
        let mut b = TopologyBuilder::new();
        for (name, is_server) in nodes {
            let kind = if *is_server {
                NodeKind::VideoServer
            } else {
                NodeKind::Transit
            };
            b.add_node_with_kind(name, kind);
        }
        for &(from, to, cap) in links {
            let added = Mbps::try_new(cap).map(|mbps| b.add_link(from, to, mbps));
            if !matches!(added, Some(Ok(_))) {
                self.violate("A000", "topology link is malformed".to_string());
                return;
            }
        }
        self.topology = Some(b.build());
        self.link_capacities = links.iter().map(|&(_, _, cap)| cap).collect();
    }

    fn on_dma_seed(&mut self, server: u64, video: u64, size_mb: f64) {
        let mut pending = Vec::new();
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate("A009", format!("seed on unconfigured server {server}"));
            return;
        };
        if state.residents.insert(video, size_mb).is_some() {
            pending.push(("A009", format!("video {video} seeded twice on {server}")));
        }
        let (occ, cap) = (state.occupancy(), state.total_capacity());
        if occ > cap + EPS {
            pending.push((
                "A001",
                format!("seeding overflows server {server}: {occ:.3} MB > {cap:.3} MB"),
            ));
        }
        self.flush(pending);
        if !self.catalog.insert((video, server)) {
            self.violate("A009", format!("seed re-advertises v{video} at {server}"));
        }
    }

    fn on_catalog(&mut self, server: u64, video: u64, add: bool) {
        if add && !self.catalog.insert((video, server)) {
            self.violate(
                "A009",
                format!("catalog_add of already-advertised v{video} at server {server}"),
            );
        }
        if !add {
            if !self.catalog.remove(&(video, server)) {
                self.violate(
                    "A009",
                    format!("catalog_remove of unadvertised v{video} at server {server}"),
                );
            } else if self.holders(video).next().is_none() && !self.down_servers.contains(&server) {
                // A017: a live server gave up the title's last copy.
                self.summary.last_copy_removals += 1;
            }
        }
    }

    /// The servers advertising `video`, in node order.
    fn holders(&self, video: u64) -> impl Iterator<Item = u64> + '_ {
        self.catalog
            .range((video, 0)..=(video, u64::MAX))
            .map(|&(_, server)| server)
    }

    fn on_link_state(&mut self, used: &[f64], utilization: &[f64], down: &[u64]) {
        let down_listed: BTreeSet<u64> = down.iter().copied().collect();
        if down_listed != self.down_links {
            self.violate(
                "A010",
                format!(
                    "link_state lists down links {:?} but replayed outage windows say {:?}",
                    down_listed.iter().collect::<Vec<_>>(),
                    self.down_links.iter().collect::<Vec<_>>()
                ),
            );
        }
        let Some(topo) = self.topology.as_ref() else {
            return;
        };
        if used.len() != self.link_capacities.len() || utilization.len() != used.len() {
            self.violate(
                "A000",
                format!(
                    "link_state has {} used / {} utilization entries for {} links",
                    used.len(),
                    utilization.len(),
                    self.link_capacities.len()
                ),
            );
            return;
        }
        let mut snap = TrafficSnapshot::zero(topo);
        let mut violations: Vec<String> = Vec::new();
        for (i, (&u, &f)) in used.iter().zip(utilization).enumerate() {
            let cap = self.link_capacities[i];
            if !u.is_finite() || u < -EPS {
                violations.push(format!("link {i}: negative used bandwidth {u}"));
            } else if u > cap + EPS {
                violations.push(format!(
                    "link {i}: used {u} Mbps exceeds capacity {cap} Mbps (negative residual)"
                ));
            }
            if !f.is_finite() || f < -EPS {
                violations.push(format!("link {i}: negative utilization {f}"));
            }
            let link = LinkId::new(i as u32);
            if let Some(mbps) = Mbps::try_new(u.max(0.0)) {
                snap.set_used(link, mbps);
            }
            if let Some(fraction) = Fraction::try_new(f.max(0.0)) {
                snap.set_explicit_utilization(link, fraction);
            }
        }
        for v in violations {
            self.violate("A008", v);
        }
        // Mask down links on the replay snapshot so the A005 reference
        // Dijkstra refuses to route over them, exactly like the service.
        for &l in &down_listed {
            if (l as usize) < self.link_capacities.len() {
                snap.set_admin_down(LinkId::new(l as u32), true);
            }
        }
        self.snapshot = Some(snap);
    }

    /// A010: a `link_down` opens an outage; the service emits it only on
    /// the 0 → 1 depth edge, so seeing a link go down twice is a bug.
    fn on_link_down(&mut self, link: u64) {
        if link as usize >= self.link_capacities.len() {
            self.violate("A010", format!("link_down names unknown link {link}"));
            return;
        }
        if !self.down_links.insert(link) {
            self.violate(
                "A010",
                format!("link {link} went down twice without coming back up"),
            );
        }
    }

    /// A010: a `link_up` must close a previously-opened outage.
    fn on_link_up(&mut self, link: u64) {
        if !self.down_links.remove(&link) {
            self.violate(
                "A010",
                format!("link {link} came up without a matching link_down"),
            );
        }
    }

    /// A011: retry attempts are 1-based, step by one within a failure
    /// episode (a successful relaunch resets the counter), and never
    /// exceed the configured budget.
    fn on_session_retry(&mut self, session: u64, attempt: u64) {
        let prev = self.retries.get(&session).copied();
        if attempt == 0 {
            self.violate(
                "A011",
                format!("session {session} retries with attempt 0 (attempts are 1-based)"),
            );
        } else if attempt != 1 && prev.is_none_or(|p| attempt != p + 1) {
            self.violate(
                "A011",
                format!("session {session} jumps to retry attempt {attempt} (previous: {prev:?})"),
            );
        }
        let max = self.retry_max_attempts;
        if attempt > max {
            self.violate(
                "A011",
                format!(
                    "session {session} retry attempt {attempt} exceeds the configured budget {max}"
                ),
            );
        }
        self.retries.insert(session, attempt);
    }

    /// A007 lifecycle order for an event naming `session`: it starts at
    /// most once, completes only after its start, switches before its
    /// start only at its first cluster to fetch, and no event names it
    /// after it completed or aborted.
    fn check_lifecycle(&mut self, session: u64, event: &Event) {
        let phase = self.lifecycle.get(&session).copied();
        let kind = event.kind();
        if phase == Some(Lifecycle::Ended) {
            self.violate(
                "A007",
                format!("`{kind}` names session {session} after it ended"),
            );
            return;
        }
        let started = phase == Some(Lifecycle::Started);
        match event {
            Event::SessionStart { .. } if started => {
                self.violate("A007", format!("session {session} starts twice"));
            }
            Event::SessionStart { .. } => {
                self.lifecycle.insert(session, Lifecycle::Started);
            }
            Event::PrefixServe { clusters, .. } if phase.is_none() => {
                self.lifecycle
                    .insert(session, Lifecycle::Prefixed(*clusters));
            }
            // Before playout only the first cluster to fetch is in
            // flight: a retry may re-route it, and a prefix session's
            // origin takes over from the proxy at the prefix boundary.
            Event::Switch { cluster, .. } if !started => {
                let first = match phase {
                    Some(Lifecycle::Prefixed(clusters)) => clusters,
                    _ => 0,
                };
                if *cluster != first {
                    self.violate(
                        "A007",
                        format!(
                            "session {session} switches at cluster {cluster} before its \
                             `session_start` (only cluster {first} is in flight)"
                        ),
                    );
                }
            }
            Event::SessionComplete { .. } if !started => {
                self.violate(
                    "A007",
                    format!("session {session} completes without a `session_start`"),
                );
            }
            _ => {}
        }
        if matches!(
            event,
            Event::SessionComplete { .. } | Event::SessionAborted { .. }
        ) {
            self.lifecycle.insert(session, Lifecycle::Ended);
        }
    }

    /// A012: abort reasons agree with the configured retry budget and
    /// the session's observed retries.
    fn on_session_aborted(&mut self, session: u64, reason: AbortReason) {
        let max = self.retry_max_attempts;
        let last = self.retries.get(&session).copied();
        let inconsistent = match reason {
            AbortReason::HomeDown => None,
            AbortReason::NoSource if max > 0 => Some(format!(
                "session {session} aborted `no_source` although the retry budget is {max}"
            )),
            AbortReason::NoSource => None,
            AbortReason::RetryExhausted if max == 0 => Some(format!(
                "session {session} aborted `retry_exhausted` with no retry budget configured"
            )),
            AbortReason::RetryExhausted => (last != Some(max)).then(|| {
                format!(
                    "session {session} aborted `retry_exhausted` after {last:?} retries (budget {max})"
                )
            }),
            AbortReason::StallBudget => (max == 0).then(|| {
                format!("session {session} aborted `stall_budget` with no retry budget configured")
            }),
        };
        if let Some(message) = inconsistent {
            self.violate("A012", message);
        }
        self.sessions.remove(&session);
        self.retries.remove(&session);
    }

    fn on_dma_hit(&mut self, server: u64, video: u64) {
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate("A009", format!("dma_hit on unconfigured server {server}"));
            return;
        };
        state.award(video);
        let resident = state.residents.contains_key(&video);
        if !resident {
            self.violate(
                "A009",
                format!("dma_hit for v{video} which is not resident on server {server}"),
            );
        }
    }

    fn on_dma_admit(
        &mut self,
        server: u64,
        video: u64,
        size_mb: f64,
        parts: u64,
        stripe: &[u32],
        occupancy_mb: f64,
    ) {
        self.summary.admits_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate("A009", format!("dma_admit on unconfigured server {server}"));
            return;
        };

        // Figure 2: the request awards a point first; admission requires
        // the counter to exceed the threshold.
        let points = state.award(video);
        if points <= state.admit_threshold {
            pending.push((
                "A002",
                format!(
                    "v{video} admitted at server {server} with {points} points (threshold {})",
                    state.admit_threshold
                ),
            ));
        }

        // Figure 3: `ceil(size/cluster)` parts, part i on disk i mod n.
        let expected_parts = (size_mb / state.cluster_mb).ceil().max(1.0) as u64;
        if parts != expected_parts || stripe.len() as u64 != parts {
            pending.push((
                "A004",
                format!(
                    "v{video} striped into {parts} parts (stripe lists {}), expected {expected_parts}",
                    stripe.len()
                ),
            ));
        }
        for (i, &disk) in stripe.iter().enumerate() {
            let disk = u64::from(disk);
            if state.disks > 0 && disk != i as u64 % state.disks {
                pending.push((
                    "A004",
                    format!(
                        "part {i} of v{video} on disk {disk}, expected {} (i mod {})",
                        i as u64 % state.disks,
                        state.disks
                    ),
                ));
                break;
            }
        }

        if state.residents.insert(video, size_mb).is_some() {
            pending.push((
                "A009",
                format!("v{video} admitted while already resident on server {server}"),
            ));
        }
        let (occ, cap) = (state.occupancy(), state.total_capacity());
        if occ > cap + EPS {
            pending.push((
                "A001",
                format!("server {server} over capacity after admit: {occ:.3} MB > {cap:.3} MB"),
            ));
        }
        if (occ - occupancy_mb).abs() > EPS * occ.abs().max(1.0) {
            pending.push((
                "A001",
                format!(
                    "traced occupancy {occupancy_mb:.3} MB disagrees with replayed {occ:.3} MB on server {server}"
                ),
            ));
        }
        self.flush(pending);
    }

    fn on_dma_evict(&mut self, server: u64, victim: u64) {
        self.summary.evictions_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate("A009", format!("dma_evict on unconfigured server {server}"));
            return;
        };
        match state.least_popular() {
            Some(expected) if expected != victim => {
                let vp = state.points.get(&victim).copied().unwrap_or(0);
                let ep = state.points.get(&expected).copied().unwrap_or(0);
                pending.push((
                    "A003",
                    format!(
                        "evicted v{victim} ({vp} points) but v{expected} ({ep} points) is less popular on server {server}"
                    ),
                ));
            }
            None => {
                pending.push((
                    "A003",
                    format!("eviction from server {server} with no residents"),
                ));
            }
            _ => {}
        }
        if state.residents.remove(&victim).is_none() {
            pending.push((
                "A009",
                format!("evicted v{victim} was not resident on server {server}"),
            ));
        }
        self.flush(pending);
    }

    fn on_dma_reject(&mut self, server: u64, video: u64, reason: RejectKind) {
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate(
                "A009",
                format!("dma_reject on unconfigured server {server}"),
            );
            return;
        };
        let points = state.award(video);
        let threshold = state.admit_threshold;
        // `state` is no longer needed; the checks below only read the
        // two values extracted above.
        // Figure 2's gates run in order: a below-threshold verdict means
        // the counter had not yet passed, any later verdict means it had.
        if reason == RejectKind::BelowThreshold && points > threshold {
            self.violate(
                "A002",
                format!(
                    "v{video} rejected below-threshold at {points} points (> threshold {threshold})"
                ),
            );
        }
        if reason != RejectKind::BelowThreshold && points <= threshold {
            self.violate(
                "A002",
                format!(
                    "v{video} reached the `{}` gate with only {points} points (threshold {threshold})",
                    reason.label()
                ),
            );
        }
    }

    /// A014: a prefix hit names a resident prefix and serves its exact
    /// replayed length. Awards the decision's popularity point.
    fn on_prefix_hit(&mut self, server: u64, video: u64, clusters: u64) {
        self.summary.prefix_verified += 1;
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate("A014", format!("prefix_hit on unconfigured proxy {server}"));
            return;
        };
        state.award(video);
        match state.residents.get(&video) {
            Some(&(resident, _)) if resident != clusters => {
                self.violate(
                    "A014",
                    format!(
                        "prefix_hit serves {clusters} clusters of v{video} but the replayed prefix is {resident} clusters"
                    ),
                );
            }
            None => {
                self.violate(
                    "A014",
                    format!("prefix_hit for v{video} which is not resident at proxy {server}"),
                );
            }
            _ => {}
        }
    }

    /// A014/A015: an in-place extension grows a resident prefix toward
    /// the popularity target without exceeding capacity. Rides the
    /// point its accompanying `prefix_hit` already awarded.
    fn on_prefix_extend(&mut self, server: u64, video: u64, from: u64, to: u64, occupancy_mb: f64) {
        let mut pending = Vec::new();
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                format!("prefix_extend on unconfigured proxy {server}"),
            );
            return;
        };
        let points = state.points.get(&video).copied().unwrap_or(0);
        if to <= from {
            pending.push((
                "A015",
                format!("prefix_extend of v{video} does not grow the prefix ({from} → {to})"),
            ));
        }
        if to > state.target_clusters(points) {
            pending.push((
                "A015",
                format!(
                    "v{video} extended to {to} clusters, beyond the popularity target {} at {points} points",
                    state.target_clusters(points)
                ),
            ));
        }
        let before = state.occupancy();
        match state.residents.get(&video).copied() {
            Some((resident, mb)) => {
                if resident != from {
                    pending.push((
                        "A014",
                        format!(
                            "prefix_extend starts from {from} clusters but the replayed prefix of v{video} is {resident}"
                        ),
                    ));
                }
                let delta = occupancy_mb - before;
                let grown = to.saturating_sub(from) as f64 * state.cluster_mb;
                if delta <= 0.0 || delta > grown + EPS {
                    pending.push((
                        "A015",
                        format!(
                            "extension of v{video} by {} clusters changed occupancy by {delta:.3} MB (cluster size {} MB)",
                            to.saturating_sub(from),
                            state.cluster_mb
                        ),
                    ));
                }
                state.residents.insert(video, (to, mb + delta));
            }
            None => {
                pending.push((
                    "A014",
                    format!("prefix_extend of v{video} which is not resident at proxy {server}"),
                ));
            }
        }
        if occupancy_mb > state.capacity_mb + EPS {
            pending.push((
                "A014",
                format!(
                    "proxy {server} over capacity after extension: {occupancy_mb:.3} MB > {:.3} MB",
                    state.capacity_mb
                ),
            ));
        }
        self.flush(pending);
    }

    /// A014/A015/A016: an admission stores a popularity-sized prefix
    /// within capacity, above the threshold, and settles any pending
    /// evictions (whose victims must be strictly colder).
    fn on_prefix_admit(
        &mut self,
        server: u64,
        video: u64,
        after_eviction: bool,
        clusters: u64,
        size_mb: f64,
        occupancy_mb: f64,
    ) {
        self.summary.prefix_verified += 1;
        let mut pending = Vec::new();

        let evicted = std::mem::take(&mut self.prefix_pending_evicts);
        if after_eviction && evicted.is_empty() {
            pending.push((
                "A016",
                format!("v{video} admitted `after_eviction` with no preceding prefix_evict"),
            ));
        }
        if !after_eviction && !evicted.is_empty() {
            pending.push((
                "A016",
                format!(
                    "v{video} admitted without `after_eviction` despite {} pending eviction(s)",
                    evicted.len()
                ),
            ));
        }

        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                format!("prefix_admit on unconfigured proxy {server}"),
            );
            return;
        };
        let points = state.award(video);
        if points <= state.admit_threshold {
            pending.push((
                "A015",
                format!(
                    "v{video} admitted at proxy {server} with {points} points (threshold {})",
                    state.admit_threshold
                ),
            ));
        }
        if clusters == 0 || clusters > state.target_clusters(points) {
            pending.push((
                "A015",
                format!(
                    "v{video} stored as {clusters} clusters, outside (0, target {}] at {points} points",
                    state.target_clusters(points)
                ),
            ));
        }
        // `clusters` full clusters except possibly the title's own
        // partial trailing one: (clusters−1)·c < size ≤ clusters·c.
        let c = state.cluster_mb;
        if size_mb <= clusters.saturating_sub(1) as f64 * c - EPS
            || size_mb > clusters as f64 * c + EPS
        {
            pending.push((
                "A015",
                format!(
                    "a {clusters}-cluster prefix of v{video} occupies {size_mb:.3} MB (cluster size {c} MB)"
                ),
            ));
        }
        for e in &evicted {
            if e.server != server {
                pending.push((
                    "A016",
                    format!(
                        "pending eviction at proxy {} settled by an admission at proxy {server}",
                        e.server
                    ),
                ));
            } else if e.victim_points >= points {
                pending.push((
                    "A016",
                    format!(
                        "evicted v{} ({} points) was not strictly colder than admitted v{video} ({points} points)",
                        e.victim, e.victim_points
                    ),
                ));
            }
        }
        if state.residents.insert(video, (clusters, size_mb)).is_some() {
            pending.push((
                "A014",
                format!("v{video} admitted while its prefix is already resident at proxy {server}"),
            ));
        }
        let (occ, cap) = (state.occupancy(), state.capacity_mb);
        if occ > cap + EPS {
            pending.push((
                "A014",
                format!("proxy {server} over capacity after admit: {occ:.3} MB > {cap:.3} MB"),
            ));
        }
        if (occ - occupancy_mb).abs() > EPS * occ.abs().max(1.0) {
            pending.push((
                "A014",
                format!(
                    "traced prefix occupancy {occupancy_mb:.3} MB disagrees with replayed {occ:.3} MB at proxy {server}"
                ),
            ));
        }
        self.flush(pending);
    }

    /// A016: the victim is the least-popular resident (ties to the
    /// lowest id) and frees exactly its replayed footprint.
    fn on_prefix_evict(&mut self, server: u64, victim: u64, freed_mb: f64) {
        self.summary.prefix_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                format!("prefix_evict on unconfigured proxy {server}"),
            );
            return;
        };
        match state.least_popular() {
            Some(expected) if expected != victim => {
                let vp = state.points.get(&victim).copied().unwrap_or(0);
                let ep = state.points.get(&expected).copied().unwrap_or(0);
                pending.push((
                    "A016",
                    format!(
                        "evicted prefix of v{victim} ({vp} points) but v{expected} ({ep} points) is less popular at proxy {server}"
                    ),
                ));
            }
            None => {
                pending.push((
                    "A016",
                    format!("prefix eviction at proxy {server} with no residents"),
                ));
            }
            _ => {}
        }
        let victim_points = state.points.get(&victim).copied().unwrap_or(0);
        match state.residents.remove(&victim) {
            Some((_, mb)) => {
                if (mb - freed_mb).abs() > EPS * mb.abs().max(1.0) {
                    pending.push((
                        "A016",
                        format!(
                            "eviction of v{victim} claims {freed_mb:.3} MB freed but the replayed prefix occupied {mb:.3} MB"
                        ),
                    ));
                }
            }
            None => {
                pending.push((
                    "A014",
                    format!("evicted prefix of v{victim} was not resident at proxy {server}"),
                ));
            }
        }
        self.prefix_pending_evicts.push(PendingPrefixEvict {
            line: self.line,
            server,
            victim,
            victim_points,
        });
        self.flush(pending);
    }

    /// A014/A015: reject reasons respect the Figure-2-style gate order
    /// and never name a resident prefix.
    fn on_prefix_reject(&mut self, server: u64, video: u64, reason: RejectKind) {
        self.summary.prefix_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                format!("prefix_reject on unconfigured proxy {server}"),
            );
            return;
        };
        let points = state.award(video);
        let threshold = state.admit_threshold;
        if state.residents.contains_key(&video) {
            pending.push((
                "A014",
                format!("prefix_reject of v{video} whose prefix is resident at proxy {server}"),
            ));
        }
        if reason == RejectKind::BelowThreshold && points > threshold {
            pending.push((
                "A015",
                format!(
                    "v{video} rejected below-threshold at {points} points (> threshold {threshold})"
                ),
            ));
        }
        if reason != RejectKind::BelowThreshold && points <= threshold {
            pending.push((
                "A015",
                format!(
                    "v{video} reached the `{}` gate with only {points} points (threshold {threshold})",
                    reason.label()
                ),
            ));
        }
        // The eviction scan only considers strictly-colder residents:
        // `not_popular_enough` means there were none, `does_not_fit`
        // means there were some but they were too small.
        let colder = state
            .residents
            .keys()
            .any(|v| state.points.get(v).copied().unwrap_or(0) < points);
        if reason == RejectKind::NotPopularEnough && colder {
            pending.push((
                "A016",
                format!(
                    "v{video} rejected `not_popular_enough` although a strictly colder prefix is resident at proxy {server}"
                ),
            ));
        }
        if reason == RejectKind::DoesNotFit && !colder {
            pending.push((
                "A016",
                format!(
                    "v{video} rejected `does_not_fit` with no strictly colder resident to evict at proxy {server}"
                ),
            ));
        }
        self.flush(pending);
    }

    /// A014 + session registration: a proxy serves at most the resident
    /// prefix length, and the serve opens the session's cluster
    /// bookkeeping so the suffix selection (A006/A007) continues from
    /// the prefix boundary.
    fn on_prefix_serve(&mut self, session: u64, server: u64, video: u64, clusters: u64) {
        let mut pending = Vec::new();
        if clusters == 0 {
            pending.push((
                "A014",
                format!("prefix_serve of 0 clusters to session {session}"),
            ));
        }
        match self.prefixes.get(&server) {
            Some(state) => match state.residents.get(&video) {
                Some(&(resident, _)) if clusters > resident => {
                    pending.push((
                        "A014",
                        format!(
                            "session {session} served {clusters} prefix clusters of v{video} but only {resident} are resident at proxy {server}"
                        ),
                    ));
                }
                None => {
                    pending.push((
                        "A014",
                        format!("prefix_serve of v{video} which is not resident at proxy {server}"),
                    ));
                }
                _ => {}
            },
            None => {
                pending.push((
                    "A014",
                    format!("prefix_serve on unconfigured proxy {server}"),
                ));
            }
        }
        match self.sessions.entry(session) {
            std::collections::btree_map::Entry::Occupied(_) => {
                pending.push((
                    "A007",
                    format!("prefix_serve for session {session} which is already streaming"),
                ));
            }
            std::collections::btree_map::Entry::Vacant(slot) if clusters > 0 => {
                // The proxy delivers clusters 0..clusters; the session's
                // next selection continues at the prefix boundary.
                slot.insert((server, clusters - 1, video));
            }
            std::collections::btree_map::Entry::Vacant(_) => {}
        }
        self.flush(pending);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_vra_select(
        &mut self,
        session: u64,
        cluster: u64,
        video: u64,
        home: u64,
        server: u64,
        cost: f64,
        local: bool,
    ) {
        // A007: cluster bookkeeping per session.
        match self.sessions.get(&session) {
            None => {
                if cluster != 0 {
                    self.violate(
                        "A007",
                        format!("session {session} opens at cluster {cluster}, expected 0"),
                    );
                }
            }
            Some(&(_, prev_cluster, prev_video)) => {
                let skipped = self.static_routing && cluster > prev_cluster;
                if cluster != prev_cluster && cluster != prev_cluster + 1 && !skipped {
                    self.violate(
                        "A007",
                        format!("session {session} jumps from cluster {prev_cluster} to {cluster}"),
                    );
                }
                if video != prev_video {
                    self.violate(
                        "A007",
                        format!(
                            "session {session} switched title v{prev_video} → v{video} mid-stream"
                        ),
                    );
                }
            }
        }

        // A009: the chosen server must advertise the title.
        if !self.catalog.contains(&(video, server)) {
            self.violate(
                "A009",
                format!("selected server {server} does not advertise v{video}"),
            );
        }
        if local && server != home {
            self.violate(
                "A005",
                format!("selection flagged local but server {server} != home {home}"),
            );
        }

        // A005: re-derive the selection with a reference LVN + Dijkstra.
        // Selectors that do not route by the LVN argmin leave
        // `lvn_normalization` null in the preamble, which exempts them.
        if let Some(norm) = self.lvn_normalization {
            self.check_selection_optimal(video, home, server, cost, local, norm);
        }

        // A006: a server change must be announced by the next event.
        let prev_server = self.sessions.get(&session).map(|&(s, _, _)| s);
        if let Some(prev) = prev_server {
            if prev != server {
                self.pending_switch = Some(PendingSwitch {
                    line: self.line,
                    session,
                    cluster,
                    from: prev,
                    to: server,
                });
            }
        }
        self.sessions.insert(session, (server, cluster, video));
    }

    /// The reference re-derivation of one routed selection (Figure 5):
    /// LVN weights from the traced link state, Dijkstra from the home
    /// server, argmin over the advertising servers with ties to the
    /// lowest node id.
    fn check_selection_optimal(
        &mut self,
        video: u64,
        home: u64,
        server: u64,
        cost: f64,
        local: bool,
        norm: f64,
    ) {
        self.summary.selections_verified += 1;
        let candidates: Vec<u64> = self.holders(video).collect();
        if candidates.contains(&home) {
            if !local || server != home || cost != 0.0 {
                self.violate(
                    "A005",
                    format!(
                        "home {home} advertises v{video} but the selection went to server {server} (cost {cost}) instead of serving locally"
                    ),
                );
            }
            return;
        }
        if local {
            self.violate(
                "A005",
                format!("selection flagged local but home {home} does not advertise v{video}"),
            );
            return;
        }
        let (Some(topo), Some(snap)) = (self.topology.as_ref(), self.snapshot.as_ref()) else {
            self.violate("A000", "vra_select before any link_state event".to_string());
            return;
        };
        let Ok(src) = u32::try_from(home) else {
            self.violate("A000", format!("home {home} is not a node index"));
            return;
        };
        let params = LvnParams::with_normalization(norm);
        let weights = LvnComputer::new(topo, snap, params).weights();
        let paths = match dijkstra(topo, &weights, NodeId::new(src)) {
            Ok(p) => p,
            Err(e) => {
                self.violate("A005", format!("reference Dijkstra failed: {e}"));
                return;
            }
        };
        let best = candidates
            .iter()
            .filter_map(|&c| {
                let id = u32::try_from(c).ok()?;
                paths.route_to(NodeId::new(id)).map(|r| (c, r.cost()))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        match best {
            Some((ref_server, ref_cost)) => {
                let cost_ok = (cost - ref_cost).abs() <= EPS * ref_cost.abs().max(1.0);
                if server != ref_server || !cost_ok {
                    self.violate(
                        "A005",
                        format!(
                            "selection (server {server}, cost {cost}) diverges from the reference optimum (server {ref_server}, cost {ref_cost})"
                        ),
                    );
                }
            }
            None => {
                self.violate(
                    "A005",
                    format!(
                        "no advertising server of v{video} is reachable from home {home}, yet server {server} was selected"
                    ),
                );
            }
        }
    }

    fn check_switch(&mut self, session: u64, cluster: u64, from: u64, to: u64, p: &PendingSwitch) {
        if session != p.session || cluster != p.cluster || from != p.from || to != p.to {
            self.violate(
                "A006",
                format!(
                    "switch (session {session}, cluster {cluster}, {from} → {to}) does not match the \
                     selection that caused it (session {}, cluster {}, {} → {})",
                    p.session, p.cluster, p.from, p.to
                ),
            );
        }
        if from == to {
            self.violate(
                "A006",
                format!("switch of session {session} to the same server {to}"),
            );
        }
    }
}
