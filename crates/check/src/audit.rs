//! The trace invariant auditor: rules `A000`–`A016` over JSONL traces.
//!
//! A trace written by `vod-obs`'s `JsonlWriter` is *self-auditing*: it
//! opens with the topology, the run configuration, each server's DMA
//! sizing and the initial placement, and then interleaves every link
//! state the selector worked from plus every catalog mutation. This
//! module replays that stream with independent re-implementations of
//! the paper's algorithms and reports every divergence:
//!
//! | rule | invariant |
//! |------|-----------|
//! | A000 | well-formed stream: parseable JSON, required fields, preamble first, non-decreasing `at_us` |
//! | A001 | DMA occupancy: resident megabytes match the traced occupancy and never exceed `disks × capacity_mb` |
//! | A002 | DMA admission threshold: admits only after a title's points exceed the threshold (Figure 2) |
//! | A003 | DMA eviction victim is the least-popular resident, ties to the lowest id |
//! | A004 | striping: part `i` lands on disk `i mod n`, and the part count matches `ceil(size/cluster)` (Figure 3) |
//! | A005 | VRA optimality: each selection matches a reference LVN-weighted Dijkstra over the traced link state (Figure 5) |
//! | A006 | switches: every server change is announced by a `switch` matching the adjacent selection, and vice versa |
//! | A007 | sessions: cluster indices start at 0 and step by at most 1 (repeats only after a re-route; with `dynamic_rerouting` off a selection may skip the clusters fetched along the kept route) |
//! | A008 | link conservation: traced used bandwidth and utilization are non-negative and leave no negative residual |
//! | A009 | catalog/residency consistency: hits are resident, selections come from advertising servers, no double add/remove |
//! | A010 | fault windows: `link_down`/`link_up` pair up, `link_state.down` matches the replayed outage set, and the A005 reference masks down links (no selection routes over them) |
//! | A011 | retry budget: `session_retry` attempts are 1-based, step by one within an episode, and never exceed `retry_max_attempts` from the run config |
//! | A012 | abort accounting: every `session_aborted.reason` is a known cause and consistent with the configured budget and the session's observed retries |
//! | A013 | series reconciliation ([`crate::series`]): a `TimeSeriesSink` export's windows are contiguous and aligned, per-window counter sums equal the raw trace's event counts, and per-link utilization never exceeds capacity |
//! | A014 | prefix-store occupancy/residency: replayed occupancy matches the traced `occupancy_mb`, never exceeds the proxy's capacity, and hits/serves/extensions only touch resident prefixes |
//! | A015 | prefix admission sizing: admits only after points exceed the threshold, stored lengths never exceed the popularity target `min(base + (points−1)/growth, max)`, sizes fit the cluster geometry, and reject reasons respect the gate order |
//! | A016 | prefix eviction discipline: victims are the least-popular residents (ties to the lowest id), strictly colder than the admitted newcomer, freed space matches the replayed resident size, and every eviction run is immediately followed by its admission |
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

use serde::Value;

/// One invariant violation, pointing at a trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated rule (`"A000"`…`"A013"`).
    pub rule: &'static str,
    /// 1-based line number in the trace.
    pub line: usize,
    /// What diverged.
    pub message: String,
}

/// The outcome of one audit run.
#[derive(Debug, Default)]
pub struct AuditSummary {
    /// Events processed (parseable lines).
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
    /// Events whose kind this auditor neither replays nor lists in its
    /// unaudited set: tolerated (a trace from a newer writer must still
    /// replay under the invariants known here), but counted.
    pub unknown_kinds: usize,
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

/// A selection whose server change must be confirmed by the next event.
#[derive(Debug, Clone)]
struct PendingSwitch {
    line: usize,
    session: u64,
    cluster: u64,
    from: u64,
    to: u64,
}

#[derive(Default)]
struct Auditor {
    topology: Option<Topology>,
    link_capacities: Vec<f64>,
    saw_run_config: bool,
    lvn_normalization: Option<f64>,
    retry_max_attempts: Option<u64>,
    /// The run config turned dynamic re-routing off: a session selects
    /// only at its start and after a severed route, and fetches the
    /// clusters in between along the route it kept.
    static_routing: bool,
    servers: BTreeMap<u64, ServerState>,
    prefixes: BTreeMap<u64, PrefixState>,
    prefix_pending_evicts: Vec<PendingPrefixEvict>,
    catalog: BTreeSet<(u64, u64)>,
    snapshot: Option<TrafficSnapshot>,
    /// session → (current server, last selected cluster, video).
    sessions: BTreeMap<u64, (u64, u64, u64)>,
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

/// Trace kinds the auditor deliberately does not replay: they carry no
/// invariant beyond the time-order check every event already gets.
/// Request and session-lifecycle markers are reconciled against the
/// time-series export by rule `A013` instead; SNMP/outage/degrade and
/// background-update markers only *explain* the link-state snapshots
/// that the replay rules (`A005`, `A008`, `A010`) verify directly.
///
/// Every kind in `vod_obs::Event::KINDS` is either dispatched in
/// `Auditor::on_event` or listed here; the
/// `every_event_kind_is_dispatched_or_unaudited` test holds that, so a
/// new variant forces the decision.
const UNAUDITED: &[&str] = &[
    "request_arrival",
    "request_failed",
    "request_rejected",
    "session_start",
    "session_stall",
    "session_resume",
    "snmp_poll",
    "background_update",
    "server_up",
    "link_degrade_start",
    "link_degrade_end",
    "snmp_outage_start",
    "snmp_outage_end",
    "snmp_stale_view",
];

/// Audits one JSONL trace; never panics on malformed input — every
/// problem becomes an [`AuditSummary`] violation instead.
pub fn audit_trace(text: &str) -> AuditSummary {
    let mut a = Auditor::default();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Value>(line) {
            Ok(event) => a.on_event(line_no, &event),
            Err(e) => a.violate("A000", line_no, format!("unparseable JSON: {e}")),
        }
    }
    if let Some(p) = a.pending_switch.take() {
        a.violate(
            "A006",
            p.line,
            format!(
                "selection moved session {} to server {} but no switch event followed",
                p.session, p.to
            ),
        );
    }
    for p in std::mem::take(&mut a.prefix_pending_evicts) {
        a.violate(
            "A016",
            p.line,
            format!(
                "prefix eviction of v{} at proxy {} was never followed by an admission",
                p.victim, p.server
            ),
        );
    }
    a.summary
}

impl Auditor {
    fn violate(&mut self, rule: &'static str, line: usize, message: String) {
        self.summary.violations.push(Violation {
            rule,
            line,
            message,
        });
    }

    /// Flushes violations collected while a server's replay state was
    /// mutably borrowed.
    fn flush(&mut self, line: usize, pending: Vec<(&'static str, String)>) {
        for (rule, message) in pending {
            self.violate(rule, line, message);
        }
    }

    fn on_event(&mut self, line: usize, event: &Value) {
        self.summary.events += 1;
        let Some(at_us) = event.get_field("at_us").and_then(Value::as_u64) else {
            self.violate("A000", line, "missing integer `at_us`".to_string());
            return;
        };
        if self.last_at_us.is_some_and(|prev| at_us < prev) {
            self.violate(
                "A000",
                line,
                format!(
                    "time went backwards: at_us {at_us} after {:?}",
                    self.last_at_us
                ),
            );
        }
        self.last_at_us = Some(at_us);
        let Some(kind) = event.get_field("kind").and_then(Value::as_str) else {
            self.violate("A000", line, "missing string `kind`".to_string());
            return;
        };
        let kind = kind.to_string();

        if self.topology.is_none() && kind != "topology" {
            self.violate(
                "A000",
                line,
                format!("`{kind}` before the topology preamble"),
            );
            return;
        }

        // A pending server change must be confirmed by the very next
        // event (the service emits the switch immediately).
        if let Some(p) = self.pending_switch.take() {
            if kind != "switch" {
                self.violate(
                    "A006",
                    line,
                    format!(
                        "selection moved session {} from {} to {} but the next event is `{kind}`, not a switch",
                        p.session, p.from, p.to
                    ),
                );
            } else {
                self.check_switch(line, event, &p);
                return;
            }
        } else if kind == "switch" {
            self.violate(
                "A006",
                line,
                "switch without a preceding server-changing selection".to_string(),
            );
            return;
        }

        // A016: the prefix store evicts and admits inside one decision,
        // so a run of prefix_evict events must lead straight into the
        // prefix_admit that caused it.
        if !self.prefix_pending_evicts.is_empty()
            && kind != "prefix_evict"
            && kind != "prefix_admit"
        {
            for p in std::mem::take(&mut self.prefix_pending_evicts) {
                self.violate(
                    "A016",
                    p.line,
                    format!(
                        "prefix eviction of v{} at proxy {} is followed by `{kind}`, not its admission",
                        p.victim, p.server
                    ),
                );
            }
        }

        let handled = match kind.as_str() {
            "topology" => self.on_topology(line, event),
            "run_config" => self.on_run_config(event),
            "cache_config" => self.on_cache_config(event),
            "dma_seed" => self.on_dma_seed(line, event),
            "catalog_add" => self.on_catalog(line, event, true),
            "catalog_remove" => self.on_catalog(line, event, false),
            "link_state" => self.on_link_state(line, event),
            "dma_hit" => self.on_dma_hit(line, event),
            "dma_admit" => self.on_dma_admit(line, event),
            "dma_evict" => self.on_dma_evict(line, event),
            "dma_reject" => self.on_dma_reject(line, event),
            "prefix_cache_config" => self.on_prefix_config(event),
            "prefix_hit" => self.on_prefix_hit(line, event),
            "prefix_extend" => self.on_prefix_extend(line, event),
            "prefix_admit" => self.on_prefix_admit(line, event),
            "prefix_evict" => self.on_prefix_evict(line, event),
            "prefix_reject" => self.on_prefix_reject(line, event),
            "prefix_serve" => self.on_prefix_serve(line, event),
            "vra_select" => self.on_vra_select(line, event),
            "link_down" => self.on_link_down(line, event),
            "link_up" => self.on_link_up(line, event),
            "session_retry" => self.on_session_retry(line, event),
            "session_complete" => {
                if let Some(s) = event.get_field("session").and_then(Value::as_u64) {
                    self.sessions.remove(&s);
                    self.retries.remove(&s);
                }
                Some(())
            }
            "session_aborted" => self.on_session_aborted(line, event),
            "server_down" => {
                if let Some(s) = event.get_field("server").and_then(Value::as_u64) {
                    // The cache is retired with the server; a recovering
                    // server starts cold (fresh points, empty disks).
                    if let Some(state) = self.servers.get_mut(&s) {
                        state.residents.clear();
                        state.points.clear();
                    }
                    if let Some(state) = self.prefixes.get_mut(&s) {
                        state.residents.clear();
                        state.points.clear();
                    }
                }
                Some(())
            }
            k if UNAUDITED.contains(&k) => Some(()),
            // Unknown kinds are tolerated for forward compatibility:
            // a trace from a newer writer must still replay under the
            // invariants this auditor does know. No kind this
            // workspace's writer emits lands here (see UNAUDITED).
            _ => {
                self.summary.unknown_kinds += 1;
                Some(())
            }
        };
        if handled.is_none() {
            self.violate(
                "A000",
                line,
                format!("`{kind}` event is missing required fields"),
            );
        }
    }

    fn on_topology(&mut self, line: usize, event: &Value) -> Option<()> {
        if self.topology.is_some() {
            self.violate("A000", line, "duplicate topology preamble".to_string());
            return Some(());
        }
        let nodes = event.get_field("nodes")?.as_array()?;
        let links = event.get_field("links")?.as_array()?;
        let mut b = TopologyBuilder::new();
        for n in nodes {
            let pair = n.as_array()?;
            let name = pair.first()?.as_str()?;
            let is_server = pair.get(1)?.as_bool()?;
            let kind = if is_server {
                NodeKind::VideoServer
            } else {
                NodeKind::Transit
            };
            b.add_node_with_kind(name, kind);
        }
        let mut capacities = Vec::with_capacity(links.len());
        for l in links {
            let triple = l.as_array()?;
            let from = triple.first()?.as_u64()?;
            let to = triple.get(1)?.as_u64()?;
            let cap = triple.get(2)?.as_f64()?;
            let (Ok(from), Ok(to)) = (u32::try_from(from), u32::try_from(to)) else {
                return None;
            };
            let mbps = Mbps::try_new(cap)?;
            if b.add_link(NodeId::new(from), NodeId::new(to), mbps)
                .is_err()
            {
                self.violate("A000", line, "topology link is malformed".to_string());
                return Some(());
            }
            capacities.push(cap);
        }
        self.topology = Some(b.build());
        self.link_capacities = capacities;
        Some(())
    }

    fn on_run_config(&mut self, event: &Value) -> Option<()> {
        self.saw_run_config = true;
        self.lvn_normalization = event.get_field("lvn_normalization").and_then(Value::as_f64);
        self.static_routing = event
            .get_field("dynamic_rerouting")
            .and_then(Value::as_bool)
            == Some(false);
        self.retry_max_attempts = event
            .get_field("retry_max_attempts")
            .and_then(Value::as_u64);
        Some(())
    }

    fn on_cache_config(&mut self, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let state = ServerState {
            disks: event.get_field("disks")?.as_u64()?,
            capacity_mb: event.get_field("capacity_mb")?.as_f64()?,
            cluster_mb: event.get_field("cluster_mb")?.as_f64()?,
            admit_threshold: event.get_field("admit_threshold")?.as_u64()?,
            residents: BTreeMap::new(),
            points: BTreeMap::new(),
        };
        self.servers.insert(server, state);
        Some(())
    }

    fn on_dma_seed(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let size_mb = event.get_field("size_mb")?.as_f64()?;
        let mut pending = Vec::new();
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate(
                "A009",
                line,
                format!("seed on unconfigured server {server}"),
            );
            return Some(());
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
        self.flush(line, pending);
        if !self.catalog.insert((server, video)) {
            self.violate(
                "A009",
                line,
                format!("seed re-advertises v{video} at {server}"),
            );
        }
        Some(())
    }

    fn on_catalog(&mut self, line: usize, event: &Value, add: bool) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        if add && !self.catalog.insert((server, video)) {
            self.violate(
                "A009",
                line,
                format!("catalog_add of already-advertised v{video} at server {server}"),
            );
        }
        if !add && !self.catalog.remove(&(server, video)) {
            self.violate(
                "A009",
                line,
                format!("catalog_remove of unadvertised v{video} at server {server}"),
            );
        }
        Some(())
    }

    fn on_link_state(&mut self, line: usize, event: &Value) -> Option<()> {
        let used = event.get_field("used")?.as_array()?;
        let utilization = event.get_field("utilization")?.as_array()?;
        // Traces predating the fault layer omit `down`; that reads as an
        // empty outage set, which A010 then checks against the replay.
        let down_listed: BTreeSet<u64> = match event.get_field("down") {
            Some(v) => v
                .as_array()?
                .iter()
                .map(Value::as_u64)
                .collect::<Option<BTreeSet<u64>>>()?,
            None => BTreeSet::new(),
        };
        if down_listed != self.down_links {
            self.violate(
                "A010",
                line,
                format!(
                    "link_state lists down links {:?} but replayed outage windows say {:?}",
                    down_listed.iter().collect::<Vec<_>>(),
                    self.down_links.iter().collect::<Vec<_>>()
                ),
            );
        }
        let topo = self.topology.as_ref()?;
        if used.len() != self.link_capacities.len() || utilization.len() != used.len() {
            self.violate(
                "A000",
                line,
                format!(
                    "link_state has {} used / {} utilization entries for {} links",
                    used.len(),
                    utilization.len(),
                    self.link_capacities.len()
                ),
            );
            return Some(());
        }
        let mut snap = TrafficSnapshot::zero(topo);
        let mut violations: Vec<String> = Vec::new();
        for (i, (u, f)) in used.iter().zip(utilization).enumerate() {
            let (u, f) = (u.as_f64()?, f.as_f64()?);
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
            self.violate("A008", line, v);
        }
        // Mask down links on the replay snapshot so the A005 reference
        // Dijkstra refuses to route over them, exactly like the service.
        for &l in &down_listed {
            if (l as usize) < self.link_capacities.len() {
                snap.set_admin_down(LinkId::new(l as u32), true);
            }
        }
        self.snapshot = Some(snap);
        Some(())
    }

    /// A010: a `link_down` opens an outage; the service emits it only on
    /// the 0 → 1 depth edge, so seeing a link go down twice is a bug.
    fn on_link_down(&mut self, line: usize, event: &Value) -> Option<()> {
        let link = event.get_field("link")?.as_u64()?;
        if link as usize >= self.link_capacities.len() {
            self.violate("A010", line, format!("link_down names unknown link {link}"));
            return Some(());
        }
        if !self.down_links.insert(link) {
            self.violate(
                "A010",
                line,
                format!("link {link} went down twice without coming back up"),
            );
        }
        Some(())
    }

    /// A010: a `link_up` must close a previously-opened outage.
    fn on_link_up(&mut self, line: usize, event: &Value) -> Option<()> {
        let link = event.get_field("link")?.as_u64()?;
        if !self.down_links.remove(&link) {
            self.violate(
                "A010",
                line,
                format!("link {link} came up without a matching link_down"),
            );
        }
        Some(())
    }

    /// A011: retry attempts are 1-based, step by one within a failure
    /// episode (a successful relaunch resets the counter), and never
    /// exceed the configured budget.
    fn on_session_retry(&mut self, line: usize, event: &Value) -> Option<()> {
        let session = event.get_field("session")?.as_u64()?;
        let attempt = event.get_field("attempt")?.as_u64()?;
        event.get_field("backoff_us")?.as_u64()?;
        let prev = self.retries.get(&session).copied();
        if attempt == 0 {
            self.violate(
                "A011",
                line,
                format!("session {session} retries with attempt 0 (attempts are 1-based)"),
            );
        } else if attempt != 1 && prev.is_none_or(|p| attempt != p + 1) {
            self.violate(
                "A011",
                line,
                format!("session {session} jumps to retry attempt {attempt} (previous: {prev:?})"),
            );
        }
        match self.retry_max_attempts {
            Some(max) if attempt > max => {
                self.violate(
                    "A011",
                    line,
                    format!(
                        "session {session} retry attempt {attempt} exceeds the configured budget {max}"
                    ),
                );
            }
            None => {
                self.violate(
                    "A011",
                    line,
                    format!(
                        "session {session} retries but the run config declares no retry budget"
                    ),
                );
            }
            _ => {}
        }
        self.retries.insert(session, attempt);
        Some(())
    }

    /// A012: abort reasons come from a closed set and agree with the
    /// configured retry budget and the session's observed retries.
    fn on_session_aborted(&mut self, line: usize, event: &Value) -> Option<()> {
        let session = event.get_field("session")?.as_u64()?;
        let reason = event.get_field("reason")?.as_str()?.to_string();
        let max = self.retry_max_attempts;
        let last = self.retries.get(&session).copied();
        match reason.as_str() {
            "home_down" => {}
            "no_source" => {
                if let Some(m) = max.filter(|&m| m > 0) {
                    self.violate(
                        "A012",
                        line,
                        format!(
                            "session {session} aborted `no_source` although the retry budget is {m}"
                        ),
                    );
                }
            }
            "retry_exhausted" => match max {
                Some(m) if m > 0 => {
                    if last != Some(m) {
                        self.violate(
                            "A012",
                            line,
                            format!(
                                "session {session} aborted `retry_exhausted` after {last:?} retries (budget {m})"
                            ),
                        );
                    }
                }
                _ => {
                    self.violate(
                        "A012",
                        line,
                        format!(
                            "session {session} aborted `retry_exhausted` with no retry budget configured"
                        ),
                    );
                }
            },
            "stall_budget" => {
                if max.is_none_or(|m| m == 0) {
                    self.violate(
                        "A012",
                        line,
                        format!(
                            "session {session} aborted `stall_budget` with no retry budget configured"
                        ),
                    );
                }
            }
            other => {
                self.violate(
                    "A012",
                    line,
                    format!("session {session} aborted with unknown reason `{other}`"),
                );
            }
        }
        self.sessions.remove(&session);
        self.retries.remove(&session);
        Some(())
    }

    fn on_dma_hit(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate(
                "A009",
                line,
                format!("dma_hit on unconfigured server {server}"),
            );
            return Some(());
        };
        state.award(video);
        let resident = state.residents.contains_key(&video);
        if !resident {
            self.violate(
                "A009",
                line,
                format!("dma_hit for v{video} which is not resident on server {server}"),
            );
        }
        Some(())
    }

    fn on_dma_admit(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let size_mb = event.get_field("size_mb")?.as_f64()?;
        let parts = event.get_field("parts")?.as_u64()?;
        let stripe = event.get_field("stripe")?.as_array()?;
        let occupancy_mb = event.get_field("occupancy_mb")?.as_f64()?;
        self.summary.admits_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate(
                "A009",
                line,
                format!("dma_admit on unconfigured server {server}"),
            );
            return Some(());
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
        for (i, disk) in stripe.iter().enumerate() {
            let Some(disk) = disk.as_u64() else {
                self.flush(line, pending);
                return None;
            };
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
        self.flush(line, pending);
        Some(())
    }

    fn on_dma_evict(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let victim = event.get_field("victim")?.as_u64()?;
        self.summary.evictions_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate(
                "A009",
                line,
                format!("dma_evict on unconfigured server {server}"),
            );
            return Some(());
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
        self.flush(line, pending);
        Some(())
    }

    fn on_dma_reject(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let reason = event.get_field("reason")?.as_str()?.to_string();
        let Some(state) = self.servers.get_mut(&server) else {
            self.violate(
                "A009",
                line,
                format!("dma_reject on unconfigured server {server}"),
            );
            return Some(());
        };
        let points = state.award(video);
        let threshold = state.admit_threshold;
        // `state` is no longer needed; the checks below only read the
        // two values extracted above.
        // Figure 2's gates run in order: a below-threshold verdict means
        // the counter had not yet passed, any later verdict means it had.
        if reason == "below_threshold" && points > threshold {
            self.violate(
                "A002",
                line,
                format!(
                    "v{video} rejected below-threshold at {points} points (> threshold {threshold})"
                ),
            );
        }
        if reason != "below_threshold" && points <= threshold {
            self.violate(
                "A002",
                line,
                format!(
                    "v{video} reached the `{reason}` gate with only {points} points (threshold {threshold})"
                ),
            );
        }
        Some(())
    }

    fn on_prefix_config(&mut self, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let state = PrefixState {
            capacity_mb: event.get_field("capacity_mb")?.as_f64()?,
            cluster_mb: event.get_field("cluster_mb")?.as_f64()?,
            admit_threshold: event.get_field("admit_threshold")?.as_u64()?,
            base_clusters: event.get_field("base_clusters")?.as_u64()?,
            max_clusters: event.get_field("max_clusters")?.as_u64()?,
            growth_points: event.get_field("growth_points")?.as_u64()?,
            residents: BTreeMap::new(),
            points: BTreeMap::new(),
        };
        self.prefixes.insert(server, state);
        Some(())
    }

    /// A014: a prefix hit names a resident prefix and serves its exact
    /// replayed length. Awards the decision's popularity point.
    fn on_prefix_hit(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let clusters = event.get_field("clusters")?.as_u64()?;
        self.summary.prefix_verified += 1;
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                line,
                format!("prefix_hit on unconfigured proxy {server}"),
            );
            return Some(());
        };
        state.award(video);
        match state.residents.get(&video) {
            Some(&(resident, _)) if resident != clusters => {
                self.violate(
                    "A014",
                    line,
                    format!(
                        "prefix_hit serves {clusters} clusters of v{video} but the replayed prefix is {resident} clusters"
                    ),
                );
            }
            None => {
                self.violate(
                    "A014",
                    line,
                    format!("prefix_hit for v{video} which is not resident at proxy {server}"),
                );
            }
            _ => {}
        }
        Some(())
    }

    /// A014/A015: an in-place extension grows a resident prefix toward
    /// the popularity target without exceeding capacity. Rides the
    /// point its accompanying `prefix_hit` already awarded.
    fn on_prefix_extend(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let from = event.get_field("from_clusters")?.as_u64()?;
        let to = event.get_field("to_clusters")?.as_u64()?;
        let occupancy_mb = event.get_field("occupancy_mb")?.as_f64()?;
        let mut pending = Vec::new();
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                line,
                format!("prefix_extend on unconfigured proxy {server}"),
            );
            return Some(());
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
        self.flush(line, pending);
        Some(())
    }

    /// A014/A015/A016: an admission stores a popularity-sized prefix
    /// within capacity, above the threshold, and settles any pending
    /// evictions (whose victims must be strictly colder).
    fn on_prefix_admit(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let after_eviction = event.get_field("after_eviction")?.as_bool()?;
        let clusters = event.get_field("clusters")?.as_u64()?;
        let size_mb = event.get_field("size_mb")?.as_f64()?;
        let occupancy_mb = event.get_field("occupancy_mb")?.as_f64()?;
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
                line,
                format!("prefix_admit on unconfigured proxy {server}"),
            );
            return Some(());
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
        self.flush(line, pending);
        Some(())
    }

    /// A016: the victim is the least-popular resident (ties to the
    /// lowest id) and frees exactly its replayed footprint.
    fn on_prefix_evict(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let victim = event.get_field("victim")?.as_u64()?;
        let freed_mb = event.get_field("freed_mb")?.as_f64()?;
        self.summary.prefix_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                line,
                format!("prefix_evict on unconfigured proxy {server}"),
            );
            return Some(());
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
            line,
            server,
            victim,
            victim_points,
        });
        self.flush(line, pending);
        Some(())
    }

    /// A014/A015: reject reasons respect the Figure-2-style gate order
    /// and never name a resident prefix.
    fn on_prefix_reject(&mut self, line: usize, event: &Value) -> Option<()> {
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let reason = event.get_field("reason")?.as_str()?.to_string();
        self.summary.prefix_verified += 1;
        let mut pending = Vec::new();
        let Some(state) = self.prefixes.get_mut(&server) else {
            self.violate(
                "A014",
                line,
                format!("prefix_reject on unconfigured proxy {server}"),
            );
            return Some(());
        };
        let points = state.award(video);
        let threshold = state.admit_threshold;
        if state.residents.contains_key(&video) {
            pending.push((
                "A014",
                format!("prefix_reject of v{video} whose prefix is resident at proxy {server}"),
            ));
        }
        if reason == "below_threshold" && points > threshold {
            pending.push((
                "A015",
                format!(
                    "v{video} rejected below-threshold at {points} points (> threshold {threshold})"
                ),
            ));
        }
        if reason != "below_threshold" && points <= threshold {
            pending.push((
                "A015",
                format!(
                    "v{video} reached the `{reason}` gate with only {points} points (threshold {threshold})"
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
        if reason == "not_popular_enough" && colder {
            pending.push((
                "A016",
                format!(
                    "v{video} rejected `not_popular_enough` although a strictly colder prefix is resident at proxy {server}"
                ),
            ));
        }
        if reason == "does_not_fit" && !colder {
            pending.push((
                "A016",
                format!(
                    "v{video} rejected `does_not_fit` with no strictly colder resident to evict at proxy {server}"
                ),
            ));
        }
        self.flush(line, pending);
        Some(())
    }

    /// A014 + session registration: a proxy serves at most the resident
    /// prefix length, and the serve opens the session's cluster
    /// bookkeeping so the suffix selection (A006/A007) continues from
    /// the prefix boundary.
    fn on_prefix_serve(&mut self, line: usize, event: &Value) -> Option<()> {
        let session = event.get_field("session")?.as_u64()?;
        let server = event.get_field("server")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let clusters = event.get_field("clusters")?.as_u64()?;
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
        self.flush(line, pending);
        Some(())
    }

    fn on_vra_select(&mut self, line: usize, event: &Value) -> Option<()> {
        let session = event.get_field("session")?.as_u64()?;
        let cluster = event.get_field("cluster")?.as_u64()?;
        let video = event.get_field("video")?.as_u64()?;
        let home = event.get_field("home")?.as_u64()?;
        let server = event.get_field("server")?.as_u64()?;
        let cost = event.get_field("cost")?.as_f64()?;
        let local = event.get_field("local")?.as_bool()?;

        // A007: cluster bookkeeping per session.
        match self.sessions.get(&session) {
            None => {
                if cluster != 0 {
                    self.violate(
                        "A007",
                        line,
                        format!("session {session} opens at cluster {cluster}, expected 0"),
                    );
                }
            }
            Some(&(_, prev_cluster, prev_video)) => {
                let skipped = self.static_routing && cluster > prev_cluster;
                if cluster != prev_cluster && cluster != prev_cluster + 1 && !skipped {
                    self.violate(
                        "A007",
                        line,
                        format!("session {session} jumps from cluster {prev_cluster} to {cluster}"),
                    );
                }
                if video != prev_video {
                    self.violate(
                        "A007",
                        line,
                        format!(
                            "session {session} switched title v{prev_video} → v{video} mid-stream"
                        ),
                    );
                }
            }
        }

        // A009: the chosen server must advertise the title.
        if !self.catalog.contains(&(server, video)) {
            self.violate(
                "A009",
                line,
                format!("selected server {server} does not advertise v{video}"),
            );
        }
        if local && server != home {
            self.violate(
                "A005",
                line,
                format!("selection flagged local but server {server} != home {home}"),
            );
        }

        // A005: re-derive the selection with a reference LVN + Dijkstra.
        // Selectors that do not route by the LVN argmin leave
        // `lvn_normalization` null in the preamble, which exempts them.
        if let Some(norm) = self.lvn_normalization {
            self.check_selection_optimal(line, video, home, server, cost, local, norm);
        }

        // A006: a server change must be announced by the next event.
        let prev_server = self.sessions.get(&session).map(|&(s, _, _)| s);
        if let Some(prev) = prev_server {
            if prev != server {
                self.pending_switch = Some(PendingSwitch {
                    line,
                    session,
                    cluster,
                    from: prev,
                    to: server,
                });
            }
        }
        self.sessions.insert(session, (server, cluster, video));
        Some(())
    }

    /// The reference re-derivation of one routed selection (Figure 5):
    /// LVN weights from the traced link state, Dijkstra from the home
    /// server, argmin over the advertising servers with ties to the
    /// lowest node id.
    #[allow(clippy::too_many_arguments)]
    fn check_selection_optimal(
        &mut self,
        line: usize,
        video: u64,
        home: u64,
        server: u64,
        cost: f64,
        local: bool,
        norm: f64,
    ) {
        self.summary.selections_verified += 1;
        let candidates: Vec<u64> = self
            .catalog
            .iter()
            .filter(|&&(_, v)| v == video)
            .map(|&(s, _)| s)
            .collect();
        if candidates.contains(&home) {
            if !local || server != home || cost != 0.0 {
                self.violate(
                    "A005",
                    line,
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
                line,
                format!("selection flagged local but home {home} does not advertise v{video}"),
            );
            return;
        }
        let (Some(topo), Some(snap)) = (self.topology.as_ref(), self.snapshot.as_ref()) else {
            self.violate(
                "A000",
                line,
                "vra_select before any link_state event".to_string(),
            );
            return;
        };
        let Ok(src) = u32::try_from(home) else {
            self.violate("A000", line, format!("home {home} is not a node index"));
            return;
        };
        let params = LvnParams::with_normalization(norm);
        let weights = LvnComputer::new(topo, snap, params).weights();
        let paths = match dijkstra(topo, &weights, NodeId::new(src)) {
            Ok(p) => p,
            Err(e) => {
                self.violate("A005", line, format!("reference Dijkstra failed: {e}"));
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
                        line,
                        format!(
                            "selection (server {server}, cost {cost}) diverges from the reference optimum (server {ref_server}, cost {ref_cost})"
                        ),
                    );
                }
            }
            None => {
                self.violate(
                    "A005",
                    line,
                    format!(
                        "no advertising server of v{video} is reachable from home {home}, yet server {server} was selected"
                    ),
                );
            }
        }
    }

    fn check_switch(&mut self, line: usize, event: &Value, p: &PendingSwitch) {
        let session = event.get_field("session").and_then(Value::as_u64);
        let cluster = event.get_field("cluster").and_then(Value::as_u64);
        let from = event.get_field("from").and_then(Value::as_u64);
        let to = event.get_field("to").and_then(Value::as_u64);
        let (Some(session), Some(cluster), Some(from), Some(to)) = (session, cluster, from, to)
        else {
            self.violate(
                "A000",
                line,
                "switch event is missing required fields".to_string(),
            );
            return;
        };
        if session != p.session || cluster != p.cluster || from != p.from || to != p.to {
            self.violate(
                "A006",
                line,
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
                line,
                format!("switch of session {session} to the same server {to}"),
            );
        }
    }
}
