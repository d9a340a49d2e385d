//! Fault handling: server and link outages (with the abort and
//! re-route of the sessions they hit), link degradation and SNMP-poller
//! outages.

use vod_net::{LinkId, NodeId};
use vod_obs::{AbortReason, Event as ObsEvent, EventSink};
use vod_sim::flow::FlowId;
use vod_sim::scheduler::Scheduler;
use vod_sim::SimTime;

use super::model::{Event, InFlight, ServerStore, ServiceModel};
use crate::session::SessionId;

impl<S: EventSink> ServiceModel<S> {
    /// A server dies: its catalog entries are withdrawn, its cache is
    /// lost, sessions homed there are dropped, and transfers sourced from
    /// it are re-routed to surviving replicas. Overlapping outage windows
    /// nest: only the first opens the outage.
    pub(super) fn on_server_down(
        &mut self,
        now: SimTime,
        node: NodeId,
        sched: &mut Scheduler<Event>,
    ) {
        let depth = self.down.entry(node).or_insert(0);
        *depth += 1;
        if *depth > 1 {
            return; // already down; deepen the outage only
        }
        self.sink
            .emit(now, || ObsEvent::ServerDown { server: node });
        // Withdraw the catalog and retire the cache and the co-located
        // prefix store: their stats fold into the retired pair, and the
        // server rejoins cold.
        if let Some(store) = self.stores.remove(&node) {
            self.retired.0 += store.dma.stats();
            if let Some(prefix) = &store.prefix {
                self.retired.1 += prefix.stats();
            }
            self.withdraw_titles(now, node, &store.dma.resident_ids());
        }
        // The catalog lists a title at a server only while its DMA holds
        // it: seeding preloads both, and an assembled title is listed
        // once resident.
        #[expect(
            clippy::disallowed_macros,
            reason = "debug check: the catalog listed only the DMA residents just withdrawn"
        )]
        {
            debug_assert!(
                self.db
                    .full_access()
                    .titles_at(node)
                    .unwrap_or_default()
                    .is_empty(),
                "the catalog lists titles the dead server's DMA did not hold"
            );
        }

        // Sessions homed at the dead server lose their client
        // connection, in ascending `SessionId`.
        let homed: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, rec)| rec.session.home() == node)
            .map(|(sid, _)| SessionId(sid))
            .collect();
        for sid in homed {
            // The client itself is gone: no retry can save the session.
            self.abort_session(now, sid, AbortReason::HomeDown);
        }

        // Transfers sourced from the dead server re-route mid-cluster,
        // in ascending `FlowId`. An origin transfer's source is the
        // session's current server; a local serve's is its home, and
        // every session homed here has just been dropped.
        let mut severed: Vec<(FlowId, SessionId)> = self
            .sessions
            .iter()
            .filter(|(_, rec)| rec.session.current_server() == Some(node))
            .filter_map(|(sid, rec)| match rec.origin {
                Some(InFlight::Network(flow)) => Some((flow, SessionId(sid))),
                _ => None,
            })
            .collect();
        severed.sort_unstable();
        self.reroute(now, severed, sched);
    }

    /// Tears down severed origin transfers and re-selects a source for
    /// the same cluster of each; a session retries or aborts if no
    /// replica is reachable.
    fn reroute(
        &mut self,
        now: SimTime,
        severed: Vec<(FlowId, SessionId)>,
        sched: &mut Scheduler<Event>,
    ) {
        for (flow, sid) in severed {
            let _ = self.flows.remove_flow(flow);
            self.flow_owner.remove(flow.raw());
            if let Some(rec) = self.sessions.get_mut(sid.0) {
                rec.origin = None;
                rec.pinned = None;
            }
            self.start_cluster_fetch(now, sid, sched);
        }
    }

    /// A failed server rejoins with empty disks; the DMA repopulates it
    /// from future demand. With nested outage windows the server only
    /// revives when the last window closes.
    pub(super) fn on_server_up(&mut self, now: SimTime, node: NodeId) {
        let Some(depth) = self.down.get_mut(&node) else {
            return;
        };
        *depth -= 1;
        if *depth > 0 {
            return; // an enclosing outage window is still open
        }
        self.down.remove(&node);
        self.sink.emit(now, || ObsEvent::ServerUp { server: node });
        #[expect(
            clippy::expect_used,
            reason = "setup built every server's storage from this configuration"
        )]
        let store = ServerStore::new(&self.config).expect("setup built storage from this config");
        self.stores.insert(node, store);
    }

    /// A link goes administratively down: it carries no traffic, routing
    /// masks it to infinite weight, and transfers crossing it re-route
    /// (or retry) immediately. Overlapping windows nest.
    pub(super) fn on_link_down(
        &mut self,
        now: SimTime,
        link: LinkId,
        sched: &mut Scheduler<Event>,
    ) {
        let depth = self.link_down.entry(link).or_insert(0);
        *depth += 1;
        if *depth > 1 {
            return;
        }
        self.link_admin_epoch += 1;
        self.flows.set_link_admin_down(link, true);
        self.sink.emit(now, || ObsEvent::LinkDown { link });
        // Transfers frozen on the dead link re-route mid-cluster, exactly
        // like transfers sourced from a dead server.
        let severed: Vec<(FlowId, SessionId)> = self
            .flows
            .flows_crossing(link)
            .filter_map(|f| self.flow_owner.get(f.raw()).map(|&sid| (f, sid)))
            .collect();
        self.reroute(now, severed, sched);
    }

    /// A link outage window closes; the link rejoins the routing view
    /// when the last nested window ends.
    pub(super) fn on_link_up(&mut self, now: SimTime, link: LinkId) {
        let Some(depth) = self.link_down.get_mut(&link) else {
            return;
        };
        *depth -= 1;
        if *depth > 0 {
            return;
        }
        self.link_down.remove(&link);
        self.link_admin_epoch += 1;
        self.flows.set_link_admin_down(link, false);
        self.sink.emit(now, || ObsEvent::LinkUp { link });
    }

    /// A degradation window opens: the link's deliverable capacity drops
    /// to the minimum factor over all open windows. Routing still sees
    /// the nominal capacity — a soft failure surfaces through SNMP
    /// readings and stalls, not through the admin state.
    pub(super) fn on_degrade_start(&mut self, now: SimTime, link: LinkId, factor: f64) {
        self.degrade.entry(link).or_default().push(factor);
        self.apply_degrade(link);
        self.sink
            .emit(now, || ObsEvent::LinkDegradeStart { link, factor });
    }

    /// A degradation window closes (removes one instance of `factor`).
    pub(super) fn on_degrade_end(&mut self, now: SimTime, link: LinkId, factor: f64) {
        if let Some(factors) = self.degrade.get_mut(&link) {
            if let Some(pos) = factors.iter().position(|&f| f == factor) {
                factors.remove(pos);
            }
            if factors.is_empty() {
                self.degrade.remove(&link);
            }
        }
        self.apply_degrade(link);
        self.sink
            .emit(now, || ObsEvent::LinkDegradeEnd { link, factor });
    }

    /// Re-applies the effective capacity scale of `link` to the fluid
    /// network.
    fn apply_degrade(&mut self, link: LinkId) {
        let scale = self
            .degrade
            .get(&link)
            .map(|f| f.iter().copied().fold(1.0, f64::min))
            .unwrap_or(1.0);
        self.flows.set_link_capacity_scale(link, scale);
    }

    /// The SNMP poller goes dark: scheduled polls are skipped until the
    /// window closes, so the selector keeps routing on its last-known-
    /// good view (flagged per skipped poll in the trace).
    pub(super) fn on_snmp_outage_start(&mut self, now: SimTime) {
        self.snmp_outages += 1;
        if self.snmp_outages == 1 {
            self.sink.emit(now, || ObsEvent::SnmpOutageStart);
        }
    }

    /// The SNMP poller recovers; the next scheduled poll refreshes the
    /// routing view.
    pub(super) fn on_snmp_outage_end(&mut self, now: SimTime) {
        self.snmp_outages = self.snmp_outages.saturating_sub(1);
        if self.snmp_outages == 0 {
            self.sink.emit(now, || ObsEvent::SnmpOutageEnd);
        }
    }
}
