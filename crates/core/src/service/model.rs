//! The simulation model behind a [`VodService`](super::VodService) run:
//! its state, the per-session [`SessionRecord`], event dispatch and the
//! cluster fetch chain.

use std::collections::BTreeMap;
use std::num::NonZeroU32;

use vod_db::Database;
use vod_net::{LinkId, Mbps, NodeId, Route, Topology};
use vod_obs::{AbortReason, Event as ObsEvent, EventSink};
use vod_sim::engine::Model;
use vod_sim::flow::{transfer_time, FlowId, FlowNetwork};
use vod_sim::scheduler::Scheduler;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{IdWindow, SimDuration, SimTime};
use vod_snmp::SnmpSystem;
use vod_storage::dma::{DmaCache, DmaStats};
use vod_storage::io_model::DiskIoModel;
use vod_storage::prefix::{PrefixStats, PrefixStore};
use vod_storage::video::{VideoId, VideoMeta};
use vod_workload::trace::RequestTrace;

use super::config::ServiceConfig;
use crate::qos::{QosRecord, TickStats};
use crate::selection::{Selection, SelectionContext, ServerSelector};
use crate::session::{cluster_play_time, cluster_volume_mbit, Session, SessionId};

/// The library entry of `video` in `titles`, the run's library in id
/// order, or `None` for a title outside the library. A generated
/// library numbers its titles from 0, so the entry sits at its id's
/// index; any other library is searched.
pub(super) fn find_title(titles: &[VideoMeta], video: VideoId) -> Option<&VideoMeta> {
    titles
        .get(video.index())
        .filter(|meta| meta.id() == video)
        .or_else(|| {
            let at = titles.binary_search_by_key(&video, VideoMeta::id).ok()?;
            titles.get(at)
        })
}

/// [`find_title`] for a title known to be in the library: a live
/// session's, or an arrival's once `on_arrival` has found it. The
/// library is fixed for the run, so the lookup cannot miss; this is the
/// one documented `expect` behind every per-title constant a session
/// reads.
#[expect(clippy::expect_used, reason = "sessions hold library titles")]
pub(super) fn title(titles: &[VideoMeta], video: VideoId) -> &VideoMeta {
    find_title(titles, video).expect("sessions hold library titles")
}

/// Local serve rate of `video` at `home`: striped disk throughput of the
/// title's layout (converted MB/s → Mbps) on the default per-disk
/// seek/transfer model (Figure 3's parallelism), capped by the
/// configured ceiling. Falls back to the ceiling when the layout is unknown (title
/// still being assembled).
fn local_serve_rate(
    caches: &BTreeMap<NodeId, DmaCache>,
    titles: &[VideoMeta],
    config: &ServiceConfig,
    home: NodeId,
    video: VideoId,
) -> Mbps {
    let ceiling = config.local_rate.as_f64();
    let disk_mbps = caches
        .get(&home)
        .and_then(|c| c.array().layout(video))
        .map(|layout| {
            let size = title(titles, video).size();
            DiskIoModel::default().striped_throughput_mb_per_s(layout, size) * 8.0
        })
        .unwrap_or(ceiling);
    Mbps::new(disk_mbps.min(ceiling).max(0.0))
}

/// Events driving the service simulation.
#[derive(Debug)]
pub(super) enum Event {
    /// The `idx`-th request of the trace arrives. Never scheduled: the
    /// engine takes arrivals from the model's input lane (`pop_input`).
    Arrival(usize),
    /// Collect the network flows finishing at this instant: the
    /// earliest finish instant the flow network stores. `advance_to`
    /// collects whatever is due at any event, so the handler is empty
    /// and a stale or extra check changes nothing.
    FlowCheck,
    /// Cluster `cluster` of `session`, served from its home's (or its
    /// proxy's) own disks, has arrived: the timer of a local serve,
    /// scheduled at launch. A no-op once the session has closed, or no
    /// longer has that cluster in flight locally.
    LocalFetched { session: SessionId, cluster: u32 },
    /// A session finished playing its current cluster.
    PlayoutTick(SessionId),
    /// Periodic SNMP poll.
    SnmpPoll,
    /// Periodic background-traffic refresh.
    BackgroundUpdate,
    /// A video server goes down.
    ServerDown(NodeId),
    /// A failed video server comes back (with a cold cache).
    ServerUp(NodeId),
    /// A link outage window opens.
    LinkDown(LinkId),
    /// A link outage window closes.
    LinkUp(LinkId),
    /// A link degradation window opens (remaining capacity fraction).
    DegradeStart(LinkId, f64),
    /// A link degradation window closes (carries the factor it applied).
    DegradeEnd(LinkId, f64),
    /// The SNMP poller goes dark: scheduled polls are skipped.
    SnmpOutageStart,
    /// The SNMP poller recovers.
    SnmpOutageEnd,
    /// A session re-attempts a failed cluster fetch after backoff.
    RetryFetch(SessionId),
}

/// Per-session retry bookkeeping for the current failure episode.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Re-attempts consumed so far: an episode opens with its first.
    attempts: NonZeroU32,
    /// When the episode began (anchors the stall budget).
    first_failure: SimTime,
}

/// Where a session's in-flight origin (or suffix) cluster comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum InFlight {
    /// The home server's own disks: a [`Event::LocalFetched`] timer for
    /// this cluster is pending.
    Local(u32),
    /// A network flow along the selected route.
    Network(FlowId),
}

/// One session's proxy-streamed prefix phase. Present on a
/// [`SessionRecord`] exactly while prefix clusters are still in flight:
/// it opens with the launch of the first and each delivered cluster
/// hands over to the next launch in the same instant. The cluster
/// streaming is always the session's `clusters_fetched()`, on a local
/// timer.
/// While it is, a completing suffix cluster is only noted
/// (`suffix_landed`) — playout needs contiguous clusters — and taking
/// the phase off the record is what hands the session back to the
/// suffix chain. The session's home is the proxy, so a home-server
/// failure tears the phase down with the session itself. How far the
/// phase has come is the [`Session`]'s to say: until it ends, every
/// fetched cluster is a prefix cluster, of `prefix_reserved()` in all.
#[derive(Debug)]
struct PrefixPhase {
    /// The concurrent suffix cluster landed before the prefix drained;
    /// its accounting waits for the drain.
    suffix_landed: bool,
}

/// Everything that lives and dies with one session. `open_session` is
/// the only insert and `close_session` the only erase, so a flow in
/// `ServiceModel::flow_owner` always names a live record.
#[derive(Debug)]
pub(super) struct SessionRecord {
    pub(super) session: Session,
    /// The in-flight origin (or suffix) cluster transfer. Its source is
    /// `session.current_server()`: only a launch assigns the server.
    pub(super) origin: Option<InFlight>,
    /// Static routing only (`dynamic_rerouting: false`): the route of
    /// the last launch, which the next cluster re-uses. A fault that
    /// severs the transfer clears it, so the session selects afresh.
    /// Always `None` under dynamic re-routing, the paper's mode.
    pub(super) pinned: Option<Box<Route>>,
    /// The open failure episode, if the session is waiting out a backoff.
    retry: Option<RetryState>,
    prefix: Option<PrefixPhase>,
    /// The DMA admitted the title at request time: advertise it at the
    /// home server once the last cluster lands.
    cache_on_complete: bool,
}

// Every live session holds one record, inline in `ServiceModel::sessions`
// (400 801 of them at once on `local_scale`), so a field must pay for its
// bytes, within a budget of 160. The 144 are: the session's 96 (three
// ids, two instants, seven `u32` counters, the current server, the stall
// marker and total, 4 bytes of padding), the origin transfer's 16, the
// pinned route's 8, the retry episode's 16 (`NonZeroU32` lends its
// niche), and the prefix phase and the DMA flag with 6 bytes of padding.
#[expect(
    clippy::disallowed_macros,
    reason = "compile-time check: a `SessionRecord` stays within 160 bytes"
)]
const _: () = assert!(std::mem::size_of::<SessionRecord>() <= 160);

/// The simulation model (internal state of a
/// [`VodService`](super::VodService) run).
pub(super) struct ServiceModel<S: EventSink> {
    pub(super) topology: Topology,
    pub(super) config: ServiceConfig,
    pub(super) flows: FlowNetwork,
    pub(super) snmp: SnmpSystem,
    pub(super) db: Database,
    pub(super) caches: BTreeMap<NodeId, DmaCache>,
    pub(super) selector: Box<dyn ServerSelector>,
    pub(super) background: BackgroundModel,
    pub(super) trace: RequestTrace,
    /// The engine's input lane: index of the next request of `trace` to
    /// arrive. Arrivals are read through this cursor in trace order and
    /// never sit in the scheduler.
    pub(super) next_arrival: usize,
    /// The run's library in id order, for the per-title constants a
    /// session reads at every cluster boundary (see [`title`]).
    pub(super) titles: Vec<VideoMeta>,
    /// Live sessions by `SessionId.0`, inline: the window holds a slot
    /// for every id between the oldest and the newest live session.
    /// With many sessions that span is the live set itself (400 801 on
    /// `local_scale`); with few, a long session widens it (2 108 slots
    /// for 166 live on `steady_traced`). Boxing would add a pointer and
    /// a heap chunk to every live record to save bytes in dead slots.
    pub(super) sessions: IdWindow<SessionRecord>,
    /// Every in-flight network flow back to its session, by
    /// `FlowId::raw`. Local serves are timers and have no entry.
    pub(super) flow_owner: IdWindow<SessionId>,
    /// Reused buffer for the replica holders handed to the selector.
    pub(super) candidates: Vec<NodeId>,
    /// Per-proxy prefix stores (empty when the tier is disabled; a
    /// store vanishes with its server and rejoins cold, like the DMA).
    pub(super) prefix_stores: BTreeMap<NodeId, PrefixStore>,
    /// Outage depth per down server: overlapping windows nest, and a
    /// server only revives when its depth returns to zero.
    pub(super) down: BTreeMap<NodeId, u32>,
    /// Outage depth per admin-down link (absent = up).
    pub(super) link_down: BTreeMap<LinkId, u32>,
    /// Active degradation factors per link; the effective capacity scale
    /// is the minimum of the open windows (1.0 when none).
    pub(super) degrade: BTreeMap<LinkId, Vec<f64>>,
    /// Open SNMP-poller outage windows; polls are skipped while nonzero.
    pub(super) snmp_outages: u32,
    /// Bumped whenever a link's admin state changes, so the cached
    /// selector snapshot is rebuilt with the new overlay.
    pub(super) link_admin_epoch: u64,
    /// The database snapshot the selector sees, cached per
    /// ([`Database::traffic_version`], link-admin epoch). Requests
    /// between SNMP polls reuse the same snapshot *instance*, so its
    /// epoch token stays stable and the VRA's routing engine serves them
    /// from its weight and shortest-path caches.
    pub(super) db_snap_cache: Option<((u64, u64), vod_net::TrafficSnapshot)>,
    /// Reused buffer for the instantaneous utilization samples taken at
    /// each SNMP poll (avoids one snapshot allocation per poll).
    pub(super) live_snap: vod_net::TrafficSnapshot,
    pub(super) retired_dma: DmaStats,
    /// Stats of prefix stores retired by server failures.
    pub(super) retired_prefix: PrefixStats,
    /// Clusters streamed by the proxies over the whole run.
    pub(super) prefix_served_clusters: u64,
    /// Megabits the proxies streamed — volume the backbone never saw.
    pub(super) prefix_served_mbit: f64,
    /// Sessions fully covered by a resident prefix (no origin fetch).
    pub(super) full_prefix_sessions: u64,
    pub(super) records: Vec<QosRecord>,
    pub(super) failed_requests: u64,
    pub(super) rejected_requests: u64,
    pub(super) aborted_sessions: u64,
    pub(super) next_session: u64,
    pub(super) last_sync: SimTime,
    /// The instant of the already-scheduled pending flow check, if any —
    /// lets `schedule_flow_check` skip duplicate events when the
    /// prediction is unchanged (every handler re-checks, but between
    /// completions the predicted instant rarely moves).
    pub(super) scheduled_check: Option<SimTime>,
    /// Reused buffer for flow completions per `advance_to` call.
    pub(super) done_scratch: Vec<FlowId>,
    /// High-water mark of concurrently live sessions.
    pub(super) peak_sessions: usize,
    pub(super) recurring_deadline: SimTime,
    /// What the recurring ticks did, for the report.
    pub(super) ticks: TickStats,
    /// Per-poll link-utilisation samples, summarised by the report.
    pub(super) max_util_samples: Vec<f64>,
    pub(super) mean_util_samples: Vec<f64>,
    pub(super) seed: u64,
    /// Where trace events go; [`vod_obs::NullSink`] compiles the emission sites
    /// away entirely.
    pub(super) sink: S,
}

impl<S: EventSink> ServiceModel<S> {
    /// Advances the fluid network and SNMP counters to `now`, processing
    /// any flow completions that occurred in between.
    fn advance_to(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        // Events scheduled before the trace window opens (e.g. an outage
        // configured ahead of the first arrival) fire while `last_sync`
        // still sits at the window start; no fluid time has passed.
        if now <= self.last_sync {
            return;
        }
        let dt = now.duration_since(self.last_sync);
        if dt.is_zero() {
            return;
        }
        // The flow network maintains the SNMP volume integrals itself;
        // completions land in a reused scratch buffer.
        let mut done = std::mem::take(&mut self.done_scratch);
        self.flows.advance_into(dt, &mut done);
        self.last_sync = now;
        for &flow in &done {
            self.on_flow_complete(now, flow, sched);
        }
        done.clear();
        self.done_scratch = done;
    }

    /// Schedules a flow-completion check at the earliest finish
    /// instant the flow network stores (skipped when that exact check
    /// is already pending — stale checks are no-ops, so duplicates are
    /// only queue noise).
    fn schedule_flow_check(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        if let Some((_, dt)) = self.flows.next_completion() {
            let at = now + dt;
            if self.scheduled_check != Some(at) {
                self.scheduled_check = Some(at);
                sched.schedule(at, Event::FlowCheck);
            }
        }
    }

    fn has_pending_work(&self) -> bool {
        self.next_arrival < self.trace.len() || !self.sessions.is_empty()
    }

    fn reschedule_recurring(
        &self,
        now: SimTime,
        interval: SimDuration,
        make: impl FnOnce() -> Event,
        sched: &mut Scheduler<Event>,
    ) {
        let at = now + interval;
        if at <= self.recurring_deadline && self.has_pending_work() {
            sched.schedule(at, make());
        }
    }

    /// Ensures the cached database snapshot matches the database's
    /// current traffic version, rebuilding it only after an SNMP poll
    /// actually recorded new readings. The cached *instance* is what
    /// makes the routing engine's epoch cache effective: every request
    /// between two polls sees the same snapshot token and version.
    pub(super) fn refresh_db_snapshot(&mut self, now: SimTime) {
        let key = (self.db.traffic_version(), self.link_admin_epoch);
        if matches!(&self.db_snap_cache, Some((k, _)) if *k == key) {
            return;
        }
        let la = self.db.limited_access();
        let mut snap = match self.config.snmp_smoothing {
            Some(alpha) => la.smoothed_snapshot(&self.topology, alpha),
            None => la.snapshot(&self.topology),
        };
        // Overlay the links the service knows to be down: SNMP readings
        // lag the outage, but routing must detour immediately.
        for &link in self.link_down.keys() {
            snap.set_admin_down(link, true);
        }
        // Every rebuild is traced: the auditor reconstructs exactly the
        // view the selector works from until the next rebuild.
        if self.sink.enabled() {
            let links = self.topology.link_count();
            let mut used = Vec::with_capacity(links);
            let mut utilization = Vec::with_capacity(links);
            for link in self.topology.link_ids() {
                used.push(snap.used(link).as_f64());
                utilization.push(snap.utilization(&self.topology, link).get());
            }
            let down: Vec<u64> = self.link_down.keys().map(|l| l.index() as u64).collect();
            self.sink.record(
                now,
                &ObsEvent::LinkState {
                    used,
                    utilization,
                    down,
                },
            );
        }
        self.db_snap_cache = Some((key, snap));
    }

    /// Runs the selector for `video` on behalf of a client homed at
    /// `home`. The second element reports whether the selector's routing
    /// engine answered from cache (always `false` for engine-less
    /// baselines) — it tags the `vra_select` trace events.
    pub(super) fn select_source(
        &mut self,
        now: SimTime,
        home: NodeId,
        video: VideoId,
    ) -> Option<(Selection, bool)> {
        self.candidates.clear();
        let holders = self.db.full_access().servers_with_title_iter(video);
        self.candidates.extend(holders);
        if self.candidates.is_empty() {
            return None;
        }
        self.refresh_db_snapshot(now);
        let ServiceModel {
            topology,
            selector,
            db_snap_cache,
            sink,
            candidates,
            ..
        } = self;
        let (_, snapshot) = db_snap_cache.as_ref()?;
        let ctx = SelectionContext {
            topology,
            snapshot,
            home,
            candidates,
        };
        // Only `trace_selection` reads the flag, and only with a live
        // sink, so the two stats copies are taken only then.
        let before = if sink.enabled() {
            selector.engine_stats()
        } else {
            None
        };
        let selection = selector.select(&ctx).ok()?;
        let cache_hit = before.is_some_and(|b| {
            selector.engine_stats().is_some_and(|a| {
                a.path_cache_hits > b.path_cache_hits || a.local_hits > b.local_hits
            })
        });
        Some((selection, cache_hit))
    }

    /// Starts fetching the next cluster of `sid`, re-running the selector
    /// when dynamic re-routing is enabled. A fetch failure (no reachable
    /// replica, dead source) goes through the retry policy instead of
    /// aborting unconditionally. A no-op for a session that has ended
    /// (a stale `RetryFetch`) or has nothing left to fetch.
    pub(super) fn start_cluster_fetch(
        &mut self,
        now: SimTime,
        sid: SessionId,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(rec) = self.sessions.get_mut(sid.0) else {
            return;
        };
        let Some(idx) = rec.session.next_cluster() else {
            return;
        };
        // Static routing re-uses the kept route; it is taken out for the
        // launch and kept again unless the launch ended the session.
        if let Some(route) = rec.pinned.take() {
            self.fetch_along(now, sid, idx, &route, sched);
            if let Some(rec) = self.sessions.get_mut(sid.0) {
                rec.pinned = Some(route);
            }
            return;
        }
        let (home, video) = (rec.session.home(), rec.session.video());
        match self.select_source(now, home, video) {
            Some((selection, cache_hit)) => {
                self.trace_selection(now, sid, idx, &selection, cache_hit);
                self.fetch_selected(now, sid, idx, selection.route, sched);
            }
            // Mid-stream loss of every replica: retry (transient outages
            // heal) or abort once the budget is spent.
            None => self.handle_fetch_failure(now, sid, sched),
        }
    }

    /// Launches cluster `idx` of `sid` along a freshly selected `route`;
    /// under static routing the session keeps it for the next cluster.
    pub(super) fn fetch_selected(
        &mut self,
        now: SimTime,
        sid: SessionId,
        idx: usize,
        route: Route,
        sched: &mut Scheduler<Event>,
    ) {
        if self.fetch_along(now, sid, idx, &route, sched) && !self.config.dynamic_rerouting {
            if let Some(rec) = self.sessions.get_mut(sid.0) {
                rec.pinned = Some(Box::new(route));
            }
        }
    }

    /// Traces one selector decision made for cluster `idx` of `sid`.
    pub(super) fn trace_selection(
        &mut self,
        now: SimTime,
        sid: SessionId,
        idx: usize,
        selection: &Selection,
        cache_hit: bool,
    ) {
        if !self.sink.enabled() {
            return;
        }
        if let Some(rec) = self.sessions.get(sid.0) {
            let (home, video) = (rec.session.home(), rec.session.video());
            self.sink.record(
                now,
                &ObsEvent::VraSelect {
                    session: sid.0,
                    cluster: idx as u64,
                    video,
                    home,
                    server: selection.server,
                    cost: selection.route.cost(),
                    cache_hit,
                    local: selection.is_local(),
                },
            );
        }
    }

    /// Launches the transfer of cluster `idx` of `sid` along `route`,
    /// booking the (possibly switched) source on the session. Returns
    /// whether the transfer started.
    fn fetch_along(
        &mut self,
        now: SimTime,
        sid: SessionId,
        idx: usize,
        route: &Route,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let Some(rec) = self.sessions.get_mut(sid.0) else {
            return false;
        };
        let sess = &mut rec.session;
        let from = sess.current_server();
        if sess.assign_server(route.target(), route.hops() == 0) && self.sink.enabled() {
            // `from` is always present here: a first assignment is not
            // reported as a switch.
            if let Some(from) = from {
                self.sink.record(
                    now,
                    &ObsEvent::Switch {
                        session: sid.0,
                        cluster: idx as u64,
                        from,
                        to: route.target(),
                    },
                );
            }
        }
        let (home, video) = (sess.home(), sess.video());
        let volume = cluster_volume_mbit(title(&self.titles, video), self.config.cluster, idx);
        // A disk-limited local serve when the home serves itself — a
        // timer, its instant fixed at launch — or a network flow along
        // the route. A launch error (an empty cluster, a route foreign to
        // the flow network) does not arise for sessions built from
        // library titles.
        let cluster = idx as u32;
        if route.hops() == 0 {
            let rate = local_serve_rate(&self.caches, &self.titles, &self.config, home, video);
            let session = sid;
            sched.schedule(
                now + transfer_time(volume, rate),
                Event::LocalFetched { session, cluster },
            );
            rec.origin = Some(InFlight::Local(cluster));
        } else {
            let Ok(flow) = self.flows.add_flow(route.links(), volume) else {
                self.handle_fetch_failure(now, sid, sched);
                return false;
            };
            self.flow_owner.insert(flow.raw(), sid);
            rec.origin = Some(InFlight::Network(flow));
        }
        // A successful launch closes the failure episode.
        rec.retry = None;
        true
    }

    /// Applies the retry policy to a failed cluster fetch: schedule a
    /// backed-off re-attempt while budget remains, abort otherwise with
    /// the exact exhaustion reason.
    fn handle_fetch_failure(&mut self, now: SimTime, sid: SessionId, sched: &mut Scheduler<Event>) {
        let policy = self.config.retry;
        if policy.max_attempts == 0 {
            self.abort_session(now, sid, AbortReason::NoSource);
            return;
        }
        let episode = self.sessions.get(sid.0).and_then(|rec| rec.retry);
        let attempts = episode.map_or(0, |state| state.attempts.get());
        let first_failure = episode.map_or(now, |state| state.first_failure);
        if attempts >= policy.max_attempts {
            self.abort_session(now, sid, AbortReason::RetryExhausted);
            return;
        }
        let attempt = NonZeroU32::MIN.saturating_add(attempts);
        let backoff = SimDuration::from_micros(
            policy
                .backoff
                .as_micros()
                .saturating_mul(u64::from(attempt.get())),
        );
        let resume_at = now + backoff;
        if resume_at.duration_since(first_failure) > policy.stall_budget {
            self.abort_session(now, sid, AbortReason::StallBudget);
            return;
        }
        if let Some(rec) = self.sessions.get_mut(sid.0) {
            rec.retry = Some(RetryState {
                attempts: attempt,
                first_failure,
            });
        }
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::SessionRetry {
                    session: sid.0,
                    attempt: attempt.get(),
                    backoff,
                },
            );
        }
        sched.schedule(resume_at, Event::RetryFetch(sid));
    }

    /// Opens a session: the only place that allocates a [`SessionId`],
    /// inserts a record and moves `peak_sessions`. A nonzero
    /// `prefix_clusters` makes the home server, as regional proxy,
    /// stream that many leading clusters on its own timer chain,
    /// starting now; the caller starts the origin chain (if the prefix
    /// leaves anything to fetch).
    pub(super) fn open_session(
        &mut self,
        now: SimTime,
        video: VideoId,
        home: NodeId,
        cache_on_complete: bool,
        prefix_clusters: usize,
        sched: &mut Scheduler<Event>,
    ) -> SessionId {
        let sid = SessionId(self.next_session);
        self.next_session += 1;
        let meta = title(&self.titles, video);
        let mut session = Session::new(sid, meta, home, self.config.cluster, now);
        if prefix_clusters > 0 {
            session.set_prefix_reserved(prefix_clusters);
            // The prefix's first cluster streams locally from the proxy.
            session.assign_server(home, true);
        }
        self.sessions.insert(
            sid.0,
            SessionRecord {
                session,
                origin: None,
                pinned: None,
                retry: None,
                prefix: None,
                cache_on_complete,
            },
        );
        self.peak_sessions = self.peak_sessions.max(self.sessions.len());
        if prefix_clusters > 0 {
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::PrefixServe {
                        session: sid.0,
                        server: home,
                        video,
                        clusters: prefix_clusters as u64,
                    },
                );
            }
            self.launch_prefix_cluster(now, sid, 0, sched);
        }
        sid
    }

    /// Closes a session: the only erase. Completion and every abort
    /// reason come through here, so the record and its network flow, if
    /// any, always leave together; its pending local timers find no
    /// record and do nothing.
    fn close_session(&mut self, sid: SessionId) {
        let Some(rec) = self.sessions.remove(sid.0) else {
            return;
        };
        if let Some(InFlight::Network(flow)) = rec.origin {
            let _ = self.flows.remove_flow(flow);
            self.flow_owner.remove(flow.raw());
        }
    }

    /// Drops a session mid-stream, counting and tracing the abort with
    /// its cause.
    pub(super) fn abort_session(&mut self, now: SimTime, sid: SessionId, reason: AbortReason) {
        self.close_session(sid);
        self.aborted_sessions += 1;
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::SessionAborted {
                    session: sid.0,
                    reason,
                },
            );
        }
    }

    /// Withdraws titles from the shared catalog (evictions, failures),
    /// tracing each entry that was actually removed.
    pub(super) fn withdraw_titles(&mut self, now: SimTime, server: NodeId, victims: &[VideoId]) {
        for &victim in victims {
            let removed = self.db.limited_access().remove_title(server, victim);
            if matches!(removed, Ok(true)) && self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::CatalogRemove {
                        server,
                        video: victim,
                    },
                );
            }
        }
    }

    /// A network flow finished: its session's origin cluster arrived.
    fn on_flow_complete(&mut self, now: SimTime, flow: FlowId, sched: &mut Scheduler<Event>) {
        let Some(sid) = self.flow_owner.remove(flow.raw()) else {
            return;
        };
        self.on_origin_cluster_done(now, sid, InFlight::Network(flow), sched);
    }

    /// The timer of a local serve fired: the prefix cluster now
    /// streaming, or the origin cluster served from the home's disks.
    fn on_local_fetched(
        &mut self,
        now: SimTime,
        sid: SessionId,
        cluster: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(rec) = self.sessions.get(sid.0) else {
            return;
        };
        let streaming = rec.prefix.is_some() && rec.session.clusters_fetched() == cluster as usize;
        if streaming {
            self.on_prefix_cluster_done(now, sid, sched);
        } else {
            self.on_origin_cluster_done(now, sid, InFlight::Local(cluster), sched);
        }
    }

    /// The origin transfer `done` finished, if it is still the one the
    /// session has in flight.
    fn on_origin_cluster_done(
        &mut self,
        now: SimTime,
        sid: SessionId,
        done: InFlight,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(rec) = self.sessions.get_mut(sid.0) else {
            return;
        };
        if rec.origin != Some(done) {
            return;
        }
        rec.origin = None;
        if let Some(phase) = &mut rec.prefix {
            // The concurrent suffix cluster landed while the prefix is
            // still streaming. Playout needs contiguous clusters, so
            // its accounting waits for the prefix to drain.
            phase.suffix_landed = true;
            return;
        }
        self.on_cluster_delivered(now, sid, sched);
    }

    /// Books a delivered cluster and moves the origin chain on: the next
    /// cluster's fetch, or the title's advertisement after the last one.
    fn on_cluster_delivered(&mut self, now: SimTime, sid: SessionId, sched: &mut Scheduler<Event>) {
        match self.account_cluster_fetched(now, sid, sched) {
            Some(true) => self.advertise_assembled_title(now, sid),
            Some(false) => self.start_cluster_fetch(now, sid, sched),
            None => {}
        }
    }

    /// Books one delivered cluster on the session: playout start on the
    /// first cluster, stall resume otherwise, plus their trace events.
    /// Returns whether the session's fetch phase is now complete
    /// (`None` when the session no longer exists).
    fn account_cluster_fetched(
        &mut self,
        now: SimTime,
        sid: SessionId,
        sched: &mut Scheduler<Event>,
    ) -> Option<bool> {
        let sess = &mut self.sessions.get_mut(sid.0)?.session;
        if sess.on_cluster_fetched(now) {
            let startup = sess.startup_delay().unwrap_or(SimDuration::ZERO);
            let dt = cluster_play_time(title(&self.titles, sess.video()), self.config.cluster, 0);
            sched.schedule(now + dt, Event::PlayoutTick(sid));
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::SessionStart {
                        session: sid.0,
                        startup,
                    },
                );
            }
        } else if sess.is_stalled() {
            let stalled_for = sess.resume(now);
            let meta = title(&self.titles, sess.video());
            let dt = cluster_play_time(meta, self.config.cluster, sess.clusters_played());
            sched.schedule(now + dt, Event::PlayoutTick(sid));
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::SessionResume {
                        session: sid.0,
                        stalled: stalled_for,
                    },
                );
            }
        }
        Some(sess.fetch_complete())
    }

    /// The home server finished assembling the title; if the DMA
    /// admitted it at request time, it is now advertised.
    fn advertise_assembled_title(&mut self, now: SimTime, sid: SessionId) {
        let Some(rec) = self.sessions.get(sid.0) else {
            return;
        };
        if !rec.cache_on_complete {
            return;
        }
        let (home, video) = (rec.session.home(), rec.session.video());
        if self
            .caches
            .get(&home)
            .map(|c| c.contains(video))
            .unwrap_or(false)
        {
            let added = self.db.limited_access().add_title(home, video);
            if matches!(added, Ok(true)) && self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::CatalogAdd {
                        server: home,
                        video,
                    },
                );
            }
        }
    }

    /// One proxy-streamed prefix cluster was delivered: account it,
    /// stream the next reserved cluster, and when the prefix drains
    /// release any suffix cluster whose accounting was deferred.
    fn on_prefix_cluster_done(
        &mut self,
        now: SimTime,
        sid: SessionId,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(fetch_complete) = self.account_cluster_fetched(now, sid, sched) else {
            return;
        };
        let Some(rec) = self.sessions.get_mut(sid.0) else {
            return;
        };
        let Some(phase) = &rec.prefix else {
            return;
        };
        let next = rec.session.clusters_fetched();
        if next < rec.session.prefix_reserved() {
            self.launch_prefix_cluster(now, sid, next, sched);
            return;
        }
        // Prefix phase drained: the suffix chain owns the session again.
        let suffix_landed = phase.suffix_landed;
        rec.prefix = None;
        if fetch_complete {
            // The prefix covered the whole title; nothing left to fetch.
            self.advertise_assembled_title(now, sid);
        } else if suffix_landed {
            self.on_cluster_delivered(now, sid, sched);
        }
        // Otherwise the concurrent suffix cluster is still in flight;
        // its completion resumes the normal sequential chain.
    }

    /// Starts streaming prefix cluster `index` from the session's proxy
    /// at the proxy rate, a timer like any local serve; cluster 0 opens
    /// the prefix phase.
    fn launch_prefix_cluster(
        &mut self,
        now: SimTime,
        sid: SessionId,
        index: usize,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(rec) = self.sessions.get_mut(sid.0) else {
            return;
        };
        if index > 0 {
            // Cluster 0 was counted by the arrival-time proxy
            // assignment; later prefix clusters are still local.
            rec.session.count_local_cluster();
        }
        let meta = title(&self.titles, rec.session.video());
        let volume = cluster_volume_mbit(meta, self.config.cluster, index);
        let rate = self
            .config
            .prefix_tier
            .map(|t| t.proxy_rate)
            .unwrap_or(self.config.local_rate);
        let (session, cluster) = (sid, index as u32);
        sched.schedule(
            now + transfer_time(volume, rate),
            Event::LocalFetched { session, cluster },
        );
        rec.prefix.get_or_insert(PrefixPhase {
            suffix_landed: false,
        });
        self.prefix_served_clusters += 1;
        self.prefix_served_mbit += volume;
    }

    fn on_playout_tick(&mut self, now: SimTime, sid: SessionId, sched: &mut Scheduler<Event>) {
        let Some(rec) = self.sessions.get_mut(sid.0) else {
            return;
        };
        let sess = &mut rec.session;
        sess.on_cluster_played();
        if sess.playback_complete() {
            let record = sess.finish(now, title(&self.titles, sess.video()));
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::SessionComplete {
                        session: sid.0,
                        stalls: record.stall_count,
                        stall_time: record.stall_time,
                        switches: record.switches,
                    },
                );
            }
            self.records.push(record);
            self.close_session(sid);
        } else if sess.buffered() > 0 {
            let meta = title(&self.titles, sess.video());
            let dt = cluster_play_time(meta, self.config.cluster, sess.clusters_played());
            sched.schedule(now + dt, Event::PlayoutTick(sid));
        } else {
            sess.stall(now);
            if self.sink.enabled() {
                self.sink
                    .record(now, &ObsEvent::SessionStall { session: sid.0 });
            }
        }
    }

    fn on_snmp_poll(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        // Age of the traffic view this poll replaces — the staleness
        // every routing decision since the previous poll worked with.
        let staleness = now.duration_since(self.snmp.last_poll_at());
        self.ticks.polls += 1;
        if self.snmp_outages > 0 {
            // Poller outage: skip the poll. The database's traffic
            // version stalls, so the selector keeps its last-known-good
            // snapshot; the trace flags the growing staleness.
            if self.sink.enabled() {
                self.sink
                    .record(now, &ObsEvent::SnmpStaleView { staleness });
            }
        } else {
            // Pull the incrementally-maintained volume integrals into the
            // SNMP counters; between polls nothing iterates the links.
            self.snmp.sync_counters(&self.flows);
            // The SNMP system is constructed from the same topology, so
            // every link is registered and a poll cannot fail.
            let readings = self
                .snmp
                .poll(&self.topology, &mut self.db, now)
                .unwrap_or_default();
            self.ticks.readings += readings as u64;
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::SnmpPoll {
                        readings: readings as u64,
                        staleness,
                    },
                );
            }
        }
        // Sample true instantaneous utilization for the report, reusing
        // the buffer instead of allocating a snapshot per poll; one scan
        // of it yields both samples.
        self.flows.snapshot_into(&mut self.live_snap);
        match self.live_snap.max_and_mean_utilization(&self.topology) {
            Some((max, mean)) => {
                self.max_util_samples.push(max.get());
                self.mean_util_samples.push(mean.get());
            }
            // No links: no maximum, and a mean of zero.
            None => self.mean_util_samples.push(0.0),
        }
        self.reschedule_recurring(now, self.config.snmp_interval, || Event::SnmpPoll, sched);
    }

    fn on_background_update(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.ticks.refreshes += 1;
        self.ticks.idle_refreshes += u64::from(self.flows.flow_count() == 0);
        self.background.apply(&mut self.flows, now);
        if self.sink.enabled() {
            self.sink.record(now, &ObsEvent::BackgroundUpdate);
        }
        self.reschedule_recurring(
            now,
            self.config.background_interval,
            || Event::BackgroundUpdate,
            sched,
        );
    }
}

#[cfg(test)]
impl<S: EventSink> ServiceModel<S> {
    /// The session-state invariant: `flow_owner`, the records and the
    /// flow network agree on which network flows are in flight, a local
    /// origin serve is the session's next cluster, and a session
    /// waiting out a retry backoff has no origin transfer.
    pub(super) fn assert_consistent(&self) {
        let flow_of = |rec: &SessionRecord| match rec.origin {
            Some(InFlight::Network(flow)) => Some(flow),
            _ => None,
        };
        for (flow, sid) in self.flow_owner.iter() {
            let rec = self.sessions.get(sid.0);
            assert!(
                rec.is_some_and(|rec| flow_of(rec).is_some_and(|f| f.raw() == flow)),
                "flow {flow} is owned by {sid}, whose record does not name it: {rec:?}"
            );
        }
        for (sid, rec) in self.sessions.iter() {
            let sid = SessionId(sid);
            if let Some(flow) = flow_of(rec) {
                let owner = self.flow_owner.get(flow.raw());
                assert_eq!(owner, Some(&sid), "{flow:?} of {sid}");
                assert!(
                    self.flows.flow_links(flow).is_ok(),
                    "{flow:?} of {sid} left the network"
                );
            }
            if let Some(InFlight::Local(cluster)) = rec.origin {
                let next = rec.session.next_cluster();
                assert_eq!(next, Some(cluster as usize), "{sid} serves out of order");
            }
            assert!(
                rec.retry.is_none() || rec.origin.is_none(),
                "{sid} retries with an origin transfer in flight"
            );
        }
        assert_eq!(self.flows.flow_count(), self.flow_owner.len());
    }
}

impl<S: EventSink> Model for ServiceModel<S> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        self.advance_to(now, sched);
        match event {
            Event::Arrival(idx) => self.on_arrival(now, idx, sched),
            Event::FlowCheck => {
                // Completions were already processed by advance_to.
            }
            Event::LocalFetched { session, cluster } => {
                self.on_local_fetched(now, session, cluster, sched);
            }
            Event::PlayoutTick(sid) => self.on_playout_tick(now, sid, sched),
            Event::SnmpPoll => self.on_snmp_poll(now, sched),
            Event::BackgroundUpdate => self.on_background_update(now, sched),
            Event::ServerDown(node) => self.on_server_down(now, node, sched),
            Event::ServerUp(node) => self.on_server_up(now, node),
            Event::LinkDown(link) => self.on_link_down(now, link, sched),
            Event::LinkUp(link) => self.on_link_up(now, link),
            Event::DegradeStart(link, factor) => self.on_degrade_start(now, link, factor),
            Event::DegradeEnd(link, factor) => self.on_degrade_end(now, link, factor),
            Event::SnmpOutageStart => self.on_snmp_outage_start(now),
            Event::SnmpOutageEnd => self.on_snmp_outage_end(now),
            Event::RetryFetch(sid) => self.start_cluster_fetch(now, sid, sched),
        }
        self.schedule_flow_check(now, sched);
    }

    fn peek_input(&self) -> Option<SimTime> {
        let next = self.trace.requests().get(self.next_arrival)?;
        Some(next.at)
    }

    fn pop_input(&mut self) -> Option<Event> {
        let idx = self.next_arrival;
        (idx < self.trace.len()).then(|| {
            self.next_arrival += 1;
            Event::Arrival(idx)
        })
    }
}
