//! The end-to-end VoD service simulation.
//!
//! [`VodService`] wires every substrate together the way the paper's
//! architecture diagram does:
//!
//! * a [`FlowNetwork`] carries backbone video transfers and diurnal
//!   background traffic over the topology (a cluster a server streams
//!   from its own disks is a timer, `⌈volume / rate⌉` long);
//! * an [`SnmpSystem`] periodically averages link counters into the
//!   limited-access [`Database`] (so the routing application always works
//!   from *slightly stale* state, as in the real service);
//! * one [`DmaCache`] per video server runs the Disk Manipulation
//!   Algorithm on every incoming request;
//! * a pluggable [`ServerSelector`] (the VRA or a baseline) picks the
//!   source server — re-evaluated before *every cluster* when dynamic
//!   re-routing is on, which is the paper's headline feature;
//! * [`Session`](crate::session::Session)s track playout, stalls and
//!   switches, producing [`QosRecord`](crate::qos::QosRecord)s
//!   aggregated into a [`ServiceReport`].
//!
//! The simulation is a deterministic discrete-event program: same
//! scenario + same selector + same config → identical report.
//!
//! The service is additionally generic over an [`EventSink`]: with the
//! default [`NullSink`] every emission site folds away at compile time;
//! with a recording sink ([`vod_obs::RingRecorder`],
//! [`vod_obs::JsonlWriter`]) each DMA decision, VRA selection, session
//! incident and SNMP poll produces a typed, sim-time-stamped
//! [`vod_obs::Event`]. Traces inherit the determinism guarantee: same
//! inputs → byte-identical JSONL.

mod arrival;
mod config;
mod faults;
mod model;
mod report;
#[cfg(test)]
mod tests;

use std::collections::BTreeMap;

use vod_db::Database;
use vod_net::{Mbps, NodeId};
use vod_obs::{Event as ObsEvent, EventSink, NullSink};
use vod_sim::engine::Simulation;
use vod_sim::fault::FaultKind;
use vod_sim::flow::FlowNetwork;
use vod_sim::{IdWindow, SimTime};
use vod_snmp::SnmpSystem;
use vod_storage::dma::{DmaCache, DmaConfig, DmaStats};
use vod_storage::prefix::{PrefixStats, PrefixStore};
use vod_storage::video::VideoMeta;
use vod_workload::scenario::Scenario;

use config::DRAIN_GRACE;
pub use config::{PrefixTierConfig, RetryPolicy, ServiceConfig};
use model::{Event, ServiceModel};

use crate::error::CoreError;
use crate::qos::{ServiceReport, TickStats};
use crate::selection::ServerSelector;

/// A configured, runnable VoD service experiment.
///
/// # Examples
///
/// ```no_run
/// use vod_core::service::{ServiceConfig, VodService};
/// use vod_core::vra::Vra;
/// use vod_workload::scenario::Scenario;
///
/// let scenario = Scenario::grnet_case_study(42);
/// let service = VodService::new(&scenario, Box::new(Vra::default()), ServiceConfig::default());
/// let report = service.run();
/// println!("{} sessions completed", report.completed.len());
/// ```
///
/// With a recording sink the same run additionally yields a trace; the
/// report is the same either way:
///
/// ```no_run
/// use vod_core::service::{ServiceConfig, VodService};
/// use vod_core::vra::Vra;
/// use vod_obs::RingRecorder;
/// use vod_workload::scenario::Scenario;
///
/// let scenario = Scenario::grnet_case_study(42);
/// let service = VodService::with_sink(
///     &scenario,
///     Box::new(Vra::default()),
///     ServiceConfig::default(),
///     RingRecorder::new(4096),
/// );
/// let (report, recorder) = service.run_full();
/// println!("{} events retained", recorder.len());
/// println!("{} sessions completed", report.completed.len());
/// ```
pub struct VodService<S: EventSink = NullSink> {
    sim: Simulation<ServiceModel<S>>,
}

impl VodService {
    /// Builds an untraced service (the [`NullSink`] compiles every
    /// emission site away) over a scenario with the given selector
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's topology has no video servers, or if the
    /// configured per-server disk space cannot hold the seeded titles.
    /// Use [`VodService::try_new`] for fallible construction.
    pub fn new(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
    ) -> Self {
        VodService::with_sink(scenario, selector, config, NullSink)
    }

    /// Fallible variant of [`VodService::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unusable scenario or
    /// configuration, [`CoreError::Db`] for database seeding failures.
    pub fn try_new(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
    ) -> Result<Self, CoreError> {
        VodService::try_with_sink(scenario, selector, config, NullSink)
    }
}

impl<S: EventSink> VodService<S> {
    /// Builds a service over a scenario with the given selector policy,
    /// recording trace events into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's topology has no video servers, or if the
    /// configured per-server disk space cannot hold the seeded titles.
    /// Use [`VodService::try_with_sink`] for fallible construction.
    pub fn with_sink(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
        sink: S,
    ) -> Self {
        match VodService::try_with_sink(scenario, selector, config, sink) {
            Ok(service) => service,
            #[expect(
                clippy::disallowed_macros,
                reason = "config validation: `invalid service setup` stops the run (`try_with_sink` is the typed path); ROADMAP 4(a)"
            )]
            Err(e) => panic!("invalid service setup: {e}"),
        }
    }

    /// Builds a service over a scenario with the given selector policy,
    /// recording trace events into `sink`.
    ///
    /// Titles are seeded round-robin ([`ServiceConfig::initial_replicas`]
    /// copies each) across the video servers — the paper's service
    /// initialization, where each participant contributes its available
    /// titles — and both the DMA caches and the database start from that
    /// placement.
    ///
    /// With an enabled sink the trace opens with replay metadata (the
    /// topology, the run knobs, each server's cache sizing and the seeded
    /// placement), making it self-contained for `vod-check audit`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the topology has no
    /// video servers, `snmp_interval` or `background_interval` is zero,
    /// `local_rate` or the prefix tier's `proxy_rate` is not a positive
    /// finite rate,
    /// the scenario's background model covers a different number of
    /// links than its topology, a DMA cache cannot be built, the seeded
    /// titles do not fit the configured disks, or the failure schedule
    /// is malformed; [`CoreError::Db`] when database seeding fails.
    pub fn try_with_sink(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
        mut sink: S,
    ) -> Result<Self, CoreError> {
        let topology = scenario.topology().clone();
        let servers = topology.video_server_nodes();
        if servers.is_empty() {
            return Err(CoreError::InvalidConfig(
                "topology has no video servers".into(),
            ));
        }
        // A recurring tick re-arms itself one interval ahead: a zero
        // interval would never let simulated time move on.
        for (field, interval) in [
            ("snmp_interval", config.snmp_interval),
            ("background_interval", config.background_interval),
        ] {
            if interval.is_zero() {
                return Err(CoreError::InvalidConfig(format!(
                    "{field} must be positive"
                )));
            }
        }
        // A local serve is a timer of `volume / rate`: a rate that is
        // not a positive number has no instant to fire at.
        let proxy_rate = config.prefix_tier.map(|tier| tier.proxy_rate);
        for (field, rate) in [
            ("local_rate", Some(config.local_rate)),
            ("proxy_rate", proxy_rate),
        ] {
            if let Some(rate) = rate.map(Mbps::as_f64) {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(CoreError::InvalidConfig(format!(
                        "{field} must be a positive finite rate, got {rate} Mbps"
                    )));
                }
            }
        }
        let (profiled, links) = (scenario.background().link_count(), topology.link_count());
        if profiled != links {
            return Err(CoreError::InvalidConfig(format!(
                "scenario background covers {profiled} links, its topology has {links}"
            )));
        }

        let start = scenario
            .trace()
            .requests()
            .first()
            .map(|r| r.at)
            .unwrap_or(SimTime::ZERO);
        let end = scenario
            .trace()
            .requests()
            .last()
            .map(|r| r.at)
            .unwrap_or(SimTime::ZERO);

        // Trace preamble: everything an auditor needs to replay the run's
        // decisions without the scenario object.
        if sink.enabled() {
            let nodes: Vec<(String, bool)> = topology
                .nodes()
                .map(|n| (n.name().to_string(), n.is_video_server()))
                .collect();
            let links: Vec<(NodeId, NodeId, f64)> = topology
                .links()
                .map(|l| (l.a(), l.b(), l.capacity().as_f64()))
                .collect();
            sink.record(start, &ObsEvent::TopologySnapshot { nodes, links });
            sink.record(
                start,
                &ObsEvent::RunConfig {
                    selector: selector.name().to_string(),
                    dynamic_rerouting: config.dynamic_rerouting,
                    snmp_smoothing: config.snmp_smoothing,
                    lvn_normalization: selector.lvn_params().map(|p| p.normalization_constant),
                    retry_max_attempts: config.retry.max_attempts,
                    retry_backoff_us: config.retry.backoff.as_micros(),
                    retry_stall_budget_us: config.retry.stall_budget.as_micros(),
                },
            );
            for &server in &servers {
                sink.record(
                    start,
                    &ObsEvent::CacheConfig {
                        server,
                        disks: config.disk_count as u64,
                        capacity_mb: config.disk_capacity.as_f64(),
                        cluster_mb: config.cluster.megabytes().as_f64(),
                        admit_threshold: config.dma_admit_threshold,
                    },
                );
            }
            if let Some(tier) = &config.prefix_tier {
                for &server in &servers {
                    sink.record(
                        start,
                        &ObsEvent::PrefixCacheConfig {
                            server,
                            capacity_mb: tier.capacity.as_f64(),
                            cluster_mb: config.cluster.megabytes().as_f64(),
                            admit_threshold: tier.admit_threshold,
                            base_clusters: tier.base_clusters as u64,
                            max_clusters: tier.max_clusters as u64,
                            growth_points: tier.growth_points,
                        },
                    );
                }
            }
        }

        let mut db = Database::from_topology(&topology, scenario.library().clone());

        // Per-server DMA caches.
        let mut caches: BTreeMap<NodeId, DmaCache> = BTreeMap::new();
        for &n in &servers {
            let cache = DmaCache::new(DmaConfig {
                disk_count: config.disk_count,
                disk_capacity: config.disk_capacity,
                cluster_size: config.cluster,
                admit_threshold: config.dma_admit_threshold,
                eviction: config.dma_eviction,
            })
            .map_err(|e| CoreError::InvalidConfig(format!("unusable DMA configuration: {e}")))?;
            caches.insert(n, cache);
        }

        // Per-proxy prefix stores (tier enabled only; starts cold —
        // prefixes are earned by demand, never seeded).
        let mut prefix_stores: BTreeMap<NodeId, PrefixStore> = BTreeMap::new();
        if let Some(tier) = &config.prefix_tier {
            for &n in &servers {
                let store = PrefixStore::new(tier.store_config(config.cluster)).map_err(|e| {
                    CoreError::InvalidConfig(format!("unusable prefix tier configuration: {e}"))
                })?;
                prefix_stores.insert(n, store);
            }
        }

        // Service initialization: seed titles round-robin.
        let titles: Vec<VideoMeta> = scenario.library().iter().cloned().collect();
        {
            let mut la = db.limited_access();
            let replicas = config.initial_replicas.clamp(1, servers.len());
            for (i, video) in titles.iter().enumerate() {
                for k in 0..replicas {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "`% servers.len()` keeps the index in range, and `servers` is non-empty"
                    )]
                    let server = servers[(i + k) % servers.len()];
                    let Some(cache) = caches.get_mut(&server) else {
                        continue;
                    };
                    let layout = cache.preload(video).map_err(|e| {
                        CoreError::InvalidConfig(format!(
                            "seeded titles must fit the configured disks: {e}"
                        ))
                    })?;
                    la.add_title(server, video.id())?;
                    if sink.enabled() {
                        sink.record(
                            start,
                            &ObsEvent::DmaSeed {
                                server,
                                video: video.id(),
                                size_mb: video.size().as_f64(),
                                parts: layout.parts() as u64,
                            },
                        );
                    }
                }
            }
        }

        let mut flows = FlowNetwork::new(topology.clone());
        scenario.background().apply(&mut flows, start);

        let mut snmp = SnmpSystem::new(&topology, config.snmp_interval);
        snmp.reset_epoch(start);

        // Bootstrap reading: the service has been polling before our
        // window opens, so seed the database with the instantaneous state.
        {
            let mut la = db.limited_access();
            for link in topology.link_ids() {
                let load = flows.link_total_load(link);
                let capacity = topology.link(link).capacity();
                let util = if capacity.is_zero() {
                    vod_net::units::Fraction::ZERO
                } else {
                    vod_net::units::Fraction::new(load / capacity)
                };
                la.record_reading(link, start, load, util)?;
            }
        }

        // The report's sample lists are sized once, for the most they can
        // hold: a record per request, a utilization sample per SNMP poll
        // up to the recurring deadline (the interval is non-zero, checked
        // above). Grown by doubling instead, each outgrown buffer is freed
        // into the allocator, where it stays resident. Unused capacity is
        // never touched, so it costs address space, not memory.
        let recurring_deadline = end + DRAIN_GRACE;
        let polls =
            recurring_deadline.duration_since(start).as_micros() / config.snmp_interval.as_micros();
        let polls = usize::try_from(polls).unwrap_or(0);
        let live_snap = flows.snapshot();
        let model = ServiceModel {
            recurring_deadline,
            topology,
            flows,
            db_snap_cache: None,
            live_snap,
            snmp,
            db,
            caches,
            selector,
            background: scenario.background().clone(),
            trace: scenario.trace().clone(),
            next_arrival: 0,
            titles,
            sessions: IdWindow::new(),
            flow_owner: IdWindow::new(),
            candidates: Vec::new(),
            prefix_stores,
            down: BTreeMap::new(),
            link_down: BTreeMap::new(),
            degrade: BTreeMap::new(),
            snmp_outages: 0,
            link_admin_epoch: 0,
            retired_dma: DmaStats::default(),
            retired_prefix: PrefixStats::default(),
            prefix_served_clusters: 0,
            prefix_served_mbit: 0.0,
            full_prefix_sessions: 0,
            records: Vec::with_capacity(scenario.trace().len()),
            failed_requests: 0,
            rejected_requests: 0,
            aborted_sessions: 0,
            next_session: 0,
            last_sync: start,
            scheduled_check: None,
            done_scratch: Vec::new(),
            peak_sessions: 0,
            ticks: TickStats::default(),
            max_util_samples: Vec::with_capacity(polls),
            mean_util_samples: Vec::with_capacity(polls),
            seed: scenario.seed(),
            config,
            sink,
        };

        // Arrivals are the model's input lane; only the recurring ticks
        // and the fault plan are seeded.
        let mut sim = Simulation::new(model);
        let (snmp_next, bg_next) = {
            let m = sim.model();
            (
                start + m.config.snmp_interval,
                start + m.config.background_interval,
            )
        };
        sim.scheduler_mut().schedule(snmp_next, Event::SnmpPoll);
        sim.scheduler_mut()
            .schedule(bg_next, Event::BackgroundUpdate);
        // Scheduled faults.
        let plan = sim.model().config.fault_plan.clone();
        plan.validate(&sim.model().topology)
            .map_err(|e| CoreError::InvalidConfig(format!("invalid fault plan: {e}")))?;
        for window in plan.windows() {
            let (start_ev, end_ev) = match window.kind {
                FaultKind::ServerOutage { node } => {
                    if !sim.model().caches.contains_key(&node) {
                        return Err(CoreError::InvalidConfig(
                            "only video servers can fail".into(),
                        ));
                    }
                    (Event::ServerDown(node), Event::ServerUp(node))
                }
                FaultKind::LinkOutage { link } => (Event::LinkDown(link), Event::LinkUp(link)),
                FaultKind::LinkDegrade { link, factor } => (
                    Event::DegradeStart(link, factor),
                    Event::DegradeEnd(link, factor),
                ),
                FaultKind::SnmpOutage => (Event::SnmpOutageStart, Event::SnmpOutageEnd),
            };
            sim.scheduler_mut().schedule(window.start, start_ev);
            sim.scheduler_mut().schedule(window.end, end_ev);
        }
        Ok(VodService { sim })
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> ServiceReport {
        self.run_full().0
    }

    /// Runs the simulation to completion and returns the report and the
    /// sink with its recorded trace. The sink never changes the report.
    pub fn run_full(mut self) -> (ServiceReport, S) {
        self.sim.run();
        let scheduler = self.sim.scheduler_stats();
        self.sim.into_model().into_report_full(scheduler)
    }

    /// Runs until `deadline` only (for incremental inspection in tests).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Runs until the event queue drains, keeping the service
    /// inspectable (unlike [`VodService::run`], which consumes it).
    pub fn run_to_end(&mut self) {
        self.sim.run();
    }

    /// The instant of the earliest pending event, or `None` once the
    /// run has drained.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.sim.peek_time()
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.sim.model().sessions.len()
    }

    /// High-water mark of concurrently live sessions so far.
    pub fn peak_sessions(&self) -> usize {
        self.sim.model().peak_sessions
    }

    /// Finishes immediately with whatever has completed (for tests).
    pub fn into_report(self) -> ServiceReport {
        let scheduler = self.sim.scheduler_stats();
        self.sim.into_model().into_report_full(scheduler).0
    }
}
