//! Quality-of-service records and experiment reports.
//!
//! The paper's goal is "to provide a minimum QoS, which should be equal to
//! the minimum video frame rate for which a video can be considered
//! decent". Operationally that means: playout starts quickly, never
//! starves, and switching servers mid-stream is rare enough not to hurt.
//! [`QosRecord`] captures those quantities per session and
//! [`ServiceReport`] aggregates them per experiment.

use serde::Serialize;

use vod_net::{EngineStats, NodeId};
use vod_sim::metrics::Summary;
use vod_sim::{KernelStats, SchedulerStats, SimDuration, SimTime};
use vod_storage::dma::DmaStats;
use vod_storage::prefix::PrefixStats;
use vod_storage::video::VideoId;

use crate::session::SessionId;

/// Per-session quality-of-service outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QosRecord {
    /// The session.
    pub session: SessionId,
    /// The video watched.
    pub video: VideoId,
    /// The client's home server.
    pub home: NodeId,
    /// Request arrival time.
    pub requested_at: SimTime,
    /// Playback completion time.
    pub completed_at: SimTime,
    /// Request → first cluster available.
    pub startup_delay: SimDuration,
    /// Number of playout stalls.
    pub stall_count: u32,
    /// Total stalled time.
    pub stall_time: SimDuration,
    /// Server switches: every change of source after the first
    /// assignment, including one before playout starts (a retry
    /// re-routing cluster 0, or a prefix session's origin taking over
    /// from the proxy).
    pub switches: u32,
    /// Number of clusters in the video.
    pub clusters: usize,
    /// Clusters served from the home server's own disks.
    pub local_clusters: usize,
    /// Ideal playback duration at nominal bitrate (no startup, no stalls).
    pub nominal_duration: SimDuration,
}

impl QosRecord {
    /// Stalled time as a fraction of nominal duration.
    pub fn stall_ratio(&self) -> f64 {
        let nominal = self.nominal_duration.as_secs_f64();
        if nominal <= 0.0 {
            0.0
        } else {
            self.stall_time.as_secs_f64() / nominal
        }
    }

    /// Fraction of clusters served locally.
    pub fn local_fraction(&self) -> f64 {
        if self.clusters == 0 {
            0.0
        } else {
            self.local_clusters as f64 / self.clusters as f64
        }
    }

    /// True when playback never starved and started within `threshold`.
    pub fn is_smooth(&self, startup_threshold: SimDuration) -> bool {
        self.stall_count == 0 && self.startup_delay <= startup_threshold
    }
}

/// Aggregated outcome of the regional prefix-caching tier over one run
/// (present only when [`crate::service::ServiceConfig::prefix_tier`] is
/// enabled).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PrefixTierReport {
    /// Store decisions aggregated over every proxy (including stores
    /// retired by server failures).
    pub stats: PrefixStats,
    /// Clusters streamed to clients by the proxies.
    pub served_clusters: u64,
    /// Megabits streamed by the proxies — traffic the backbone never
    /// carried (the origin-offload volume).
    pub served_mbit: f64,
    /// Sessions whose title was fully covered by a resident prefix, so
    /// no origin fetch (and no origin dependency) existed at all.
    pub full_prefix_sessions: u64,
}

impl PrefixTierReport {
    /// Fraction of requests answered from a resident prefix.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }
}

/// Work counters of the periodic path — what a run's recurring ticks
/// did, not what they computed. Exact per seed: no clock is read.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize)]
pub struct TickStats {
    /// SNMP poll ticks handled, those a poller outage skipped included.
    pub polls: u64,
    /// Utilization readings the polls inserted into the database: per
    /// executed poll, one for every (agent, adjacent link) pair.
    pub readings: u64,
    /// Background-refresh ticks handled.
    pub refreshes: u64,
    /// Refreshes that found no network flow live: an idle backbone,
    /// whose settle has no class to fill and no flow to re-rate.
    pub idle_refreshes: u64,
}

/// Aggregated outcome of one service run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceReport {
    /// Selector policy that produced this run.
    pub selector: String,
    /// Seed the run derived from.
    pub seed: u64,
    /// Per-session records for sessions that completed playback.
    pub completed: Vec<QosRecord>,
    /// Requests that could not be served at admission time (unknown
    /// title, dead home server, or no candidate replica).
    pub failed_requests: u64,
    /// Sessions that started streaming but were dropped mid-stream
    /// (server/link failure with the retry budget exhausted).
    pub aborted_sessions: u64,
    /// Requests turned away by admission control (QoS floor protection).
    pub rejected_requests: u64,
    /// Sessions still unfinished when the simulation drained.
    pub unfinished_sessions: usize,
    /// Summary of per-poll maximum link utilization (instantaneous),
    /// streamed: `count`, `min` and `max` are exact, `mean` is the
    /// running sum in poll order over the count, and the quantiles are
    /// histogram estimates at most 1/64 (relative) above the exact ones
    /// (see [`Histogram::summary`](vod_sim::metrics::Histogram::summary)).
    pub max_link_utilization: Summary,
    /// Summary of per-poll mean link utilization (instantaneous),
    /// streamed like [`ServiceReport::max_link_utilization`].
    pub mean_link_utilization: Summary,
    /// Aggregated DMA statistics over all servers.
    pub dma: DmaStats,
    /// Per-server DMA statistics at the end of the run, ascending by
    /// node id. Servers that were down at the end are absent (their
    /// counters are folded into [`ServiceReport::dma`] only).
    pub per_server_dma: Vec<(NodeId, DmaStats)>,
    /// Routing-engine cache/rebuild counters, for selectors backed by
    /// the epoch-cached engine (`None` for the baselines).
    pub engine: Option<EngineStats>,
    /// Flow-kernel work counters: what the run's max-min reallocations
    /// and completion checks cost.
    pub kernel: KernelStats,
    /// Event-scheduler work counters: arrivals taken from the trace
    /// (`inputs`), everything else pushed and popped, and how deep the
    /// queue got — which follows the live sessions, not the trace.
    pub scheduler: SchedulerStats,
    /// Periodic-path work counters: polls, readings written, background
    /// refreshes and how many of them found the backbone idle.
    pub ticks: TickStats,
    /// SNMP polling rounds executed during the run.
    pub snmp_polls: u64,
    /// Regional prefix-tier outcome (`None` when the tier is disabled —
    /// the paper-exact configuration).
    pub prefix: Option<PrefixTierReport>,
}

impl ServiceReport {
    /// Summary of startup delays (seconds).
    pub fn startup_summary(&self) -> Summary {
        Summary::from_values(self.completed.iter().map(|r| r.startup_delay.as_secs_f64()))
    }

    /// Mean stall ratio across completed sessions.
    pub fn mean_stall_ratio(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(QosRecord::stall_ratio)
            .sum::<f64>()
            / self.completed.len() as f64
    }

    /// Fraction of completed sessions with at least one stall.
    pub fn stalled_session_fraction(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed.iter().filter(|r| r.stall_count > 0).count() as f64
            / self.completed.len() as f64
    }

    /// Mean server switches per completed session (see
    /// [`QosRecord::switches`] for what counts as one).
    pub fn mean_switches(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(|r| r.switches as f64)
            .sum::<f64>()
            / self.completed.len() as f64
    }

    /// Mean fraction of clusters served locally.
    pub fn mean_local_fraction(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(QosRecord::local_fraction)
            .sum::<f64>()
            / self.completed.len() as f64
    }

    /// Startup-delay summary per home server (the per-city breakdown of
    /// the case study: clients behind congested access links wait
    /// longest).
    pub fn per_home_startup(&self) -> std::collections::BTreeMap<NodeId, Summary> {
        let mut buckets: std::collections::BTreeMap<NodeId, Vec<f64>> =
            std::collections::BTreeMap::new();
        for r in &self.completed {
            buckets
                .entry(r.home)
                .or_default()
                .push(r.startup_delay.as_secs_f64());
        }
        buckets
            .into_iter()
            .map(|(home, values)| (home, Summary::from_values(values)))
            .collect()
    }

    /// Fraction of sessions that were smooth per
    /// [`QosRecord::is_smooth`].
    pub fn smooth_fraction(&self, startup_threshold: SimDuration) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .filter(|r| r.is_smooth(startup_threshold))
            .count() as f64
            / self.completed.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(startup: u64, stalls: u32, stall_secs: u64, switches: u32) -> QosRecord {
        QosRecord {
            session: SessionId(0),
            video: VideoId::new(0),
            home: NodeId::new(0),
            requested_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(1_000),
            startup_delay: SimDuration::from_secs(startup),
            stall_count: stalls,
            stall_time: SimDuration::from_secs(stall_secs),
            switches,
            clusters: 10,
            local_clusters: 5,
            nominal_duration: SimDuration::from_secs(1_000),
        }
    }

    fn report(records: Vec<QosRecord>) -> ServiceReport {
        ServiceReport {
            selector: "vra".into(),
            seed: 0,
            completed: records,
            failed_requests: 0,
            aborted_sessions: 0,
            rejected_requests: 0,
            unfinished_sessions: 0,
            max_link_utilization: Summary::from_values(std::iter::empty()),
            mean_link_utilization: Summary::from_values(std::iter::empty()),
            dma: DmaStats::default(),
            per_server_dma: Vec::new(),
            engine: None,
            kernel: KernelStats::default(),
            scheduler: SchedulerStats::default(),
            ticks: TickStats::default(),
            snmp_polls: 0,
            prefix: None,
        }
    }

    #[test]
    fn record_derived_metrics() {
        let r = record(5, 2, 100, 1);
        assert!((r.stall_ratio() - 0.1).abs() < 1e-12);
        assert!((r.local_fraction() - 0.5).abs() < 1e-12);
        assert!(!r.is_smooth(SimDuration::from_secs(10)));
        let smooth = record(1, 0, 0, 0);
        assert!(smooth.is_smooth(SimDuration::from_secs(10)));
        assert!(!smooth.is_smooth(SimDuration::ZERO));
    }

    #[test]
    fn report_aggregates() {
        let rep = report(vec![
            record(2, 0, 0, 0),
            record(4, 1, 50, 2),
            record(6, 0, 0, 1),
        ]);
        let startup = rep.startup_summary();
        assert_eq!(startup.count, 3);
        assert!((startup.mean - 4.0).abs() < 1e-12);
        assert!((rep.mean_stall_ratio() - 0.05 / 3.0).abs() < 1e-12);
        assert!((rep.stalled_session_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((rep.mean_switches() - 1.0).abs() < 1e-12);
        assert!((rep.mean_local_fraction() - 0.5).abs() < 1e-12);
        assert!((rep.smooth_fraction(SimDuration::from_secs(10)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_home_breakdown_buckets_by_home() {
        let mut r1 = record(2, 0, 0, 0);
        r1.home = NodeId::new(1);
        let mut r2 = record(4, 0, 0, 0);
        r2.home = NodeId::new(1);
        let mut r3 = record(10, 0, 0, 0);
        r3.home = NodeId::new(2);
        let rep = report(vec![r1, r2, r3]);
        let per_home = rep.per_home_startup();
        assert_eq!(per_home.len(), 2);
        assert_eq!(per_home[&NodeId::new(1)].count, 2);
        assert!((per_home[&NodeId::new(1)].mean - 3.0).abs() < 1e-12);
        assert!((per_home[&NodeId::new(2)].mean - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let rep = report(vec![]);
        assert_eq!(rep.startup_summary().count, 0);
        assert_eq!(rep.mean_stall_ratio(), 0.0);
        assert_eq!(rep.mean_switches(), 0.0);
        assert_eq!(rep.smooth_fraction(SimDuration::ZERO), 0.0);
    }
}
