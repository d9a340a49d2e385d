//! Tunables of a service run: [`ServiceConfig`] and the policies it
//! embeds.

use vod_net::Mbps;
use vod_sim::fault::FaultPlan;
use vod_sim::SimDuration;
use vod_storage::cluster::ClusterSize;
use vod_storage::dma::EvictionMode;
use vod_storage::prefix::PrefixConfig;
use vod_storage::video::Megabytes;

/// Session retry policy: how a session survives a transient fetch
/// failure (dead source, unreachable replica) instead of aborting on the
/// spot.
///
/// With `max_attempts = 0` (the default) every fetch failure aborts the
/// session immediately — the pre-retry behaviour. With a nonzero budget
/// the session re-runs the selector after a deterministic sim-time
/// backoff (`attempt × backoff`, linear), aborting only when the attempt
/// budget is exhausted or the next re-attempt would overrun the stall
/// budget measured from the first failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Bounded number of re-attempts per failure episode (0 = abort
    /// instantly).
    pub max_attempts: u32,
    /// Base backoff; attempt `n` waits `n × backoff` before re-selecting.
    pub backoff: SimDuration,
    /// Ceiling on the whole episode: a re-attempt that would land after
    /// `first_failure + stall_budget` aborts instead.
    pub stall_budget: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 0,
            backoff: SimDuration::from_secs(2),
            stall_budget: SimDuration::from_mins(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that retries up to `max_attempts` times with the default
    /// backoff and stall budget.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }
}

/// Tunables of the regional prefix-caching tier: every video-server
/// node doubles as a regional proxy holding popularity-sized title
/// *prefixes*. A request whose prefix is resident streams its leading
/// clusters from the proxy at local rate while the VRA concurrently
/// fetches the suffix from the selected origin — startup no longer
/// waits on the backbone, and the prefix volume never crosses it.
///
/// Disabled (`ServiceConfig::prefix_tier = None`) the service is
/// byte-identical to the paper-exact pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixTierConfig {
    /// Prefix space per proxy.
    pub capacity: Megabytes,
    /// Points a title must *exceed* before its prefix is admitted.
    pub admit_threshold: u64,
    /// Prefix length granted at admission, in clusters.
    pub base_clusters: u32,
    /// Popularity-driven ceiling on any prefix length, in clusters.
    pub max_clusters: u32,
    /// Additional points per additional cluster of prefix (0 = prefixes
    /// never grow past `base_clusters`).
    pub growth_points: u64,
    /// Rate at which a proxy streams prefix clusters to its clients
    /// (the regional access loop, not the backbone).
    pub proxy_rate: Mbps,
}

impl Default for PrefixTierConfig {
    fn default() -> Self {
        let store = PrefixConfig::default();
        PrefixTierConfig {
            capacity: store.capacity,
            admit_threshold: store.admit_threshold,
            base_clusters: store.base_clusters,
            max_clusters: store.max_clusters,
            growth_points: store.growth_points,
            proxy_rate: Mbps::new(100.0),
        }
    }
}

impl PrefixTierConfig {
    /// The per-proxy store configuration (the service's cluster size is
    /// also the prefix granularity).
    pub(super) fn store_config(&self, cluster: ClusterSize) -> PrefixConfig {
        PrefixConfig {
            capacity: self.capacity,
            cluster_size: cluster,
            admit_threshold: self.admit_threshold,
            base_clusters: self.base_clusters,
            max_clusters: self.max_clusters,
            growth_points: self.growth_points,
        }
    }
}

/// Hard stop for recurring events after the last arrival (stalled
/// zero-rate sessions past this point are reported as unfinished).
pub(super) const DRAIN_GRACE: SimDuration = SimDuration::from_secs(24 * 3600);

/// Tunables of a service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The common cluster size `c` (also the DMA stripe cluster).
    pub cluster: ClusterSize,
    /// Re-run the selector before every cluster (the paper's dynamic
    /// mid-stream switching); `false` = select once per session.
    pub dynamic_rerouting: bool,
    /// SNMP polling interval (the paper suggests 1–2 minutes).
    pub snmp_interval: SimDuration,
    /// How often diurnal background traffic is re-applied to the network.
    pub background_interval: SimDuration,
    /// Ceiling on the rate at which a home server streams from its own
    /// disks (bus/NIC bound); the actual local rate is the smaller of
    /// this and the striped disk throughput of the title's layout.
    pub local_rate: Mbps,
    /// Disks per video server.
    pub disk_count: usize,
    /// VoD space per disk.
    pub disk_capacity: Megabytes,
    /// DMA admission threshold (0 = Figure 2 verbatim).
    pub dma_admit_threshold: u64,
    /// DMA eviction mode.
    pub dma_eviction: EvictionMode,
    /// Initial copies of each title, placed round-robin across servers.
    pub initial_replicas: usize,
    /// Optional admission control enforcing the paper's "minimum QoS"
    /// floor: a request is only admitted when the selected route has
    /// bitrate headroom (`None` = admit everything, as the paper's
    /// routing-only design does).
    pub admission: Option<crate::admission::AdmissionPolicy>,
    /// Optional EWMA smoothing of the SNMP view the selector sees
    /// (`Some(alpha)`, `alpha ∈ (0, 1]`): routing decisions use the
    /// moving average of each link's reading history instead of the
    /// latest poll — an anti-thrash ablation for the staleness problem.
    pub snmp_smoothing: Option<f64>,
    /// Deterministic fault-injection plan (link outages and flaps,
    /// bandwidth degradation, SNMP-poller outages, server crashes).
    /// While a server is down it provides no titles (its catalog
    /// entries are withdrawn, its cache is cold on recovery) and
    /// in-flight transfers from it are re-routed — the "dynamic
    /// adjustment to server configuration changes" the paper advertises.
    pub fault_plan: FaultPlan,
    /// How sessions respond to transient fetch failures (default:
    /// instant abort, the pre-retry behaviour).
    pub retry: RetryPolicy,
    /// Optional regional prefix-caching tier (`None` = paper-exact:
    /// every cluster comes from the selected origin server).
    pub prefix_tier: Option<PrefixTierConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cluster: ClusterSize::default(),
            dynamic_rerouting: true,
            snmp_interval: SimDuration::from_mins(2),
            background_interval: SimDuration::from_mins(1),
            local_rate: Mbps::new(100.0),
            disk_count: 4,
            disk_capacity: Megabytes::new(20_000.0),
            dma_admit_threshold: 0,
            dma_eviction: EvictionMode::SingleAttempt,
            initial_replicas: 1,
            admission: None,
            snmp_smoothing: None,
            fault_plan: FaultPlan::new(),
            retry: RetryPolicy::default(),
            prefix_tier: None,
        }
    }
}
