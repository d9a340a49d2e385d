//! Folding a finished model into its [`ServiceReport`].

use vod_net::NodeId;
use vod_obs::EventSink;
use vod_sim::SchedulerStats;
use vod_storage::dma::DmaStats;

use super::model::ServiceModel;
use crate::qos::{PrefixTierReport, ServiceReport};

impl<S: EventSink> ServiceModel<S> {
    /// Builds the final [`ServiceReport`] and hands back the sink for
    /// callers that want its recording
    /// ([`VodService::run_full`](super::VodService::run_full)). The
    /// scheduler's counters live with the engine, not the model, so the
    /// caller passes them in.
    pub(super) fn into_report_full(self, scheduler: SchedulerStats) -> (ServiceReport, S) {
        let (mut dma, mut prefix_stats) = self.retired;
        let per_server_dma: Vec<(NodeId, DmaStats)> = self
            .stores
            .iter()
            .map(|(&node, store)| (node, store.dma.stats()))
            .collect();
        for &(_, stats) in &per_server_dma {
            dma += stats;
        }
        for prefix in self.stores.values().filter_map(|s| s.prefix.as_ref()) {
            prefix_stats += prefix.stats();
        }
        let prefix = self.config.prefix_tier.map(|_| PrefixTierReport {
            stats: prefix_stats,
            served_clusters: self.prefix_served_clusters,
            served_mbit: self.prefix_served_mbit,
            full_prefix_sessions: self.full_prefix_sessions,
        });
        // Sized for every request at construction; the report keeps only
        // what completed.
        let mut completed = self.records;
        completed.shrink_to_fit();
        let report = ServiceReport {
            selector: self.selector.name().to_string(),
            seed: self.seed,
            completed,
            failed_requests: self.failed_requests,
            aborted_sessions: self.aborted_sessions,
            rejected_requests: self.rejected_requests,
            unfinished_sessions: self.sessions.len(),
            max_link_utilization: self.max_util_samples.summary(),
            mean_link_utilization: self.mean_util_samples.summary(),
            dma,
            per_server_dma,
            engine: self.selector.engine_stats(),
            kernel: self.flows.stats(),
            scheduler,
            ticks: self.ticks,
            snmp_polls: self.snmp.polls(),
            prefix,
        };
        (report, self.sink)
    }
}
