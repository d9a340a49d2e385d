//! Request arrival: the DMA and prefix-store decisions at the home
//! server (with their trace events), admission control, and the opening
//! of the session.

use vod_net::NodeId;
use vod_obs::{Event as ObsEvent, EventSink};
use vod_sim::scheduler::Scheduler;
use vod_sim::SimTime;
use vod_storage::dma::DmaDecision;
use vod_storage::prefix::PrefixDecision;
use vod_storage::video::VideoId;

use super::model::{find_title, title, Event, ServiceModel};

impl<S: EventSink> ServiceModel<S> {
    /// Runs the prefix store at `server` for one request, emitting the
    /// decision's trace events (mirroring `emit_dma_decision`), and
    /// returns how many leading clusters the proxy will stream for this
    /// session (0 = prefix miss or tier disabled). `video` is a library
    /// title.
    fn prefix_decision(&mut self, now: SimTime, server: NodeId, video: VideoId) -> usize {
        let Some(store) = self.prefix_stores.get_mut(&server) else {
            return 0;
        };
        let decision = store.on_request(title(&self.titles, video));
        let serve = decision.serve_clusters() as usize;
        if !self.sink.enabled() {
            return serve;
        }
        let occupancy_mb = store.occupied_mb();
        let stored_mb = store.resident_mb(video);
        use vod_obs::DmaRejectKind;
        use vod_storage::prefix::PrefixRejectReason;
        match &decision {
            PrefixDecision::Hit { clusters } => {
                self.sink.record(
                    now,
                    &ObsEvent::PrefixHit {
                        server,
                        video,
                        clusters: *clusters as u64,
                    },
                );
            }
            PrefixDecision::HitExtended {
                from_clusters,
                to_clusters,
            } => {
                // The hit reports the served (pre-extension) length; the
                // extension itself is a separate, auditable event.
                self.sink.record(
                    now,
                    &ObsEvent::PrefixHit {
                        server,
                        video,
                        clusters: *from_clusters as u64,
                    },
                );
                self.sink.record(
                    now,
                    &ObsEvent::PrefixExtend {
                        server,
                        video,
                        from_clusters: *from_clusters as u64,
                        to_clusters: *to_clusters as u64,
                        occupancy_mb,
                    },
                );
            }
            PrefixDecision::Admitted { clusters } => {
                self.sink.record(
                    now,
                    &ObsEvent::PrefixAdmit {
                        server,
                        video,
                        after_eviction: false,
                        clusters: *clusters as u64,
                        size_mb: stored_mb,
                        occupancy_mb,
                    },
                );
            }
            PrefixDecision::AdmittedAfterEviction { evicted, clusters } => {
                for eviction in evicted {
                    self.sink.record(
                        now,
                        &ObsEvent::PrefixEvict {
                            server,
                            victim: eviction.victim,
                            freed_mb: eviction.freed_mb,
                        },
                    );
                }
                self.sink.record(
                    now,
                    &ObsEvent::PrefixAdmit {
                        server,
                        video,
                        after_eviction: true,
                        clusters: *clusters as u64,
                        size_mb: stored_mb,
                        occupancy_mb,
                    },
                );
            }
            PrefixDecision::NotAdmitted { reason } => {
                let kind = match reason {
                    PrefixRejectReason::BelowThreshold => DmaRejectKind::BelowThreshold,
                    PrefixRejectReason::NotPopularEnough => DmaRejectKind::NotPopularEnough,
                    PrefixRejectReason::DoesNotFit => DmaRejectKind::DoesNotFit,
                    // PrefixRejectReason is #[non_exhaustive].
                    _ => return serve,
                };
                self.sink.record(
                    now,
                    &ObsEvent::PrefixReject {
                        server,
                        video,
                        reason: kind,
                    },
                );
            }
            // PrefixDecision is #[non_exhaustive].
            _ => {}
        }
        serve
    }

    pub(super) fn on_arrival(&mut self, now: SimTime, idx: usize, sched: &mut Scheduler<Event>) {
        #[expect(
            clippy::indexing_slicing,
            reason = "an arrival's `idx` is a position in the trace the input lane walks"
        )]
        let request = self.trace.requests()[idx];
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::RequestArrival {
                    request: idx as u64,
                    client: request.client,
                    video: request.video,
                },
            );
        }
        // A client whose home server is down cannot reach the service.
        if self.down.contains_key(&request.client) {
            self.fail_request(now, idx, request.client);
            return;
        }
        let Some(meta) = find_title(&self.titles, request.video) else {
            self.fail_request(now, idx, request.client);
            return;
        };
        let (video, size) = (meta.id(), meta.size());

        // The Disk Manipulation Algorithm runs at the home server on
        // every request.
        let mut cache_later = false;
        let decision = self
            .caches
            .get_mut(&request.client)
            .map(|cache| cache.on_request(meta));
        if let Some(decision) = decision {
            if self.sink.enabled() {
                self.emit_dma_decision(now, request.client, video, size.as_f64(), &decision);
            }
            match decision {
                DmaDecision::Hit => {}
                DmaDecision::Admitted { .. } => {
                    cache_later = true;
                }
                DmaDecision::AdmittedAfterEviction { evicted, .. } => {
                    cache_later = true;
                    self.withdraw_titles(now, request.client, &evicted);
                }
                DmaDecision::NotAdmitted {
                    reason: vod_storage::dma::RejectReason::DoesNotFit { evicted },
                } => {
                    self.withdraw_titles(now, request.client, &evicted);
                }
                DmaDecision::NotAdmitted { .. } => {}
                // DmaDecision is #[non_exhaustive]; future variants are
                // treated as "no catalog change".
                _ => {}
            }
        }

        // The regional proxy's prefix store also sees every request
        // (only when the tier is enabled — the map is empty otherwise).
        let prefix_serve = self.prefix_decision(now, request.client, video);

        // A prefix covering the whole title streams entirely from the
        // proxy: no origin selection, no backbone dependency at all.
        let total_clusters = self.config.cluster.parts(size);
        if prefix_serve >= total_clusters {
            self.open_session(
                now,
                video,
                request.client,
                cache_later,
                total_clusters,
                sched,
            );
            self.full_prefix_sessions += 1;
            return;
        }

        let Some((selection, cache_hit)) = self.select_source(now, request.client, video) else {
            self.fail_request(now, idx, request.client);
            return;
        };

        // "Minimum QoS" admission: reject rather than degrade everyone.
        if let Some(policy) = self.config.admission {
            self.refresh_db_snapshot(now);
            if let Some((_, snapshot)) = &self.db_snap_cache {
                if !policy
                    .check(
                        &self.topology,
                        snapshot,
                        &selection.route,
                        title(&self.titles, video).bitrate_mbps(),
                    )
                    .is_admit()
                {
                    self.rejected_requests += 1;
                    if self.sink.enabled() {
                        self.sink.record(
                            now,
                            &ObsEvent::RequestRejected {
                                request: idx as u64,
                                client: request.client,
                                video: request.video,
                            },
                        );
                    }
                    return;
                }
            }
        }

        // The first origin cluster fetches along the arrival-time route
        // (also under dynamic re-routing: the arrival-time selection is
        // the freshest there is). On a split start (`prefix_serve > 0`)
        // that is the suffix's first cluster, fetched while the proxy
        // streams the resident prefix at local rate: the serve event
        // precedes the suffix selection, and the proxy→origin handoff
        // is an ordinary mid-stream switch.
        let sid = self.open_session(now, video, request.client, cache_later, prefix_serve, sched);
        self.trace_selection(now, sid, prefix_serve, &selection, cache_hit);
        self.fetch_selected(now, sid, prefix_serve, selection.route, sched);
    }

    /// Counts and traces an unservable request.
    fn fail_request(&mut self, now: SimTime, idx: usize, client: NodeId) {
        self.failed_requests += 1;
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::RequestFailed {
                    request: idx as u64,
                    client,
                },
            );
        }
    }

    /// Translates a DMA decision into its trace events (hit, admit with
    /// per-victim evictions, or reject). Only called when the sink is
    /// enabled.
    fn emit_dma_decision(
        &mut self,
        now: SimTime,
        server: NodeId,
        video: VideoId,
        size_mb: f64,
        decision: &DmaDecision,
    ) {
        use vod_obs::DmaRejectKind;
        use vod_storage::dma::RejectReason;
        use vod_storage::striping::StripeLayout;
        // Post-decision occupancy and the admitted stripe, auditable
        // against the cache's capacity and Figure 3's `i mod n` rule.
        let occupancy_mb = |model: &Self| {
            model
                .caches
                .get(&server)
                .map(|c| c.array().total_capacity().as_f64() - c.array().total_free().as_f64())
                .unwrap_or(0.0)
        };
        let stripe_of = |layout: &StripeLayout| -> Vec<u32> {
            (0..layout.parts())
                .map(|i| layout.disk_of_part(i) as u32)
                .collect()
        };
        match decision {
            DmaDecision::Hit => {
                self.sink.record(now, &ObsEvent::DmaHit { server, video });
            }
            DmaDecision::Admitted { layout } => {
                let event = ObsEvent::DmaAdmit {
                    server,
                    video,
                    after_eviction: false,
                    size_mb,
                    parts: layout.parts() as u64,
                    stripe: stripe_of(layout),
                    occupancy_mb: occupancy_mb(self),
                };
                self.sink.record(now, &event);
            }
            DmaDecision::AdmittedAfterEviction { evicted, layout } => {
                for &victim in evicted {
                    self.sink
                        .record(now, &ObsEvent::DmaEvict { server, victim });
                }
                let event = ObsEvent::DmaAdmit {
                    server,
                    video,
                    after_eviction: true,
                    size_mb,
                    parts: layout.parts() as u64,
                    stripe: stripe_of(layout),
                    occupancy_mb: occupancy_mb(self),
                };
                self.sink.record(now, &event);
            }
            DmaDecision::NotAdmitted { reason } => {
                let kind = match reason {
                    RejectReason::BelowThreshold => DmaRejectKind::BelowThreshold,
                    RejectReason::NotPopularEnough => DmaRejectKind::NotPopularEnough,
                    RejectReason::DoesNotFit { evicted } => {
                        for &victim in evicted {
                            self.sink
                                .record(now, &ObsEvent::DmaEvict { server, victim });
                        }
                        DmaRejectKind::DoesNotFit
                    }
                    // RejectReason is #[non_exhaustive].
                    _ => return,
                };
                self.sink.record(
                    now,
                    &ObsEvent::DmaReject {
                        server,
                        video,
                        reason: kind,
                    },
                );
            }
            // DmaDecision is #[non_exhaustive].
            _ => {}
        }
    }
}
