//! Request arrival: the DMA and prefix-store decisions at the home
//! server (with their trace events), admission control, and the opening
//! of the session.

use vod_net::NodeId;
use vod_obs::{Event as ObsEvent, EventSink};
use vod_sim::scheduler::Scheduler;
use vod_sim::SimTime;
use vod_storage::dma::DmaDecision;
use vod_storage::prefix::PrefixDecision;
use vod_storage::striping::StripeLayout;
use vod_storage::video::VideoId;

use super::model::{find_title, title, Event, ServiceModel};

impl<S: EventSink> ServiceModel<S> {
    /// Runs the prefix store at `server` for one request, emitting the
    /// decision's trace events (mirroring `emit_dma_decision`), and
    /// returns how many leading clusters the proxy will stream for this
    /// session (0 = prefix miss or tier disabled). `video` is a library
    /// title.
    fn prefix_decision(&mut self, now: SimTime, server: NodeId, video: VideoId) -> usize {
        let Some(store) = self.stores.get_mut(&server).and_then(|s| s.prefix.as_mut()) else {
            return 0;
        };
        let decision = store.on_request(title(&self.titles, video));
        let sink = &mut self.sink;
        let admit = |after_eviction: bool, clusters: u32| ObsEvent::PrefixAdmit {
            server,
            video,
            after_eviction,
            clusters: u64::from(clusters),
            size_mb: store.resident_mb(video),
            occupancy_mb: store.occupied_mb(),
        };
        match &decision {
            PrefixDecision::Hit { clusters } => sink.emit(now, || ObsEvent::PrefixHit {
                server,
                video,
                clusters: u64::from(*clusters),
            }),
            PrefixDecision::HitExtended {
                from_clusters,
                to_clusters,
            } => {
                // The hit reports the served (pre-extension) length; the
                // extension itself is a separate, auditable event.
                sink.emit(now, || ObsEvent::PrefixHit {
                    server,
                    video,
                    clusters: u64::from(*from_clusters),
                });
                sink.emit(now, || ObsEvent::PrefixExtend {
                    server,
                    video,
                    from_clusters: u64::from(*from_clusters),
                    to_clusters: u64::from(*to_clusters),
                    occupancy_mb: store.occupied_mb(),
                });
            }
            PrefixDecision::Admitted { clusters } => sink.emit(now, || admit(false, *clusters)),
            PrefixDecision::AdmittedAfterEviction { evicted, clusters } => {
                for eviction in evicted {
                    sink.emit(now, || ObsEvent::PrefixEvict {
                        server,
                        victim: eviction.victim,
                        freed_mb: eviction.freed_mb,
                    });
                }
                sink.emit(now, || admit(true, *clusters));
            }
            PrefixDecision::NotAdmitted { reason } => sink.emit(now, || ObsEvent::PrefixReject {
                server,
                video,
                reason: *reason,
            }),
        }
        decision.serve_clusters() as usize
    }

    pub(super) fn on_arrival(&mut self, now: SimTime, idx: usize, sched: &mut Scheduler<Event>) {
        #[expect(
            clippy::indexing_slicing,
            reason = "an arrival's `idx` is a position in the trace the input lane walks"
        )]
        let request = self.trace.requests()[idx];
        self.sink.emit(now, || ObsEvent::RequestArrival {
            request: idx as u64,
            client: request.client,
            video: request.video,
        });
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
            .stores
            .get_mut(&request.client)
            .map(|store| store.dma.on_request(meta));
        if let Some(decision) = decision {
            self.emit_dma_decision(now, request.client, video, size.as_f64(), &decision);
            cache_later = matches!(
                decision,
                DmaDecision::Admitted { .. } | DmaDecision::AdmittedAfterEviction { .. }
            );
            match decision {
                DmaDecision::Hit | DmaDecision::Admitted { .. } => {}
                DmaDecision::AdmittedAfterEviction { evicted, .. }
                | DmaDecision::NotAdmitted { evicted, .. } => {
                    self.withdraw_titles(now, request.client, &evicted);
                }
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
                    self.sink.emit(now, || ObsEvent::RequestRejected {
                        request: idx as u64,
                        client: request.client,
                        video: request.video,
                    });
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
        self.sink.emit(now, || ObsEvent::RequestFailed {
            request: idx as u64,
            client,
        });
    }

    /// Traces a DMA decision: a hit, an admit after its evictions, or a
    /// reject after the victims a single attempt evicted in vain.
    fn emit_dma_decision(
        &mut self,
        now: SimTime,
        server: NodeId,
        video: VideoId,
        size_mb: f64,
        decision: &DmaDecision,
    ) {
        let ServiceModel { sink, stores, .. } = self;
        // Post-decision occupancy and the admitted stripe, auditable
        // against the cache's capacity and Figure 3's `i mod n` rule.
        let admit = |after_eviction: bool, layout: &StripeLayout| ObsEvent::DmaAdmit {
            server,
            video,
            after_eviction,
            size_mb,
            parts: layout.parts() as u64,
            stripe: (0..layout.parts())
                .map(|i| layout.disk_of_part(i) as u32)
                .collect(),
            occupancy_mb: stores
                .get(&server)
                .map(|s| {
                    s.dma.array().total_capacity().as_f64() - s.dma.array().total_free().as_f64()
                })
                .unwrap_or(0.0),
        };
        match decision {
            DmaDecision::Hit => sink.emit(now, || ObsEvent::DmaHit { server, video }),
            DmaDecision::Admitted { layout } => sink.emit(now, || admit(false, layout)),
            DmaDecision::AdmittedAfterEviction { evicted, layout } => {
                for &victim in evicted {
                    sink.emit(now, || ObsEvent::DmaEvict { server, victim });
                }
                sink.emit(now, || admit(true, layout));
            }
            DmaDecision::NotAdmitted { reason, evicted } => {
                for &victim in evicted {
                    sink.emit(now, || ObsEvent::DmaEvict { server, victim });
                }
                sink.emit(now, || ObsEvent::DmaReject {
                    server,
                    video,
                    reason: *reason,
                });
            }
        }
    }
}
