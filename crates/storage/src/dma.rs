//! The Disk (storage and) Manipulation Algorithm — the paper's Figure 2.
//!
//! Every video server runs a DMA instance over its disk array. Each
//! request for a title grants it a popularity point; resident titles are
//! served from cache, absent titles are written to the striped disks while
//! space lasts, and once the cache is full a new title replaces the least
//! popular resident one — but only when the newcomer has accumulated more
//! points than the victim.
//!
//! ```text
//! DO WHILE Video Service is Online
//!   IF (Server has begun downloading a video) THEN
//!     IF (Video is already on disk)       → give a point
//!     ELSE IF (Disks can tolerate it)     → write to disks
//!     ELSE give a point;
//!          IF (points > least popular resident's points)
//!             delete least popular;
//!             IF (Disks can tolerate it)  → write to disks
//! ```
//!
//! Two documented design knobs generalize the pseudocode for ablation
//! (DESIGN.md §6): an *admission threshold* (the prose's "requested for
//! over a certain number of times") and the eviction mode (the
//! pseudocode's single eviction attempt vs. evicting until the newcomer
//! fits).

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterSize;
use crate::disk_array::DiskArray;
use crate::error::StorageError;
use crate::popularity::PopularityTracker;
use crate::striping::StripeLayout;
use crate::video::{Megabytes, VideoId, VideoMeta};

/// How the DMA evicts when the cache is full.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum EvictionMode {
    /// Exactly one eviction attempt per request, as in Figure 2. If the
    /// newcomer still does not fit after deleting the least popular
    /// resident, it is not stored (and the victim stays deleted).
    #[default]
    SingleAttempt,
    /// Evict less-popular residents (ascending popularity) until the
    /// newcomer fits; if even evicting every less-popular resident would
    /// not free enough space, evict nothing.
    UntilFit,
}

/// Configuration of a DMA cache.
#[derive(Debug, Copy, Clone, PartialEq, Serialize, Deserialize)]
pub struct DmaConfig {
    /// Number of disks in the server's array ("we propose the use of as
    /// many disks as possible").
    pub disk_count: usize,
    /// Capacity allocated to the VoD service on each disk.
    pub disk_capacity: Megabytes,
    /// The common cluster size `c`.
    pub cluster_size: ClusterSize,
    /// Points a non-resident title must exceed before it may be admitted
    /// (0 = admit whenever space allows, exactly as in Figure 2).
    pub admit_threshold: u64,
    /// Eviction behaviour when the cache is full.
    pub eviction: EvictionMode,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            disk_count: 4,
            disk_capacity: Megabytes::new(10_000.0),
            cluster_size: ClusterSize::default(),
            admit_threshold: 0,
            eviction: EvictionMode::SingleAttempt,
        }
    }
}

/// Why a request did not result in the title being cached.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RejectReason {
    /// The title has not yet exceeded the admission threshold.
    BelowThreshold,
    /// The cache is full and the title is not more popular than the least
    /// popular resident.
    NotPopularEnough,
    /// Space was freed (or none could be) but the title still does not
    /// fit. `evicted` lists any victims deleted in the attempt.
    DoesNotFit {
        /// Victims removed during the failed attempt (empty for
        /// [`EvictionMode::UntilFit`], which never evicts in vain).
        evicted: Vec<VideoId>,
    },
}

/// Outcome of one [`DmaCache::on_request`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DmaDecision {
    /// The title was already resident; it got a point and is served
    /// locally.
    Hit,
    /// The title was written to the disks (free space, no eviction).
    Admitted {
        /// The stripe placement chosen for the title.
        layout: StripeLayout,
    },
    /// The title was written after evicting less popular residents.
    AdmittedAfterEviction {
        /// The evicted victims, in eviction order.
        evicted: Vec<VideoId>,
        /// The stripe placement chosen for the title.
        layout: StripeLayout,
    },
    /// The title was not cached this time.
    NotAdmitted {
        /// Why the title was not cached.
        reason: RejectReason,
    },
}

impl DmaDecision {
    /// Returns true for [`DmaDecision::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, DmaDecision::Hit)
    }

    /// Returns true if the title is resident after this decision.
    pub fn is_resident_after(&self) -> bool {
        matches!(
            self,
            DmaDecision::Hit
                | DmaDecision::Admitted { .. }
                | DmaDecision::AdmittedAfterEviction { .. }
        )
    }
}

/// Cumulative statistics of a DMA cache.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DmaStats {
    /// Total requests observed.
    pub requests: u64,
    /// Requests served from cache.
    pub hits: u64,
    /// Titles written to disk (with or without eviction).
    pub admissions: u64,
    /// Titles deleted to make room.
    pub evictions: u64,
    /// Requests that left the title uncached.
    pub rejections: u64,
}

impl std::ops::AddAssign for DmaStats {
    /// Field-wise sum: folds one cache's counters into a running total.
    fn add_assign(&mut self, rhs: DmaStats) {
        // Exhaustive on purpose: a new counter must be summed here to
        // compile.
        let DmaStats {
            requests,
            hits,
            admissions,
            evictions,
            rejections,
        } = rhs;
        self.requests += requests;
        self.hits += hits;
        self.admissions += admissions;
        self.evictions += evictions;
        self.rejections += rejections;
    }
}

impl DmaStats {
    /// Hit ratio over all requests (0 when no requests yet).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// A per-server popularity cache running the Disk Manipulation Algorithm.
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DmaCache {
    config: DmaConfig,
    array: DiskArray,
    tracker: PopularityTracker,
    stats: DmaStats,
}

impl DmaCache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NoDisks`] when `config.disk_count` is zero.
    pub fn new(config: DmaConfig) -> Result<Self, StorageError> {
        let array =
            DiskArray::uniform(config.disk_count, config.disk_capacity, config.cluster_size)?;
        Ok(DmaCache {
            config,
            array,
            tracker: PopularityTracker::new(),
            stats: DmaStats::default(),
        })
    }

    /// The underlying disk array (read access).
    pub fn array(&self) -> &DiskArray {
        &self.array
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Returns true if `video` is currently resident.
    pub fn contains(&self, video: VideoId) -> bool {
        self.array.contains(video)
    }

    /// Ids of resident titles, in id order.
    pub fn resident_ids(&self) -> Vec<VideoId> {
        self.array.stored_ids().collect()
    }

    /// Current popularity points of `video`.
    pub fn points(&self, video: VideoId) -> u64 {
        self.tracker.points(video)
    }

    /// Pre-loads a title into the cache outside the request path (service
    /// initialization: "The video titles available on each VoD server").
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError`] if the title is already present or does
    /// not fit.
    pub fn preload(&mut self, video: &VideoMeta) -> Result<StripeLayout, StorageError> {
        self.array.store(video)
    }

    /// Processes one request for `video` — the body of Figure 2's loop.
    pub fn on_request(&mut self, video: &VideoMeta) -> DmaDecision {
        self.stats.requests += 1;
        // "It counts the requests that are made for every video title."
        let points = self.tracker.award(video.id());

        if self.array.contains(video.id()) {
            self.stats.hits += 1;
            return DmaDecision::Hit;
        }

        if points <= self.config.admit_threshold {
            self.stats.rejections += 1;
            return DmaDecision::NotAdmitted {
                reason: RejectReason::BelowThreshold,
            };
        }

        if self.array.can_tolerate(video) {
            #[expect(clippy::expect_used, reason = "`can_tolerate` checked the fit")]
            let layout = self
                .array
                .store(video)
                .expect("can_tolerate checked the fit");
            self.stats.admissions += 1;
            self.debug_check_occupancy();
            return DmaDecision::Admitted { layout };
        }

        let decision = match self.config.eviction {
            EvictionMode::SingleAttempt => self.evict_single_attempt(video, points),
            EvictionMode::UntilFit => self.evict_until_fit(video, points),
        };
        self.debug_check_occupancy();
        decision
    }

    /// Dev-run mirror of the auditor's capacity rule (`vod-check audit`
    /// A001): resident bytes never exceed the array's allocation.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug mirror of audit rule A001: resident bytes never exceed the allocation"
    )]
    fn debug_check_occupancy(&self) {
        debug_assert!(
            self.array.total_free().as_f64() >= -1e-9,
            "DMA occupancy exceeds capacity: free = {} MB",
            self.array.total_free().as_f64()
        );
    }

    /// Figure 2 verbatim: one comparison against the least popular
    /// resident, one deletion, one re-check.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug mirror of audit rule A003: the victim is a least-popular resident, colder than the newcomer"
    )]
    fn evict_single_attempt(&mut self, video: &VideoMeta, points: u64) -> DmaDecision {
        let victim = match self.tracker.least_popular(self.array.stored_ids()) {
            Some(v) => v,
            None => {
                // Empty cache but the video still doesn't fit: it is
                // simply larger than the allocated space.
                self.stats.rejections += 1;
                return DmaDecision::NotAdmitted {
                    reason: RejectReason::DoesNotFit { evicted: vec![] },
                };
            }
        };
        if points <= self.tracker.points(victim) {
            self.stats.rejections += 1;
            return DmaDecision::NotAdmitted {
                reason: RejectReason::NotPopularEnough,
            };
        }
        // Dev-run mirror of the auditor's eviction rule (A003): the
        // victim is a least-popular resident, strictly colder than the
        // newcomer.
        debug_assert!(
            self.array
                .stored_ids()
                .all(|v| self.tracker.points(victim) <= self.tracker.points(v)),
            "eviction victim {victim} is not least popular"
        );
        debug_assert!(
            self.tracker.points(victim) < points,
            "eviction victim {victim} is not colder than the newcomer"
        );
        #[expect(clippy::expect_used, reason = "the victim came from `stored_ids`")]
        self.array
            .remove(victim)
            .expect("victim came from stored_ids");
        self.stats.evictions += 1;
        if self.array.can_tolerate(video) {
            #[expect(clippy::expect_used, reason = "`can_tolerate` checked the fit")]
            let layout = self
                .array
                .store(video)
                .expect("can_tolerate checked the fit");
            self.stats.admissions += 1;
            DmaDecision::AdmittedAfterEviction {
                evicted: vec![victim],
                layout,
            }
        } else {
            self.stats.rejections += 1;
            DmaDecision::NotAdmitted {
                reason: RejectReason::DoesNotFit {
                    evicted: vec![victim],
                },
            }
        }
    }

    /// Ablation variant: evict less-popular residents (ascending
    /// popularity) until the newcomer fits; evict nothing if it can never
    /// fit.
    fn evict_until_fit(&mut self, video: &VideoMeta, points: u64) -> DmaDecision {
        // Candidates strictly less popular than the newcomer, worst first.
        let mut candidates: Vec<VideoId> = self
            .array
            .stored_ids()
            .filter(|&v| self.tracker.points(v) < points)
            .collect();
        candidates.sort_by_key(|&v| (self.tracker.points(v), v));

        // Feasibility check on a scratch copy: would evicting all of them
        // make room?
        let mut scratch = self.array.clone();
        let mut planned = Vec::new();
        let mut fits = scratch.can_tolerate(video);
        for &v in &candidates {
            if fits {
                break;
            }
            #[expect(clippy::expect_used, reason = "the candidate is stored")]
            scratch.remove(v).expect("candidate is stored");
            planned.push(v);
            fits = scratch.can_tolerate(video);
        }
        if !fits {
            self.stats.rejections += 1;
            let reason = if candidates.is_empty() {
                RejectReason::NotPopularEnough
            } else {
                RejectReason::DoesNotFit { evicted: vec![] }
            };
            return DmaDecision::NotAdmitted { reason };
        }
        for &v in &planned {
            #[expect(clippy::expect_used, reason = "the planned victim is stored")]
            self.array.remove(v).expect("planned victim is stored");
            self.stats.evictions += 1;
        }
        #[expect(clippy::expect_used, reason = "feasibility was simulated on a copy")]
        let layout = self
            .array
            .store(video)
            .expect("feasibility was simulated on a copy");
        self.stats.admissions += 1;
        if planned.is_empty() {
            DmaDecision::Admitted { layout }
        } else {
            DmaDecision::AdmittedAfterEviction {
                evicted: planned,
                layout,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video(id: u32, mb: f64) -> VideoMeta {
        VideoMeta::new(VideoId::new(id), format!("t{id}"), Megabytes::new(mb), 1.5)
    }

    /// 2 disks × 200 MB, 100 MB clusters → fits two 200 MB videos.
    fn small_cache(eviction: EvictionMode) -> DmaCache {
        DmaCache::new(DmaConfig {
            disk_count: 2,
            disk_capacity: Megabytes::new(200.0),
            cluster_size: ClusterSize::new(Megabytes::new(100.0)),
            admit_threshold: 0,
            eviction,
        })
        .unwrap()
    }

    #[test]
    fn admits_while_space_lasts_then_hits() {
        let mut c = small_cache(EvictionMode::SingleAttempt);
        let v = video(1, 200.0);
        assert!(matches!(c.on_request(&v), DmaDecision::Admitted { .. }));
        assert!(matches!(c.on_request(&v), DmaDecision::Hit));
        assert_eq!(c.points(v.id()), 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().admissions, 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_cache_rejects_equal_popularity() {
        let mut c = small_cache(EvictionMode::SingleAttempt);
        c.on_request(&video(1, 200.0));
        c.on_request(&video(2, 200.0));
        // Newcomer with 1 point vs residents with 1 point: not MORE popular.
        let d = c.on_request(&video(3, 200.0));
        assert_eq!(
            d,
            DmaDecision::NotAdmitted {
                reason: RejectReason::NotPopularEnough
            }
        );
        assert!(c.contains(VideoId::new(1)));
        assert!(c.contains(VideoId::new(2)));
    }

    #[test]
    fn popular_newcomer_replaces_least_popular() {
        let mut c = small_cache(EvictionMode::SingleAttempt);
        c.on_request(&video(1, 200.0)); // 1 point
        c.on_request(&video(2, 200.0)); // 1 point
        c.on_request(&video(2, 200.0)); // hit → 2 points
                                        // Two requests for v3: first rejected (1 pt vs 1 pt), second evicts v1.
        let v3 = video(3, 200.0);
        assert!(matches!(c.on_request(&v3), DmaDecision::NotAdmitted { .. }));
        let d = c.on_request(&v3);
        assert_eq!(
            d,
            DmaDecision::AdmittedAfterEviction {
                evicted: vec![VideoId::new(1)],
                layout: StripeLayout::cyclic(2, 2),
            }
        );
        assert!(!c.contains(VideoId::new(1)));
        assert!(c.contains(VideoId::new(2)));
        assert!(c.contains(VideoId::new(3)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn single_attempt_may_evict_in_vain() {
        // Cache holds two 200 MB titles; newcomer is 400 MB: deleting one
        // victim is not enough — Figure 2 still deletes it.
        let mut c = small_cache(EvictionMode::SingleAttempt);
        c.on_request(&video(1, 200.0));
        c.on_request(&video(2, 200.0));
        let big = video(3, 400.0);
        c.on_request(&big); // point 1: rejected, no eviction (1 ≤ 1)
        let d = c.on_request(&big); // point 2 > 1 → evict v1, still no fit
        assert_eq!(
            d,
            DmaDecision::NotAdmitted {
                reason: RejectReason::DoesNotFit {
                    evicted: vec![VideoId::new(1)]
                }
            }
        );
        assert!(!c.contains(VideoId::new(1)));
        assert!(!c.contains(VideoId::new(3)));
    }

    #[test]
    fn until_fit_evicts_enough_or_nothing() {
        let mut c = small_cache(EvictionMode::UntilFit);
        c.on_request(&video(1, 200.0));
        c.on_request(&video(2, 200.0));
        let big = video(3, 400.0);
        c.on_request(&big); // 1 pt: no strictly-less-popular candidates with fewer points
        let d = c.on_request(&big); // 2 pts > both residents' 1 pt → evict both
        match d {
            DmaDecision::AdmittedAfterEviction { ref evicted, .. } => {
                assert_eq!(evicted.len(), 2);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(VideoId::new(3)));
    }

    #[test]
    fn until_fit_never_evicts_in_vain() {
        let mut c = small_cache(EvictionMode::UntilFit);
        c.on_request(&video(1, 200.0));
        c.on_request(&video(2, 200.0));
        // 800 MB can never fit in 400 MB total; residents must survive.
        let huge = video(3, 800.0);
        c.on_request(&huge);
        let d = c.on_request(&huge);
        assert!(matches!(d, DmaDecision::NotAdmitted { .. }));
        assert!(c.contains(VideoId::new(1)));
        assert!(c.contains(VideoId::new(2)));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn admission_threshold_delays_caching() {
        let mut c = DmaCache::new(DmaConfig {
            admit_threshold: 2,
            disk_count: 2,
            disk_capacity: Megabytes::new(200.0),
            cluster_size: ClusterSize::new(Megabytes::new(100.0)),
            eviction: EvictionMode::SingleAttempt,
        })
        .unwrap();
        let v = video(1, 200.0);
        assert_eq!(
            c.on_request(&v),
            DmaDecision::NotAdmitted {
                reason: RejectReason::BelowThreshold
            }
        );
        assert!(matches!(c.on_request(&v), DmaDecision::NotAdmitted { .. }));
        // Third request: points (3) > threshold (2).
        assert!(matches!(c.on_request(&v), DmaDecision::Admitted { .. }));
    }

    #[test]
    fn oversized_video_on_empty_cache_is_rejected() {
        let mut c = small_cache(EvictionMode::SingleAttempt);
        let d = c.on_request(&video(1, 4_000.0));
        assert_eq!(
            d,
            DmaDecision::NotAdmitted {
                reason: RejectReason::DoesNotFit { evicted: vec![] }
            }
        );
    }

    #[test]
    fn preload_bypasses_popularity() {
        let mut c = small_cache(EvictionMode::SingleAttempt);
        let v = video(9, 200.0);
        c.preload(&v).unwrap();
        assert!(c.contains(v.id()));
        assert_eq!(c.points(v.id()), 0);
        assert!(c.on_request(&v).is_hit());
    }

    #[test]
    fn decision_helpers() {
        assert!(DmaDecision::Hit.is_hit());
        assert!(DmaDecision::Hit.is_resident_after());
        let rejected = DmaDecision::NotAdmitted {
            reason: RejectReason::BelowThreshold,
        };
        assert!(!rejected.is_hit());
        assert!(!rejected.is_resident_after());
    }

    #[test]
    fn stats_track_all_outcomes() {
        let mut c = small_cache(EvictionMode::SingleAttempt);
        c.on_request(&video(1, 200.0)); // admit
        c.on_request(&video(1, 200.0)); // hit
        c.on_request(&video(2, 200.0)); // admit
        c.on_request(&video(3, 200.0)); // reject
        let s = c.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.admissions, 2);
        assert_eq!(s.rejections, 1);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn zero_disk_config_rejected() {
        let err = DmaCache::new(DmaConfig {
            disk_count: 0,
            ..DmaConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, StorageError::NoDisks);
    }
}
