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
//!
//! The victims, in both modes, come from the head of the cache's
//! [`PopularityTracker`] ranking, which the prefix tier
//! ([`crate::prefix`]) shares; the until-fit mode is its
//! [`PopularityTracker::plan_until_fit`].

use serde::Serialize;

use crate::cluster::ClusterSize;
use crate::disk_array::DiskArray;
use crate::error::StorageError;
use crate::popularity::PopularityTracker;
use crate::striping::StripeLayout;
use crate::video::{Megabytes, VideoId, VideoMeta};

/// How the DMA evicts when the cache is full.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
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
#[derive(Debug, Copy, Clone, PartialEq)]
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

/// Why a cache declined to store a title: the DMA's three reasons,
/// which the [prefix tier](crate::prefix) shares.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum RejectKind {
    /// The title has not yet exceeded the admission threshold.
    BelowThreshold,
    /// The cache is full and no resident is less popular than the
    /// title.
    NotPopularEnough,
    /// The title does not fit, even after the eviction the cache
    /// attempted (if any).
    DoesNotFit,
}

impl RejectKind {
    /// Stable snake_case label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            RejectKind::BelowThreshold => "below_threshold",
            RejectKind::NotPopularEnough => "not_popular_enough",
            RejectKind::DoesNotFit => "does_not_fit",
        }
    }
}

/// Outcome of one [`DmaCache::on_request`] call.
#[derive(Debug, Clone, PartialEq)]
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
        reason: RejectKind,
        /// Victims deleted in vain: a single attempt
        /// ([`EvictionMode::SingleAttempt`]) that freed too little for
        /// the title. Empty otherwise — [`EvictionMode::UntilFit`] never
        /// evicts in vain.
        evicted: Vec<VideoId>,
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
#[derive(Debug, Copy, Clone, PartialEq, Eq, Default, Serialize)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct DmaCache {
    config: DmaConfig,
    array: DiskArray,
    /// Points per title, and the residents ranked by them: kept in
    /// step with `array` by every store and removal.
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
        let layout = self.array.store(video)?;
        self.tracker.rank(video.id());
        Ok(layout)
    }

    /// Stores `video`, which the caller made sure fits, and ranks it.
    fn admit(&mut self, video: &VideoMeta) -> StripeLayout {
        #[expect(clippy::expect_used, reason = "the caller checked the fit")]
        let layout = self.array.store(video).expect("the caller checked the fit");
        self.tracker.rank(video.id());
        self.stats.admissions += 1;
        layout
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
            return self.reject(RejectKind::BelowThreshold, vec![]);
        }

        if self.array.can_tolerate(video) {
            let layout = self.admit(video);
            self.debug_check_occupancy();
            return DmaDecision::Admitted { layout };
        }

        // How many of the coldest residents to evict: Figure 2 tries
        // exactly one, strictly colder than the title, even if deleting
        // it frees too little; the ablation plans until the title fits
        // on a scratch copy of the array, or evicts nothing.
        let plan = match self.config.eviction {
            EvictionMode::SingleAttempt => match self.tracker.least() {
                // An empty cache the title still does not fit: it is
                // simply larger than the allocated space.
                None => Err(RejectKind::DoesNotFit),
                Some((coldest, _)) if points <= coldest => Err(RejectKind::NotPopularEnough),
                Some(_) => Ok(1),
            },
            EvictionMode::UntilFit => {
                let mut scratch = self.array.clone();
                self.tracker.plan_until_fit(points, |victim| {
                    #[expect(clippy::expect_used, reason = "a ranked title is stored")]
                    scratch.remove(victim).expect("a ranked title is stored");
                    scratch.can_tolerate(video)
                })
            }
        };
        let evicted = match plan {
            Ok(victims) => self.tracker.evict_first(victims),
            Err(reason) => return self.reject(reason, vec![]),
        };
        for &victim in &evicted {
            #[expect(clippy::expect_used, reason = "a ranked title is stored")]
            self.array.remove(victim).expect("a ranked title is stored");
            self.stats.evictions += 1;
        }
        let decision = if self.array.can_tolerate(video) {
            DmaDecision::AdmittedAfterEviction {
                layout: self.admit(video),
                evicted,
            }
        } else {
            self.reject(RejectKind::DoesNotFit, evicted)
        };
        self.debug_check_occupancy();
        decision
    }

    /// Counts and returns a refusal, after the victims a single
    /// attempt evicted in vain.
    fn reject(&mut self, reason: RejectKind, evicted: Vec<VideoId>) -> DmaDecision {
        self.stats.rejections += 1;
        DmaDecision::NotAdmitted { reason, evicted }
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
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
                reason: RejectKind::NotPopularEnough,
                evicted: vec![],
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
                reason: RejectKind::DoesNotFit,
                evicted: vec![VideoId::new(1)],
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
                reason: RejectKind::BelowThreshold,
                evicted: vec![],
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
                reason: RejectKind::DoesNotFit,
                evicted: vec![],
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
            reason: RejectKind::BelowThreshold,
            evicted: vec![],
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

    /// Figure 2 with the victims found by sorting every resident by its
    /// own points map: the DMA before it kept its residents ranked.
    struct ScanDma {
        config: DmaConfig,
        array: DiskArray,
        points: BTreeMap<VideoId, u64>,
    }

    impl ScanDma {
        fn new(config: DmaConfig) -> Self {
            let array =
                DiskArray::uniform(config.disk_count, config.disk_capacity, config.cluster_size)
                    .unwrap();
            ScanDma {
                config,
                array,
                points: BTreeMap::new(),
            }
        }

        fn points(&self, video: VideoId) -> u64 {
            self.points.get(&video).copied().unwrap_or(0)
        }

        fn on_request(&mut self, video: &VideoMeta) -> DmaDecision {
            let p = self.points.entry(video.id()).or_insert(0);
            *p += 1;
            let points = *p;
            let reject = |reason, evicted| DmaDecision::NotAdmitted { reason, evicted };
            if self.array.contains(video.id()) {
                return DmaDecision::Hit;
            }
            if points <= self.config.admit_threshold {
                return reject(RejectKind::BelowThreshold, vec![]);
            }
            if self.array.can_tolerate(video) {
                let layout = self.array.store(video).unwrap();
                return DmaDecision::Admitted { layout };
            }
            let mut colder: Vec<VideoId> = self.array.stored_ids().collect();
            colder.sort_by_key(|&v| (self.points(v), v));
            let evicted = match self.config.eviction {
                EvictionMode::SingleAttempt => match colder.first() {
                    None => return reject(RejectKind::DoesNotFit, vec![]),
                    Some(&victim) if points <= self.points(victim) => {
                        return reject(RejectKind::NotPopularEnough, vec![]);
                    }
                    Some(&victim) => vec![victim],
                },
                EvictionMode::UntilFit => {
                    colder.retain(|&v| self.points(v) < points);
                    let mut scratch = self.array.clone();
                    let mut planned = Vec::new();
                    for &v in &colder {
                        scratch.remove(v).unwrap();
                        planned.push(v);
                        if scratch.can_tolerate(video) {
                            break;
                        }
                    }
                    if !scratch.can_tolerate(video) {
                        let reason = if colder.is_empty() {
                            RejectKind::NotPopularEnough
                        } else {
                            RejectKind::DoesNotFit
                        };
                        return reject(reason, vec![]);
                    }
                    planned
                }
            };
            for &v in &evicted {
                self.array.remove(v).unwrap();
            }
            if self.array.can_tolerate(video) {
                let layout = self.array.store(video).unwrap();
                DmaDecision::AdmittedAfterEviction { evicted, layout }
            } else {
                reject(RejectKind::DoesNotFit, evicted)
            }
        }
    }

    /// Runs one request stream through the ranked DMA and the scan:
    /// every decision, victims included, must be the same, and after
    /// every request the ranking must hold exactly the residents (its
    /// order is `popularity`'s proptest's).
    fn ranked_against_scan(
        eviction: EvictionMode,
        admit_threshold: u64,
        preload: &[u32],
        requests: &[u32],
        sizes: &[f64],
    ) -> Result<(), proptest::prelude::TestCaseError> {
        let config = DmaConfig {
            disk_count: 3,
            disk_capacity: Megabytes::new(400.0),
            cluster_size: ClusterSize::new(Megabytes::new(50.0)),
            admit_threshold,
            eviction,
        };
        let title = |id: u32| video(id, sizes[id as usize % sizes.len()]);
        let mut ranked = DmaCache::new(config).unwrap();
        let mut scan = ScanDma::new(config);
        for &id in preload {
            let a = ranked.preload(&title(id)).ok();
            let b = scan.array.store(&title(id)).ok();
            proptest::prop_assert_eq!(a, b);
        }
        for &id in requests {
            let a = ranked.on_request(&title(id));
            let b = scan.on_request(&title(id));
            proptest::prop_assert_eq!(a, b);
            let mut ids: Vec<VideoId> = ranked.tracker.ranked().iter().map(|&(_, v)| v).collect();
            ids.sort_unstable();
            proptest::prop_assert_eq!(ids, scan.array.stored_ids().collect::<Vec<_>>());
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn ranked_victims_are_the_scans(
            until_fit in proptest::prelude::any::<bool>(),
            admit_threshold in 0u64..3,
            preload in proptest::collection::vec(0u32..24, 0..6),
            requests in proptest::collection::vec(0u32..24, 1..300),
            sizes in proptest::collection::vec(20.0f64..500.0, 1..8),
        ) {
            let eviction = if until_fit {
                EvictionMode::UntilFit
            } else {
                EvictionMode::SingleAttempt
            };
            ranked_against_scan(eviction, admit_threshold, &preload, &requests, &sizes)?;
        }
    }

    /// A fixed stream that reaches every branch of both modes: hits,
    /// admissions, evictions, refusals.
    #[test]
    fn ranked_victims_cover_every_outcome() {
        let requests: Vec<u32> = (0..400u32).map(|i| (i * 7 + i / 13) % 17).collect();
        let sizes = [120.0, 260.0, 75.0, 410.0];
        for eviction in [EvictionMode::SingleAttempt, EvictionMode::UntilFit] {
            ranked_against_scan(eviction, 0, &[3, 5], &requests, &sizes).unwrap();
            let config = DmaConfig {
                disk_count: 3,
                disk_capacity: Megabytes::new(400.0),
                cluster_size: ClusterSize::new(Megabytes::new(50.0)),
                admit_threshold: 0,
                eviction,
            };
            let mut c = DmaCache::new(config).unwrap();
            for &id in &requests {
                c.on_request(&video(id, sizes[id as usize % sizes.len()]));
            }
            let s = c.stats();
            assert!(
                s.hits > 0 && s.admissions > 0 && s.evictions > 0 && s.rejections > 0,
                "{s:?}"
            );
        }
    }
}
