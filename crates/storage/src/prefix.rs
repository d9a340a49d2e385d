//! Popularity-sized title *prefixes* for regional proxy servers.
//!
//! The DMA ([`crate::dma`]) keeps whole movies at the origin servers. A
//! regional proxy is cheaper: it holds only the **first clusters** of the
//! hottest titles, enough to cover session startup from local storage
//! while the Virtual Routing Algorithm fetches the remainder from the
//! origin ("An Optimal Prefix Replication Strategy for VoD Services").
//!
//! [`PrefixStore`] mirrors the DMA's decision-stream discipline so the
//! trace auditor can replay it independently (`vod-check audit`, rules
//! A014–A016):
//!
//! * every request awards the title one popularity point;
//! * the *target* prefix length grows with popularity — `base_clusters`
//!   plus one cluster per `growth_points` further requests, capped at
//!   `max_clusters` and at the title's own length;
//! * a non-resident title is admitted once its points exceed
//!   `admit_threshold` and the store can free enough space by evicting
//!   strictly-less-popular prefixes, coldest first and never in vain;
//! * a resident title whose target has outgrown its stored prefix is
//!   extended in place when free space allows — extension never evicts.
//!
//! The store shares the DMA's ranking and planner: its points and its
//! residents' victim order are a [`PopularityTracker`], and an eviction
//! is planned by [`PopularityTracker::plan_until_fit`], as in the DMA's
//! `UntilFit` mode.
//!
//! Every [`PrefixStore::on_request`] call returns exactly one
//! [`PrefixDecision`]; serving always uses the *pre-extension* length
//! (`Hit`/`HitExtended::from_clusters`), because an extension's tail is
//! only mirrored into the store as the triggering session streams
//! through the proxy.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::cluster::ClusterSize;
use crate::dma::RejectKind;
use crate::error::StorageError;
use crate::popularity::PopularityTracker;
use crate::video::{Megabytes, VideoId, VideoMeta};

/// Configuration of a per-proxy prefix store.
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct PrefixConfig {
    /// Total space the proxy dedicates to prefixes.
    pub capacity: Megabytes,
    /// The common cluster size `c` (shared with the origin DMA so a
    /// prefix is always a whole number of fetchable clusters).
    pub cluster_size: ClusterSize,
    /// Points a non-resident title must exceed before its prefix may be
    /// admitted (0 = admit on first request).
    pub admit_threshold: u64,
    /// Prefix length granted at admission, in clusters.
    pub base_clusters: u32,
    /// Popularity-driven ceiling on any prefix length, in clusters.
    pub max_clusters: u32,
    /// Further requests per additional cluster of prefix (0 disables
    /// popularity growth: every prefix stays at `base_clusters`).
    pub growth_points: u64,
}

impl Default for PrefixConfig {
    fn default() -> Self {
        PrefixConfig {
            capacity: Megabytes::new(2_000.0),
            cluster_size: ClusterSize::default(),
            admit_threshold: 1,
            base_clusters: 1,
            max_clusters: 4,
            growth_points: 8,
        }
    }
}

/// Outcome of one [`PrefixStore::on_request`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefixDecision {
    /// The prefix is resident; serve `clusters` of startup locally.
    Hit {
        /// Resident prefix length, in clusters.
        clusters: u32,
    },
    /// Resident, and popularity growth extended the stored prefix. The
    /// current session is still served the *old* length — the extension
    /// tail is mirrored as this session streams through the proxy.
    HitExtended {
        /// Prefix length before the extension (the served length).
        from_clusters: u32,
        /// Prefix length after the extension.
        to_clusters: u32,
    },
    /// The prefix was stored without evicting anyone.
    Admitted {
        /// Stored prefix length, in clusters.
        clusters: u32,
    },
    /// The prefix was stored after evicting colder prefixes.
    AdmittedAfterEviction {
        /// The evicted victims with the space each freed, in eviction
        /// order.
        evicted: Vec<PrefixEviction>,
        /// Stored prefix length, in clusters.
        clusters: u32,
    },
    /// Nothing was stored this time.
    NotAdmitted {
        /// Why the prefix was not stored.
        reason: RejectKind,
    },
}

/// One resident prefix deleted to make room for a hotter one.
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct PrefixEviction {
    /// The evicted title.
    pub victim: VideoId,
    /// Megabytes the deletion freed: the victim's resident size just
    /// before the request that evicted it.
    pub freed_mb: f64,
}

impl PrefixDecision {
    /// Clusters the proxy can serve locally for *this* request (0 when
    /// the title's prefix is not resident).
    pub fn serve_clusters(&self) -> u32 {
        match self {
            PrefixDecision::Hit { clusters } => *clusters,
            PrefixDecision::HitExtended { from_clusters, .. } => *from_clusters,
            _ => 0,
        }
    }

    /// Returns true when the request was served from the store
    /// ([`PrefixDecision::Hit`] or [`PrefixDecision::HitExtended`]).
    pub fn is_hit(&self) -> bool {
        self.serve_clusters() > 0
    }
}

/// Cumulative statistics of a prefix store.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Default, Serialize)]
pub struct PrefixStats {
    /// Total requests observed.
    pub requests: u64,
    /// Requests whose prefix was resident (includes extensions).
    pub hits: u64,
    /// Prefixes written to the store.
    pub admissions: u64,
    /// Prefixes deleted to make room.
    pub evictions: u64,
    /// Requests that left the title's prefix unstored.
    pub rejections: u64,
    /// In-place prefix extensions driven by popularity growth.
    pub extensions: u64,
}

impl std::ops::AddAssign for PrefixStats {
    /// Field-wise sum: folds one store's counters into a running total.
    fn add_assign(&mut self, rhs: PrefixStats) {
        // Exhaustive on purpose: a new counter must be summed here to
        // compile.
        let PrefixStats {
            requests,
            hits,
            admissions,
            evictions,
            rejections,
            extensions,
        } = rhs;
        self.requests += requests;
        self.hits += hits;
        self.admissions += admissions;
        self.evictions += evictions;
        self.rejections += rejections;
        self.extensions += extensions;
    }
}

impl PrefixStats {
    /// Hit ratio over all requests (0 when no requests yet).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// A regional proxy's prefix store.
///
/// # Examples
///
/// ```
/// use vod_storage::prefix::{PrefixConfig, PrefixDecision, PrefixStore};
/// use vod_storage::video::{Megabytes, VideoId, VideoMeta};
///
/// # fn main() -> Result<(), vod_storage::StorageError> {
/// let mut store = PrefixStore::new(PrefixConfig {
///     admit_threshold: 0,
///     ..PrefixConfig::default()
/// })?;
/// let movie = VideoMeta::new(VideoId::new(1), "Zorba", Megabytes::new(700.0), 1.5);
/// // First request admits the base prefix; the second serves from it.
/// assert!(matches!(store.on_request(&movie), PrefixDecision::Admitted { clusters: 1 }));
/// assert_eq!(store.on_request(&movie).serve_clusters(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixStore {
    config: PrefixConfig,
    /// Points per title, and the resident prefixes ranked by them: kept
    /// in step with `residents` by every admission and eviction.
    tracker: PopularityTracker,
    /// Resident prefix per title: length in clusters plus the exact
    /// megabytes it occupies (a whole-title prefix ends on the title's
    /// partial trailing cluster, so `clusters × c` would overcount).
    residents: BTreeMap<VideoId, ResidentPrefix>,
    /// Megabytes currently occupied by resident prefixes.
    occupied_mb: f64,
    stats: PrefixStats,
}

/// A resident prefix: its length and the exact space it occupies.
#[derive(Debug, Copy, Clone, PartialEq)]
struct ResidentPrefix {
    clusters: u32,
    mb: f64,
}

impl PrefixStore {
    /// Creates an empty store.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidPrefixConfig`] when the capacity is
    /// zero, `base_clusters` is zero, or `max_clusters < base_clusters`.
    pub fn new(config: PrefixConfig) -> Result<Self, StorageError> {
        if config.capacity.is_zero() {
            return Err(StorageError::InvalidPrefixConfig(
                "prefix capacity must be positive",
            ));
        }
        if config.base_clusters == 0 {
            return Err(StorageError::InvalidPrefixConfig(
                "base prefix length must be at least one cluster",
            ));
        }
        if config.max_clusters < config.base_clusters {
            return Err(StorageError::InvalidPrefixConfig(
                "max prefix length must be at least the base length",
            ));
        }
        Ok(PrefixStore {
            config,
            tracker: PopularityTracker::new(),
            residents: BTreeMap::new(),
            occupied_mb: 0.0,
            stats: PrefixStats::default(),
        })
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// Megabytes currently occupied by resident prefixes.
    pub fn occupied_mb(&self) -> f64 {
        self.occupied_mb
    }

    /// Resident prefix length of `video`, in clusters.
    pub fn resident_clusters(&self, video: VideoId) -> Option<u32> {
        self.residents.get(&video).map(|r| r.clusters)
    }

    /// Current popularity points of `video`.
    pub fn points(&self, video: VideoId) -> u64 {
        self.tracker.points(video)
    }

    /// The popularity-driven target prefix length for a title with
    /// `points` requests, before capping at the title's own length.
    pub fn target_clusters(&self, points: u64) -> u32 {
        let grown = points
            .saturating_sub(1)
            .checked_div(self.config.growth_points)
            .map_or(0, |g| g.min(u32::MAX as u64) as u32);
        self.config
            .base_clusters
            .saturating_add(grown)
            .min(self.config.max_clusters)
    }

    /// Megabytes a `clusters`-long prefix of `video` occupies: full
    /// clusters except possibly the title's own trailing partial one.
    pub fn prefix_mb(&self, video: &VideoMeta, clusters: u32) -> f64 {
        let parts = self.title_clusters(video);
        let c = self.config.cluster_size.megabytes().as_f64();
        if clusters >= parts {
            video.size().as_f64()
        } else {
            c * clusters as f64
        }
    }

    /// The title's own length in clusters.
    pub fn title_clusters(&self, video: &VideoMeta) -> u32 {
        self.config
            .cluster_size
            .parts(video.size())
            .min(u32::MAX as usize) as u32
    }

    /// Processes one request for `video`, returning the store's decision.
    pub fn on_request(&mut self, video: &VideoMeta) -> PrefixDecision {
        self.stats.requests += 1;
        let points = self.tracker.award(video.id());
        let target = self.target_clusters(points).min(self.title_clusters(video));

        if let Some(current) = self.residents.get(&video.id()).copied() {
            self.stats.hits += 1;
            if target > current.clusters {
                let new_mb = self.prefix_mb(video, target);
                let delta = new_mb - current.mb;
                if self.free_mb() >= delta - f64::EPSILON {
                    self.occupied_mb += delta;
                    self.residents.insert(
                        video.id(),
                        ResidentPrefix {
                            clusters: target,
                            mb: new_mb,
                        },
                    );
                    self.stats.extensions += 1;
                    self.debug_check_occupancy();
                    return PrefixDecision::HitExtended {
                        from_clusters: current.clusters,
                        to_clusters: target,
                    };
                }
            }
            return PrefixDecision::Hit {
                clusters: current.clusters,
            };
        }

        if points <= self.config.admit_threshold {
            self.stats.rejections += 1;
            return PrefixDecision::NotAdmitted {
                reason: RejectKind::BelowThreshold,
            };
        }

        let need = self.prefix_mb(video, target);
        let stored = ResidentPrefix {
            clusters: target,
            mb: need,
        };
        let free = self.free_mb();
        if free >= need {
            self.admit(video.id(), stored);
            return PrefixDecision::Admitted { clusters: target };
        }

        // Evict strictly-colder prefixes, coldest first, until the
        // newcomer fits — or nothing, if it never would.
        let mut evicted = Vec::new();
        let mut freed = 0.0;
        let residents = &self.residents;
        let plan = self.tracker.plan_until_fit(points, |victim| {
            let freed_mb = residents.get(&victim).map_or(0.0, |r| r.mb);
            freed += freed_mb;
            evicted.push(PrefixEviction { victim, freed_mb });
            free + freed >= need
        });
        let victims = match plan {
            Ok(victims) => victims,
            Err(reason) => {
                self.stats.rejections += 1;
                return PrefixDecision::NotAdmitted { reason };
            }
        };
        for victim in self.tracker.evict_first(victims) {
            self.residents.remove(&victim);
        }
        for eviction in &evicted {
            self.occupied_mb = (self.occupied_mb - eviction.freed_mb).max(0.0);
            self.stats.evictions += 1;
        }
        self.admit(video.id(), stored);
        PrefixDecision::AdmittedAfterEviction {
            evicted,
            clusters: target,
        }
    }

    /// Stores a prefix the caller made room for, and ranks its title.
    fn admit(&mut self, video: VideoId, stored: ResidentPrefix) {
        self.residents.insert(video, stored);
        self.tracker.rank(video);
        self.occupied_mb += stored.mb;
        self.stats.admissions += 1;
        self.debug_check_occupancy();
    }

    /// Free space in megabytes.
    fn free_mb(&self) -> f64 {
        self.config.capacity.as_f64() - self.occupied_mb
    }

    /// Exact megabytes occupied by the resident prefix of `video` (0
    /// when not resident).
    pub fn resident_mb(&self, video: VideoId) -> f64 {
        self.residents.get(&video).map(|r| r.mb).unwrap_or(0.0)
    }

    /// Dev-run mirror of the auditor's capacity rule (A014): resident
    /// prefix bytes never exceed the store's allocation.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug mirror of audit rule A014: resident prefix bytes never exceed the allocation"
    )]
    fn debug_check_occupancy(&self) {
        debug_assert!(
            self.occupied_mb <= self.config.capacity.as_f64() + 1e-9,
            "prefix occupancy {} MB exceeds capacity {} MB",
            self.occupied_mb,
            self.config.capacity.as_f64()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn video(id: u32, mb: f64) -> VideoMeta {
        VideoMeta::new(VideoId::new(id), format!("t{id}"), Megabytes::new(mb), 1.5)
    }

    /// 300 MB store, 100 MB clusters, admit on first request, prefixes
    /// grow from 1 cluster by one per 2 further requests, capped at 3.
    fn small_store() -> PrefixStore {
        PrefixStore::new(PrefixConfig {
            capacity: Megabytes::new(300.0),
            cluster_size: ClusterSize::new(Megabytes::new(100.0)),
            admit_threshold: 0,
            base_clusters: 1,
            max_clusters: 3,
            growth_points: 2,
        })
        .unwrap()
    }

    #[test]
    fn admits_base_prefix_then_hits() {
        let mut s = small_store();
        let v = video(1, 700.0);
        assert_eq!(s.on_request(&v), PrefixDecision::Admitted { clusters: 1 });
        assert!((s.occupied_mb() - 100.0).abs() < 1e-9);
        let d = s.on_request(&v);
        assert_eq!(d, PrefixDecision::Hit { clusters: 1 });
        assert_eq!(d.serve_clusters(), 1);
        assert!(d.is_hit());
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().admissions, 1);
    }

    #[test]
    fn popularity_extends_prefix_in_place() {
        let mut s = small_store();
        let v = video(1, 700.0);
        s.on_request(&v); // point 1: admit 1 cluster
        s.on_request(&v); // point 2: hit, target still 1
                          // Point 3: target = 1 + (3-1)/2 = 2 clusters → extension.
        let d = s.on_request(&v);
        assert_eq!(
            d,
            PrefixDecision::HitExtended {
                from_clusters: 1,
                to_clusters: 2,
            }
        );
        // The current session is served the pre-extension length.
        assert_eq!(d.serve_clusters(), 1);
        assert_eq!(s.resident_clusters(v.id()), Some(2));
        assert!((s.occupied_mb() - 200.0).abs() < 1e-9);
        assert_eq!(s.stats().extensions, 1);
    }

    #[test]
    fn target_caps_at_max_and_title_length() {
        let mut s = small_store();
        assert_eq!(s.target_clusters(1), 1);
        assert_eq!(s.target_clusters(3), 2);
        assert_eq!(s.target_clusters(5), 3);
        assert_eq!(s.target_clusters(500), 3, "capped at max_clusters");
        // A 150 MB title is 2 clusters long; its prefix can never be 3.
        let short = video(9, 150.0);
        for _ in 0..10 {
            s.on_request(&short);
        }
        assert_eq!(s.resident_clusters(short.id()), Some(2));
        // Whole-title prefix occupies the exact title size, not 2 × c.
        assert!((s.resident_mb(short.id()) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn growth_disabled_keeps_base_length() {
        let mut s = PrefixStore::new(PrefixConfig {
            growth_points: 0,
            admit_threshold: 0,
            ..PrefixConfig::default()
        })
        .unwrap();
        let v = video(1, 700.0);
        for _ in 0..20 {
            s.on_request(&v);
        }
        assert_eq!(s.resident_clusters(v.id()), Some(1));
        assert_eq!(s.stats().extensions, 0);
    }

    #[test]
    fn admission_threshold_delays_storing() {
        let mut s = PrefixStore::new(PrefixConfig {
            admit_threshold: 2,
            capacity: Megabytes::new(300.0),
            cluster_size: ClusterSize::new(Megabytes::new(100.0)),
            base_clusters: 1,
            max_clusters: 3,
            growth_points: 2,
        })
        .unwrap();
        let v = video(1, 700.0);
        for _ in 0..2 {
            assert_eq!(
                s.on_request(&v),
                PrefixDecision::NotAdmitted {
                    reason: RejectKind::BelowThreshold,
                }
            );
        }
        // Third request: points (3) > threshold (2); target is already 2.
        assert_eq!(s.on_request(&v), PrefixDecision::Admitted { clusters: 2 });
    }

    #[test]
    fn hotter_newcomer_evicts_coldest_first() {
        let mut s = small_store();
        s.on_request(&video(1, 700.0)); // 1 pt, 100 MB
        s.on_request(&video(2, 700.0)); // 1 pt, 100 MB
        s.on_request(&video(3, 700.0)); // 1 pt, 100 MB → store full
        let newcomer = video(4, 700.0);
        // 1 pt vs 1 pt: nobody strictly colder.
        assert_eq!(
            s.on_request(&newcomer),
            PrefixDecision::NotAdmitted {
                reason: RejectKind::NotPopularEnough,
            }
        );
        // 2 pts: evicts the lowest-id 1-pt resident only.
        let d = s.on_request(&newcomer);
        assert_eq!(
            d,
            PrefixDecision::AdmittedAfterEviction {
                evicted: vec![PrefixEviction {
                    victim: VideoId::new(1),
                    freed_mb: 100.0,
                }],
                clusters: 1,
            }
        );
        assert_eq!(s.resident_clusters(VideoId::new(1)), None);
        assert_eq!(s.resident_clusters(VideoId::new(2)), Some(1));
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn never_evicts_in_vain() {
        let mut s = PrefixStore::new(PrefixConfig {
            capacity: Megabytes::new(200.0),
            cluster_size: ClusterSize::new(Megabytes::new(100.0)),
            admit_threshold: 0,
            base_clusters: 2,
            max_clusters: 2,
            growth_points: 0,
        })
        .unwrap();
        s.on_request(&video(1, 700.0)); // 2 clusters = 200 MB, store full
        s.on_request(&video(1, 700.0)); // 2 pts
        let newcomer = video(2, 700.0);
        s.on_request(&newcomer); // 1 pt < resident's 2: nothing colder
        assert_eq!(s.stats().evictions, 0);
        assert_eq!(s.resident_clusters(VideoId::new(1)), Some(2));
        // A title bigger than the whole store can never be admitted.
        let mut tiny = PrefixStore::new(PrefixConfig {
            capacity: Megabytes::new(50.0),
            cluster_size: ClusterSize::new(Megabytes::new(100.0)),
            admit_threshold: 0,
            base_clusters: 1,
            max_clusters: 1,
            growth_points: 0,
        })
        .unwrap();
        assert_eq!(
            tiny.on_request(&video(3, 700.0)),
            PrefixDecision::NotAdmitted {
                reason: RejectKind::NotPopularEnough,
            }
        );
    }

    #[test]
    fn extension_blocked_by_full_store_still_hits() {
        let mut s = small_store();
        let a = video(1, 700.0);
        let b = video(2, 700.0);
        s.on_request(&a); // 100 MB
        s.on_request(&b); // 200 MB
        s.on_request(&b); // hit
        s.on_request(&b); // extends b to 2 clusters → 300 MB, full
                          // a's third request wants 2 clusters but there is no room: the
                          // store must still serve the resident single cluster.
        s.on_request(&a);
        let d = s.on_request(&a);
        assert_eq!(d, PrefixDecision::Hit { clusters: 1 });
        assert_eq!(s.resident_clusters(a.id()), Some(1));
        assert!((s.occupied_mb() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = |cfg: PrefixConfig| PrefixStore::new(cfg).unwrap_err();
        assert!(matches!(
            bad(PrefixConfig {
                capacity: Megabytes::ZERO,
                ..PrefixConfig::default()
            }),
            StorageError::InvalidPrefixConfig(_)
        ));
        assert!(matches!(
            bad(PrefixConfig {
                base_clusters: 0,
                ..PrefixConfig::default()
            }),
            StorageError::InvalidPrefixConfig(_)
        ));
        assert!(matches!(
            bad(PrefixConfig {
                base_clusters: 4,
                max_clusters: 2,
                ..PrefixConfig::default()
            }),
            StorageError::InvalidPrefixConfig(_)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every eviction reports what the victim held just before the
        /// request, and the reports add up to the space the evictions
        /// gave back: the occupancy before, plus the newcomer, minus
        /// the freed megabytes, is the occupancy after.
        #[test]
        fn evictions_carry_the_space_they_free(
            requests in proptest::collection::vec((0u32..16, 1usize..9), 1..400),
            capacity_clusters in 2u32..8,
        ) {
            let mut store = PrefixStore::new(PrefixConfig {
                capacity: Megabytes::new(capacity_clusters as f64 * 100.0),
                cluster_size: ClusterSize::new(Megabytes::new(100.0)),
                admit_threshold: 0,
                base_clusters: 1,
                max_clusters: 3,
                growth_points: 1,
            })
            .unwrap();
            let mut evictions = 0;
            for &(id, half_clusters) in &requests {
                let v = video(id, half_clusters as f64 * 50.0);
                let before = store.clone();
                let PrefixDecision::AdmittedAfterEviction { evicted, .. } = store.on_request(&v)
                else {
                    continue;
                };
                prop_assert!(!evicted.is_empty());
                let mut freed = 0.0;
                for e in &evicted {
                    prop_assert_eq!(
                        e.freed_mb.to_bits(),
                        before.resident_mb(e.victim).to_bits()
                    );
                    prop_assert!(e.freed_mb > 0.0);
                    prop_assert_eq!(store.resident_clusters(e.victim), None);
                    freed += e.freed_mb;
                }
                let drop = before.occupied_mb() + store.resident_mb(v.id()) - store.occupied_mb();
                prop_assert!((drop - freed).abs() < 1e-9, "dropped {} freed {}", drop, freed);
                evictions += evicted.len() as u64;
            }
            prop_assert_eq!(evictions, store.stats().evictions);
        }
    }

    /// A001-style differential check: an independent, deliberately naive
    /// reimplementation of the prefix discipline replays random request
    /// streams and must agree with [`PrefixStore`] decision for
    /// decision, byte for byte of occupancy. Every eviction so carries
    /// the megabytes its victim held just before the request, and the
    /// store counts each one.
    mod replay_properties {
        use super::*;

        /// The independent model: plain data, no shared helpers.
        struct NaiveStore {
            capacity: f64,
            cluster: f64,
            threshold: u64,
            base: u32,
            max: u32,
            growth: u64,
            points: BTreeMap<u32, u64>,
            resident: BTreeMap<u32, (u32, f64)>,
        }

        impl NaiveStore {
            fn occupied(&self) -> f64 {
                self.resident.values().map(|&(_, mb)| mb).sum()
            }

            fn title_clusters(&self, size: f64) -> u32 {
                ((size / self.cluster).ceil() as u32).max(1)
            }

            fn prefix_bytes(&self, size: f64, k: u32) -> f64 {
                if k >= self.title_clusters(size) {
                    size
                } else {
                    self.cluster * k as f64
                }
            }

            fn target(&self, points: u64, size: f64) -> u32 {
                let grown = (points - 1).checked_div(self.growth).unwrap_or(0) as u32;
                (self.base + grown)
                    .min(self.max)
                    .min(self.title_clusters(size))
            }

            fn request(&mut self, id: u32, size: f64) -> PrefixDecision {
                let p = self.points.entry(id).or_insert(0);
                *p += 1;
                let points = *p;
                let target = self.target(points, size);
                if let Some(&(cur, cur_mb)) = self.resident.get(&id) {
                    if target > cur {
                        let new_mb = self.prefix_bytes(size, target);
                        if self.capacity - self.occupied() >= new_mb - cur_mb - f64::EPSILON {
                            self.resident.insert(id, (target, new_mb));
                            return PrefixDecision::HitExtended {
                                from_clusters: cur,
                                to_clusters: target,
                            };
                        }
                    }
                    return PrefixDecision::Hit { clusters: cur };
                }
                if points <= self.threshold {
                    return PrefixDecision::NotAdmitted {
                        reason: RejectKind::BelowThreshold,
                    };
                }
                let need = self.prefix_bytes(size, target);
                let mut colder: Vec<u32> = self
                    .resident
                    .keys()
                    .copied()
                    .filter(|v| self.points[v] < points)
                    .collect();
                colder.sort_by_key(|v| (self.points[v], *v));
                let mut victims = Vec::new();
                let mut free = self.capacity - self.occupied();
                let mut i = 0;
                while free < need && i < colder.len() {
                    let mb = self.resident[&colder[i]].1;
                    free += mb;
                    victims.push((colder[i], mb));
                    i += 1;
                }
                if free < need {
                    return PrefixDecision::NotAdmitted {
                        reason: if colder.is_empty() {
                            RejectKind::NotPopularEnough
                        } else {
                            RejectKind::DoesNotFit
                        },
                    };
                }
                for (v, _) in &victims {
                    self.resident.remove(v);
                }
                self.resident.insert(id, (target, need));
                if victims.is_empty() {
                    PrefixDecision::Admitted { clusters: target }
                } else {
                    PrefixDecision::AdmittedAfterEviction {
                        evicted: victims
                            .into_iter()
                            .map(|(v, freed_mb)| PrefixEviction {
                                victim: VideoId::new(v),
                                freed_mb,
                            })
                            .collect(),
                        clusters: target,
                    }
                }
            }
        }

        proptest! {
            #[test]
            fn store_matches_independent_replay(
                requests in proptest::collection::vec((0u32..12, 1usize..9), 1..300),
                threshold in 0u64..3,
                base in 1u32..3,
                extra in 0u32..3,
                growth in 0u64..4,
                capacity_clusters in 2u32..10,
            ) {
                let cluster = 100.0;
                let capacity = capacity_clusters as f64 * cluster;
                let mut store = PrefixStore::new(PrefixConfig {
                    capacity: Megabytes::new(capacity),
                    cluster_size: ClusterSize::new(Megabytes::new(cluster)),
                    admit_threshold: threshold,
                    base_clusters: base,
                    max_clusters: base + extra,
                    growth_points: growth,
                }).unwrap();
                let mut naive = NaiveStore {
                    capacity,
                    cluster,
                    threshold,
                    base,
                    max: base + extra,
                    growth,
                    points: BTreeMap::new(),
                    resident: BTreeMap::new(),
                };
                let mut evictions = 0;
                for &(id, half_clusters) in &requests {
                    // Sizes land on half-cluster boundaries so partial
                    // trailing clusters are exercised.
                    let size = half_clusters as f64 * 50.0;
                    let v = video(id, size);
                    let got = store.on_request(&v);
                    let want = naive.request(id, size);
                    prop_assert_eq!(&got, &want, "decision diverged for v{} ({} MB)", id, size);
                    if let PrefixDecision::AdmittedAfterEviction { evicted, .. } = &got {
                        evictions += evicted.len() as u64;
                        for e in evicted {
                            prop_assert_eq!(store.resident_clusters(e.victim), None);
                        }
                    }
                    prop_assert!(
                        (store.occupied_mb() - naive.occupied()).abs() < 1e-6,
                        "occupancy diverged: {} vs {}",
                        store.occupied_mb(),
                        naive.occupied()
                    );
                    prop_assert!(store.occupied_mb() <= capacity + 1e-9);
                }
                prop_assert_eq!(store.stats().evictions, evictions);
            }
        }
    }
}
