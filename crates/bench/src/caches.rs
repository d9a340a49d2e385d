//! Baseline title caches (LRU, LFU) for the E1 cache comparison.
//!
//! The DMA is, at heart, a cache admission/eviction policy; E1 compares
//! its hit ratio against the textbook policies a 1990s system would have
//! used. These baselines manage whole titles against a byte budget, admit
//! on every miss, and differ only in the eviction rule.

use std::collections::BTreeMap;

use vod_storage::dma::{DmaCache, DmaDecision};
use vod_storage::popularity::PopularityTracker;
use vod_storage::video::{Megabytes, VideoId, VideoMeta};

/// A title cache that can replay a request stream.
pub trait TitleCache {
    /// Short policy name for reports.
    fn name(&self) -> &str;

    /// Processes one request; returns `true` on a cache hit.
    fn request(&mut self, video: &VideoMeta) -> bool;

    /// Returns true if `video` is currently cached.
    fn contains(&self, video: VideoId) -> bool;
}

/// Least-recently-used whole-title cache; admits every miss.
#[derive(Debug, Clone)]
pub struct LruTitleCache {
    capacity: Megabytes,
    used: f64,
    /// id → (size, last-use tick)
    entries: BTreeMap<VideoId, (f64, u64)>,
    tick: u64,
}

impl LruTitleCache {
    /// Creates an empty cache with a size budget.
    pub fn new(capacity: Megabytes) -> Self {
        LruTitleCache {
            capacity,
            used: 0.0,
            entries: BTreeMap::new(),
            tick: 0,
        }
    }

    fn evict_until(&mut self, needed: f64) {
        while self.used + needed > self.capacity.as_f64() && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, &(_, t))| t)
                .map(|(&id, _)| id)
                .expect("non-empty");
            let (size, _) = self.entries.remove(&victim).expect("victim exists");
            self.used -= size;
        }
    }
}

impl TitleCache for LruTitleCache {
    fn name(&self) -> &str {
        "lru"
    }

    fn request(&mut self, video: &VideoMeta) -> bool {
        self.tick += 1;
        let size = video.size().as_f64();
        if let Some(entry) = self.entries.get_mut(&video.id()) {
            entry.1 = self.tick;
            return true;
        }
        if size > self.capacity.as_f64() {
            return false; // can never fit
        }
        self.evict_until(size);
        self.entries.insert(video.id(), (size, self.tick));
        self.used += size;
        false
    }

    fn contains(&self, video: VideoId) -> bool {
        self.entries.contains_key(&video)
    }
}

/// Least-frequently-used whole-title cache; admits every miss. Its use
/// counts and victim order are the DMA's popularity ranking: every
/// request is a point, and the victim is the least popular resident.
#[derive(Debug, Clone)]
pub struct LfuTitleCache {
    capacity: Megabytes,
    used: f64,
    /// id → size
    entries: BTreeMap<VideoId, f64>,
    ranking: PopularityTracker,
}

impl LfuTitleCache {
    /// Creates an empty cache with a size budget.
    pub fn new(capacity: Megabytes) -> Self {
        LfuTitleCache {
            capacity,
            used: 0.0,
            entries: BTreeMap::new(),
            ranking: PopularityTracker::new(),
        }
    }

    fn evict_until(&mut self, needed: f64) {
        while self.used + needed > self.capacity.as_f64() && !self.entries.is_empty() {
            let (_, victim) = self.ranking.least().expect("non-empty");
            self.ranking.evict_first(1);
            let size = self.entries.remove(&victim).expect("victim exists");
            self.used -= size;
        }
    }
}

impl TitleCache for LfuTitleCache {
    fn name(&self) -> &str {
        "lfu"
    }

    fn request(&mut self, video: &VideoMeta) -> bool {
        self.ranking.award(video.id());
        let size = video.size().as_f64();
        if self.entries.contains_key(&video.id()) {
            return true;
        }
        if size > self.capacity.as_f64() {
            return false;
        }
        self.evict_until(size);
        self.entries.insert(video.id(), size);
        self.ranking.rank(video.id());
        self.used += size;
        false
    }

    fn contains(&self, video: VideoId) -> bool {
        self.entries.contains_key(&video)
    }
}

/// Adapter running the paper's DMA as a [`TitleCache`].
#[derive(Debug, Clone)]
pub struct DmaTitleCache {
    inner: DmaCache,
}

impl DmaTitleCache {
    /// Wraps a configured DMA cache.
    pub fn new(inner: DmaCache) -> Self {
        DmaTitleCache { inner }
    }

    /// The wrapped cache (for stats).
    pub fn inner(&self) -> &DmaCache {
        &self.inner
    }
}

impl TitleCache for DmaTitleCache {
    fn name(&self) -> &str {
        "dma"
    }

    fn request(&mut self, video: &VideoMeta) -> bool {
        matches!(self.inner.on_request(video), DmaDecision::Hit)
    }

    fn contains(&self, video: VideoId) -> bool {
        self.inner.contains(video)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video(id: u32, mb: f64) -> VideoMeta {
        VideoMeta::new(VideoId::new(id), format!("t{id}"), Megabytes::new(mb), 1.5)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruTitleCache::new(Megabytes::new(200.0));
        assert!(!c.request(&video(1, 100.0)));
        assert!(!c.request(&video(2, 100.0)));
        assert!(c.request(&video(1, 100.0))); // refresh 1
        assert!(!c.request(&video(3, 100.0))); // evicts 2
        assert!(c.contains(VideoId::new(1)));
        assert!(!c.contains(VideoId::new(2)));
        assert!(c.contains(VideoId::new(3)));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = LfuTitleCache::new(Megabytes::new(200.0));
        c.request(&video(1, 100.0));
        c.request(&video(1, 100.0));
        c.request(&video(1, 100.0));
        c.request(&video(2, 100.0));
        c.request(&video(3, 100.0)); // evicts 2 (count 1 < 3)
        assert!(c.contains(VideoId::new(1)));
        assert!(!c.contains(VideoId::new(2)));
        assert!(c.contains(VideoId::new(3)));
    }

    #[test]
    fn oversized_titles_never_cached() {
        let mut lru = LruTitleCache::new(Megabytes::new(50.0));
        assert!(!lru.request(&video(1, 100.0)));
        assert!(!lru.contains(VideoId::new(1)));
        let mut lfu = LfuTitleCache::new(Megabytes::new(50.0));
        assert!(!lfu.request(&video(1, 100.0)));
        assert!(!lfu.contains(VideoId::new(1)));
    }

    #[test]
    fn lru_evicts_multiple_when_needed() {
        let mut c = LruTitleCache::new(Megabytes::new(300.0));
        c.request(&video(1, 100.0));
        c.request(&video(2, 100.0));
        c.request(&video(3, 100.0));
        c.request(&video(4, 250.0)); // needs to evict 1, 2 and 3
        assert!(c.contains(VideoId::new(4)));
        assert!(!c.contains(VideoId::new(1)));
        assert!(!c.contains(VideoId::new(2)));
    }

    /// The LFU cache before it shared the DMA's ranking: its own count
    /// map, and the victim found by a `min_by_key` scan of its entries.
    #[derive(Default)]
    struct ScanLfu {
        used: f64,
        /// id → (size, use count)
        entries: BTreeMap<VideoId, (f64, u64)>,
        counts: BTreeMap<VideoId, u64>,
    }

    impl ScanLfu {
        fn request(&mut self, video: &VideoMeta, capacity: f64) -> bool {
            let count = self.counts.entry(video.id()).or_insert(0);
            *count += 1;
            let (count, size) = (*count, video.size().as_f64());
            if let Some(entry) = self.entries.get_mut(&video.id()) {
                entry.1 = count;
                return true;
            }
            if size > capacity {
                return false;
            }
            while self.used + size > capacity && !self.entries.is_empty() {
                let scan = self.entries.iter().min_by_key(|(&id, &(_, c))| (c, id));
                let victim = *scan.unwrap().0;
                self.used -= self.entries.remove(&victim).unwrap().0;
            }
            self.entries.insert(video.id(), (size, count));
            self.used += size;
            false
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every request is a hit or a miss for both, and both hold the
        /// same titles, in the same space, after it.
        #[test]
        fn lfu_victims_are_the_scans(
            requests in proptest::collection::vec(0u32..24, 1..400),
            sizes in proptest::collection::vec(20.0f64..300.0, 1..8),
            capacity in 100.0f64..900.0,
        ) {
            let mut ranked = LfuTitleCache::new(Megabytes::new(capacity));
            let mut scan = ScanLfu::default();
            for &id in &requests {
                let v = video(id, sizes[id as usize % sizes.len()]);
                proptest::prop_assert_eq!(ranked.request(&v), scan.request(&v, capacity));
                proptest::prop_assert!(ranked.entries.keys().eq(scan.entries.keys()));
                proptest::prop_assert_eq!(ranked.used.to_bits(), scan.used.to_bits());
            }
        }
    }

    #[test]
    fn dma_adapter_reports_hits() {
        use vod_storage::cluster::ClusterSize;
        use vod_storage::dma::DmaConfig;
        let dma = DmaCache::new(DmaConfig {
            disk_count: 2,
            disk_capacity: Megabytes::new(100.0),
            cluster_size: ClusterSize::new(Megabytes::new(50.0)),
            ..DmaConfig::default()
        })
        .unwrap();
        let mut c = DmaTitleCache::new(dma);
        assert_eq!(c.name(), "dma");
        assert!(!c.request(&video(1, 200.0)));
        assert!(c.request(&video(1, 200.0)));
        assert!(c.contains(VideoId::new(1)));
        assert_eq!(c.inner().stats().hits, 1);
    }
}
