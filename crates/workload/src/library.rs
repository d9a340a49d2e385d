//! Video library generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use vod_storage::video::{Megabytes, VideoId, VideoLibrary, VideoMeta};

/// Parameters of a generated library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibraryConfig {
    /// Number of titles.
    pub titles: usize,
    /// Smallest title size in MB.
    pub min_size_mb: f64,
    /// Largest title size in MB.
    pub max_size_mb: f64,
    /// Playback bitrate in Mbps (uniform across titles; the paper targets
    /// a fixed minimum decent frame rate).
    pub bitrate_mbps: f64,
}

impl Default for LibraryConfig {
    /// 200 titles of 300–900 MB at 1.5 Mbps — MPEG-1-era feature films.
    fn default() -> Self {
        LibraryConfig {
            titles: 200,
            min_size_mb: 300.0,
            max_size_mb: 900.0,
            bitrate_mbps: 1.5,
        }
    }
}

/// Deterministic library generator.
///
/// # Examples
///
/// ```
/// use vod_workload::{LibraryConfig, LibraryGenerator};
///
/// let lib = LibraryGenerator::new(LibraryConfig::default()).generate(7);
/// assert_eq!(lib.len(), 200);
/// let again = LibraryGenerator::new(LibraryConfig::default()).generate(7);
/// assert_eq!(lib, again);
/// ```
#[derive(Debug, Clone)]
pub struct LibraryGenerator {
    config: LibraryConfig,
}

impl LibraryGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent (no titles, min > max,
    /// non-positive sizes or bitrate).
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `need at least one title`, `config.min_size_mb > 0.0` and below the max, no `invalid bitrate`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(config: LibraryConfig) -> Self {
        assert!(config.titles > 0, "need at least one title");
        assert!(
            config.min_size_mb > 0.0 && config.min_size_mb <= config.max_size_mb,
            "invalid size range"
        );
        assert!(
            config.bitrate_mbps.is_finite() && config.bitrate_mbps > 0.0,
            "invalid bitrate"
        );
        LibraryGenerator { config }
    }

    /// Generates the library. Ids are dense `0..titles`; id order is also
    /// the intended popularity order (rank 0 hottest), matching how
    /// [`TraceConfig`](crate::TraceConfig) draws Zipf ranks.
    pub fn generate(&self, seed: u64) -> VideoLibrary {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.config.titles)
            .map(|i| {
                let size = if self.config.min_size_mb == self.config.max_size_mb {
                    self.config.min_size_mb
                } else {
                    rng.gen_range(self.config.min_size_mb..=self.config.max_size_mb)
                };
                VideoMeta::new(
                    VideoId::new(i as u32),
                    format!("video-{i:04}"),
                    Megabytes::new(size),
                    self.config.bitrate_mbps,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_with_dense_ids() {
        let lib = LibraryGenerator::new(LibraryConfig {
            titles: 10,
            ..LibraryConfig::default()
        })
        .generate(1);
        assert_eq!(lib.len(), 10);
        for (i, id) in lib.ids().enumerate() {
            assert_eq!(id, VideoId::new(i as u32));
        }
    }

    #[test]
    fn sizes_respect_bounds() {
        let cfg = LibraryConfig {
            titles: 100,
            min_size_mb: 100.0,
            max_size_mb: 200.0,
            bitrate_mbps: 1.5,
        };
        let lib = LibraryGenerator::new(cfg).generate(2);
        for v in lib.iter() {
            let s = v.size().as_f64();
            assert!((100.0..=200.0).contains(&s));
            assert_eq!(v.bitrate_mbps(), 1.5);
        }
    }

    #[test]
    fn fixed_size_range_is_exact() {
        let cfg = LibraryConfig {
            titles: 5,
            min_size_mb: 500.0,
            max_size_mb: 500.0,
            bitrate_mbps: 2.0,
        };
        let lib = LibraryGenerator::new(cfg).generate(3);
        assert!(lib.iter().all(|v| v.size().as_f64() == 500.0));
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let gen = LibraryGenerator::new(LibraryConfig::default());
        assert_eq!(gen.generate(5), gen.generate(5));
        assert_ne!(gen.generate(5), gen.generate(6));
    }

    #[test]
    fn titles_are_unique() {
        let lib = LibraryGenerator::new(LibraryConfig::default()).generate(1);
        let mut names: Vec<&str> = lib.iter().map(|v| v.title()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), lib.len());
    }

    #[test]
    #[should_panic(expected = "size range")]
    fn inverted_range_rejected() {
        let _ = LibraryGenerator::new(LibraryConfig {
            min_size_mb: 10.0,
            max_size_mb: 1.0,
            ..LibraryConfig::default()
        });
    }
}
