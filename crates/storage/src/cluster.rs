//! The fixed cluster size `c` and the `p = size / c` partitioning.
//!
//! The paper: *"we propose the determination of a, fixed and common for
//! all disks, cluster size of c Mbytes/cluster, in such a way that each
//! video will be divided into p = (Video size in Mbytes)/c parts."*
//!
//! The cluster is also the unit of mid-stream re-routing: the Virtual
//! Routing Algorithm re-evaluates the optimal server before *each cluster*
//! is fetched, so `c` "plays a decisive part in dealing with network
//! congestion".

use crate::video::Megabytes;

/// The common cluster size `c`, in megabytes per cluster.
#[derive(Copy, Clone, PartialEq, PartialOrd, Debug)]
pub struct ClusterSize(Megabytes);

impl ClusterSize {
    /// Creates a cluster size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `cluster size must be positive`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(size: Megabytes) -> Self {
        assert!(!size.is_zero(), "cluster size must be positive");
        ClusterSize(size)
    }

    /// The cluster size in megabytes.
    pub fn megabytes(self) -> Megabytes {
        self.0
    }

    /// Number of parts `p` a video of `video_size` divides into.
    ///
    /// The paper defines `p = size / c`; a trailing partial cluster
    /// still occupies a part, so we round up. Every video has at least
    /// one part.
    pub fn parts(self, video_size: Megabytes) -> usize {
        let p = (video_size.as_f64() / self.0.as_f64()).ceil() as usize;
        p.max(1)
    }

    /// Size of part `index` (0-based) of a video of `video_size`: full
    /// clusters except possibly the last.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.parts(video_size)`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `index < p` is the caller's contract"
    )]
    pub fn part_size(self, video_size: Megabytes, index: usize) -> Megabytes {
        let p = self.parts(video_size);
        assert!(index < p, "part index {index} out of range (p = {p})");
        if index + 1 < p {
            self.0
        } else {
            let rem = video_size.as_f64() - self.0.as_f64() * (p - 1) as f64;
            if rem <= 0.0 {
                self.0
            } else {
                Megabytes::new(rem)
            }
        }
    }
}

impl Default for ClusterSize {
    /// 100 MB/cluster — roughly one minute of MPEG-2 era video, a
    /// reasonable middle of the re-routing granularity trade-off.
    fn default() -> Self {
        ClusterSize(Megabytes::new(100.0))
    }
}

impl std::fmt::Display for ClusterSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/cluster", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parts_divides_exactly() {
        let c = ClusterSize::new(Megabytes::new(100.0));
        assert_eq!(c.parts(Megabytes::new(700.0)), 7);
        assert_eq!(c.parts(Megabytes::new(100.0)), 1);
    }

    #[test]
    fn parts_rounds_up_partial_cluster() {
        let c = ClusterSize::new(Megabytes::new(100.0));
        assert_eq!(c.parts(Megabytes::new(701.0)), 8);
        assert_eq!(c.parts(Megabytes::new(1.0)), 1);
    }

    #[test]
    fn tiny_video_has_one_part() {
        let c = ClusterSize::new(Megabytes::new(100.0));
        assert_eq!(c.parts(Megabytes::new(0.0)), 1);
    }

    #[test]
    fn part_sizes_sum_to_video_size() {
        let c = ClusterSize::new(Megabytes::new(100.0));
        let size = Megabytes::new(730.0);
        let total: f64 = (0..c.parts(size))
            .map(|i| c.part_size(size, i).as_f64())
            .sum();
        assert!((total - 730.0).abs() < 1e-9);
        assert_eq!(c.part_size(size, 0).as_f64(), 100.0);
        assert_eq!(c.part_size(size, 7).as_f64(), 30.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn part_index_out_of_range_panics() {
        let c = ClusterSize::new(Megabytes::new(100.0));
        let _ = c.part_size(Megabytes::new(100.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cluster_rejected() {
        let _ = ClusterSize::new(Megabytes::ZERO);
    }

    #[test]
    fn default_is_100mb() {
        assert_eq!(ClusterSize::default().megabytes().as_f64(), 100.0);
    }

    proptest! {
        #[test]
        fn part_sizes_always_sum_to_video(
            c_mb in 1.0f64..500.0,
            v_mb in 0.5f64..10_000.0,
        ) {
            let c = ClusterSize::new(Megabytes::new(c_mb));
            let size = Megabytes::new(v_mb);
            let p = c.parts(size);
            let total: f64 = (0..p).map(|i| c.part_size(size, i).as_f64()).sum();
            prop_assert!((total - v_mb).abs() < 1e-6);
            // Every full part equals c, the last is in (0, c].
            for i in 0..p {
                let s = c.part_size(size, i).as_f64();
                prop_assert!(s > 0.0 && s <= c_mb + 1e-9);
                if i + 1 < p {
                    prop_assert!((s - c_mb).abs() < 1e-9);
                }
            }
        }
    }
}
