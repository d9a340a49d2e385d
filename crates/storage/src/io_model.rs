//! A simple disk I/O timing model: seek + transfer, with stripe
//! parallelism.
//!
//! The paper motivates striping partly by read parallelism ("we propose
//! the use of as many disks as possible"); this model quantifies it for
//! the benches: reading a video striped over `n` disks overlaps the
//! transfers, so sustained throughput scales with
//! [`StripeLayout::disks_used`].

use crate::striping::StripeLayout;
use crate::video::Megabytes;

/// Seek + sequential-transfer timing of one disk.
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct DiskIoModel {
    /// Average positioning time per part read, in milliseconds.
    pub seek_ms: f64,
    /// Sustained sequential transfer rate, in MB/s.
    pub transfer_mb_per_s: f64,
}

impl Default for DiskIoModel {
    /// A late-1990s SCSI disk: ~9 ms average seek, ~12 MB/s sustained.
    fn default() -> Self {
        DiskIoModel {
            seek_ms: 9.0,
            transfer_mb_per_s: 12.0,
        }
    }
}

impl DiskIoModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `seek_ms` is negative or `transfer_mb_per_s` is not
    /// strictly positive.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `invalid seek time`, and `transfer_mb_per_s > 0.0`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(seek_ms: f64, transfer_mb_per_s: f64) -> Self {
        assert!(seek_ms >= 0.0 && seek_ms.is_finite(), "invalid seek time");
        assert!(
            transfer_mb_per_s > 0.0 && transfer_mb_per_s.is_finite(),
            "invalid transfer rate"
        );
        DiskIoModel {
            seek_ms,
            transfer_mb_per_s,
        }
    }

    /// Time to read a whole striped video when all used disks stream
    /// their parts concurrently: the slowest disk bounds the read.
    ///
    /// Each disk pays one seek per part it holds (parts of one video are
    /// not contiguous once other titles share the disk).
    ///
    /// The slowest disk is disk 0, which holds ⌈p / n⌉ parts: every disk
    /// pays the same time per part, and rounding a product is monotone
    /// in the part count, so no other disk's time can round above it.
    pub fn striped_read_secs(&self, layout: &StripeLayout, video_size: Megabytes) -> f64 {
        let parts = layout.parts();
        let part_mb = video_size.as_f64() / parts as f64;
        let per_part = self.seek_ms / 1_000.0 + part_mb / self.transfer_mb_per_s;
        // `max` against 0 maps a NaN time to 0, as a fold over the disks
        // from 0 would.
        0.0f64.max(layout.load_of_disk(0) as f64 * per_part)
    }

    /// Effective sustained throughput (MB/s) reading a striped video.
    pub fn striped_throughput_mb_per_s(&self, layout: &StripeLayout, video_size: Megabytes) -> f64 {
        let t = self.striped_read_secs(layout, video_size);
        if t <= 0.0 {
            0.0
        } else {
            video_size.as_f64() / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_parallelizes_reads() {
        let io = DiskIoModel::new(0.0, 10.0);
        let size = Megabytes::new(400.0);
        let serial = io.striped_read_secs(&StripeLayout::cyclic(4, 1), size);
        let parallel = io.striped_read_secs(&StripeLayout::cyclic(4, 4), size);
        assert!((serial - 40.0).abs() < 1e-9);
        assert!((parallel - 10.0).abs() < 1e-9);
        assert!(
            (io.striped_throughput_mb_per_s(&StripeLayout::cyclic(4, 4), size) - 40.0).abs() < 1e-9
        );
    }

    #[test]
    fn slowest_disk_bounds_the_read() {
        let io = DiskIoModel::new(0.0, 10.0);
        // 5 parts on 2 disks: disk 0 holds 3 parts.
        let layout = StripeLayout::cyclic(5, 2);
        let size = Megabytes::new(500.0);
        let t = io.striped_read_secs(&layout, size);
        assert!((t - 30.0).abs() < 1e-9); // 3 parts × 100 MB / 10 MB/s
    }

    #[test]
    fn seeks_accumulate_per_part() {
        let io = DiskIoModel::new(1_000.0, 1e12); // pure seek cost
        let layout = StripeLayout::cyclic(6, 3);
        let t = io.striped_read_secs(&layout, Megabytes::new(6.0));
        assert!((t - 2.0).abs() < 1e-6); // 2 parts per disk × 1 s
    }

    #[test]
    #[should_panic(expected = "transfer rate")]
    fn invalid_rate_rejected() {
        let _ = DiskIoModel::new(1.0, 0.0);
    }

    #[test]
    fn default_is_period_plausible() {
        let io = DiskIoModel::default();
        assert!(io.seek_ms > 0.0 && io.transfer_mb_per_s > 0.0);
    }
}
