//! Cyclic data striping across disks (the paper's Figure 3).
//!
//! *"These parts will then be distributed for storage with a cyclic manner
//! to the available disks. Thus, assuming a number of n available disks,
//! if n > p then one video part is stored in each one of the first p hard
//! disks. Otherwise, if n < p the first n video parts are stored in the n
//! available disks and the rest p − n parts are distributed to the same
//! disks starting from disk 1 and reusing as many of them as needed."*
//!
//! In other words, part `i` lands on disk `i mod n`.
//!
//! A layout is therefore two numbers, `(parts, disks)`, and every
//! question about it — which disk holds a part, how many parts a disk
//! holds, how uneven the disks are — has a closed-form answer that
//! costs the same for a 2-part trailer as for a 2 000-part feature.

use std::iter::StepBy;
use std::ops::Range;

use crate::cluster::ClusterSize;
use crate::video::Megabytes;

/// The stripe placement of one video across a disk array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeLayout {
    parts: usize,
    disk_count: usize,
}

impl StripeLayout {
    /// The cyclic layout of `parts` video parts over `disk_count` disks:
    /// part `i` on disk `i mod n`.
    ///
    /// # Panics
    ///
    /// Panics if `disk_count` or `parts` is zero.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `striping needs at least one disk` and `a video has at least one part`; a typed error is ROADMAP 4(a)"
    )]
    pub fn cyclic(parts: usize, disk_count: usize) -> Self {
        assert!(disk_count > 0, "striping needs at least one disk");
        assert!(parts > 0, "a video has at least one part");
        StripeLayout { parts, disk_count }
    }

    /// Computes the layout of a whole video given the common cluster size.
    ///
    /// # Panics
    ///
    /// Panics if `disk_count` is zero.
    pub fn for_video(video_size: Megabytes, cluster: ClusterSize, disk_count: usize) -> Self {
        Self::cyclic(cluster.parts(video_size), disk_count)
    }

    /// Number of parts in the stripe.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Number of disks in the array the layout was computed for.
    pub fn disk_count(&self) -> usize {
        self.disk_count
    }

    /// The disk holding part `index` (`index mod n`; an index past the
    /// last part names the disk the cyclic rule would give it).
    pub fn disk_of_part(&self, index: usize) -> usize {
        index % self.disk_count
    }

    /// The part indices stored on `disk`, ascending: `d, d + n, …`.
    pub fn parts_on_disk(&self, disk: usize) -> Vec<usize> {
        self.part_indices(disk).collect()
    }

    /// [`StripeLayout::parts_on_disk`] without the allocation. A disk
    /// outside the array holds nothing.
    pub(crate) fn part_indices(&self, disk: usize) -> StepBy<Range<usize>> {
        let first = if disk < self.disk_count {
            disk
        } else {
            self.parts
        };
        (first..self.parts).step_by(self.disk_count)
    }

    /// Number of parts stored on `disk`: ⌈(p − d) / n⌉ for a disk of the
    /// array that the stripe reaches, 0 otherwise. Disk 0 holds the
    /// most, ⌈p / n⌉.
    pub fn load_of_disk(&self, disk: usize) -> usize {
        if disk < self.disk_count && disk < self.parts {
            (self.parts - disk - 1) / self.disk_count + 1
        } else {
            0
        }
    }

    /// Number of distinct disks actually holding parts
    /// (`min(parts, disk_count)` for cyclic striping).
    pub fn disks_used(&self) -> usize {
        self.parts.min(self.disk_count)
    }

    /// The maximum imbalance between any two disks' part counts: 1 when
    /// `n` does not divide `p` (the first `p mod n` disks hold one part
    /// more), 0 when it does.
    pub fn imbalance(&self) -> usize {
        usize::from(!self.parts.is_multiple_of(self.disk_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fewer_parts_than_disks_uses_first_p_disks() {
        // n > p: one part per disk on the first p disks.
        let layout = StripeLayout::cyclic(3, 8);
        assert_eq!(layout.parts(), 3);
        assert_eq!(
            (0..3).map(|i| layout.disk_of_part(i)).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(layout.disks_used(), 3);
        for d in 3..8 {
            assert_eq!(layout.load_of_disk(d), 0);
        }
    }

    #[test]
    fn more_parts_than_disks_wraps_around() {
        // n < p: parts wrap starting again from disk 0 ("disk 1" in the
        // paper's 1-based numbering).
        let layout = StripeLayout::cyclic(7, 3);
        assert_eq!(layout.disk_of_part(0), 0);
        assert_eq!(layout.disk_of_part(2), 2);
        assert_eq!(layout.disk_of_part(3), 0);
        assert_eq!(layout.disk_of_part(6), 0);
        assert_eq!(layout.parts_on_disk(0), vec![0, 3, 6]);
        assert_eq!(layout.parts_on_disk(1), vec![1, 4]);
        assert_eq!(layout.load_of_disk(0), 3);
        assert_eq!(layout.disks_used(), 3);
    }

    #[test]
    fn for_video_combines_cluster_math() {
        let layout = StripeLayout::for_video(
            Megabytes::new(730.0),
            ClusterSize::new(Megabytes::new(100.0)),
            4,
        );
        assert_eq!(layout.parts(), 8);
        assert_eq!(layout.imbalance(), 0); // 8 parts on 4 disks = 2 each
    }

    #[test]
    fn single_disk_takes_everything() {
        let layout = StripeLayout::cyclic(5, 1);
        assert_eq!(layout.load_of_disk(0), 5);
        assert_eq!(layout.disks_used(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let _ = StripeLayout::cyclic(5, 0);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_rejected() {
        let _ = StripeLayout::cyclic(0, 5);
    }

    /// The layout as it was before the closed forms: one disk index per
    /// part, every question answered by a scan. Kept as their oracle.
    struct VecLayout {
        disk_count: usize,
        part_disks: Vec<usize>,
    }

    impl VecLayout {
        fn cyclic(parts: usize, disk_count: usize) -> Self {
            VecLayout {
                disk_count,
                part_disks: (0..parts).map(|i| i % disk_count).collect(),
            }
        }

        fn parts_on_disk(&self, disk: usize) -> Vec<usize> {
            self.part_disks
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d == disk)
                .map(|(i, _)| i)
                .collect()
        }

        fn load_of_disk(&self, disk: usize) -> usize {
            self.part_disks.iter().filter(|&&d| d == disk).count()
        }

        fn imbalance(&self) -> usize {
            let loads: Vec<usize> = (0..self.disk_count).map(|d| self.load_of_disk(d)).collect();
            let max = loads.iter().copied().max().unwrap_or(0);
            let min = loads.iter().copied().min().unwrap_or(0);
            max - min
        }

        /// `DiskArray`'s per-disk share, summed over the scanned parts.
        fn share_of_disk(&self, cluster: ClusterSize, size: Megabytes, disk: usize) -> Megabytes {
            self.parts_on_disk(disk)
                .into_iter()
                .map(|part| cluster.part_size(size, part))
                .sum()
        }

        /// `DiskIoModel::striped_read_secs` as a fold over every disk.
        fn read_secs(&self, io: &crate::io_model::DiskIoModel, size: Megabytes) -> f64 {
            let part_mb = size.as_f64() / self.part_disks.len() as f64;
            (0..self.disk_count)
                .map(|d| {
                    let k = self.load_of_disk(d);
                    k as f64 * (io.seek_ms / 1_000.0 + part_mb / io.transfer_mb_per_s)
                })
                .fold(0.0, f64::max)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Differential, bit for bit: every closed form, `DiskArray`'s
        /// per-disk shares and the striped read timing against the
        /// per-part scan, for every `parts` in 1..=64 and `disks` in
        /// 1..=16 (`parts < disks` included), with a random cluster, a
        /// random partial last part and a random I/O model per case.
        #[test]
        fn closed_forms_match_the_per_part_scan(
            cluster_mb in 1.0f64..500.0,
            last_part in 0.01f64..1.0,
            seek_ms in 0.0f64..20.0,
            transfer in 0.5f64..200.0,
        ) {
            use crate::disk_array::DiskArray;
            use crate::io_model::DiskIoModel;
            use crate::video::{VideoId, VideoMeta};
            let cluster = ClusterSize::new(Megabytes::new(cluster_mb));
            let io = DiskIoModel::new(seek_ms, transfer);
            for p in 1..=64usize {
                let size = Megabytes::new(cluster_mb * (p - 1) as f64 + cluster_mb * last_part);
                for n in 1..=16usize {
                    let layout = StripeLayout::for_video(size, cluster, n);
                    let parts = layout.parts();
                    let oracle = VecLayout::cyclic(parts, n);
                    for i in 0..parts {
                        prop_assert_eq!(layout.disk_of_part(i), oracle.part_disks[i]);
                    }
                    // Disks past the array hold nothing in either form.
                    for d in 0..n + 2 {
                        prop_assert_eq!(layout.load_of_disk(d), oracle.load_of_disk(d));
                        prop_assert_eq!(layout.parts_on_disk(d), oracle.parts_on_disk(d));
                    }
                    prop_assert_eq!(layout.imbalance(), oracle.imbalance());
                    let mut array = DiskArray::uniform(n, Megabytes::new(1e9), cluster).unwrap();
                    let video = VideoMeta::new(VideoId::new(0), "v", size, 1.5);
                    prop_assert_eq!(array.store(&video).unwrap(), layout.clone());
                    for d in 0..n {
                        prop_assert_eq!(
                            array.disk(d).unwrap().used().as_f64().to_bits(),
                            oracle.share_of_disk(cluster, size, d).as_f64().to_bits()
                        );
                    }
                    let secs = io.striped_read_secs(&layout, size);
                    prop_assert_eq!(secs.to_bits(), oracle.read_secs(&io, size).to_bits());
                    let t = oracle.read_secs(&io, size);
                    let throughput = if t <= 0.0 { 0.0 } else { size.as_f64() / t };
                    prop_assert_eq!(
                        io.striped_throughput_mb_per_s(&layout, size).to_bits(),
                        throughput.to_bits()
                    );
                }
            }
        }
    }

    proptest! {
        /// Cyclic striping is capacity-oriented: disk loads never differ
        /// by more than one part, and successive parts land on distinct
        /// disks (when n > 1), which is what lets successive clusters be
        /// read in parallel.
        #[test]
        fn stripe_is_balanced(parts in 1usize..200, disks in 1usize..32) {
            let layout = StripeLayout::cyclic(parts, disks);
            prop_assert!(layout.imbalance() <= 1);
            let total: usize = (0..disks).map(|d| layout.load_of_disk(d)).sum();
            prop_assert_eq!(total, parts);
            if disks > 1 {
                for i in 1..parts {
                    prop_assert_ne!(
                        layout.disk_of_part(i),
                        layout.disk_of_part(i - 1)
                    );
                }
            }
        }
    }
}
