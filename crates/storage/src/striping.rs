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

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterSize;
use crate::video::Megabytes;

/// The stripe placement of one video across a disk array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeLayout {
    disk_count: usize,
    part_disks: Vec<usize>,
}

impl StripeLayout {
    /// Computes the cyclic layout of `parts` video parts over `disk_count`
    /// disks: part `i` on disk `i mod n`.
    ///
    /// # Panics
    ///
    /// Panics if `disk_count` or `parts` is zero.
    pub fn cyclic(parts: usize, disk_count: usize) -> Self {
        assert!(disk_count > 0, "striping needs at least one disk");
        assert!(parts > 0, "a video has at least one part");
        StripeLayout {
            disk_count,
            part_disks: (0..parts).map(|i| i % disk_count).collect(),
        }
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
        self.part_disks.len()
    }

    /// Number of disks in the array the layout was computed for.
    pub fn disk_count(&self) -> usize {
        self.disk_count
    }

    /// The disk holding part `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn disk_of_part(&self, index: usize) -> usize {
        self.part_disks[index]
    }

    /// The part indices stored on `disk`.
    pub fn parts_on_disk(&self, disk: usize) -> Vec<usize> {
        self.part_disks
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == disk)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of parts stored on `disk`.
    pub fn load_of_disk(&self, disk: usize) -> usize {
        self.part_disks.iter().filter(|&&d| d == disk).count()
    }

    /// Number of distinct disks actually holding parts
    /// (`min(parts, disk_count)` for cyclic striping).
    pub fn disks_used(&self) -> usize {
        self.parts().min(self.disk_count)
    }

    /// The maximum imbalance between any two disks' part counts. Cyclic
    /// striping guarantees this is at most 1.
    pub fn imbalance(&self) -> usize {
        let loads: Vec<usize> = (0..self.disk_count).map(|d| self.load_of_disk(d)).collect();
        let max = loads.iter().copied().max().unwrap_or(0);
        let min = loads.iter().copied().min().unwrap_or(0);
        max - min
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
