//! A video server's disk array: striped storage of whole videos.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterSize;
use crate::disk::Disk;
use crate::error::StorageError;
use crate::striping::StripeLayout;
use crate::video::{Megabytes, VideoId, VideoMeta};

/// A fixed array of disks storing videos by cyclic striping.
///
/// # Examples
///
/// ```
/// use vod_storage::{ClusterSize, DiskArray, Megabytes, VideoId, VideoMeta};
///
/// # fn main() -> Result<(), vod_storage::StorageError> {
/// let mut array = DiskArray::uniform(4, Megabytes::new(1_000.0),
///     ClusterSize::new(Megabytes::new(100.0)))?;
/// let video = VideoMeta::new(VideoId::new(0), "Z", Megabytes::new(700.0), 1.5);
/// let layout = array.store(&video)?;
/// assert_eq!(layout.parts(), 7);
/// assert!(array.contains(video.id()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskArray {
    disks: Vec<Disk>,
    cluster: ClusterSize,
    stored: BTreeMap<VideoId, StoredVideo>,
}

/// Bookkeeping for one stored video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredVideo {
    size: Megabytes,
    layout: StripeLayout,
}

impl DiskArray {
    /// Creates an array of identical empty disks.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NoDisks`] when `disk_count` is zero.
    pub fn uniform(
        disk_count: usize,
        disk_capacity: Megabytes,
        cluster: ClusterSize,
    ) -> Result<Self, StorageError> {
        if disk_count == 0 {
            return Err(StorageError::NoDisks);
        }
        Ok(DiskArray {
            disks: vec![Disk::new(disk_capacity); disk_count],
            cluster,
            stored: BTreeMap::new(),
        })
    }

    /// Number of disks.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Read access to one disk.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnknownDisk`] for an out-of-range index.
    pub fn disk(&self, index: usize) -> Result<&Disk, StorageError> {
        self.disks
            .get(index)
            .ok_or(StorageError::UnknownDisk(index))
    }

    /// Total capacity across all disks.
    pub fn total_capacity(&self) -> Megabytes {
        self.disks.iter().map(Disk::capacity).sum()
    }

    /// Total free space across all disks.
    pub fn total_free(&self) -> Megabytes {
        self.disks.iter().map(Disk::free).sum()
    }

    /// Returns true if `video` would fit right now — the pseudocode's
    /// *"IF (Disks can tolerate the Video)"* check. Because parts are
    /// placed cyclically, each disk must fit its own share of parts.
    #[expect(clippy::indexing_slicing, reason = "`d` ranges over `0..disks.len()`")]
    pub fn can_tolerate(&self, video: &VideoMeta) -> bool {
        let layout = StripeLayout::for_video(video.size(), self.cluster, self.disks.len());
        (0..self.disks.len()).all(|d| {
            let share = self.share_of_disk(&layout, video.size(), d);
            self.disks[d].fits(share)
        })
    }

    /// Stores `video` by cyclic striping.
    ///
    /// # Errors
    ///
    /// * [`StorageError::AlreadyStored`] if the id is already resident.
    /// * [`StorageError::InsufficientCapacity`] if any disk's share does
    ///   not fit (no partial writes are left behind).
    pub fn store(&mut self, video: &VideoMeta) -> Result<StripeLayout, StorageError> {
        if self.stored.contains_key(&video.id()) {
            return Err(StorageError::AlreadyStored(video.id()));
        }
        let layout = StripeLayout::for_video(video.size(), self.cluster, self.disks.len());
        if !self.can_tolerate(video) {
            return Err(StorageError::InsufficientCapacity {
                needed_mb: video.size().as_f64(),
                available_mb: self.total_free().as_f64(),
            });
        }
        for d in 0..self.disks.len() {
            let share = self.share_of_disk(&layout, video.size(), d);
            #[expect(clippy::indexing_slicing, reason = "`d` ranges over `0..disks.len()`")]
            #[expect(clippy::expect_used, reason = "`can_tolerate` checked every disk")]
            self.disks[d]
                .allocate(share)
                .expect("can_tolerate checked every disk");
        }
        self.stored.insert(
            video.id(),
            StoredVideo {
                size: video.size(),
                layout: layout.clone(),
            },
        );
        Ok(layout)
    }

    /// Removes `video`, freeing its space.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnknownVideo`] if it is not stored.
    pub fn remove(&mut self, video: VideoId) -> Result<(), StorageError> {
        let stored = self
            .stored
            .remove(&video)
            .ok_or(StorageError::UnknownVideo(video))?;
        #[expect(clippy::indexing_slicing, reason = "`d` ranges over `0..disks.len()`")]
        for d in 0..self.disks.len() {
            let share = self.share_of_disk(&stored.layout, stored.size, d);
            self.disks[d].release(share);
        }
        Ok(())
    }

    /// Returns true if `video` is stored in this array.
    pub fn contains(&self, video: VideoId) -> bool {
        self.stored.contains_key(&video)
    }

    /// The stripe layout of a stored video.
    pub fn layout(&self, video: VideoId) -> Option<&StripeLayout> {
        self.stored.get(&video).map(|s| &s.layout)
    }

    /// Ids of all stored videos, in id order.
    pub fn stored_ids(&self) -> impl ExactSizeIterator<Item = VideoId> + '_ {
        self.stored.keys().copied()
    }

    /// Number of stored videos.
    pub fn stored_count(&self) -> usize {
        self.stored.len()
    }

    /// Megabytes of `video`'s parts that land on `disk`, summed over
    /// parts `d, d + n, …` in ascending order.
    fn share_of_disk(&self, layout: &StripeLayout, size: Megabytes, disk: usize) -> Megabytes {
        layout
            .part_indices(disk)
            .map(|part| self.cluster.part_size(size, part))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video(id: u32, mb: f64) -> VideoMeta {
        VideoMeta::new(VideoId::new(id), format!("t{id}"), Megabytes::new(mb), 1.5)
    }

    fn array(disks: usize, cap_mb: f64) -> DiskArray {
        DiskArray::uniform(
            disks,
            Megabytes::new(cap_mb),
            ClusterSize::new(Megabytes::new(100.0)),
        )
        .unwrap()
    }

    #[test]
    fn store_spreads_shares_across_disks() {
        let mut a = array(4, 1_000.0);
        let v = video(0, 730.0); // 8 parts: 7×100 + 30
        a.store(&v).unwrap();
        // Parts per disk: d0={0,4}, d1={1,5}, d2={2,6}, d3={3,7}.
        assert_eq!(a.disk(0).unwrap().used().as_f64(), 200.0);
        assert_eq!(a.disk(3).unwrap().used().as_f64(), 130.0); // part 7 = 30 MB
        assert!(a.contains(v.id()));
        assert_eq!(a.stored_count(), 1);
        assert_eq!(a.layout(v.id()).unwrap().parts(), 8);
    }

    #[test]
    fn duplicate_store_rejected() {
        let mut a = array(2, 1_000.0);
        let v = video(0, 100.0);
        a.store(&v).unwrap();
        assert_eq!(a.store(&v), Err(StorageError::AlreadyStored(v.id())));
    }

    #[test]
    fn remove_frees_exactly_the_shares() {
        let mut a = array(3, 1_000.0);
        let v = video(0, 500.0);
        a.store(&v).unwrap();
        let used_before: f64 = (0..3).map(|d| a.disk(d).unwrap().used().as_f64()).sum();
        assert!((used_before - 500.0).abs() < 1e-9);
        a.remove(v.id()).unwrap();
        assert_eq!(a.total_free(), a.total_capacity());
        assert!(!a.contains(v.id()));
        assert_eq!(a.remove(v.id()), Err(StorageError::UnknownVideo(v.id())));
    }

    #[test]
    fn can_tolerate_respects_per_disk_shares() {
        // Total space would fit, but disk 0's share (200 MB) does not.
        let mut a = array(2, 150.0);
        let v = video(0, 300.0); // parts on d0: {0,2} = 200 MB > 150
        assert!(!a.can_tolerate(&v));
        assert!(matches!(
            a.store(&v),
            Err(StorageError::InsufficientCapacity { .. })
        ));
        // Nothing was partially written.
        assert_eq!(a.total_free(), a.total_capacity());
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let mut a = array(2, 200.0);
        a.store(&video(0, 400.0)).unwrap();
        assert!(!a.can_tolerate(&video(1, 100.0)));
        a.remove(VideoId::new(0)).unwrap();
        assert!(a.can_tolerate(&video(1, 100.0)));
    }

    #[test]
    fn zero_disks_rejected() {
        assert_eq!(
            DiskArray::uniform(0, Megabytes::new(1.0), ClusterSize::default()).unwrap_err(),
            StorageError::NoDisks
        );
    }

    #[test]
    fn unknown_disk_index() {
        let a = array(2, 100.0);
        assert!(matches!(a.disk(5), Err(StorageError::UnknownDisk(5))));
    }

    #[test]
    fn stored_ids_in_order() {
        let mut a = array(4, 10_000.0);
        for i in [3u32, 1, 2] {
            a.store(&video(i, 100.0)).unwrap();
        }
        let ids: Vec<u32> = a.stored_ids().map(|v| v.index() as u32).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
