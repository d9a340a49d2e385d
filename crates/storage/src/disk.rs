//! A single capacity-tracked disk.

use crate::error::StorageError;
use crate::video::Megabytes;

/// One disk of a video server's array: fixed capacity, tracked usage.
///
/// The DMA "allocates a predefined disk space for use by the VoD service";
/// `capacity` is that allocation, not necessarily the physical disk size.
#[derive(Debug, Clone, PartialEq)]
pub struct Disk {
    capacity: Megabytes,
    used: Megabytes,
}

impl Disk {
    /// Creates an empty disk with the given capacity.
    pub fn new(capacity: Megabytes) -> Self {
        Disk {
            capacity,
            used: Megabytes::ZERO,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> Megabytes {
        self.capacity
    }

    /// Space currently in use.
    pub fn used(&self) -> Megabytes {
        self.used
    }

    /// Remaining free space.
    pub fn free(&self) -> Megabytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Returns true if `size` more megabytes would fit.
    pub fn fits(&self, size: Megabytes) -> bool {
        size.as_f64() <= self.free().as_f64() + 1e-9
    }

    /// Allocates `size` megabytes.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InsufficientCapacity`] when it doesn't fit.
    pub fn allocate(&mut self, size: Megabytes) -> Result<(), StorageError> {
        if !self.fits(size) {
            return Err(StorageError::InsufficientCapacity {
                needed_mb: size.as_f64(),
                available_mb: self.free().as_f64(),
            });
        }
        self.used += size;
        Ok(())
    }

    /// Releases `size` megabytes (clamping at empty).
    pub fn release(&mut self, size: Megabytes) {
        self.used = self.used.saturating_sub(size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release() {
        let mut d = Disk::new(Megabytes::new(100.0));
        assert_eq!(d.free().as_f64(), 100.0);
        d.allocate(Megabytes::new(60.0)).unwrap();
        assert_eq!(d.used().as_f64(), 60.0);
        assert_eq!(d.free().as_f64(), 40.0);
        d.release(Megabytes::new(10.0));
        assert_eq!(d.used().as_f64(), 50.0);
    }

    #[test]
    fn over_allocation_fails_cleanly() {
        let mut d = Disk::new(Megabytes::new(100.0));
        let err = d.allocate(Megabytes::new(150.0)).unwrap_err();
        assert!(matches!(err, StorageError::InsufficientCapacity { .. }));
        assert_eq!(d.used(), Megabytes::ZERO);
    }

    #[test]
    fn exact_fit_is_allowed() {
        let mut d = Disk::new(Megabytes::new(100.0));
        d.allocate(Megabytes::new(100.0)).unwrap();
        assert_eq!(d.free(), Megabytes::ZERO);
        assert!(!d.fits(Megabytes::new(0.001)));
        assert!(d.fits(Megabytes::ZERO));
    }

    #[test]
    fn release_clamps_at_empty() {
        let mut d = Disk::new(Megabytes::new(100.0));
        d.allocate(Megabytes::new(10.0)).unwrap();
        d.release(Megabytes::new(50.0));
        assert_eq!(d.used(), Megabytes::ZERO);
    }

    #[test]
    fn zero_capacity_disk() {
        let d = Disk::new(Megabytes::ZERO);
        assert!(d.fits(Megabytes::ZERO));
    }
}
