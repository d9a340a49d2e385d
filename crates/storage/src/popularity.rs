//! Request-point bookkeeping behind the "most popular" concept.
//!
//! *"It counts the requests that are made for every video title"* — every
//! request grants the title a point; the DMA compares points to decide
//! admissions and evictions.

use std::collections::BTreeMap;

use crate::video::VideoId;

/// Per-title request points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PopularityTracker {
    points: BTreeMap<VideoId, u64>,
}

impl PopularityTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants one point to `video` and returns its new total.
    pub fn award(&mut self, video: VideoId) -> u64 {
        let p = self.points.entry(video).or_insert(0);
        *p += 1;
        *p
    }

    /// Current points of `video` (0 if never requested).
    pub fn points(&self, video: VideoId) -> u64 {
        self.points.get(&video).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn award_accumulates() {
        let mut t = PopularityTracker::new();
        assert_eq!(t.points(VideoId::new(1)), 0);
        assert_eq!(t.award(VideoId::new(1)), 1);
        assert_eq!(t.award(VideoId::new(1)), 2);
        assert_eq!(t.points(VideoId::new(1)), 2);
    }
}
