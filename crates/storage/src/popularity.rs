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

    /// The least popular title among `candidates` (lowest points,
    /// tie-broken by lowest id for determinism). Returns `None` when
    /// `candidates` is empty.
    pub fn least_popular<I>(&self, candidates: I) -> Option<VideoId>
    where
        I: IntoIterator<Item = VideoId>,
    {
        candidates.into_iter().min_by_key(|&v| (self.points(v), v))
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

    #[test]
    fn least_popular_picks_minimum() {
        let mut t = PopularityTracker::new();
        for _ in 0..3 {
            t.award(VideoId::new(1));
        }
        t.award(VideoId::new(2));
        for _ in 0..2 {
            t.award(VideoId::new(3));
        }
        let lp = t.least_popular([VideoId::new(1), VideoId::new(2), VideoId::new(3)]);
        assert_eq!(lp, Some(VideoId::new(2)));
    }

    #[test]
    fn least_popular_ties_break_by_id() {
        let t = PopularityTracker::new();
        let lp = t.least_popular([VideoId::new(5), VideoId::new(2), VideoId::new(9)]);
        assert_eq!(lp, Some(VideoId::new(2)));
        assert_eq!(t.least_popular(std::iter::empty()), None);
    }

    #[test]
    fn unrequested_candidates_count_as_zero() {
        let mut t = PopularityTracker::new();
        t.award(VideoId::new(1));
        let lp = t.least_popular([VideoId::new(1), VideoId::new(7)]);
        assert_eq!(lp, Some(VideoId::new(7)));
    }
}
