//! The "most popular" concept: request points, and the one ranking of
//! residents that every title cache evicts by.
//!
//! *"It counts the requests that are made for every video title"* — every
//! request grants the title a point. A cache ranks its residents by those
//! points, ascending `(points, id)`: the least popular resident, ties to
//! the lowest id, comes first. The DMA ([`crate::dma`]), the prefix tier
//! ([`crate::prefix`]) and E1's LFU baseline all take their victims from
//! the head of this ranking, and the DMA's until-fit mode and the prefix
//! tier share its never-in-vain planner
//! ([`PopularityTracker::plan_until_fit`]).

use std::collections::BTreeMap;

use crate::dma::RejectKind;
use crate::video::VideoId;

/// Per-title request points and the cache's residents ranked by them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PopularityTracker {
    points: BTreeMap<VideoId, u64>,
    /// The residents ascending by `(points, id)`, each at the points it
    /// had when it was last ranked. Points only grow, so those are a
    /// lower bound: an award costs nothing here, and a read re-ranks the
    /// entries it passes until they are current ([`Self::least`],
    /// [`Self::colder_than`]).
    ranked: Vec<(u64, VideoId)>,
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

    /// Ranks `video`, which must not be ranked yet, as a new resident at
    /// its current points.
    pub fn rank(&mut self, video: VideoId) {
        let key = (self.points(video), video);
        let at = self.ranked.partition_point(|&ranked| ranked < key);
        self.ranked.insert(at, key);
    }

    /// Moves the entry at `at` to its place if its title was awarded
    /// points since it was ranked: whether it moved, or `None` past the
    /// end. A moved entry only moves up, past `at`'s successors.
    fn rerank_at(&mut self, at: usize) -> Option<bool> {
        let &(ranked, video) = self.ranked.get(at)?;
        if self.points(video) == ranked {
            return Some(false);
        }
        self.ranked.remove(at);
        self.rank(video);
        Some(true)
    }

    /// The least popular resident and its points — lowest points, ties
    /// to the lowest id: the ranking's first entry, once it is current
    /// (every later entry's points are at least its ranked ones).
    pub fn least(&mut self) -> Option<(u64, VideoId)> {
        while self.rerank_at(0)? {}
        self.ranked.first().copied()
    }

    /// How many residents have fewer than `points` points. They lead the
    /// ranking afterwards, current and in `(points, id)` order; every
    /// entry past them was ranked at `points` or more.
    pub fn colder_than(&mut self, points: u64) -> usize {
        let mut at = 0;
        while self
            .ranked
            .get(at)
            .is_some_and(|&(ranked, _)| ranked < points)
        {
            if self.rerank_at(at) != Some(true) {
                at += 1;
            }
        }
        at
    }

    /// Takes the ranking's first `n` residents out, in order. They must
    /// be current: the head [`Self::least`] returned, or residents
    /// [`Self::colder_than`] or [`Self::plan_until_fit`] counted.
    pub fn evict_first(&mut self, n: usize) -> Vec<VideoId> {
        self.ranked.drain(..n).map(|(_, video)| video).collect()
    }

    /// Plans room for a newcomer of `points` points that does not fit
    /// yet, never in vain: hands the residents colder than it, coldest
    /// first, to `fits_after_evicting` — which frees each from the
    /// caller's scratch accounting and says whether the newcomer fits
    /// now — and stops at the first that makes room. Returns how many
    /// residents to [`Self::evict_first`]; evicts nothing itself.
    ///
    /// # Errors
    ///
    /// [`RejectKind::NotPopularEnough`] when no resident is colder than
    /// the newcomer, [`RejectKind::DoesNotFit`] when evicting all of
    /// them would still not make room.
    pub fn plan_until_fit(
        &mut self,
        points: u64,
        mut fits_after_evicting: impl FnMut(VideoId) -> bool,
    ) -> Result<usize, RejectKind> {
        let colder = self.colder_than(points);
        if colder == 0 {
            return Err(RejectKind::NotPopularEnough);
        }
        self.ranked
            .iter()
            .take(colder)
            .position(|&(_, video)| fits_after_evicting(video))
            .map(|at| at + 1)
            .ok_or(RejectKind::DoesNotFit)
    }

    /// The ranking as it stands, for the owners' invariant checks.
    #[cfg(test)]
    pub(crate) fn ranked(&self) -> &[(u64, VideoId)] {
        &self.ranked
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    /// The test's own answer: the residents colder than `below`, in
    /// `(points, id)` order, by a scan of a plain points map.
    fn scan(
        points: &BTreeMap<VideoId, u64>,
        residents: &BTreeSet<VideoId>,
        below: u64,
    ) -> Vec<(u64, VideoId)> {
        let mut colder: Vec<_> = residents
            .iter()
            .map(|&v| (points.get(&v).copied().unwrap_or(0), v))
            .filter(|&(p, _)| p < below)
            .collect();
        colder.sort_unstable();
        colder
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random sessions of requests (`kind` 0–1), new residents (2),
        /// evictions of the least popular (3), colder-than reads whose
        /// residents are taken out and ranked again (4), and planned
        /// evictions for a newcomer of `below` points that needs `need`
        /// units, where title `v` frees `v % 5 + 1` (5).
        #[test]
        fn ranking_matches_a_points_scan(
            ops in proptest::collection::vec((0u8..6, 0u32..16, 0u64..12, 1u32..14), 1..200),
        ) {
            let mut t = PopularityTracker::new();
            let (mut points, mut residents) = (BTreeMap::new(), BTreeSet::new());
            for (kind, id, below, need) in ops {
                let v = VideoId::new(id);
                let colder: Vec<VideoId> =
                    scan(&points, &residents, below).into_iter().map(|(_, v)| v).collect();
                let taken = match kind {
                    0 | 1 => {
                        prop_assert_eq!(t.points(v), points.get(&v).copied().unwrap_or(0));
                        let p = points.entry(v).or_insert(0);
                        *p += 1;
                        prop_assert_eq!(t.award(v), *p);
                        vec![]
                    }
                    2 => {
                        if residents.insert(v) {
                            t.rank(v);
                        }
                        vec![]
                    }
                    3 => {
                        let least = scan(&points, &residents, u64::MAX).first().copied();
                        prop_assert_eq!(t.least(), least);
                        least.map(|(_, v)| vec![v]).unwrap_or_default()
                    }
                    4 => {
                        prop_assert_eq!(t.colder_than(below), colder.len());
                        prop_assert_eq!(t.evict_first(colder.len()), colder.clone());
                        for &v in &colder {
                            t.rank(v);
                        }
                        vec![]
                    }
                    _ => {
                        let mut freed = 0;
                        let fits = |v: VideoId, freed: &mut u32| {
                            *freed += v.index() as u32 % 5 + 1;
                            *freed >= need
                        };
                        let want = match colder.iter().position(|&v| fits(v, &mut freed)) {
                            _ if colder.is_empty() => Err(RejectKind::NotPopularEnough),
                            Some(at) => Ok(at + 1),
                            None => Err(RejectKind::DoesNotFit),
                        };
                        let (mut offered, mut freed) = (Vec::new(), 0);
                        let got = t.plan_until_fit(below, |v| {
                            offered.push(v);
                            fits(v, &mut freed)
                        });
                        prop_assert_eq!(got, want);
                        // Coldest first, and nothing past the fit.
                        prop_assert_eq!(&offered[..], &colder[..offered.len()]);
                        colder[..got.unwrap_or(0)].to_vec()
                    }
                };
                if !taken.is_empty() {
                    prop_assert_eq!(t.evict_first(taken.len()), taken.clone());
                    for v in &taken {
                        residents.remove(v);
                    }
                }
                // The ranking holds each resident once, sorted, at no
                // more points than it has.
                let ranked = t.ranked();
                let mut ids: Vec<VideoId> = ranked.iter().map(|&(_, v)| v).collect();
                ids.sort_unstable();
                prop_assert_eq!(ids, residents.iter().copied().collect::<Vec<_>>());
                prop_assert!(ranked.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(ranked.iter().all(|&(p, v)| p <= t.points(v)));
            }
        }
    }
}
