//! Striping across *servers* by popularity — the paper's future work.
//!
//! *"We could have even better results if the various videos were stripped
//! not on the hard disks of one server but of different servers according
//! to the popularity. This means that the most popular technique … will
//! not be imposed on whole videos but on video strips."*
//!
//! [`DistributedLayout`] realizes that idea: video parts are assigned to
//! servers cyclically (like disk striping), and each part is *replicated*
//! on a number of consecutive servers that grows with the title's
//! popularity — popular titles end up on many servers, cold titles on
//! few, at strip granularity rather than whole-video granularity.

use serde::{Deserialize, Serialize};

/// A per-part server assignment for one video.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedLayout {
    server_count: usize,
    replicas: usize,
    assignments: Vec<Vec<usize>>,
}

impl DistributedLayout {
    /// Computes the layout of `parts` video parts over `server_count`
    /// servers, with the replication factor derived from popularity:
    ///
    /// `replicas = 1 + round(popularity × (max_replicas − 1))`
    ///
    /// where `popularity ∈ [0, 1]` is the title's normalized request share
    /// and `max_replicas` caps fan-out (clamped to `server_count`).
    ///
    /// Part `i`'s primary server is `i mod server_count`; replicas go to
    /// the following servers cyclically.
    ///
    /// # Panics
    ///
    /// Panics if `parts` or `server_count` is zero, `max_replicas` is
    /// zero, or `popularity` is outside `[0, 1]`.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: at least one part, server and replica, and a popularity in [0, 1]; a typed error is ROADMAP 4(a)"
    )]
    pub fn by_popularity(
        parts: usize,
        server_count: usize,
        popularity: f64,
        max_replicas: usize,
    ) -> Self {
        assert!(parts > 0, "a video has at least one part");
        assert!(server_count > 0, "need at least one server");
        assert!(max_replicas > 0, "need at least one replica");
        assert!(
            (0.0..=1.0).contains(&popularity),
            "popularity must be in [0, 1]"
        );
        let cap = max_replicas.min(server_count);
        let replicas = 1 + ((popularity * (cap as f64 - 1.0)).round() as usize);
        let assignments = (0..parts)
            .map(|i| {
                (0..replicas)
                    .map(|r| (i + r) % server_count)
                    .collect::<Vec<_>>()
            })
            .collect();
        DistributedLayout {
            server_count,
            replicas,
            assignments,
        }
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.assignments.len()
    }

    /// Replication factor applied to every part.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The servers holding part `index` (primary first).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `index` is a part of the video"
    )]
    pub fn servers_of_part(&self, index: usize) -> &[usize] {
        &self.assignments[index]
    }

    /// Number of parts (counting replicas) stored on `server`.
    pub fn load_of_server(&self, server: usize) -> usize {
        self.assignments
            .iter()
            .flat_map(|a| a.iter())
            .filter(|&&s| s == server)
            .count()
    }

    /// True if every part is available on at least one of `alive`
    /// servers — the availability benefit of strip replication.
    pub fn available_with(&self, alive: &[usize]) -> bool {
        self.assignments
            .iter()
            .all(|servers| servers.iter().any(|s| alive.contains(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_title_gets_single_replica() {
        let l = DistributedLayout::by_popularity(6, 4, 0.0, 4);
        assert_eq!(l.replicas(), 1);
        assert_eq!(l.servers_of_part(0), &[0]);
        assert_eq!(l.servers_of_part(5), &[1]); // 5 mod 4
    }

    #[test]
    fn hot_title_replicates_widely() {
        let l = DistributedLayout::by_popularity(4, 4, 1.0, 4);
        assert_eq!(l.replicas(), 4);
        for p in 0..4 {
            assert_eq!(l.servers_of_part(p).len(), 4);
        }
    }

    #[test]
    fn mid_popularity_interpolates() {
        let l = DistributedLayout::by_popularity(4, 5, 0.5, 5);
        assert_eq!(l.replicas(), 3); // 1 + round(0.5 * 4)
        assert_eq!(l.servers_of_part(0), &[0, 1, 2]);
        assert_eq!(l.servers_of_part(4 - 1), &[3, 4, 0]);
    }

    #[test]
    fn max_replicas_clamped_to_server_count() {
        let l = DistributedLayout::by_popularity(2, 3, 1.0, 10);
        assert_eq!(l.replicas(), 3);
    }

    #[test]
    fn availability_follows_replication() {
        let cold = DistributedLayout::by_popularity(6, 3, 0.0, 3);
        // Parts land on servers 0,1,2 cyclically; losing server 1 loses parts.
        assert!(!cold.available_with(&[0, 2]));
        let hot = DistributedLayout::by_popularity(6, 3, 1.0, 3);
        assert!(hot.available_with(&[2]));
        assert!(hot.available_with(&[0, 2]));
    }

    #[test]
    #[should_panic(expected = "popularity")]
    fn out_of_range_popularity_rejected() {
        let _ = DistributedLayout::by_popularity(1, 1, 1.5, 1);
    }

    proptest! {
        #[test]
        fn loads_are_balanced_within_replica_factor(
            parts in 1usize..64,
            servers in 1usize..16,
            pop in 0.0f64..1.0,
        ) {
            let l = DistributedLayout::by_popularity(parts, servers, pop, servers);
            let total: usize = (0..servers).map(|s| l.load_of_server(s)).sum();
            prop_assert_eq!(total, parts * l.replicas());
            // Cyclic placement keeps per-server load within replicas of even.
            let loads: Vec<usize> = (0..servers).map(|s| l.load_of_server(s)).collect();
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            prop_assert!(max - min <= l.replicas());
            // All servers alive → always available.
            let alive: Vec<usize> = (0..servers).collect();
            prop_assert!(l.available_with(&alive));
        }
    }
}
