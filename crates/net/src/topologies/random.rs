//! Seeded random topology generation for robustness and scale experiments.
//!
//! [`connected_gnp`] builds an Erdős–Rényi `G(n, p)` graph made connected
//! by a random spanning tree (every extra edge kept with probability `p`).
//!
//! Link capacities are drawn from a capacity set reminiscent of the
//! paper's era (2 and 18 Mbps backbone links, plus a few faster tiers).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::topology::{Topology, TopologyBuilder};
use crate::units::Mbps;

/// Capacity tiers used by the random generators, in Mbps. The 2 and 18
/// Mbps tiers are the GRNET capacities of the paper's Table 2.
pub const CAPACITY_TIERS: [f64; 4] = [2.0, 18.0, 34.0, 155.0];

/// Generates a connected Erdős–Rényi-style graph with `n` nodes.
///
/// A random spanning tree (uniform over random node permutations)
/// guarantees connectivity; each remaining node pair is linked with
/// probability `p`. Deterministic for a given `(n, p, seed)`.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not within `[0, 1]`.
#[expect(
    clippy::disallowed_macros,
    reason = "config validation: at least one node and `p` in [0, 1]; a typed error is ROADMAP 4(a)"
)]
pub fn connected_gnp(n: usize, p: f64, seed: u64) -> Topology {
    assert!(n > 0, "need at least one node");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let nodes: Vec<_> = (0..n).map(|i| b.add_node(format!("r{i}"))).collect();

    // Random spanning tree: attach each node (in shuffled order) to a
    // random earlier node.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    #[expect(
        clippy::indexing_slicing,
        reason = "`order` and `nodes` hold `n` entries and `order` is a permutation of `0..n`"
    )]
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        let child = order[i];
        #[expect(clippy::expect_used, reason = "spanning tree links are distinct")]
        b.add_link(nodes[parent], nodes[child], random_capacity(&mut rng))
            .expect("spanning tree links are distinct");
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`i < j < n`, the length of `nodes`"
    )]
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                // Ignore duplicates already added by the spanning tree.
                let _ = b.add_link(nodes[i], nodes[j], random_capacity(&mut rng));
            }
        }
    }
    b.build()
}

#[expect(clippy::expect_used, reason = "`CAPACITY_TIERS` is non-empty")]
fn random_capacity(rng: &mut StdRng) -> Mbps {
    Mbps::new(*CAPACITY_TIERS.as_slice().choose(rng).expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_is_connected_and_deterministic() {
        let a = connected_gnp(20, 0.1, 42);
        let b = connected_gnp(20, 0.1, 42);
        assert!(a.is_connected());
        assert_eq!(a, b);
        assert_eq!(a.node_count(), 20);
        assert!(a.link_count() >= 19);
    }

    #[test]
    fn gnp_different_seeds_differ() {
        let a = connected_gnp(20, 0.2, 1);
        let b = connected_gnp(20, 0.2, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn gnp_zero_probability_is_a_tree() {
        let t = connected_gnp(10, 0.0, 7);
        assert_eq!(t.link_count(), 9);
        assert!(t.is_connected());
    }

    #[test]
    fn gnp_full_probability_is_a_mesh() {
        let t = connected_gnp(6, 1.0, 7);
        assert_eq!(t.link_count(), 15);
    }

    #[test]
    fn capacities_come_from_tiers() {
        let t = connected_gnp(15, 0.3, 5);
        for link in t.links() {
            assert!(CAPACITY_TIERS.contains(&link.capacity().as_f64()));
        }
    }

    #[test]
    fn single_node_graphs() {
        assert_eq!(connected_gnp(1, 0.5, 0).node_count(), 1);
    }
}
