//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in this package's `tests/` directory; this
//! library only hosts small fixtures and reference implementations they
//! share.

use vod_net::lvn::LinkWeights;
use vod_net::topologies::grnet::Grnet;
use vod_net::{NetError, NodeId, Topology};

/// Builds the paper's GRNET case-study backbone.
pub fn grnet() -> Grnet {
    Grnet::new()
}

/// Default deterministic seed used across integration tests.
pub const TEST_SEED: u64 = 0xB0A5_1999;

/// FNV-1a 64 over `bytes` — cheap, dependency-free, and stable across
/// platforms; the golden pins hash byte-deterministic traces and series
/// exports with it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Bellman–Ford shortest distances from `source` (no trace, O(V·E)): the
/// reference that Dijkstra and the routing engine are cross-validated
/// against. Like Dijkstra, it never relaxes a non-finite weight, so a
/// link weighted `f64::INFINITY` is masked.
///
/// # Errors
///
/// Same validation as `vod_net::dijkstra::dijkstra`; negative weights are
/// rejected for parity even though Bellman–Ford could handle them.
pub fn bellman_ford(
    topology: &Topology,
    weights: &LinkWeights,
    source: NodeId,
) -> Result<Vec<Option<f64>>, NetError> {
    weights.validate(topology)?;
    topology.try_node(source)?;
    let n = topology.node_count();
    let mut dist: Vec<Option<f64>> = vec![None; n];
    dist[source.index()] = Some(0.0);
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for link in topology.links() {
            let w = weights.weight(link.id());
            if !w.is_finite() {
                continue;
            }
            let (a, b) = link.endpoints();
            if let Some(da) = dist[a.index()] {
                let cand = da + w;
                if dist[b.index()].is_none_or(|d| cand < d) {
                    dist[b.index()] = Some(cand);
                    changed = true;
                }
            }
            if let Some(db) = dist[b.index()] {
                let cand = db + w;
                if dist[a.index()].is_none_or(|d| cand < d) {
                    dist[a.index()] = Some(cand);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(dist)
}
