//! Per-link traffic snapshots.
//!
//! A [`TrafficSnapshot`] captures, for every link of a topology, the
//! combined in+out traffic volume at one instant — exactly what the paper's
//! SNMP statistics module writes into the limited-access database every
//! 1–2 minutes.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::NetError;
use crate::ids::LinkId;
use crate::topology::Topology;
use crate::units::{Fraction, Mbps};

/// Process-wide counter handing each snapshot instance a unique token.
static NEXT_SNAPSHOT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn fresh_token() -> u64 {
    NEXT_SNAPSHOT_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// Identity + mutation count of a [`TrafficSnapshot`] at one instant.
///
/// The `token` is unique per snapshot *instance* (clones get fresh
/// tokens), and `version` counts
/// mutations of that instance. Together they let a cache decide whether
/// memoized derived state (link weights, shortest-path trees) is still
/// valid: equal epoch ⇒ byte-identical traffic state.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct SnapshotEpoch {
    /// Unique id of the snapshot instance.
    pub token: u64,
    /// Number of mutations applied to that instance.
    pub version: u64,
}

/// Traffic state of every link of a topology at one instant.
///
/// For each link the snapshot stores the *used bandwidth* (UBW, the
/// combined `traffic_in + traffic_out` of the paper's equation (5)). The
/// utilization fraction is normally derived as `used / capacity`, but an
/// explicit utilization can be recorded per link: the paper's Table 2
/// reports rounded percentages (e.g. 9.4% for 1 700 kb on an 18 Mb link)
/// and its Table 3 LVN values were computed from those rounded figures, so
/// faithful reproduction requires carrying both.
///
/// # Examples
///
/// ```
/// use vod_net::{Mbps, TopologyBuilder, TrafficSnapshot};
///
/// # fn main() -> Result<(), vod_net::NetError> {
/// let mut b = TopologyBuilder::new();
/// let a = b.add_node("a");
/// let c = b.add_node("b");
/// let l = b.add_link(a, c, Mbps::new(18.0))?;
/// let topo = b.build();
///
/// let mut snap = TrafficSnapshot::zero(&topo);
/// snap.set_used(l, Mbps::new(1.7));
/// assert!((snap.utilization(&topo, l).get() - 1.7 / 18.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TrafficSnapshot {
    used: Vec<Mbps>,
    explicit_utilization: Vec<Option<Fraction>>,
    /// Administrative link state: `true` marks a link taken down by
    /// fault injection. Down links must never carry a routed flow —
    /// consumers ([`crate::lvn`], [`crate::engine`]) weight them as
    /// `f64::INFINITY`.
    admin_down: Vec<bool>,
    /// Instance identity for epoch-keyed caching (fresh on clone).
    token: u64,
    /// Mutation counter.
    version: u64,
}

// Equality and cloning ignore the caching bookkeeping: two snapshots
// are equal iff their traffic state is, and a clone is a *new instance*
// (fresh token, version 0) so caches never confuse it with the
// original.
impl PartialEq for TrafficSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.used == other.used
            && self.explicit_utilization == other.explicit_utilization
            && self.admin_down == other.admin_down
    }
}

impl Clone for TrafficSnapshot {
    fn clone(&self) -> Self {
        TrafficSnapshot {
            used: self.used.clone(),
            explicit_utilization: self.explicit_utilization.clone(),
            admin_down: self.admin_down.clone(),
            token: fresh_token(),
            version: 0,
        }
    }
}

impl TrafficSnapshot {
    /// Creates a snapshot with zero traffic on every link of `topology`.
    pub fn zero(topology: &Topology) -> Self {
        TrafficSnapshot {
            used: vec![Mbps::ZERO; topology.link_count()],
            explicit_utilization: vec![None; topology.link_count()],
            admin_down: vec![false; topology.link_count()],
            token: fresh_token(),
            version: 0,
        }
    }

    /// The snapshot's current epoch (instance token + mutation count).
    #[inline]
    pub fn epoch(&self) -> SnapshotEpoch {
        SnapshotEpoch {
            token: self.token,
            version: self.version,
        }
    }

    /// Number of links covered by this snapshot.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.used.len()
    }

    /// Sets the combined in+out traffic on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range for the topology this snapshot was
    /// created from.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "per-link vectors are sized by `link_count`; `link` belongs to the snapshot's topology"
    )]
    pub fn set_used(&mut self, link: LinkId, used: Mbps) {
        self.used[link.index()] = used;
        self.version += 1;
    }

    /// Adds traffic on `link` (e.g. when a new flow is admitted).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the snapshot's topology"
    )]
    pub fn add_used(&mut self, link: LinkId, delta: Mbps) {
        self.used[link.index()] += delta;
        self.version += 1;
    }

    /// Records an explicit utilization reading for `link`, overriding the
    /// derived `used / capacity` value (used to reproduce the paper's
    /// rounded Table 2 percentages).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the snapshot's topology"
    )]
    pub fn set_explicit_utilization(&mut self, link: LinkId, utilization: Fraction) {
        self.explicit_utilization[link.index()] = Some(utilization);
        self.version += 1;
    }

    /// Sets the administrative state of `link`: `true` marks it down
    /// (fault-injected outage). A no-op when the state is unchanged, so
    /// repeated applications leave the epoch alone.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the snapshot's topology"
    )]
    pub fn set_admin_down(&mut self, link: LinkId, down: bool) {
        if self.admin_down[link.index()] != down {
            self.admin_down[link.index()] = down;
            self.version += 1;
        }
    }

    /// Whether `link` is administratively down.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the snapshot's topology"
    )]
    pub fn is_admin_down(&self, link: LinkId) -> bool {
        self.admin_down[link.index()]
    }

    /// Returns the combined in+out traffic currently recorded on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the snapshot's topology"
    )]
    pub fn used(&self, link: LinkId) -> Mbps {
        self.used[link.index()]
    }

    /// Returns the utilization fraction of `link`: the explicit reading if
    /// one was recorded, otherwise `used / capacity` (equation (5) of the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range of `topology`, or if this snapshot
    /// was built for a different topology.
    #[inline]
    pub fn utilization(&self, topology: &Topology, link: LinkId) -> Fraction {
        #[expect(
            clippy::indexing_slicing,
            reason = "documented panic: `link` belongs to the snapshot's topology"
        )]
        if let Some(explicit) = self.explicit_utilization[link.index()] {
            return explicit;
        }
        let cap = topology.link(link).capacity();
        if cap.is_zero() {
            Fraction::ZERO
        } else {
            Fraction::new(self.used(link) / cap)
        }
    }

    /// Validates that this snapshot matches `topology`'s link count.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::WeightCountMismatch`] when sizes differ.
    pub fn check_matches(&self, topology: &Topology) -> Result<(), NetError> {
        if self.used.len() == topology.link_count() {
            Ok(())
        } else {
            Err(NetError::WeightCountMismatch {
                expected: topology.link_count(),
                actual: self.used.len(),
            })
        }
    }

    /// The highest and the mean link utilization, from one pass over the
    /// links, or `None` for an empty topology.
    pub fn max_and_mean_utilization(&self, topology: &Topology) -> Option<(Fraction, Fraction)> {
        let mut max: Option<f64> = None;
        let per_link = topology.link_ids().map(|l| {
            let u = self.utilization(topology, l).get();
            // Ties go to the later link, as `max_by` has them.
            max = Some(match max {
                Some(m) if u.total_cmp(&m).is_lt() => m,
                _ => u,
            });
            u
        });
        let sum: f64 = per_link.sum();
        let mean = sum / topology.link_count() as f64;
        max.map(|max| (Fraction::new(max), Fraction::new(mean)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn two_link_topo() -> (Topology, LinkId, LinkId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let d = b.add_node("c");
        let l0 = b.add_link(a, c, Mbps::new(2.0)).unwrap();
        let l1 = b.add_link(c, d, Mbps::new(18.0)).unwrap();
        (b.build(), l0, l1)
    }

    /// The most-utilized link and its utilization, or `None` for an
    /// empty topology: with [`mean_utilization`], the two-scan reference
    /// for [`TrafficSnapshot::max_and_mean_utilization`].
    fn max_utilization(snap: &TrafficSnapshot, topology: &Topology) -> Option<(LinkId, Fraction)> {
        topology
            .link_ids()
            .map(|l| (l, snap.utilization(topology, l)))
            .max_by(|a, b| a.1.get().total_cmp(&b.1.get()))
    }

    /// Mean utilization over all links (zero for an empty topology).
    fn mean_utilization(snap: &TrafficSnapshot, topology: &Topology) -> Fraction {
        if topology.link_count() == 0 {
            return Fraction::ZERO;
        }
        let sum: f64 = topology
            .link_ids()
            .map(|l| snap.utilization(topology, l).get())
            .sum();
        Fraction::new(sum / topology.link_count() as f64)
    }

    #[test]
    fn zero_snapshot_has_zero_utilization() {
        let (topo, l0, l1) = two_link_topo();
        let snap = TrafficSnapshot::zero(&topo);
        assert_eq!(snap.used(l0), Mbps::ZERO);
        assert_eq!(snap.utilization(&topo, l1).get(), 0.0);
        assert_eq!(snap.link_count(), 2);
    }

    #[test]
    fn derived_utilization_is_used_over_capacity() {
        let (topo, l0, _) = two_link_topo();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(l0, Mbps::new(0.2));
        assert!((snap.utilization(&topo, l0).get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn explicit_utilization_overrides_derived() {
        let (topo, l0, _) = two_link_topo();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(l0, Mbps::new(0.2));
        snap.set_explicit_utilization(l0, Fraction::from_percent(9.4));
        assert!((snap.utilization(&topo, l0).get() - 0.094).abs() < 1e-12);
    }

    #[test]
    fn add_and_remove_traffic() {
        let (topo, l0, _) = two_link_topo();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.add_used(l0, Mbps::new(1.0));
        snap.add_used(l0, Mbps::new(0.5));
        assert_eq!(snap.used(l0), Mbps::new(1.5));
    }

    #[test]
    fn admin_down_bumps_version_once_and_survives_a_clone() {
        let (topo, l0, l1) = two_link_topo();
        let mut snap = TrafficSnapshot::zero(&topo);
        assert!(!snap.is_admin_down(l0));
        let before = snap.epoch();
        snap.set_admin_down(l0, true);
        // Unchanged state leaves the epoch alone.
        snap.set_admin_down(l0, true);
        snap.set_admin_down(l1, false);
        assert_eq!(snap.epoch().version, before.version + 1);
        assert!(snap.is_admin_down(l0));

        // Down state survives a clone and distinguishes snapshots.
        let back = snap.clone();
        assert_eq!(back, snap);
        assert!(back.is_admin_down(l0));
        snap.set_admin_down(l0, false);
        assert_ne!(back, snap);
    }

    #[test]
    fn max_and_mean_utilization() {
        let (topo, l0, l1) = two_link_topo();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(l0, Mbps::new(1.0)); // 50%
        snap.set_used(l1, Mbps::new(1.8)); // 10%
        let (link, frac) = max_utilization(&snap, &topo).unwrap();
        assert_eq!(link, l0);
        assert!((frac.get() - 0.5).abs() < 1e-12);
        assert!((mean_utilization(&snap, &topo).get() - 0.3).abs() < 1e-12);
        // The one-pass fold agrees with the two scans to the bit, with
        // explicit readings, equal maxima and an empty topology too.
        snap.set_explicit_utilization(l1, Fraction::new(0.5));
        for snap in [&snap, &TrafficSnapshot::zero(&topo)] {
            let both = snap.max_and_mean_utilization(&topo);
            let max = max_utilization(snap, &topo).map(|(_, max)| max);
            assert_eq!(both, max.map(|max| (max, mean_utilization(snap, &topo))));
        }
        let empty = TopologyBuilder::new().build();
        let none = TrafficSnapshot::zero(&empty).max_and_mean_utilization(&empty);
        assert_eq!(none, None);
    }

    #[test]
    fn epoch_advances_per_mutation() {
        let (topo, l0, l1) = two_link_topo();
        let mut snap = TrafficSnapshot::zero(&topo);
        let e0 = snap.epoch();
        snap.set_used(l0, Mbps::new(1.0));
        snap.add_used(l1, Mbps::new(0.5));
        let e2 = snap.epoch();
        assert_eq!(e2.token, e0.token);
        assert_eq!(e2.version, e0.version + 2);
    }

    #[test]
    fn clones_and_distinct_snapshots_get_fresh_tokens() {
        let (topo, l0, _) = two_link_topo();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(l0, Mbps::new(1.0));
        let clone = snap.clone();
        assert_eq!(snap, clone);
        assert_ne!(snap.epoch().token, clone.epoch().token);
        assert_eq!(clone.epoch().version, 0);
    }

    #[test]
    fn check_matches_detects_size_mismatch() {
        let (topo, ..) = two_link_topo();
        let snap = TrafficSnapshot::zero(&topo);
        assert!(snap.check_matches(&topo).is_ok());

        let mut b = TopologyBuilder::new();
        b.add_node("solo");
        let other = b.build();
        assert!(snap.check_matches(&other).is_err());
    }
}
