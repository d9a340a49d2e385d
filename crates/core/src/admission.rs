//! Admission control: the paper's "minimum QoS" enforcement.
//!
//! *"What we want to achieve by enforcing our routing algorithm is to
//! provide a minimum QoS, which should be equal to the minimum video
//! frame rate for which a video can be considered decent."*
//!
//! Routing alone cannot provide that floor — once more streams are
//! admitted than the chosen routes can carry, every stream degrades.
//! [`AdmissionPolicy`] adds the missing half: a request is admitted only
//! if every link of the selected route still has headroom for the video's
//! bitrate (scaled by a configurable factor). The policy evaluates the
//! same (possibly stale) snapshot the VRA used, so it deliberately
//! inherits the paper's information model.

use serde::{Deserialize, Serialize};

use vod_net::{LinkId, Mbps, Route, Topology, TrafficSnapshot};

/// Outcome of an admission check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// The route can carry the stream; start the transfer.
    Admit,
    /// The route cannot carry the stream at the required floor.
    Reject {
        /// The first link without enough headroom.
        bottleneck: LinkId,
        /// Headroom available on that link.
        available: Mbps,
        /// Headroom the stream needed.
        required: Mbps,
    },
}

impl AdmissionDecision {
    /// Returns true for [`AdmissionDecision::Admit`].
    pub fn is_admit(&self) -> bool {
        matches!(self, AdmissionDecision::Admit)
    }
}

/// A bitrate-headroom admission policy.
///
/// # Examples
///
/// ```
/// use vod_core::admission::AdmissionPolicy;
/// use vod_net::{Mbps, TopologyBuilder, TrafficSnapshot};
/// use vod_net::Route;
///
/// # fn main() -> Result<(), vod_net::NetError> {
/// let mut b = TopologyBuilder::new();
/// let a = b.add_node("a");
/// let c = b.add_node("b");
/// let l = b.add_link(a, c, Mbps::new(2.0))?;
/// let topo = b.build();
/// let mut snap = TrafficSnapshot::zero(&topo);
/// snap.set_used(l, Mbps::new(1.0));
///
/// let policy = AdmissionPolicy::new(1.0);
/// let route = Route::new(vec![a, c], vec![l], 0.0);
/// // 1.0 Mbps free ≥ 1.5 × 1.0? No → reject.
/// assert!(!policy.check(&topo, &snap, &route, 1.5).is_admit());
/// // A 0.9 Mbps stream fits.
/// assert!(policy.check(&topo, &snap, &route, 0.9).is_admit());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    headroom_factor: f64,
}

impl AdmissionPolicy {
    /// Creates a policy requiring `headroom_factor × bitrate` of free
    /// capacity on every route link (1.0 = exactly the nominal bitrate;
    /// >1 leaves margin for SNMP staleness).
    ///
    /// # Panics
    ///
    /// Panics if `headroom_factor` is not strictly positive and finite.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `headroom_factor.is_finite()` and positive; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(headroom_factor: f64) -> Self {
        assert!(
            headroom_factor.is_finite() && headroom_factor > 0.0,
            "headroom factor must be positive"
        );
        AdmissionPolicy { headroom_factor }
    }

    /// Checks whether a stream of `bitrate_mbps` fits along `route` given
    /// the traffic `snapshot`. Local routes (zero hops) always admit.
    ///
    /// # Panics
    ///
    /// Panics if the route references links outside `topology`.
    pub fn check(
        &self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
        route: &Route,
        bitrate_mbps: f64,
    ) -> AdmissionDecision {
        let required = Mbps::new(bitrate_mbps * self.headroom_factor);
        for &link in route.links() {
            let capacity = topology.link(link).capacity();
            let used = snapshot.used(link);
            let available = capacity.saturating_sub(used);
            if available < required {
                return AdmissionDecision::Reject {
                    bottleneck: link,
                    available,
                    required,
                };
            }
        }
        AdmissionDecision::Admit
    }
}

impl Default for AdmissionPolicy {
    /// Requires exactly the nominal bitrate of headroom.
    fn default() -> Self {
        AdmissionPolicy::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::{NodeId, TopologyBuilder};

    fn two_hop() -> (Topology, Route, LinkId, LinkId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let m = b.add_node("m");
        let c = b.add_node("c");
        let l0 = b.add_link(a, m, Mbps::new(2.0)).unwrap();
        let l1 = b.add_link(m, c, Mbps::new(18.0)).unwrap();
        let topo = b.build();
        let route = Route::new(vec![a, m, c], vec![l0, l1], 0.0);
        (topo, route, l0, l1)
    }

    #[test]
    fn admits_on_idle_route() {
        let (topo, route, ..) = two_hop();
        let snap = TrafficSnapshot::zero(&topo);
        assert!(AdmissionPolicy::default()
            .check(&topo, &snap, &route, 1.5)
            .is_admit());
    }

    #[test]
    fn rejects_with_bottleneck_details() {
        let (topo, route, l0, _) = two_hop();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(l0, Mbps::new(1.0));
        match AdmissionPolicy::default().check(&topo, &snap, &route, 1.5) {
            AdmissionDecision::Reject {
                bottleneck,
                available,
                required,
            } => {
                assert_eq!(bottleneck, l0);
                assert_eq!(available, Mbps::new(1.0));
                assert_eq!(required, Mbps::new(1.5));
            }
            AdmissionDecision::Admit => panic!("expected reject"),
        }
    }

    #[test]
    fn first_bottleneck_along_route_is_reported() {
        let (topo, route, _, l1) = two_hop();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(l1, Mbps::new(17.9));
        match AdmissionPolicy::default().check(&topo, &snap, &route, 1.5) {
            AdmissionDecision::Reject { bottleneck, .. } => assert_eq!(bottleneck, l1),
            AdmissionDecision::Admit => panic!("expected reject"),
        }
    }

    #[test]
    fn headroom_factor_scales_the_floor() {
        let (topo, route, ..) = two_hop();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(LinkId::new(0), Mbps::new(0.2)); // 1.8 free
                                                       // factor 1.0: 1.5 needed → fits.
        assert!(AdmissionPolicy::new(1.0)
            .check(&topo, &snap, &route, 1.5)
            .is_admit());
        // factor 1.3: 1.95 needed → rejected.
        assert!(!AdmissionPolicy::new(1.3)
            .check(&topo, &snap, &route, 1.5)
            .is_admit());
    }

    #[test]
    fn local_routes_always_admit() {
        let (topo, _, l0, _) = two_hop();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(l0, Mbps::new(2.0));
        let local = Route::trivial(NodeId::new(0));
        assert!(AdmissionPolicy::default()
            .check(&topo, &snap, &local, 10.0)
            .is_admit());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_rejected() {
        let _ = AdmissionPolicy::new(0.0);
    }
}
