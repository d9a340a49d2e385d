//! The Link Validation Number (LVN) — the paper's link-weighting scheme.
//!
//! The Virtual Routing Algorithm weights every network link with a numeric
//! cost, the *Link Validation Number*, computed from four equations
//! (numbering follows the paper):
//!
//! ```text
//! (1)  LVN_i = max{NV_a, NV_b} + LU_i
//! (2)  NV_x  = Σ UBW_m / Σ LBW_m    over links m adjacent to node x
//! (3)  LU_i  = LT_i · LV_i
//! (4)  LV_i  = LinkBandwidth(Mbps) / NormalizationConstant
//! ```
//!
//! where `UBW` is the used bandwidth of a link, `LBW` its total bandwidth,
//! and `LT` the link's traffic (fraction of used over total bandwidth).
//! The first term of (1) is "the performance burden imposed by the adjacent
//! to the link nodes", the second "the link's traffic aggravation". The
//! suggested normalization constant is "an integer with a value approaching
//! 10".
//!
//! The paper describes the weight as "negative" in the sense of *penalty*
//! (larger is worse); numerically all values are non-negative, as Dijkstra
//! requires, and every number in the paper's tables is positive.
//!
//! [`NodeCombiner`] generalizes the `max` in equation (1) so the design
//! choice can be ablated (see DESIGN.md §6).

use crate::error::NetError;
use crate::ids::{LinkId, NodeId};
use crate::snapshot::TrafficSnapshot;
use crate::topology::Topology;
use crate::units::Mbps;

/// How the two endpoint node-validation values are combined in
/// equation (1). The paper uses [`NodeCombiner::Max`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum NodeCombiner {
    /// `max{NV_a, NV_b}` — the paper's choice.
    #[default]
    Max,
    /// Arithmetic mean of the two node validations.
    Avg,
    /// Sum of the two node validations.
    Sum,
}

impl NodeCombiner {
    fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            NodeCombiner::Max => a.max(b),
            NodeCombiner::Avg => (a + b) / 2.0,
            NodeCombiner::Sum => a + b,
        }
    }
}

/// Parameters of the LVN computation.
///
/// # Examples
///
/// ```
/// use vod_net::lvn::LvnParams;
///
/// let params = LvnParams::default();
/// assert_eq!(params.normalization_constant, 10.0);
/// ```
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct LvnParams {
    /// The normalization constant of equation (4); the paper suggests an
    /// integer approaching 10.
    pub normalization_constant: f64,
    /// How endpoint node validations are combined in equation (1).
    pub combiner: NodeCombiner,
}

impl Default for LvnParams {
    fn default() -> Self {
        LvnParams {
            normalization_constant: 10.0,
            combiner: NodeCombiner::Max,
        }
    }
}

impl LvnParams {
    /// Parameters with a custom normalization constant and the paper's
    /// `max` combiner.
    ///
    /// # Panics
    ///
    /// Panics if `normalization_constant` is not strictly positive.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: the normalization constant is positive and finite; a typed error is ROADMAP 4(a)"
    )]
    pub fn with_normalization(normalization_constant: f64) -> Self {
        assert!(
            normalization_constant > 0.0 && normalization_constant.is_finite(),
            "normalization constant must be positive and finite"
        );
        LvnParams {
            normalization_constant,
            ..LvnParams::default()
        }
    }
}

/// A table of per-link weights, indexed by [`LinkId`], fed to
/// [Dijkstra](crate::dijkstra::dijkstra).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkWeights {
    weights: Vec<f64>,
}

impl LinkWeights {
    /// Creates a weight table from per-link values in [`LinkId`] order.
    pub fn from_vec(weights: Vec<f64>) -> Self {
        LinkWeights { weights }
    }

    /// Creates a uniform weight table (e.g. weight 1 per link gives
    /// hop-count routing).
    pub fn uniform(link_count: usize, weight: f64) -> Self {
        LinkWeights {
            weights: vec![weight; link_count],
        }
    }

    /// Number of links covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns true if the table covers no links.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Returns the weight of `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the weighted topology"
    )]
    pub fn weight(&self, link: LinkId) -> f64 {
        self.weights[link.index()]
    }

    /// Sets the weight of `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the weighted topology"
    )]
    pub fn set_weight(&mut self, link: LinkId, weight: f64) {
        self.weights[link.index()] = weight;
    }

    /// Iterates over `(link, weight)` pairs in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (LinkId, f64)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (LinkId::new(i as u32), w))
    }

    /// Validates the table against a topology: matching length, no
    /// negative or NaN weights.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::WeightCountMismatch`], [`NetError::NegativeWeight`]
    /// or [`NetError::InvalidWeight`].
    pub fn validate(&self, topology: &Topology) -> Result<(), NetError> {
        if self.weights.len() != topology.link_count() {
            return Err(NetError::WeightCountMismatch {
                expected: topology.link_count(),
                actual: self.weights.len(),
            });
        }
        for (link, w) in self.iter() {
            if w.is_nan() {
                return Err(NetError::InvalidWeight(link));
            }
            if w < 0.0 {
                return Err(NetError::NegativeWeight(link, w));
            }
        }
        Ok(())
    }
}

impl From<Vec<f64>> for LinkWeights {
    fn from(weights: Vec<f64>) -> Self {
        LinkWeights::from_vec(weights)
    }
}

impl FromIterator<f64> for LinkWeights {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        LinkWeights::from_vec(iter.into_iter().collect())
    }
}

/// Computes Link Validation Numbers for one topology + traffic snapshot.
///
/// # Examples
///
/// Reproduce the paper's worked example of Figure 4 / Table 3: the
/// Patra–Athens link at 8am has `NV_Athens = 2.4 / 38 ≈ 0.0632`,
/// `LU = 0.10 · 0.2 = 0.02`, so `LVN ≈ 0.083`.
///
/// ```
/// use vod_net::lvn::{LvnComputer, LvnParams};
/// use vod_net::topologies::grnet::{Grnet, GrnetLink, TimeOfDay};
///
/// let grnet = Grnet::new();
/// let snap = grnet.snapshot(TimeOfDay::T0800);
/// let lvn = LvnComputer::new(grnet.topology(), &snap, LvnParams::default());
/// let value = lvn.lvn(grnet.link(GrnetLink::PatraAthens));
/// assert!((value - 0.083).abs() < 0.001);
/// ```
#[derive(Debug, Clone)]
pub struct LvnComputer<'a> {
    topology: &'a Topology,
    snapshot: &'a TrafficSnapshot,
    params: LvnParams,
}

impl<'a> LvnComputer<'a> {
    /// Creates a computer over a topology and a traffic snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was built for a topology with a different
    /// number of links. Use [`LvnComputer::try_new`] to handle the
    /// mismatch as a [`NetError`] instead.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; `try_new` is the fallible form"
    )]
    pub fn new(topology: &'a Topology, snapshot: &'a TrafficSnapshot, params: LvnParams) -> Self {
        Self::try_new(topology, snapshot, params).expect("snapshot must match topology")
    }

    /// Fallible variant of [`LvnComputer::new`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::WeightCountMismatch`] if the snapshot covers a
    /// different number of links than `topology` — the same error
    /// [`LinkWeights::validate`] reports, so callers can treat topology /
    /// snapshot / weight-table mismatches uniformly.
    pub fn try_new(
        topology: &'a Topology,
        snapshot: &'a TrafficSnapshot,
        params: LvnParams,
    ) -> Result<Self, NetError> {
        snapshot.check_matches(topology)?;
        Ok(LvnComputer {
            topology,
            snapshot,
            params,
        })
    }

    /// The parameters in use.
    pub fn params(&self) -> LvnParams {
        self.params
    }

    /// Equation (2): node validation — total used bandwidth over total
    /// capacity of all links adjacent to `node`.
    ///
    /// An isolated node has validation 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_validation(&self, node: NodeId) -> f64 {
        let mut used = Mbps::ZERO;
        let mut capacity = Mbps::ZERO;
        for inc in self.topology.adjacent(node) {
            used += self.snapshot.used(inc.link);
            capacity += self.topology.link(inc.link).capacity();
        }
        if capacity.is_zero() {
            0.0
        } else {
            used / capacity
        }
    }

    /// Equation (4): link value — capacity in Mbps over the normalization
    /// constant.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_value(&self, link: LinkId) -> f64 {
        self.topology.link(link).capacity().as_f64() / self.params.normalization_constant
    }

    /// Equation (3): link utilization term — traffic fraction times link
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_utilization_term(&self, link: LinkId) -> f64 {
        self.snapshot.utilization(self.topology, link).get() * self.link_value(link)
    }

    /// Equation (1): the Link Validation Number of `link`.
    ///
    /// Administratively-down links (fault injection) weigh
    /// `f64::INFINITY`: Dijkstra never relaxes a non-finite weight, so
    /// no route crosses a down link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn lvn(&self, link: LinkId) -> f64 {
        let l = self.topology.link(link);
        self.lvn_from(
            link,
            self.node_validation(l.a()),
            self.node_validation(l.b()),
        )
    }

    /// Computes the full per-link weight table. Each node's validation is
    /// derived once, by the same adjacency-order sums as
    /// [`Self::node_validation`], so every weight is bit-identical to
    /// [`Self::lvn`].
    #[expect(
        clippy::indexing_slicing,
        reason = "`nv` holds one validation per node of the same topology"
    )]
    pub fn weights(&self) -> LinkWeights {
        let nv: Vec<f64> = self
            .topology
            .node_ids()
            .map(|n| self.node_validation(n))
            .collect();
        self.topology
            .link_ids()
            .map(|id| {
                let l = self.topology.link(id);
                self.lvn_from(id, nv[l.a().index()], nv[l.b().index()])
            })
            .collect()
    }

    /// Equation (1) from the two endpoint node validations.
    fn lvn_from(&self, link: LinkId, nv_a: f64, nv_b: f64) -> f64 {
        if self.snapshot.is_admin_down(link) {
            return f64::INFINITY;
        }
        self.params.combiner.combine(nv_a, nv_b) + self.link_utilization_term(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::units::Fraction;

    /// Builds the three-node fixture of the paper's Figure 4 discussion:
    /// node b has three adjacent links i, j, k.
    fn figure4_fixture() -> (Topology, TrafficSnapshot, LinkId) {
        let mut b = TopologyBuilder::new();
        let node_a = b.add_node("a");
        let node_b = b.add_node("b");
        let node_c = b.add_node("c");
        let node_d = b.add_node("d");
        // link i between b and a; links j, k hang off b.
        let link_i = b.add_link(node_b, node_a, Mbps::new(2.0)).unwrap();
        let link_j = b.add_link(node_b, node_c, Mbps::new(18.0)).unwrap();
        let link_k = b.add_link(node_b, node_d, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        let mut snap = TrafficSnapshot::zero(&topo);
        snap.set_used(link_i, Mbps::new(0.2));
        snap.set_used(link_j, Mbps::new(1.8));
        snap.set_used(link_k, Mbps::new(1.0));
        (topo, snap, link_i)
    }

    #[test]
    fn node_validation_matches_equation_2() {
        let (topo, snap, _) = figure4_fixture();
        let lvn = LvnComputer::new(&topo, &snap, LvnParams::default());
        // NV_b = (UBW_i + UBW_j + UBW_k) / (LBW_i + LBW_j + LBW_k)
        let expected = (0.2 + 1.8 + 1.0) / (2.0 + 18.0 + 2.0);
        assert!((lvn.node_validation(NodeId::new(1)) - expected).abs() < 1e-12);
        // NV_a only sees link i.
        assert!((lvn.node_validation(NodeId::new(0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn link_value_matches_equation_4() {
        let (topo, snap, link_i) = figure4_fixture();
        let lvn = LvnComputer::new(&topo, &snap, LvnParams::default());
        assert!((lvn.link_value(link_i) - 0.2).abs() < 1e-12);
        let lvn5 = LvnComputer::new(&topo, &snap, LvnParams::with_normalization(5.0));
        assert!((lvn5.link_value(link_i) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn lvn_combines_max_nv_and_lu() {
        let (topo, snap, link_i) = figure4_fixture();
        let lvn = LvnComputer::new(&topo, &snap, LvnParams::default());
        let nv_a: f64 = 0.1;
        let nv_b = 3.0 / 22.0;
        let lu = 0.1 * 0.2; // LT_i = 0.2/2.0, LV_i = 2/10
        let expected = nv_a.max(nv_b) + lu;
        assert!((lvn.lvn(link_i) - expected).abs() < 1e-12);
    }

    #[test]
    fn combiner_variants_order_sensibly() {
        let (topo, snap, link_i) = figure4_fixture();
        let max = LvnComputer::new(&topo, &snap, LvnParams::default()).lvn(link_i);
        let avg = LvnComputer::new(
            &topo,
            &snap,
            LvnParams {
                combiner: NodeCombiner::Avg,
                ..LvnParams::default()
            },
        )
        .lvn(link_i);
        let sum = LvnComputer::new(
            &topo,
            &snap,
            LvnParams {
                combiner: NodeCombiner::Sum,
                ..LvnParams::default()
            },
        )
        .lvn(link_i);
        assert!(avg <= max && max <= sum);
    }

    #[test]
    fn explicit_utilization_feeds_lu_term() {
        let (topo, snap, link_i) = figure4_fixture();
        let mut snap = snap;
        snap.set_explicit_utilization(link_i, Fraction::from_percent(50.0));
        let lvn = LvnComputer::new(&topo, &snap, LvnParams::default());
        // LU becomes 0.5 * 0.2 = 0.1 while NV still uses raw UBW values.
        let nv = (3.0f64 / 22.0).max(0.1);
        assert!((lvn.lvn(link_i) - (nv + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn weights_cover_all_links_and_validate() {
        let (topo, snap, _) = figure4_fixture();
        let computer = LvnComputer::new(&topo, &snap, LvnParams::default());
        let weights = computer.weights();
        assert_eq!(weights.len(), topo.link_count());
        assert!(weights.validate(&topo).is_ok());
        // The table shares one NV per node; each entry is still exactly
        // the per-link equation (1).
        for (link, w) in weights.iter() {
            assert_eq!(w.to_bits(), computer.lvn(link).to_bits());
        }
    }

    #[test]
    fn idle_network_has_zero_lvn() {
        let (topo, _, _) = figure4_fixture();
        let snap = TrafficSnapshot::zero(&topo);
        let weights = LvnComputer::new(&topo, &snap, LvnParams::default()).weights();
        for (_, w) in weights.iter() {
            assert_eq!(w, 0.0);
        }
    }

    #[test]
    fn weight_table_validation_catches_errors() {
        let (topo, ..) = figure4_fixture();
        let short = LinkWeights::from_vec(vec![0.1]);
        assert!(matches!(
            short.validate(&topo),
            Err(NetError::WeightCountMismatch { .. })
        ));
        let negative = LinkWeights::from_vec(vec![0.1, -0.2, 0.3]);
        assert!(matches!(
            negative.validate(&topo),
            Err(NetError::NegativeWeight(..))
        ));
        let nan = LinkWeights::from_vec(vec![0.1, f64::NAN, 0.3]);
        assert!(matches!(
            nan.validate(&topo),
            Err(NetError::InvalidWeight(..))
        ));
    }

    #[test]
    fn uniform_weights() {
        let w = LinkWeights::uniform(3, 1.0);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|(_, x)| x == 1.0));
        assert!(!w.is_empty());
        assert!(LinkWeights::uniform(0, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "normalization constant")]
    fn nonpositive_normalization_rejected() {
        let _ = LvnParams::with_normalization(0.0);
    }

    #[test]
    fn try_new_reports_snapshot_mismatch_as_error() {
        let (topo, ..) = figure4_fixture();
        let mut other = TopologyBuilder::new();
        let x = other.add_node("x");
        let y = other.add_node("y");
        other.add_link(x, y, Mbps::new(1.0)).unwrap();
        let foreign = TrafficSnapshot::zero(&other.build());
        assert!(matches!(
            LvnComputer::try_new(&topo, &foreign, LvnParams::default()),
            Err(NetError::WeightCountMismatch {
                expected: 3,
                actual: 1
            })
        ));
        // The matching case still succeeds.
        let snap = TrafficSnapshot::zero(&topo);
        assert!(LvnComputer::try_new(&topo, &snap, LvnParams::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "snapshot must match topology")]
    fn new_still_panics_on_mismatch() {
        let (topo, ..) = figure4_fixture();
        let mut other = TopologyBuilder::new();
        other.add_node("solo");
        let foreign = TrafficSnapshot::zero(&other.build());
        let _ = LvnComputer::new(&topo, &foreign, LvnParams::default());
    }
}
