//! The Greek Research & Technology Network (GRNET) backbone of the paper's
//! case study, together with the recorded SNMP readings of its Table 2 and
//! the published Link Validation Numbers of its Table 3.
//!
//! Node naming follows the paper's Figure 6: `U1` Athens, `U2` Patra,
//! `U3` Ioannina, `U4` Thessaloniki, `U5` Xanthi, `U6` Heraklio. The seven
//! backbone links and their capacities come from Table 2.

use crate::ids::{LinkId, NodeId};
use crate::lvn::LinkWeights;
use crate::snapshot::TrafficSnapshot;
use crate::topology::{Topology, TopologyBuilder};
use crate::units::{Fraction, Mbps};

/// The four times of day at which the paper sampled SNMP statistics.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum TimeOfDay {
    /// 8:00 am.
    T0800,
    /// 10:00 am.
    T1000,
    /// 4:00 pm.
    T1600,
    /// 6:00 pm.
    T1800,
}

impl TimeOfDay {
    /// All sampled times in chronological order.
    pub const ALL: [TimeOfDay; 4] = [
        TimeOfDay::T0800,
        TimeOfDay::T1000,
        TimeOfDay::T1600,
        TimeOfDay::T1800,
    ];

    /// The label used in the paper's tables, e.g. `"8am"`.
    pub fn label(self) -> &'static str {
        match self {
            TimeOfDay::T0800 => "8am",
            TimeOfDay::T1000 => "10am",
            TimeOfDay::T1600 => "4pm",
            TimeOfDay::T1800 => "6pm",
        }
    }

    /// Column index of this time in the paper's tables (0-based).
    pub fn column(self) -> usize {
        match self {
            TimeOfDay::T0800 => 0,
            TimeOfDay::T1000 => 1,
            TimeOfDay::T1600 => 2,
            TimeOfDay::T1800 => 3,
        }
    }

    /// Hour of day (0–23) for simulation clocks.
    pub fn hour(self) -> u32 {
        match self {
            TimeOfDay::T0800 => 8,
            TimeOfDay::T1000 => 10,
            TimeOfDay::T1600 => 16,
            TimeOfDay::T1800 => 18,
        }
    }
}

/// The six GRNET backbone nodes of the paper's Figure 6.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum GrnetNode {
    /// U1 — Athens.
    Athens,
    /// U2 — Patra.
    Patra,
    /// U3 — Ioannina.
    Ioannina,
    /// U4 — Thessaloniki.
    Thessaloniki,
    /// U5 — Xanthi.
    Xanthi,
    /// U6 — Heraklio.
    Heraklio,
}

impl GrnetNode {
    /// All nodes in `U1..U6` order.
    pub const ALL: [GrnetNode; 6] = [
        GrnetNode::Athens,
        GrnetNode::Patra,
        GrnetNode::Ioannina,
        GrnetNode::Thessaloniki,
        GrnetNode::Xanthi,
        GrnetNode::Heraklio,
    ];

    /// The paper's `U`-label, e.g. `"U1"` for Athens.
    pub fn u_label(self) -> &'static str {
        match self {
            GrnetNode::Athens => "U1",
            GrnetNode::Patra => "U2",
            GrnetNode::Ioannina => "U3",
            GrnetNode::Thessaloniki => "U4",
            GrnetNode::Xanthi => "U5",
            GrnetNode::Heraklio => "U6",
        }
    }

    /// The city name.
    pub fn city(self) -> &'static str {
        match self {
            GrnetNode::Athens => "Athens",
            GrnetNode::Patra => "Patra",
            GrnetNode::Ioannina => "Ioannina",
            GrnetNode::Thessaloniki => "Thessaloniki",
            GrnetNode::Xanthi => "Xanthi",
            GrnetNode::Heraklio => "Heraklio",
        }
    }

    fn position(self) -> usize {
        match self {
            GrnetNode::Athens => 0,
            GrnetNode::Patra => 1,
            GrnetNode::Ioannina => 2,
            GrnetNode::Thessaloniki => 3,
            GrnetNode::Xanthi => 4,
            GrnetNode::Heraklio => 5,
        }
    }
}

/// The seven GRNET backbone links of the paper's Table 2, in table order.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum GrnetLink {
    /// Patra–Athens, 2 Mbit.
    PatraAthens,
    /// Patra–Ioannina, 2 Mbit.
    PatraIoannina,
    /// Thessaloniki–Athens, 18 Mbit.
    ThessalonikiAthens,
    /// Thessaloniki–Xanthi, 2 Mbit.
    ThessalonikiXanthi,
    /// Thessaloniki–Ioannina, 2 Mbit.
    ThessalonikiIoannina,
    /// Athens–Heraklio, 18 Mbit.
    AthensHeraklio,
    /// Xanthi–Heraklio, 2 Mbit.
    XanthiHeraklio,
}

impl GrnetLink {
    /// All links in Table 2 order.
    pub const ALL: [GrnetLink; 7] = [
        GrnetLink::PatraAthens,
        GrnetLink::PatraIoannina,
        GrnetLink::ThessalonikiAthens,
        GrnetLink::ThessalonikiXanthi,
        GrnetLink::ThessalonikiIoannina,
        GrnetLink::AthensHeraklio,
        GrnetLink::XanthiHeraklio,
    ];

    /// The two endpoints.
    pub fn endpoints(self) -> (GrnetNode, GrnetNode) {
        match self {
            GrnetLink::PatraAthens => (GrnetNode::Patra, GrnetNode::Athens),
            GrnetLink::PatraIoannina => (GrnetNode::Patra, GrnetNode::Ioannina),
            GrnetLink::ThessalonikiAthens => (GrnetNode::Thessaloniki, GrnetNode::Athens),
            GrnetLink::ThessalonikiXanthi => (GrnetNode::Thessaloniki, GrnetNode::Xanthi),
            GrnetLink::ThessalonikiIoannina => (GrnetNode::Thessaloniki, GrnetNode::Ioannina),
            GrnetLink::AthensHeraklio => (GrnetNode::Athens, GrnetNode::Heraklio),
            GrnetLink::XanthiHeraklio => (GrnetNode::Xanthi, GrnetNode::Heraklio),
        }
    }

    /// Capacity per Table 2.
    pub fn capacity(self) -> Mbps {
        match self {
            GrnetLink::ThessalonikiAthens | GrnetLink::AthensHeraklio => Mbps::new(18.0),
            _ => Mbps::new(2.0),
        }
    }

    /// The row label of the paper's tables, e.g. `"Patra-Athens"`.
    pub fn label(self) -> &'static str {
        match self {
            GrnetLink::PatraAthens => "Patra-Athens",
            GrnetLink::PatraIoannina => "Patra-Ioannina",
            GrnetLink::ThessalonikiAthens => "Thessaloniki-Athens",
            GrnetLink::ThessalonikiXanthi => "Thessaloniki-Xanthi",
            GrnetLink::ThessalonikiIoannina => "Thessaloniki-Ioannina",
            GrnetLink::AthensHeraklio => "Athens-Heraklio",
            GrnetLink::XanthiHeraklio => "Xanthi-Heraklio",
        }
    }

    fn position(self) -> usize {
        match self {
            GrnetLink::PatraAthens => 0,
            GrnetLink::PatraIoannina => 1,
            GrnetLink::ThessalonikiAthens => 2,
            GrnetLink::ThessalonikiXanthi => 3,
            GrnetLink::ThessalonikiIoannina => 4,
            GrnetLink::AthensHeraklio => 5,
            GrnetLink::XanthiHeraklio => 6,
        }
    }
}

/// One cell of the paper's Table 2: combined in+out traffic and the
/// utilization percentage as printed (the percentages are rounded in the
/// paper, and its Table 3 was computed from the rounded values).
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct Table2Cell {
    /// Combined in+out traffic in Mbps.
    pub traffic: Mbps,
    /// Utilization as printed in the paper, in percent.
    pub utilization_percent: f64,
}

/// Table 2 of the paper: `[link][time]` traffic and utilization readings.
///
/// Rows follow [`GrnetLink::ALL`], columns [`TimeOfDay::ALL`]. Traffic is
/// in Mbps ("100 bits" rows are 0.0001 Mb etc., consistent with the
/// printed percentages).
pub const TABLE2: [[Table2Cell; 4]; 7] = {
    const fn cell(traffic: f64, percent: f64) -> Table2Cell {
        Table2Cell {
            traffic: Mbps::from_const(traffic),
            utilization_percent: percent,
        }
    }
    [
        // Patra-Athens (2 Mbit)
        [
            cell(0.2, 10.0),
            cell(1.82, 91.0),
            cell(1.82, 91.0),
            cell(1.82, 91.0),
        ],
        // Patra-Ioannina (2 Mbit)
        [
            cell(0.0001, 0.005),
            cell(0.00017, 0.0085),
            cell(0.2, 10.0),
            cell(0.24, 12.0),
        ],
        // Thessaloniki-Athens (18 Mb)
        [
            cell(1.7, 9.4),
            cell(7.0, 38.8),
            cell(9.8, 54.4),
            cell(9.6, 53.3),
        ],
        // Thessaloniki-Xanthi (2 Mb)
        [
            cell(0.48, 24.0),
            cell(0.52, 26.0),
            cell(0.75, 37.5),
            cell(0.6, 30.0),
        ],
        // Thessaloniki-Ioannina (2 Mb)
        [
            cell(0.3, 15.0),
            cell(1.48, 74.0),
            cell(1.86, 93.0),
            cell(1.3, 65.0),
        ],
        // Athens-Heraklio (18 Mb)
        [
            cell(0.5, 2.7),
            cell(2.5, 13.8),
            cell(5.5, 30.5),
            cell(6.0, 33.3),
        ],
        // Xanthi-Heraklio (2 Mb)
        [
            cell(0.0001, 0.005),
            cell(0.00015, 0.005),
            cell(0.0002, 0.01),
            cell(0.00015, 0.0075),
        ],
    ]
};

/// Table 3 of the paper: the published Link Validation Numbers,
/// `[link][time]`, rows in [`GrnetLink::ALL`] order.
///
/// Note: the paper computed these from intermediately-rounded values, so a
/// few cells differ from the exact equations (1)–(4) by up to ~0.006 (see
/// DESIGN.md §5 and EXPERIMENTS.md).
pub const TABLE3_LVN: [[f64; 4]; 7] = [
    [0.083, 0.632, 0.687, 0.697],      // Patra-Athens
    [0.07501, 0.450017, 0.535, 0.539], // Patra-Ioannina
    [0.2819, 1.1075, 1.5433, 1.4824],  // Thessaloniki-Athens
    [0.168, 0.4611, 0.6391, 0.583],    // Thessaloniki-Xanthi
    [0.1427, 0.5571, 0.7501, 0.653],   // Thessaloniki-Ioannina
    [0.1116, 0.5462, 0.999, 1.0574],   // Athens-Heraklio
    [0.1201, 0.13001, 0.275015, 0.3],  // Xanthi-Heraklio
];

/// The GRNET backbone topology plus id lookup tables.
///
/// # Examples
///
/// ```
/// use vod_net::topologies::grnet::{Grnet, GrnetLink, GrnetNode, TimeOfDay};
///
/// let grnet = Grnet::new();
/// assert_eq!(grnet.topology().node_count(), 6);
/// assert_eq!(grnet.topology().link_count(), 7);
/// let snap = grnet.snapshot(TimeOfDay::T1000);
/// let link = grnet.link(GrnetLink::ThessalonikiAthens);
/// assert!((snap.utilization(grnet.topology(), link).get() - 0.388).abs() < 1e-9);
/// assert_eq!(grnet.topology().node(grnet.node(GrnetNode::Athens)).name(), "U1");
/// ```
#[derive(Debug, Clone)]
pub struct Grnet {
    topology: Topology,
    nodes: [NodeId; 6],
    links: [LinkId; 7],
}

impl Default for Grnet {
    fn default() -> Self {
        Self::new()
    }
}

impl Grnet {
    /// Builds the GRNET backbone (nodes named `U1..U6` as in Figure 6).
    pub fn new() -> Self {
        let mut b = TopologyBuilder::new();
        let mut nodes = [NodeId::new(0); 6];
        #[expect(
            clippy::indexing_slicing,
            reason = "`GrnetNode::position` is below 6, the array's length"
        )]
        for n in GrnetNode::ALL {
            nodes[n.position()] = b.add_node(n.u_label());
        }
        let mut links = [LinkId::new(0); 7];
        #[expect(
            clippy::indexing_slicing,
            reason = "`GrnetNode::position` is below 6 and `GrnetLink::position` below 7, the arrays' lengths"
        )]
        #[expect(clippy::expect_used, reason = "GRNET links are well-formed")]
        for l in GrnetLink::ALL {
            let (a, c) = l.endpoints();
            links[l.position()] = b
                .add_link(nodes[a.position()], nodes[c.position()], l.capacity())
                .expect("GRNET links are well-formed");
        }
        Grnet {
            topology: b.build(),
            nodes,
            links,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The [`NodeId`] of a GRNET city.
    #[expect(
        clippy::indexing_slicing,
        reason = "`GrnetNode::position` is below 6, the array's length"
    )]
    pub fn node(&self, node: GrnetNode) -> NodeId {
        self.nodes[node.position()]
    }

    /// The [`LinkId`] of a GRNET backbone link.
    #[expect(
        clippy::indexing_slicing,
        reason = "`GrnetLink::position` is below 7, the array's length"
    )]
    pub fn link(&self, link: GrnetLink) -> LinkId {
        self.links[link.position()]
    }

    /// Reverse lookup from a [`NodeId`] to the GRNET city.
    pub fn grnet_node(&self, id: NodeId) -> Option<GrnetNode> {
        GrnetNode::ALL.into_iter().find(|&n| self.node(n) == id)
    }

    /// Reverse lookup from a [`LinkId`] to the GRNET link.
    pub fn grnet_link(&self, id: LinkId) -> Option<GrnetLink> {
        GrnetLink::ALL.into_iter().find(|&l| self.link(l) == id)
    }

    /// The Table 2 reading for one link at one time.
    #[expect(
        clippy::indexing_slicing,
        reason = "Table 2 has a row per `GrnetLink::position` and a column per `TimeOfDay::column`"
    )]
    pub fn table2(&self, link: GrnetLink, time: TimeOfDay) -> Table2Cell {
        TABLE2[link.position()][time.column()]
    }

    /// Builds the traffic snapshot recorded in Table 2 for `time`,
    /// carrying both the raw traffic volumes (used by equation (2)) and the
    /// printed utilization percentages (used by equation (3), matching how
    /// the paper computed its Table 3).
    pub fn snapshot(&self, time: TimeOfDay) -> TrafficSnapshot {
        let mut snap = TrafficSnapshot::zero(&self.topology);
        for l in GrnetLink::ALL {
            let cell = self.table2(l, time);
            let id = self.link(l);
            snap.set_used(id, cell.traffic);
            snap.set_explicit_utilization(id, Fraction::from_percent(cell.utilization_percent));
        }
        snap
    }

    /// The paper's published Table 3 LVN weights for `time`, as a weight
    /// table usable by Dijkstra — for reproducing Tables 4/5 exactly as
    /// printed.
    pub fn paper_table3_weights(&self, time: TimeOfDay) -> LinkWeights {
        let mut w = vec![0.0; self.topology.link_count()];
        #[expect(
            clippy::indexing_slicing,
            reason = "Table 3 has a row per `GrnetLink::position` and a column per `TimeOfDay::column`; `w` is sized by the GRNET link count"
        )]
        for l in GrnetLink::ALL {
            w[self.link(l).index()] = TABLE3_LVN[l.position()][time.column()];
        }
        LinkWeights::from_vec(w)
    }

    /// The paper's published Table 3 LVN for one link and time.
    #[expect(
        clippy::indexing_slicing,
        reason = "Table 3 has a row per `GrnetLink::position` and a column per `TimeOfDay::column`"
    )]
    pub fn paper_table3_lvn(&self, link: GrnetLink, time: TimeOfDay) -> f64 {
        TABLE3_LVN[link.position()][time.column()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::lvn::{LvnComputer, LvnParams};

    #[test]
    fn topology_matches_figure6() {
        let g = Grnet::new();
        assert_eq!(g.topology().node_count(), 6);
        assert_eq!(g.topology().link_count(), 7);
        assert!(g.topology().is_connected());
        // Degrees: Athens 3 (Patra, Thessaloniki, Heraklio), Thessaloniki 3,
        // Patra 2, Ioannina 2, Xanthi 2, Heraklio 2.
        assert_eq!(g.topology().degree(g.node(GrnetNode::Athens)), 3);
        assert_eq!(g.topology().degree(g.node(GrnetNode::Thessaloniki)), 3);
        assert_eq!(g.topology().degree(g.node(GrnetNode::Patra)), 2);
        assert_eq!(g.topology().degree(g.node(GrnetNode::Ioannina)), 2);
        assert_eq!(g.topology().degree(g.node(GrnetNode::Xanthi)), 2);
        assert_eq!(g.topology().degree(g.node(GrnetNode::Heraklio)), 2);
    }

    #[test]
    fn node_labels_match_paper() {
        let g = Grnet::new();
        assert_eq!(g.topology().node(g.node(GrnetNode::Athens)).name(), "U1");
        assert_eq!(g.topology().node(g.node(GrnetNode::Patra)).name(), "U2");
        assert_eq!(g.topology().node(g.node(GrnetNode::Ioannina)).name(), "U3");
        assert_eq!(
            g.topology().node(g.node(GrnetNode::Thessaloniki)).name(),
            "U4"
        );
        assert_eq!(g.topology().node(g.node(GrnetNode::Xanthi)).name(), "U5");
        assert_eq!(g.topology().node(g.node(GrnetNode::Heraklio)).name(), "U6");
    }

    #[test]
    fn capacities_match_table2() {
        let g = Grnet::new();
        for l in GrnetLink::ALL {
            assert_eq!(g.topology().link(g.link(l)).capacity(), l.capacity());
        }
        assert_eq!(GrnetLink::ThessalonikiAthens.capacity(), Mbps::new(18.0));
        assert_eq!(GrnetLink::PatraAthens.capacity(), Mbps::new(2.0));
    }

    #[test]
    fn table2_traffic_is_consistent_with_printed_percentages() {
        // For every cell, traffic/capacity should be within rounding
        // distance of the printed percentage (the paper rounds to at most
        // one decimal in percent, except the sub-kb readings).
        let g = Grnet::new();
        for l in GrnetLink::ALL {
            for t in TimeOfDay::ALL {
                let cell = g.table2(l, t);
                let derived = cell.traffic / l.capacity() * 100.0;
                let printed = cell.utilization_percent;
                assert!(
                    (derived - printed).abs() <= 0.06 + printed * 0.01,
                    "{} @ {}: derived {derived}% vs printed {printed}%",
                    l.label(),
                    t.label()
                );
            }
        }
    }

    #[test]
    fn snapshot_reports_printed_percentages() {
        let g = Grnet::new();
        let snap = g.snapshot(TimeOfDay::T0800);
        let ta = g.link(GrnetLink::ThessalonikiAthens);
        assert!((snap.utilization(g.topology(), ta).get() - 0.094).abs() < 1e-12);
        assert_eq!(snap.used(ta), Mbps::new(1.7));
    }

    #[test]
    fn reverse_lookups() {
        let g = Grnet::new();
        for n in GrnetNode::ALL {
            assert_eq!(g.grnet_node(g.node(n)), Some(n));
        }
        for l in GrnetLink::ALL {
            assert_eq!(g.grnet_link(g.link(l)), Some(l));
        }
        assert_eq!(g.grnet_node(NodeId::new(77)), None);
    }

    /// The core scientific check: equations (1)–(4) over the Table 2 data
    /// reproduce the paper's Table 3 within the paper's own rounding slack.
    #[test]
    fn computed_lvn_matches_paper_table3() {
        let g = Grnet::new();
        for t in TimeOfDay::ALL {
            let snap = g.snapshot(t);
            let lvn = LvnComputer::new(g.topology(), &snap, LvnParams::default());
            for l in GrnetLink::ALL {
                let computed = lvn.lvn(g.link(l));
                let paper = g.paper_table3_lvn(l, t);
                assert!(
                    (computed - paper).abs() <= 0.006,
                    "{} @ {}: computed {computed:.5} vs paper {paper:.5}",
                    l.label(),
                    t.label()
                );
            }
        }
    }

    /// Spot-check the exactly-reproducible Table 3 cells (no intermediate
    /// rounding in the paper for these).
    #[test]
    fn exact_table3_cells() {
        let g = Grnet::new();
        let snap = g.snapshot(TimeOfDay::T0800);
        let lvn = LvnComputer::new(g.topology(), &snap, LvnParams::default());
        let cases = [
            (GrnetLink::PatraAthens, 0.083, 5e-4),
            (GrnetLink::PatraIoannina, 0.07501, 5e-5),
            (GrnetLink::ThessalonikiXanthi, 0.168, 5e-4),
            (GrnetLink::ThessalonikiIoannina, 0.1427, 5e-4),
            (GrnetLink::XanthiHeraklio, 0.1201, 5e-4),
        ];
        for (l, expected, tol) in cases {
            let computed = lvn.lvn(g.link(l));
            assert!(
                (computed - expected).abs() < tol,
                "{}: {computed} vs {expected}",
                l.label()
            );
        }
    }

    /// Experiment B's published shortest paths fall out of Dijkstra over
    /// the paper's own Table 3 weights.
    #[test]
    fn experiment_b_paths_from_paper_weights() {
        let g = Grnet::new();
        let w = g.paper_table3_weights(TimeOfDay::T1000);
        let paths = dijkstra(g.topology(), &w, g.node(GrnetNode::Patra)).unwrap();
        let d4 = paths.distance_to(g.node(GrnetNode::Thessaloniki)).unwrap();
        let d5 = paths.distance_to(g.node(GrnetNode::Xanthi)).unwrap();
        assert!((d4 - 1.007).abs() < 5e-4, "D4 = {d4}");
        assert!((d5 - 1.308).abs() < 5e-4, "D5 = {d5}");
        let route4 = paths.route_to(g.node(GrnetNode::Thessaloniki)).unwrap();
        let names: Vec<&str> = route4
            .nodes()
            .iter()
            .map(|&n| g.topology().node(n).name())
            .collect();
        assert_eq!(names, ["U2", "U3", "U4"]);
    }

    #[test]
    fn labels_and_metadata() {
        assert_eq!(TimeOfDay::T0800.label(), "8am");
        assert_eq!(TimeOfDay::T1800.hour(), 18);
        assert_eq!(GrnetNode::Xanthi.u_label(), "U5");
        assert_eq!(GrnetNode::Xanthi.city(), "Xanthi");
        assert_eq!(GrnetLink::AthensHeraklio.label(), "Athens-Heraklio");
        assert_eq!(TimeOfDay::ALL.len(), 4);
        assert_eq!(GrnetNode::ALL.len(), 6);
        assert_eq!(GrnetLink::ALL.len(), 7);
    }
}
