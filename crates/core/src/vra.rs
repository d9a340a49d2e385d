//! The Virtual Routing Algorithm — the paper's Figure 5.
//!
//! ```text
//! Get the IP address of the client placing the video request
//! Determine the server to whom the user is directly connected (home server)
//! IF the adjacent video server can provide the requested video THEN
//!     authorize it to start transferring; QUIT
//! ELSE
//!     list all servers holding the title; poll them
//!     calculate the Link Validation Number for each network link
//!     run Dijkstra from the client's adjacent server
//!     among the least-cost paths to candidate servers, pick the cheapest
//!     notify that server to start transferring; QUIT
//! ```
//!
//! [`Vra::select`] implements exactly this; [`Vra::select_with_report`]
//! additionally returns the Dijkstra trace and the per-candidate costs —
//! the content of the paper's Tables 4/5 and its Experiments A–D.

use vod_net::dijkstra::dijkstra_with_trace;
use vod_net::engine::RoutingEngine;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::trace::DijkstraTrace;
use vod_net::{NodeId, Route, Topology, TrafficSnapshot};

use crate::error::CoreError;
use crate::selection::{Selection, SelectionContext, ServerSelector};

/// The Virtual Routing Algorithm with configurable LVN parameters.
///
/// # Examples
///
/// Reproduce the paper's Experiment B (10am, client at Patra, replicas at
/// Thessaloniki and Xanthi → Thessaloniki wins via U2,U3,U4):
///
/// ```
/// use vod_core::selection::{SelectionContext, ServerSelector};
/// use vod_core::vra::Vra;
/// use vod_net::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};
///
/// # fn main() -> Result<(), vod_core::CoreError> {
/// let grnet = Grnet::new();
/// let snapshot = grnet.snapshot(TimeOfDay::T1000);
/// let mut vra = Vra::default();
/// let ctx = SelectionContext {
///     topology: grnet.topology(),
///     snapshot: &snapshot,
///     home: grnet.node(GrnetNode::Patra),
///     candidates: &[grnet.node(GrnetNode::Thessaloniki), grnet.node(GrnetNode::Xanthi)],
/// };
/// let selection = vra.select(&ctx)?;
/// assert_eq!(selection.server, grnet.node(GrnetNode::Thessaloniki));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vra {
    params: LvnParams,
    /// Epoch-cached fast path used by [`ServerSelector::select`]; its
    /// decisions are bit-identical to [`Vra::select_with_report`], which
    /// recomputes from scratch to produce the paper's traces.
    engine: RoutingEngine,
}

/// The full decision record of one VRA run: the chosen selection, every
/// candidate's least-cost route, and the Dijkstra trace (when the home
/// server could not serve locally).
#[derive(Debug, Clone)]
pub struct VraReport {
    /// The chosen server and route.
    pub selection: Selection,
    /// Each candidate's least-cost route from the home server, in
    /// candidate order (`None` for unreachable candidates).
    pub candidate_routes: Vec<(NodeId, Option<Route>)>,
    /// The Dijkstra trace, when the algorithm had to route (local serves
    /// terminate before Dijkstra runs).
    pub trace: Option<DijkstraTrace>,
}

impl Vra {
    /// A VRA with explicit LVN parameters.
    pub fn new(params: LvnParams) -> Self {
        Vra {
            params,
            engine: RoutingEngine::new(params),
        }
    }

    /// The LVN parameters in use.
    pub fn params(&self) -> LvnParams {
        self.params
    }

    /// Computes the LVN weight table for the given network state.
    pub fn weights(
        &self,
        topology: &Topology,
        snapshot: &TrafficSnapshot,
    ) -> vod_net::lvn::LinkWeights {
        LvnComputer::new(topology, snapshot, self.params).weights()
    }

    /// Runs the VRA and returns the full report (trace + all candidate
    /// costs).
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoCandidates`]-free variant: candidates must be
    ///   non-empty, otherwise [`CoreError::Unreachable`] with no
    ///   candidates is returned by the caller-facing wrapper — this
    ///   method returns [`CoreError::Unreachable`] directly.
    /// * [`CoreError::Net`] for malformed inputs.
    pub fn select_with_report(&self, ctx: &SelectionContext<'_>) -> Result<VraReport, CoreError> {
        // "IF the adjacent to the client video server can provide the
        // requested video THEN … QUIT."
        if ctx.candidates.contains(&ctx.home) {
            return Ok(VraReport::local(ctx.home));
        }
        // "Calculate the Link Validation Number for each network link."
        self.select_with_weights(ctx, &self.weights(ctx.topology, ctx.snapshot))
    }

    /// Runs Dijkstra over *caller-provided* weights instead of computing
    /// LVNs — used to reproduce the paper's Tables 4/5 from its published
    /// Table 3 values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vra::select_with_report`].
    pub fn select_with_weights(
        &self,
        ctx: &SelectionContext<'_>,
        weights: &vod_net::lvn::LinkWeights,
    ) -> Result<VraReport, CoreError> {
        if ctx.candidates.contains(&ctx.home) {
            return Ok(VraReport::local(ctx.home));
        }
        // "Run the Dijkstra's routing algorithm … from the client's
        // adjacent server to all other network nodes."
        let (paths, trace) = dijkstra_with_trace(ctx.topology, weights, ctx.home)?;

        // "Select those least expensive paths that … end at the servers
        // that can provide the video; choose the one with the smallest
        // cost."
        let candidate_routes: Vec<(NodeId, Option<Route>)> = ctx
            .candidates
            .iter()
            .map(|&c| (c, paths.route_to(c)))
            .collect();
        let best = candidate_routes
            .iter()
            .filter_map(|(c, r)| r.as_ref().map(|r| (*c, r.clone())))
            .min_by(|a, b| a.1.cost().total_cmp(&b.1.cost()).then(a.0.cmp(&b.0)));
        match best {
            Some((server, route)) => {
                debug_check_optimal(&route, &candidate_routes);
                Ok(VraReport {
                    selection: Selection { server, route },
                    candidate_routes,
                    trace: Some(trace),
                })
            }
            None => Err(CoreError::Unreachable {
                home: ctx.home,
                candidates: ctx.candidates.to_vec(),
            }),
        }
    }
}

impl VraReport {
    /// The report of a local serve: the home server holds the title, so
    /// the algorithm stops before Dijkstra.
    fn local(home: NodeId) -> Self {
        VraReport {
            selection: Selection {
                server: home,
                route: Route::trivial(home),
            },
            candidate_routes: vec![(home, Some(Route::trivial(home)))],
            trace: None,
        }
    }
}

/// Dev-run mirror of the auditor's VRA-optimality rule (`vod-check audit`
/// A005): the chosen route costs no more than any reachable candidate's.
#[inline]
#[expect(
    clippy::disallowed_macros,
    reason = "debug mirror of audit rule A005: the chosen route is optimal"
)]
fn debug_check_optimal(route: &Route, candidate_routes: &[(NodeId, Option<Route>)]) {
    debug_assert!(
        candidate_routes
            .iter()
            .all(|(_, r)| r.as_ref().is_none_or(|r| route.cost() <= r.cost())),
        "VRA picked a non-optimal candidate: cost {} vs candidates {:?}",
        route.cost(),
        candidate_routes
            .iter()
            .map(|(c, r)| (*c, r.as_ref().map(Route::cost)))
            .collect::<Vec<_>>()
    );
}

impl ServerSelector for Vra {
    fn name(&self) -> &str {
        "vra"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError> {
        // The hot path: epoch-cached weights and shortest-path trees.
        // Identical decisions (costs, routes, tie-breaks) to the
        // trace-producing `select_with_report`.
        match self
            .engine
            .select(ctx.topology, ctx.snapshot, ctx.home, ctx.candidates)?
        {
            Some(sel) => Ok(Selection {
                server: sel.server,
                route: sel.route,
            }),
            None => Err(CoreError::Unreachable {
                home: ctx.home,
                candidates: ctx.candidates.to_vec(),
            }),
        }
    }

    fn engine_stats(&self) -> Option<vod_net::EngineStats> {
        Some(self.engine.stats())
    }

    fn lvn_params(&self) -> Option<LvnParams> {
        Some(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies::grnet::{Grnet, GrnetNode, TimeOfDay};

    fn ctx<'a>(
        grnet: &'a Grnet,
        snapshot: &'a TrafficSnapshot,
        home: GrnetNode,
        candidates: &'a [NodeId],
    ) -> SelectionContext<'a> {
        SelectionContext {
            topology: grnet.topology(),
            snapshot,
            home: grnet.node(home),
            candidates,
        }
    }

    #[test]
    fn local_hit_terminates_immediately() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T0800);
        let home = grnet.node(GrnetNode::Patra);
        let candidates = [grnet.node(GrnetNode::Thessaloniki), home];
        let report = Vra::default()
            .select_with_report(&ctx(&grnet, &snap, GrnetNode::Patra, &candidates))
            .unwrap();
        assert_eq!(report.selection.server, home);
        assert_eq!(report.selection.route.hops(), 0);
        assert!(report.trace.is_none());
    }

    /// Experiment A with *computed* LVNs: the paper's Table 4 misses the
    /// U3→U4 relaxation and picks Xanthi at 0.315; correct Dijkstra finds
    /// Thessaloniki via U2,U3,U4 at ≈0.218 (see DESIGN.md §5).
    #[test]
    fn experiment_a_corrected() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T0800);
        let candidates = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let report = Vra::default()
            .select_with_report(&ctx(&grnet, &snap, GrnetNode::Patra, &candidates))
            .unwrap();
        assert_eq!(report.selection.server, grnet.node(GrnetNode::Thessaloniki));
        let names: Vec<&str> = report
            .selection
            .route
            .nodes()
            .iter()
            .map(|&n| grnet.topology().node(n).name())
            .collect();
        assert_eq!(names, ["U2", "U3", "U4"]);
        assert!((report.selection.route.cost() - 0.2177).abs() < 0.002);
        // The paper's Xanthi route is still found as the candidate's best.
        let xanthi_route = report.candidate_routes[1].1.as_ref().unwrap();
        assert!((xanthi_route.cost() - 0.315).abs() < 0.002);
        assert!(report.trace.is_some());
    }

    /// Experiment B: Thessaloniki via U2,U3,U4 at ≈1.007 beats Xanthi at
    /// ≈1.308 — matching the paper exactly.
    #[test]
    fn experiment_b_matches_paper() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T1000);
        let candidates = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let report = Vra::default()
            .select_with_report(&ctx(&grnet, &snap, GrnetNode::Patra, &candidates))
            .unwrap();
        assert_eq!(report.selection.server, grnet.node(GrnetNode::Thessaloniki));
        assert!((report.selection.route.cost() - 1.007).abs() < 0.01);
    }

    /// Experiments C and D: client at Athens, candidates Thessaloniki,
    /// Xanthi, Ioannina → Ioannina via U1,U2,U3 wins at both 4pm and 6pm.
    #[test]
    fn experiments_c_and_d_match_paper() {
        let grnet = Grnet::new();
        for (time, expected_cost) in [(TimeOfDay::T1600, 1.222), (TimeOfDay::T1800, 1.236)] {
            let snap = grnet.snapshot(time);
            let candidates = [
                grnet.node(GrnetNode::Thessaloniki),
                grnet.node(GrnetNode::Xanthi),
                grnet.node(GrnetNode::Ioannina),
            ];
            let report = Vra::default()
                .select_with_report(&ctx(&grnet, &snap, GrnetNode::Athens, &candidates))
                .unwrap();
            assert_eq!(
                report.selection.server,
                grnet.node(GrnetNode::Ioannina),
                "{}",
                time.label()
            );
            let names: Vec<&str> = report
                .selection
                .route
                .nodes()
                .iter()
                .map(|&n| grnet.topology().node(n).name())
                .collect();
            assert_eq!(names, ["U1", "U2", "U3"]);
            assert!(
                (report.selection.route.cost() - expected_cost).abs() < 0.01,
                "{}: {} vs {}",
                time.label(),
                report.selection.route.cost(),
                expected_cost
            );
        }
    }

    /// Feeding the paper's own Table 3 weights reproduces Experiment B's
    /// published numbers to the printed precision.
    #[test]
    fn experiment_b_exact_with_paper_weights() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T1000);
        let weights = grnet.paper_table3_weights(TimeOfDay::T1000);
        let candidates = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let report = Vra::default()
            .select_with_weights(&ctx(&grnet, &snap, GrnetNode::Patra, &candidates), &weights)
            .unwrap();
        // 0.450017 + 0.5571 — the paper prints "1,007".
        assert!((report.selection.route.cost() - 1.007117).abs() < 1e-9);
        let xanthi = report.candidate_routes[1].1.as_ref().unwrap();
        assert!((xanthi.cost() - 1.30821).abs() < 1e-5);
    }

    /// The engine-backed `select` fast path must make the same decision
    /// as the trace-producing report path, and a warm cache must answer
    /// repeats without recomputing LVNs or re-running Dijkstra.
    #[test]
    fn fast_path_matches_report_path_and_caches() {
        let grnet = Grnet::new();
        let mut vra = Vra::default();
        for time in [TimeOfDay::T0800, TimeOfDay::T1000] {
            let snap = grnet.snapshot(time);
            let candidates = [
                grnet.node(GrnetNode::Thessaloniki),
                grnet.node(GrnetNode::Xanthi),
            ];
            let c = ctx(&grnet, &snap, GrnetNode::Patra, &candidates);
            let report = vra.select_with_report(&c).unwrap();
            let fast = vra.select(&c).unwrap();
            assert_eq!(fast, report.selection, "{}", time.label());
            let repeat = vra.select(&c).unwrap();
            assert_eq!(repeat, report.selection);
        }
        let stats = vra.engine.stats();
        // One rebuild + one Dijkstra per snapshot; each repeat was pure
        // cache (select_with_report never touches the engine).
        assert_eq!(stats.full_rebuilds, 2);
        assert_eq!(stats.dijkstra_runs, 2);
        assert_eq!(stats.path_cache_hits, 2);
        assert_eq!(stats.weight_cache_hits, 2);
    }

    #[test]
    fn unreachable_candidates_error() {
        use vod_net::{Mbps, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let home = b.add_node("home");
        let island = b.add_node("island");
        let other = b.add_node("other");
        b.add_link(home, other, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        let snap = TrafficSnapshot::zero(&topo);
        let ctx = SelectionContext {
            topology: &topo,
            snapshot: &snap,
            home,
            candidates: &[island],
        };
        let err = Vra::default().select_with_report(&ctx).unwrap_err();
        assert!(matches!(err, CoreError::Unreachable { .. }));
    }

    #[test]
    fn deterministic_tie_break_on_equal_cost() {
        use vod_net::{Mbps, TopologyBuilder};
        // home connected to two candidates over identical idle links.
        let mut b = TopologyBuilder::new();
        let home = b.add_node("home");
        let c1 = b.add_node("c1");
        let c2 = b.add_node("c2");
        b.add_link(home, c1, Mbps::new(2.0)).unwrap();
        b.add_link(home, c2, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        let snap = TrafficSnapshot::zero(&topo);
        let ctx = SelectionContext {
            topology: &topo,
            snapshot: &snap,
            home,
            candidates: &[c2, c1],
        };
        let sel = Vra::default().select_with_report(&ctx).unwrap().selection;
        // Lowest node id wins ties.
        assert_eq!(sel.server, c1);
    }
}
