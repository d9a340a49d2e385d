//! Server selection: the selector abstraction and the baseline policies
//! the VRA is evaluated against.
//!
//! The paper argues the VRA beats naive alternatives implicitly; to
//! quantify that, this module provides the policies a contemporary system
//! would plausibly have used instead:
//!
//! * [`RandomReplica`] — pick a random server holding the title;
//! * [`HopCountNearest`] — shortest path by hop count, ignoring load;
//! * [`LeastUtilizedPath`] — Dijkstra over raw utilization fractions
//!   (no node validation, no bandwidth normalization — isolates the
//!   contribution of the paper's equations (2) and (4));
//! * [`FirstCandidate`] — the lowest-numbered server (a static catalog
//!   order, the degenerate baseline).
//!
//! All policies serve locally when the home server has the title, so the
//! comparison isolates *remote* server choice.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vod_net::dijkstra::dijkstra;
use vod_net::lvn::LinkWeights;
use vod_net::{NodeId, Route, Topology, TrafficSnapshot};

use crate::error::CoreError;

/// Everything a selector may consult for one decision.
///
/// The `snapshot` is whatever view of the network the caller has — in the
/// full service it is the limited-access database's (stale) SNMP state,
/// exactly as the paper prescribes (its Table 1 lists the SNMP statistics,
/// the administrator-entered bandwidths and the per-server title lists as
/// the VRA's only inputs).
#[derive(Debug, Clone, Copy)]
pub struct SelectionContext<'a> {
    /// The network.
    pub topology: &'a Topology,
    /// The current (possibly stale) traffic view.
    pub snapshot: &'a TrafficSnapshot,
    /// The client's home server ("the server to whom the requesting user
    /// is directly connected").
    pub home: NodeId,
    /// The servers that can provide the requested title.
    pub candidates: &'a [NodeId],
}

/// The outcome of a selection: which server transfers the video, along
/// which route.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen video server.
    pub server: NodeId,
    /// The route from the home server to `server` (trivial for a local
    /// serve). The video flows along it in the opposite direction.
    pub route: Route,
}

impl Selection {
    /// Returns true if the home server serves the title itself.
    pub fn is_local(&self) -> bool {
        self.route.hops() == 0
    }
}

/// A server-selection policy.
///
/// `select` takes `&mut self` so stateful policies (e.g. seeded random)
/// fit the trait; deterministic policies simply ignore the mutability.
pub trait ServerSelector {
    /// A short stable name for reports ("vra", "hop-count", …).
    fn name(&self) -> &str;

    /// Picks a server for one request.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError::Unreachable`] when no candidate
    /// can be reached, or [`CoreError::Net`] for malformed inputs. An
    /// empty candidate slice is reported as [`CoreError::Unreachable`].
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError>;

    /// Cumulative routing-engine counters, for policies backed by the
    /// epoch-cached [`RoutingEngine`](vod_net::RoutingEngine). The
    /// service reads this around each `select` call to tag trace events
    /// with a cache-hit flag and to surface the counters in its report.
    /// Baselines that never touch the engine keep the default `None`.
    fn engine_stats(&self) -> Option<vod_net::EngineStats> {
        None
    }

    /// The LVN parameters behind this policy's route costs, for policies
    /// that pick the candidate with the cheapest LVN-weighted Dijkstra
    /// path (the plain VRA). The service writes the normalization
    /// constant into the trace preamble so `vod-check audit` can re-derive
    /// every selection from the traced link state. Policies whose picks
    /// are not the LVN argmin (baselines, randomized variants) keep the
    /// default `None`, which exempts their traces from that audit rule.
    fn lvn_params(&self) -> Option<vod_net::lvn::LvnParams> {
        None
    }
}

/// Shared guard for empty candidate sets.
fn ensure_candidates(ctx: &SelectionContext<'_>) -> Result<(), CoreError> {
    if ctx.candidates.is_empty() {
        Err(CoreError::Unreachable {
            home: ctx.home,
            candidates: vec![],
        })
    } else {
        Ok(())
    }
}

/// Local-serve short-circuit shared by every policy.
fn local_if_possible(ctx: &SelectionContext<'_>) -> Option<Selection> {
    ctx.candidates.contains(&ctx.home).then(|| Selection {
        server: ctx.home,
        route: Route::trivial(ctx.home),
    })
}

/// Route to a fixed candidate by hop count (used by the non-routing
/// baselines, which choose the server first and then need *some* path).
fn hop_route_to(
    topology: &Topology,
    home: NodeId,
    server: NodeId,
) -> Result<Option<Route>, CoreError> {
    let weights = LinkWeights::uniform(topology.link_count(), 1.0);
    let paths = dijkstra(topology, &weights, home)?;
    Ok(paths.route_to(server))
}

/// Picks a uniformly random candidate (seeded, deterministic across runs).
#[derive(Debug)]
pub struct RandomReplica {
    rng: StdRng,
}

impl RandomReplica {
    /// Creates the policy with a seed.
    pub fn new(seed: u64) -> Self {
        RandomReplica {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ServerSelector for RandomReplica {
    fn name(&self) -> &str {
        "random"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError> {
        ensure_candidates(ctx)?;
        if let Some(local) = local_if_possible(ctx) {
            return Ok(local);
        }
        // Try candidates in random order until one is reachable.
        let mut order: Vec<NodeId> = ctx.candidates.to_vec();
        for i in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for server in order {
            if let Some(route) = hop_route_to(ctx.topology, ctx.home, server)? {
                return Ok(Selection { server, route });
            }
        }
        Err(CoreError::Unreachable {
            home: ctx.home,
            candidates: ctx.candidates.to_vec(),
        })
    }
}

/// Picks the candidate with the fewest hops, ignoring load entirely.
#[derive(Debug, Clone, Default)]
pub struct HopCountNearest;

impl ServerSelector for HopCountNearest {
    fn name(&self) -> &str {
        "hop-count"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError> {
        ensure_candidates(ctx)?;
        if let Some(local) = local_if_possible(ctx) {
            return Ok(local);
        }
        let weights = LinkWeights::uniform(ctx.topology.link_count(), 1.0);
        let paths = dijkstra(ctx.topology, &weights, ctx.home)?;
        ctx.candidates
            .iter()
            .filter_map(|&c| paths.route_to(c).map(|r| (c, r)))
            .min_by(|a, b| a.1.cost().total_cmp(&b.1.cost()).then(a.0.cmp(&b.0)))
            .map(|(server, route)| Selection { server, route })
            .ok_or_else(|| CoreError::Unreachable {
                home: ctx.home,
                candidates: ctx.candidates.to_vec(),
            })
    }
}

/// Dijkstra over plain utilization fractions: load-aware but without the
/// paper's node-validation and bandwidth-normalization terms.
#[derive(Debug, Clone, Default)]
pub struct LeastUtilizedPath;

impl ServerSelector for LeastUtilizedPath {
    fn name(&self) -> &str {
        "least-utilized"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError> {
        ensure_candidates(ctx)?;
        if let Some(local) = local_if_possible(ctx) {
            return Ok(local);
        }
        let weights: LinkWeights = ctx
            .topology
            .link_ids()
            .map(|l| ctx.snapshot.utilization(ctx.topology, l).get())
            .collect();
        let paths = dijkstra(ctx.topology, &weights, ctx.home)?;
        ctx.candidates
            .iter()
            .filter_map(|&c| paths.route_to(c).map(|r| (c, r)))
            .min_by(|a, b| a.1.cost().total_cmp(&b.1.cost()).then(a.0.cmp(&b.0)))
            .map(|(server, route)| Selection { server, route })
            .ok_or_else(|| CoreError::Unreachable {
                home: ctx.home,
                candidates: ctx.candidates.to_vec(),
            })
    }
}

/// The VRA with randomized near-tie breaking — an anti-herding variant in
/// the spirit of the authors' earlier "Randomized adaptive video on
/// demand" (Bouras, Kapoulas, Pantziou, Spirakis; PODC '96, the paper's
/// reference \[10\]).
///
/// Plain VRA decisions are deterministic functions of the (stale) SNMP
/// snapshot, so every request issued between two polls picks the *same*
/// "best" server and herds onto its path. `RandomizedVra` instead picks
/// uniformly among all candidates whose least-cost path is within
/// `slack` (relative) of the cheapest, spreading simultaneous requests
/// across near-equivalent replicas.
#[derive(Debug)]
pub struct RandomizedVra {
    inner: crate::vra::Vra,
    slack: f64,
    rng: StdRng,
}

impl RandomizedVra {
    /// Creates the policy.
    ///
    /// `slack` is the relative cost window: a candidate qualifies when
    /// `cost ≤ best × (1 + slack)`. `slack = 0` degenerates to the plain
    /// VRA (modulo tie order).
    ///
    /// # Panics
    ///
    /// Panics if `slack` is negative or not finite.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `slack.is_finite() && slack >= 0.0`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(slack: f64, seed: u64) -> Self {
        assert!(slack.is_finite() && slack >= 0.0, "slack must be >= 0");
        RandomizedVra {
            inner: crate::vra::Vra::default(),
            slack,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ServerSelector for RandomizedVra {
    fn name(&self) -> &str {
        "randomized-vra"
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: the best route always qualifies"
    )]
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError> {
        ensure_candidates(ctx)?;
        let report = self.inner.select_with_report(ctx)?;
        if report.selection.is_local() {
            return Ok(report.selection);
        }
        let best = report.selection.route.cost();
        let ceiling = best * (1.0 + self.slack);
        let eligible: Vec<Selection> = report
            .candidate_routes
            .iter()
            .filter_map(|(server, route)| {
                route.as_ref().and_then(|r| {
                    (r.cost() <= ceiling + 1e-12).then(|| Selection {
                        server: *server,
                        route: r.clone(),
                    })
                })
            })
            .collect();
        debug_assert!(!eligible.is_empty(), "the best route always qualifies");
        let pick = self.rng.gen_range(0..eligible.len());
        #[expect(
            clippy::indexing_slicing,
            reason = "`pick` is drawn from `0..eligible.len()`"
        )]
        Ok(eligible[pick].clone())
    }
}

/// Always the lowest-numbered candidate — the degenerate static baseline.
#[derive(Debug, Clone, Default)]
pub struct FirstCandidate;

impl ServerSelector for FirstCandidate {
    fn name(&self) -> &str {
        "first-candidate"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError> {
        ensure_candidates(ctx)?;
        if let Some(local) = local_if_possible(ctx) {
            return Ok(local);
        }
        let mut sorted: Vec<NodeId> = ctx.candidates.to_vec();
        sorted.sort();
        for server in sorted {
            if let Some(route) = hop_route_to(ctx.topology, ctx.home, server)? {
                return Ok(Selection { server, route });
            }
        }
        Err(CoreError::Unreachable {
            home: ctx.home,
            candidates: ctx.candidates.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies::grnet::{Grnet, GrnetLink, GrnetNode, TimeOfDay};
    use vod_net::Mbps;

    fn grnet_ctx<'a>(
        grnet: &'a Grnet,
        snapshot: &'a TrafficSnapshot,
        candidates: &'a [NodeId],
    ) -> SelectionContext<'a> {
        SelectionContext {
            topology: grnet.topology(),
            snapshot,
            home: grnet.node(GrnetNode::Patra),
            candidates,
        }
    }

    #[test]
    fn every_policy_serves_locally_when_possible() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T0800);
        let home = grnet.node(GrnetNode::Patra);
        let candidates = [home, grnet.node(GrnetNode::Xanthi)];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let mut policies: Vec<Box<dyn ServerSelector>> = vec![
            Box::new(RandomReplica::new(1)),
            Box::new(HopCountNearest),
            Box::new(LeastUtilizedPath),
            Box::new(FirstCandidate),
            Box::new(crate::vra::Vra::default()),
        ];
        for p in &mut policies {
            let s = p.select(&ctx).unwrap();
            assert_eq!(s.server, home, "{}", p.name());
            assert!(s.is_local());
        }
    }

    #[test]
    fn empty_candidates_rejected_by_all() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T0800);
        let ctx = grnet_ctx(&grnet, &snap, &[]);
        let mut policies: Vec<Box<dyn ServerSelector>> = vec![
            Box::new(RandomReplica::new(1)),
            Box::new(HopCountNearest),
            Box::new(LeastUtilizedPath),
            Box::new(FirstCandidate),
        ];
        for p in &mut policies {
            assert!(
                matches!(p.select(&ctx), Err(CoreError::Unreachable { .. })),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn hop_count_prefers_fewest_hops() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T1000);
        // From Patra: Athens is 1 hop, Xanthi is 3 hops.
        let candidates = [grnet.node(GrnetNode::Xanthi), grnet.node(GrnetNode::Athens)];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let s = HopCountNearest.select(&ctx).unwrap();
        assert_eq!(s.server, grnet.node(GrnetNode::Athens));
        assert_eq!(s.route.hops(), 1);
    }

    #[test]
    fn hop_count_ignores_congestion_where_vra_does_not() {
        let grnet = Grnet::new();
        // 10am: Patra-Athens at 91%, but hop count still goes direct.
        let snap = grnet.snapshot(TimeOfDay::T1000);
        let candidates = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let hop = HopCountNearest.select(&ctx).unwrap();
        // Hop count: Thessaloniki via Athens (2 hops) or Ioannina (2 hops).
        assert_eq!(hop.server, grnet.node(GrnetNode::Thessaloniki));
        assert_eq!(hop.route.hops(), 2);
        let vra = crate::vra::Vra::default().select(&ctx).unwrap();
        // VRA avoids the congested Patra-Athens link via Ioannina.
        assert!(!vra.route.contains_link(grnet.link(GrnetLink::PatraAthens)));
    }

    #[test]
    fn least_utilized_avoids_hot_links() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T1000);
        let candidates = [grnet.node(GrnetNode::Thessaloniki)];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let s = LeastUtilizedPath.select(&ctx).unwrap();
        // Patra-Athens is 91% utilized; the Ioannina path (0.0085% + 74%)
        // is cheaper in raw utilization terms.
        assert!(!s.route.contains_link(grnet.link(GrnetLink::PatraAthens)));
    }

    #[test]
    fn first_candidate_is_stable() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T0800);
        let candidates = [
            grnet.node(GrnetNode::Xanthi),
            grnet.node(GrnetNode::Ioannina),
        ];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let a = FirstCandidate.select(&ctx).unwrap();
        let b = FirstCandidate.select(&ctx).unwrap();
        assert_eq!(a.server, b.server);
        // Ioannina is U3 (node id 2) < Xanthi U5 (id 4).
        assert_eq!(a.server, grnet.node(GrnetNode::Ioannina));
    }

    #[test]
    fn random_replica_is_seed_deterministic_and_covers_candidates() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T0800);
        let candidates = [
            grnet.node(GrnetNode::Xanthi),
            grnet.node(GrnetNode::Ioannina),
            grnet.node(GrnetNode::Heraklio),
        ];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let picks = |seed: u64| -> Vec<NodeId> {
            let mut p = RandomReplica::new(seed);
            (0..20).map(|_| p.select(&ctx).unwrap().server).collect()
        };
        assert_eq!(picks(5), picks(5));
        let all = picks(5);
        // With 20 draws over 3 candidates, all should appear.
        for c in candidates {
            assert!(all.contains(&c), "candidate {c} never picked");
        }
    }

    #[test]
    fn randomized_vra_zero_slack_matches_vra() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T1000);
        let candidates = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let exact = crate::vra::Vra::default().select(&ctx).unwrap();
        let mut rvra = RandomizedVra::new(0.0, 7);
        for _ in 0..10 {
            // Costs differ by ~30%: zero slack always picks the best.
            assert_eq!(rvra.select(&ctx).unwrap().server, exact.server);
        }
        assert_eq!(rvra.name(), "randomized-vra");
    }

    #[test]
    fn randomized_vra_spreads_near_ties() {
        use vod_net::TopologyBuilder;
        // Two candidates over identical idle 2-hop paths: exact ties.
        let mut b = TopologyBuilder::new();
        let home = b.add_node("home");
        let mid1 = b.add_node("m1");
        let mid2 = b.add_node("m2");
        let c1 = b.add_node("c1");
        let c2 = b.add_node("c2");
        b.add_link(home, mid1, Mbps::new(2.0)).unwrap();
        b.add_link(home, mid2, Mbps::new(2.0)).unwrap();
        b.add_link(mid1, c1, Mbps::new(2.0)).unwrap();
        b.add_link(mid2, c2, Mbps::new(2.0)).unwrap();
        let topo = b.build();
        let snap = TrafficSnapshot::zero(&topo);
        let ctx = SelectionContext {
            topology: &topo,
            snapshot: &snap,
            home,
            candidates: &[c1, c2],
        };
        let mut rvra = RandomizedVra::new(0.05, 3);
        let picks: Vec<NodeId> = (0..40).map(|_| rvra.select(&ctx).unwrap().server).collect();
        assert!(picks.contains(&c1), "c1 never picked");
        assert!(picks.contains(&c2), "c2 never picked");
        // Plain VRA herds onto one of them.
        let mut plain = crate::vra::Vra::default();
        let first = plain.select(&ctx).unwrap().server;
        assert!((0..10).all(|_| plain.select(&ctx).unwrap().server == first));
    }

    #[test]
    fn randomized_vra_serves_locally_and_is_seeded() {
        let grnet = Grnet::new();
        let snap = grnet.snapshot(TimeOfDay::T0800);
        let home = grnet.node(GrnetNode::Patra);
        let candidates = [home, grnet.node(GrnetNode::Xanthi)];
        let ctx = grnet_ctx(&grnet, &snap, &candidates);
        let mut rvra = RandomizedVra::new(0.5, 1);
        let s = rvra.select(&ctx).unwrap();
        assert!(s.is_local());
        // Seed determinism across instances.
        let remote = [
            grnet.node(GrnetNode::Thessaloniki),
            grnet.node(GrnetNode::Xanthi),
        ];
        let ctx2 = grnet_ctx(&grnet, &snap, &remote);
        let picks = |seed| -> Vec<NodeId> {
            let mut p = RandomizedVra::new(1.0, seed);
            (0..20).map(|_| p.select(&ctx2).unwrap().server).collect()
        };
        assert_eq!(picks(9), picks(9));
    }

    #[test]
    fn baselines_error_when_unreachable() {
        use vod_net::TopologyBuilder;
        let mut b = TopologyBuilder::new();
        let home = b.add_node("home");
        let island = b.add_node("island");
        let topo = b.build();
        let snap = TrafficSnapshot::zero(&topo);
        let _ = Mbps::ZERO;
        let ctx = SelectionContext {
            topology: &topo,
            snapshot: &snap,
            home,
            candidates: &[island],
        };
        assert!(matches!(
            HopCountNearest.select(&ctx),
            Err(CoreError::Unreachable { .. })
        ));
        assert!(matches!(
            RandomReplica::new(0).select(&ctx),
            Err(CoreError::Unreachable { .. })
        ));
        assert!(matches!(
            FirstCandidate.select(&ctx),
            Err(CoreError::Unreachable { .. })
        ));
        assert!(matches!(
            LeastUtilizedPath.select(&ctx),
            Err(CoreError::Unreachable { .. })
        ));
    }
}
