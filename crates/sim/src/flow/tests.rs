use super::*;
use vod_net::TopologyBuilder;

/// The lockstep `O(F)`-per-event kernel the production network
/// replaced, kept as the differential-testing oracle: every advance
/// scans every flow and every link, every mutation refills every
/// rate from scratch. It shares no logic with [`FlowNetwork`] — only
/// the model (max-min progressive filling in creation order, a flow
/// anchored at its last rate change, a link integral folded at its
/// last load change) — so agreement is evidence, not tautology.
mod oracle {
    use super::super::{FlowError, FlowId, COMPLETION_EPSILON_MBIT};
    use crate::time::SimDuration;
    use std::collections::BTreeMap;
    use vod_net::{LinkId, Mbps, Topology};

    struct Flow {
        links: Vec<LinkId>,
        /// The rate the last refill gave the flow.
        rate: Mbps,
        /// The rate the flow has progressed at since `synced_at`.
        anchored_rate: Mbps,
        remaining_mbit: f64,
        synced_at: u64,
        finish_us: Option<u64>,
    }

    impl Flow {
        fn remaining_at(&self, clock_us: u64) -> f64 {
            let secs = (clock_us - self.synced_at) as f64 / 1e6;
            self.remaining_mbit - self.anchored_rate.as_f64() * secs
        }
    }

    /// A link's volume integral up to `at`, and the total load it
    /// has grown at since.
    #[derive(Clone, Copy, Default)]
    struct Integral {
        mbit: f64,
        at: u64,
        load: f64,
    }

    impl Integral {
        fn at(&self, clock_us: u64) -> f64 {
            self.mbit + self.load * ((clock_us - self.at) as f64 / 1e6)
        }
    }

    pub struct LockstepNetwork {
        topology: Topology,
        background: Vec<Mbps>,
        flows: BTreeMap<FlowId, Flow>,
        next_id: u64,
        clock_us: u64,
        link_loads: Vec<f64>,
        admin_down: Vec<bool>,
        capacity_scale: Vec<f64>,
        integrals: Vec<Integral>,
    }

    impl LockstepNetwork {
        pub fn new(topology: Topology) -> Self {
            let links = topology.link_count();
            LockstepNetwork {
                topology,
                background: vec![Mbps::ZERO; links],
                flows: BTreeMap::new(),
                next_id: 0,
                clock_us: 0,
                link_loads: vec![0.0; links],
                admin_down: vec![false; links],
                capacity_scale: vec![1.0; links],
                integrals: vec![Integral::default(); links],
            }
        }

        pub fn set_background(&mut self, link: LinkId, load: Mbps) {
            self.set_background_many([(link, load)]);
        }

        pub fn set_background_many<I>(&mut self, loads: I)
        where
            I: IntoIterator<Item = (LinkId, Mbps)>,
        {
            for (link, load) in loads {
                self.background[link.index()] = load;
            }
            self.reallocate();
        }

        pub fn set_link_admin_down(&mut self, link: LinkId, down: bool) {
            self.admin_down[link.index()] = down;
            self.reallocate();
        }

        pub fn set_link_capacity_scale(&mut self, link: LinkId, scale: f64) {
            self.capacity_scale[link.index()] = scale;
            self.reallocate();
        }

        pub fn add_flow(
            &mut self,
            route_links: impl AsRef<[LinkId]>,
            volume_mbit: f64,
        ) -> Result<FlowId, FlowError> {
            if route_links.as_ref().is_empty() {
                return Err(FlowError::EmptyRoute);
            }
            let id = FlowId(self.next_id);
            self.next_id += 1;
            let clock = self.clock_us;
            let dust = volume_mbit <= COMPLETION_EPSILON_MBIT;
            self.flows.insert(
                id,
                Flow {
                    links: route_links.as_ref().to_vec(),
                    rate: Mbps::ZERO,
                    anchored_rate: Mbps::ZERO,
                    remaining_mbit: volume_mbit,
                    synced_at: clock,
                    finish_us: dust.then_some(clock + 1),
                },
            );
            self.reallocate();
            Ok(id)
        }

        pub fn remove_flow(&mut self, id: FlowId) -> Result<f64, FlowError> {
            let flow = self.flows.remove(&id).ok_or(FlowError::UnknownFlow(id))?;
            self.reallocate();
            Ok(flow.remaining_at(self.clock_us))
        }

        pub fn rate(&mut self, id: FlowId) -> Result<Mbps, FlowError> {
            self.sync();
            self.flows
                .get(&id)
                .map(|f| f.rate)
                .ok_or(FlowError::UnknownFlow(id))
        }

        pub fn remaining_mbit(&self, id: FlowId) -> Result<f64, FlowError> {
            self.flows
                .get(&id)
                .map(|f| f.remaining_at(self.clock_us))
                .ok_or(FlowError::UnknownFlow(id))
        }

        pub fn flow_count(&self) -> usize {
            self.flows.len()
        }

        pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
            self.flows.keys().copied()
        }

        pub fn link_flow_load(&mut self, link: LinkId) -> Mbps {
            self.sync();
            Mbps::new(self.link_loads[link.index()].max(0.0))
        }

        pub fn link_cumulative_mbit(&self, link: LinkId) -> f64 {
            self.integrals[link.index()].at(self.clock_us)
        }

        /// Full scan for the earliest finish instant, ties to the
        /// smaller id.
        pub fn next_completion(&mut self) -> Option<(FlowId, SimDuration)> {
            self.sync();
            let clock = self.clock_us;
            self.flows
                .iter()
                .filter_map(|(&id, f)| Some((f.finish_us?, id)))
                .min()
                .map(|(at, id)| (id, SimDuration::from_micros(at - clock)))
        }

        /// Lockstep advance: move the clock, scan every flow for a
        /// reached finish instant, collect those in creation order.
        pub fn advance(&mut self, dt: SimDuration) -> Vec<FlowId> {
            self.sync();
            self.clock_us += dt.as_micros();
            let clock = self.clock_us;
            let done: Vec<FlowId> = self
                .flows
                .iter()
                .filter(|(_, f)| f.finish_us.is_some_and(|at| at <= clock))
                .map(|(&id, _)| id)
                .collect();
            for id in &done {
                self.flows.remove(id);
            }
            if !done.is_empty() {
                self.reallocate();
            }
            done
        }

        /// Makes the last refill's rates and loads the ones in
        /// effect from now on: every flow whose rate moved is
        /// re-anchored at the clock with its new finish instant, and
        /// every link whose total load moved folds its integral.
        /// The production network does the same at its settles,
        /// which run where this runs: before the clock moves and in
        /// every reader.
        fn sync(&mut self) {
            let clock = self.clock_us;
            for f in self.flows.values_mut() {
                if f.rate == f.anchored_rate {
                    continue;
                }
                f.remaining_mbit = f.remaining_at(clock);
                f.synced_at = clock;
                f.anchored_rate = f.rate;
                let rate = f.rate.as_f64();
                f.finish_us = if f.remaining_mbit <= COMPLETION_EPSILON_MBIT {
                    Some(clock + 1)
                } else if rate > 0.0 {
                    let micros = (f.remaining_mbit / rate * 1e6).ceil() as u64;
                    Some(clock.saturating_add(micros)).filter(|&at| at != u64::MAX)
                } else {
                    None
                };
            }
            for i in 0..self.integrals.len() {
                let load = (self.background[i] + Mbps::new(self.link_loads[i].max(0.0))).as_f64();
                let integral = &mut self.integrals[i];
                if load.to_bits() != integral.load.to_bits() {
                    *integral = Integral {
                        mbit: integral.at(clock),
                        at: clock,
                        load,
                    };
                }
            }
        }

        /// Resets every flow's rate and rebuilds the link loads from
        /// the full flow map.
        fn reallocate(&mut self) {
            let n_links = self.topology.link_count();
            let mut cap: Vec<f64> = (0..n_links)
                .map(|i| {
                    if self.admin_down[i] {
                        return 0.0;
                    }
                    let link = self.topology.link(LinkId::new(i as u32));
                    let deliverable = link.capacity().as_f64() * self.capacity_scale[i];
                    (deliverable - self.background[i].as_f64()).max(0.0)
                })
                .collect();

            // Dense view of the flows: (id, frozen?).
            let mut network: Vec<(FlowId, bool)> = Vec::with_capacity(self.flows.len());
            for (&id, f) in self.flows.iter_mut() {
                f.rate = Mbps::ZERO;
                network.push((id, false));
            }

            let mut count = vec![0usize; n_links];
            for &(id, _) in &network {
                for l in &self.flows[&id].links {
                    count[l.index()] += 1;
                }
            }

            let mut remaining = network.len();
            let mut level = 0.0f64;
            while remaining > 0 {
                let mut inc = f64::INFINITY;
                for i in 0..n_links {
                    if count[i] > 0 {
                        inc = inc.min(cap[i] / count[i] as f64);
                    }
                }
                assert!(inc.is_finite(), "non-finite fill increment");
                level += inc;
                for i in 0..n_links {
                    if count[i] > 0 {
                        cap[i] -= inc * count[i] as f64;
                    }
                }
                let mut froze_any = false;
                for entry in network.iter_mut() {
                    let (id, frozen) = *entry;
                    if frozen {
                        continue;
                    }
                    let bottlenecked = self.flows[&id]
                        .links
                        .iter()
                        .any(|l| cap[l.index()] <= 1e-12);
                    if bottlenecked {
                        entry.1 = true;
                        froze_any = true;
                        remaining -= 1;
                        for l in &self.flows[&id].links {
                            count[l.index()] -= 1;
                        }
                        self.flows.get_mut(&id).unwrap().rate = Mbps::new(level.max(0.0));
                    }
                }
                assert!(froze_any, "a fill round must saturate a link");
            }

            self.link_loads.iter_mut().for_each(|l| *l = 0.0);
            for f in self.flows.values() {
                for l in &f.links {
                    self.link_loads[l.index()] += f.rate.as_f64();
                }
            }
        }
    }
}
use oracle::LockstepNetwork;

/// Runs `$body` twice: with `$new` building the production
/// [`FlowNetwork`], then the [`LockstepNetwork`] oracle; `$name`
/// labels assertion messages.
macro_rules! on_both_kernels {
    ($new:ident, $name:ident => $body:block) => {{
        {
            let $name = "production";
            let $new = FlowNetwork::new;
            $body
        }
        {
            let $name = "oracle";
            let $new = LockstepNetwork::new;
            $body
        }
    }};
}

/// a --l0-- b --l1-- c, capacities 2 and 18 Mbps.
fn two_hop() -> (Topology, LinkId, LinkId) {
    let mut b = TopologyBuilder::new();
    let a = b.add_node("a");
    let m = b.add_node("b");
    let c = b.add_node("c");
    let l0 = b.add_link(a, m, Mbps::new(2.0)).unwrap();
    let l1 = b.add_link(m, c, Mbps::new(18.0)).unwrap();
    (b.build(), l0, l1)
}

#[test]
fn single_flow_gets_bottleneck_capacity() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f = net.add_flow(vec![l0, l1], 20.0).unwrap();
    assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
    assert_eq!(net.link_flow_load(l0), Mbps::new(2.0));
    assert_eq!(net.link_flow_load(l1), Mbps::new(2.0));
}

#[test]
fn snapshot_into_keeps_instance_and_bumps_version_only_on_change() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    let mut snap = net.snapshot();
    let before = snap.epoch();

    // Load one link only: the refresh touches just that link.
    net.add_flow(vec![l0], 10.0).unwrap();
    net.snapshot_into(&mut snap);
    assert_eq!(snap.epoch().token, before.token, "instance is preserved");
    assert_eq!(snap.epoch().version, before.version + 1);
    assert_eq!(snap.used(l0), Mbps::new(2.0));
    assert_eq!(snap.used(l1), Mbps::ZERO);

    // An unchanged network refreshes without moving the epoch.
    let quiet = snap.epoch();
    net.snapshot_into(&mut snap);
    assert_eq!(snap.epoch(), quiet);
    // Refreshing matches a freshly-built snapshot's data.
    assert_eq!(snap, net.snapshot());
}

/// The one-pass sample agrees to the bit with two scans of a
/// snapshot: the most-utilized link as `max_by` picks it, and the
/// mean of the links in order; with equal maxima, an idle network,
/// a link without capacity and an empty topology too.
#[test]
fn max_and_mean_utilization_matches_two_scans_of_a_snapshot() {
    fn two_scans(net: &mut FlowNetwork) -> Option<(Fraction, Fraction)> {
        let topology = net.topology().clone();
        let snap = net.snapshot();
        let per_link = || topology.link_ids().map(|l| snap.utilization(&topology, l));
        let max = per_link().max_by(|a, b| a.get().total_cmp(&b.get()))?;
        let sum: f64 = per_link().map(|u| u.get()).sum();
        Some((max, Fraction::new(sum / topology.link_count() as f64)))
    }
    let mut b = TopologyBuilder::new();
    let (a, c, d, e) = (
        b.add_node("a"),
        b.add_node("b"),
        b.add_node("c"),
        b.add_node("d"),
    );
    let l0 = b.add_link(a, c, Mbps::new(2.0)).unwrap();
    let l1 = b.add_link(c, d, Mbps::new(18.0)).unwrap();
    let l2 = b.add_link(d, e, Mbps::new(2.0)).unwrap();
    let dark = b.add_link(a, e, Mbps::ZERO).unwrap();
    let mut net = FlowNetwork::new(b.build());
    assert_eq!(net.max_and_mean_utilization(), two_scans(&mut net));
    net.set_background(l0, Mbps::new(1.0));
    net.set_background(l1, Mbps::new(1.8));
    net.set_background(dark, Mbps::new(0.3));
    let (max, mean) = net.max_and_mean_utilization().unwrap();
    assert_eq!(max.get(), 0.5);
    assert!((mean.get() - 0.15).abs() < 1e-12);
    assert_eq!(net.max_and_mean_utilization(), two_scans(&mut net));
    net.set_background(l2, Mbps::new(1.0));
    net.add_flow(vec![l1, l2], 40.0).unwrap();
    net.add_flow(vec![l0, l1], 40.0).unwrap();
    assert_eq!(net.max_and_mean_utilization(), two_scans(&mut net));
    let mut empty = FlowNetwork::new(TopologyBuilder::new().build());
    assert_eq!(empty.max_and_mean_utilization(), None);
}

#[test]
fn fair_share_on_shared_bottleneck() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f1 = net.add_flow(vec![l0], 10.0).unwrap();
    let f2 = net.add_flow(vec![l0], 10.0).unwrap();
    assert_eq!(net.rate(f1).unwrap(), Mbps::new(1.0));
    assert_eq!(net.rate(f2).unwrap(), Mbps::new(1.0));
}

#[test]
fn max_min_gives_leftover_to_unconstrained_flow() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    // f1 crosses both links, f2 only the fat one.
    let f1 = net.add_flow(vec![l0, l1], 100.0).unwrap();
    let f2 = net.add_flow(vec![l1], 100.0).unwrap();
    // f1 is capped at 2 by l0; f2 takes the rest of l1.
    assert!((net.rate(f1).unwrap().as_f64() - 2.0).abs() < 1e-9);
    assert!((net.rate(f2).unwrap().as_f64() - 16.0).abs() < 1e-9);
}

#[test]
fn background_reduces_residual_capacity() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    net.set_background(l0, Mbps::new(1.5));
    let f = net.add_flow(vec![l0], 10.0).unwrap();
    assert!((net.rate(f).unwrap().as_f64() - 0.5).abs() < 1e-9);
    assert_eq!(net.link_total_load(l0), Mbps::new(2.0));
}

#[test]
fn oversubscribed_background_gives_zero_rate() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    net.set_background(l0, Mbps::new(5.0));
    let f = net.add_flow(vec![l0], 10.0).unwrap();
    assert_eq!(net.rate(f).unwrap(), Mbps::ZERO);
    assert_eq!(net.next_completion(), None);
}

/// A local serve crosses no link: it is the caller's timer, not a
/// flow, and the network refuses it without issuing an id; and
/// `set_local_rate` changes nothing.
#[test]
fn an_empty_route_is_refused() {
    on_both_kernels!(new, kernel => {
        let (t, l0, _) = two_hop();
        let mut net = new(t);
        assert_eq!(net.add_flow(vec![], 10.0), Err(FlowError::EmptyRoute), "{kernel}");
        assert_eq!(net.add_flow(vec![l0], 10.0), Ok(FlowId(0)), "{kernel}");
        assert_eq!(net.flow_count(), 1);
    });
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f = net.add_flow(vec![l0], 10.0).unwrap();
    net.settle();
    net.set_local_rate(Mbps::new(1.0));
    assert!(
        !net.is_stale(),
        "the local rate is no input of the allocation"
    );
    assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
}

#[test]
fn completion_prediction_matches_advance() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f1 = net.add_flow(vec![l0, l1], 4.0).unwrap(); // 2 Mbps → 2 s
    let f2 = net.add_flow(vec![l1], 64.0).unwrap(); // 16 Mbps → 4 s
    let (first, dt) = net.next_completion().unwrap();
    assert_eq!(first, f1);
    assert_eq!(dt, SimDuration::from_secs(2));
    let done = net.advance(dt);
    assert_eq!(done, vec![f1]);
    // f2 now gets the full 18 Mbps for its remaining 32 Mbit.
    assert!((net.rate(f2).unwrap().as_f64() - 18.0).abs() < 1e-9);
    let (second, dt2) = net.next_completion().unwrap();
    assert_eq!(second, f2);
    assert!((dt2.as_secs_f64() - 32.0 / 18.0).abs() < 1e-5);
}

#[test]
fn advance_partial_keeps_flow() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f = net.add_flow(vec![l0], 4.0).unwrap();
    let done = net.advance(SimDuration::from_secs(1));
    assert!(done.is_empty());
    assert!((net.remaining_mbit(f).unwrap() - 2.0).abs() < 1e-9);
}

#[test]
fn remove_flow_returns_unfinished_volume() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f = net.add_flow(vec![l0], 4.0).unwrap();
    net.advance(SimDuration::from_secs(1));
    let left = net.remove_flow(f).unwrap();
    assert!((left - 2.0).abs() < 1e-9);
    assert_eq!(net.flow_count(), 0);
    assert_eq!(net.remove_flow(f), Err(FlowError::UnknownFlow(f)));
}

#[test]
fn invalid_inputs_rejected() {
    let (t, ..) = two_hop();
    let mut net = FlowNetwork::new(t);
    assert!(matches!(
        net.add_flow(vec![], 0.0),
        Err(FlowError::InvalidVolume(_))
    ));
    assert!(matches!(
        net.add_flow(vec![], f64::NAN),
        Err(FlowError::InvalidVolume(_))
    ));
    assert!(matches!(
        net.add_flow(vec![LinkId::new(99)], 1.0),
        Err(FlowError::UnknownLink(_))
    ));
}

#[test]
fn snapshot_reflects_total_load() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    net.set_background(l1, Mbps::new(3.0));
    net.add_flow(vec![l0, l1], 100.0).unwrap();
    let snap = net.snapshot();
    assert_eq!(snap.used(l0), Mbps::new(2.0));
    assert_eq!(snap.used(l1), Mbps::new(5.0));
    let topo = net.topology().clone();
    assert!((snap.utilization(&topo, l0).get() - 1.0).abs() < 1e-9);
}

#[test]
fn rates_never_exceed_capacity() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    for i in 0..20 {
        let links = if i % 3 == 0 {
            vec![l0]
        } else if i % 3 == 1 {
            vec![l1]
        } else {
            vec![l0, l1]
        };
        net.add_flow(links, 100.0).unwrap();
    }
    let load0 = net.link_flow_load(l0).as_f64();
    let load1 = net.link_flow_load(l1).as_f64();
    assert!(load0 <= 2.0 + 1e-9, "l0 overloaded: {load0}");
    assert!(load1 <= 18.0 + 1e-9, "l1 overloaded: {load1}");
    // Work-conserving: the bottleneck links are fully used.
    assert!(load0 >= 2.0 - 1e-9);
    assert!(load1 >= 18.0 - 1e-9);
}

#[test]
fn bulk_background_updates_match_individual_ones() {
    let (t, l0, l1) = two_hop();
    let mut a = FlowNetwork::new(t.clone());
    let mut b = FlowNetwork::new(t);
    let fa = a.add_flow(vec![l0, l1], 10.0).unwrap();
    let fb = b.add_flow(vec![l0, l1], 10.0).unwrap();
    a.set_background(l0, Mbps::new(0.5));
    a.set_background(l1, Mbps::new(2.0));
    b.set_background_many([(l0, Mbps::new(0.5)), (l1, Mbps::new(2.0))]);
    assert_eq!(a.rate(fa).unwrap(), b.rate(fb).unwrap());
    assert_eq!(a.link_total_load(l0), b.link_total_load(l0));
}

#[test]
fn admin_down_link_freezes_crossing_flows() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    let crossing = net.add_flow(vec![l0, l1], 10.0).unwrap();
    let spared = net.add_flow(vec![l1], 10.0).unwrap();
    assert!(net.rate(crossing).unwrap().as_f64() > 0.0);

    net.set_link_admin_down(l0, true);
    assert_eq!(net.rate(crossing).unwrap(), Mbps::ZERO);
    // Flows avoiding the dead link keep (and inherit) its bandwidth.
    assert_eq!(net.rate(spared).unwrap(), Mbps::new(18.0));
    assert_eq!(net.flows_crossing(l0).collect::<Vec<_>>(), vec![crossing]);

    net.set_link_admin_down(l0, false);
    assert_eq!(net.rate(crossing).unwrap(), Mbps::new(2.0));
}

#[test]
fn capacity_scale_degrades_throughput() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f = net.add_flow(vec![l0], 10.0).unwrap();
    assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
    net.set_link_capacity_scale(l0, 0.25);
    assert!((net.rate(f).unwrap().as_f64() - 0.5).abs() < 1e-9);
    net.set_link_capacity_scale(l0, 1.0);
    assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
}

#[test]
#[should_panic(expected = "capacity scale")]
fn capacity_scale_rejects_out_of_range() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    net.set_link_capacity_scale(l0, 1.5);
}

#[test]
fn flow_ids_are_stable_and_ordered() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    let a = net.add_flow(vec![l0], 1.0).unwrap();
    let b = net.add_flow(vec![l0], 1.0).unwrap();
    assert!(a < b);
    let ids: Vec<FlowId> = net.flow_ids().collect();
    assert_eq!(ids, vec![a, b]);
}

#[test]
fn advance_into_reuses_caller_buffer() {
    let (t, l0, _) = two_hop();
    let mut net = FlowNetwork::new(t);
    let f = net.add_flow(vec![l0], 4.0).unwrap();
    let mut done = Vec::with_capacity(4);
    net.advance_into(SimDuration::from_secs(1), &mut done);
    assert!(done.is_empty());
    net.advance_into(SimDuration::from_secs(1), &mut done);
    assert_eq!(done, vec![f]);
    // The buffer is cleared, not re-allocated, on the next call.
    net.advance_into(SimDuration::from_secs(1), &mut done);
    assert!(done.is_empty());
    assert!(done.capacity() >= 4);
}

#[test]
fn zero_rate_dust_flow_is_collected_on_next_advance() {
    on_both_kernels!(new, kernel => {
        let (t, l0, _) = two_hop();
        let mut net = new(t);
        net.set_background(l0, Mbps::new(5.0)); // oversubscribed → rate 0
        let f = net.add_flow(vec![l0], 1e-10).unwrap(); // below the epsilon
        assert_eq!(net.rate(f).unwrap(), Mbps::ZERO);
        // Dust is due on the next microsecond at any rate, so it is
        // on the completion schedule: whoever drives the network
        // collects it then, not at whatever instant it advances to
        // next.
        let next = Some((f, SimDuration::from_micros(1)));
        assert_eq!(net.next_completion(), next, "{kernel}");
        let done = net.advance(SimDuration::from_secs(1));
        assert_eq!(done, vec![f], "{kernel}");
    });
}

#[test]
fn frozen_flow_resumes_with_valid_prediction() {
    on_both_kernels!(new, kernel => {
        let (t, l0, _) = two_hop();
        let mut net = new(t);
        let f = net.add_flow(vec![l0], 4.0).unwrap(); // 2 Mbps → 2 s
        net.advance(SimDuration::from_secs(1)); // 2 Mbit left
        net.set_link_admin_down(l0, true); // freeze at rate 0
        assert_eq!(net.next_completion(), None, "{kernel}");
        net.advance(SimDuration::from_secs(10)); // no progress
        assert!((net.remaining_mbit(f).unwrap() - 2.0).abs() < 1e-9);
        net.set_link_admin_down(l0, false); // thaw
        let (id, dt) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(dt, SimDuration::from_secs(1), "{kernel}");
        assert_eq!(net.advance(dt), vec![f], "{kernel}");
    });
}

#[test]
fn link_integrals_match_load_history() {
    on_both_kernels!(new, kernel => {
        let (t, l0, l1) = two_hop();
        let mut net = new(t);
        net.set_background(l1, Mbps::new(3.0));
        net.add_flow(vec![l0], 10.0).unwrap(); // 2 Mbps, done at t=5
        net.advance(SimDuration::from_secs(2));
        assert!((net.link_cumulative_mbit(l0) - 4.0).abs() < 1e-9);
        assert!((net.link_cumulative_mbit(l1) - 6.0).abs() < 1e-9);
        net.advance(SimDuration::from_secs(3));
        net.advance(SimDuration::from_secs(2));
        // l0 stops growing once its flow completes; l1's background
        // keeps integrating.
        assert!(
            (net.link_cumulative_mbit(l0) - 10.0).abs() < 1e-9,
            "{kernel}"
        );
        assert!(
            (net.link_cumulative_mbit(l1) - 21.0).abs() < 1e-9,
            "{kernel}"
        );
    });
}

/// `transfer_time` rounds like `(volume / rate × 1e6).ceil() as u64`
/// on every input, the extremes and the non-finite included.
#[test]
fn transfer_time_is_the_saturating_ceiling() {
    let volumes = [
        0.0,
        5e-324,
        1e-9,
        0.7,
        2.0,
        1e6,
        1e300,
        f64::MAX,
        f64::INFINITY,
    ];
    let rates = [0.0, 5e-324, 1e-9, 0.9, 2.0, 3.0, 1e9, f64::MAX];
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut sample = Vec::new();
    for _ in 0..10_000 {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let volume = (lcg >> 11) as f64 / (1u64 << 40) as f64;
        sample.push((volume, 0.5 + (lcg % 97) as f64 / 7.0));
    }
    for &v in &volumes {
        sample.extend(rates.iter().map(|&r| (v, r)));
    }
    for (volume, rate) in sample {
        let ceiling = (volume / rate * 1e6).ceil() as u64;
        let got = transfer_time(volume, Mbps::new(rate)).as_micros();
        assert_eq!(got, ceiling, "{volume} Mbit at {rate} Mbps");
    }
}

/// The rounding contract: a flow alone on a link of capacity `rate`
/// finishes at exactly [`transfer_time`] of its volume — at or after
/// the continuous finish, by less than a microsecond — so advancing
/// one microsecond short leaves it live, the next microsecond
/// completes it, and nothing completes twice. Across extreme rates
/// and volumes.
#[test]
fn completion_rounding_contract() {
    let rates = [1e-3, 0.9, 2.0, 1234.5678, 1e9];
    let volumes = [1e-6, 0.7, 42.0, 9876.5];
    on_both_kernels!(new, kernel => {
        for &rate in &rates {
            for &volume in &volumes {
                let mut b = TopologyBuilder::new();
                let (x, y) = (b.add_node("x"), b.add_node("y"));
                let l = b.add_link(x, y, Mbps::new(rate)).unwrap();
                let mut net = new(b.build());
                let f = net.add_flow(vec![l], volume).unwrap();
                let (id, dt) = net.next_completion().unwrap();
                assert_eq!(id, f);
                let ctx = format!("{kernel} rate={rate} vol={volume}");
                assert_eq!(dt, transfer_time(volume, Mbps::new(rate)), "{ctx}");
                let true_secs = volume / rate;
                assert!(
                    dt.as_secs_f64() >= true_secs * (1.0 - 1e-12),
                    "finishes early: {ctx}"
                );
                assert!(
                    dt.as_secs_f64() - true_secs <= 1e-6 + true_secs * 1e-12,
                    "overshoots: {ctx}"
                );
                let early = dt.saturating_sub(SimDuration::from_micros(1));
                assert!(net.advance(early).is_empty(), "fired early: {ctx}");
                let done = net.advance(dt - early);
                assert_eq!(done, vec![f], "missed completion: {ctx}");
                // No double-fire: nothing left to complete.
                assert!(net.advance(SimDuration::from_secs(1)).is_empty(), "{ctx}");
                assert_eq!(net.next_completion(), None);
            }
        }
    });
}

/// Fully saturated regime: one route link is scaled to zero and the
/// other is drowned in background traffic above its deliverable
/// capacity, so the progressive filling's first increment is zero
/// and every flow freezes at rate zero immediately. The production
/// network and the oracle agree bitwise, frozen flows make no
/// progress across an arbitrary advance, and a frozen flow costs the
/// production network nothing per advance: it stores no finish
/// instant, so it is never due and the slab is not scanned. Lifting
/// the saturation thaws the flow identically in both.
#[test]
fn saturated_network_freezes_flows_without_heap_spin() {
    let (t, l0, l1) = two_hop();
    let mut lazy = FlowNetwork::new(t.clone());
    let mut reference = LockstepNetwork::new(t);
    // ≫ the 18 Mbps deliverable
    let drown = Mbps::new(1e6);
    lazy.set_link_capacity_scale(l0, 0.0);
    lazy.set_background(l1, drown);
    reference.set_link_capacity_scale(l0, 0.0);
    reference.set_background(l1, drown);
    let a = lazy.add_flow(vec![l0, l1], 10.0).unwrap();
    let b = reference.add_flow(vec![l0, l1], 10.0).unwrap();
    assert_eq!(a, b);

    // A frozen flow neither completes nor progresses.
    assert_eq!(lazy.rate(a).unwrap(), Mbps::ZERO);
    assert_eq!(lazy.next_completion(), None);
    assert!(lazy.advance(SimDuration::from_secs(3_600)).is_empty());
    assert!((lazy.remaining_mbit(a).unwrap() - 10.0).abs() < 1e-12);
    assert_eq!(reference.rate(a).unwrap(), Mbps::ZERO);
    assert_eq!(reference.next_completion(), None);
    assert!(reference.advance(SimDuration::from_secs(3_600)).is_empty());
    assert!((reference.remaining_mbit(a).unwrap() - 10.0).abs() < 1e-12);
    // The frozen flow was never re-rated and has no finish instant,
    // so the hour-long advance had nothing to scan.
    let frozen = lazy.stats();
    assert_eq!(frozen.flows_rerated, 0);
    assert_eq!(frozen.completion_scans, 0);

    // Lifting the saturation thaws the flow identically: both
    // settle on the 2 Mbps bottleneck and predict the same
    // completion.
    lazy.set_link_capacity_scale(l0, 1.0);
    lazy.set_background(l1, Mbps::ZERO);
    reference.set_link_capacity_scale(l0, 1.0);
    reference.set_background(l1, Mbps::ZERO);
    assert_eq!(lazy.rate(a).unwrap(), reference.rate(a).unwrap());
    assert_eq!(lazy.rate(a).unwrap(), Mbps::new(2.0));
    // One re-anchor for the thaw.
    assert_eq!(lazy.stats().flows_rerated, 1);
    let (fa, dta) = lazy.next_completion().unwrap();
    let (fb, dtb) = reference.next_completion().unwrap();
    assert_eq!((fa, dta), (fb, dtb));
    assert_eq!(lazy.advance(dta), vec![a]);
    assert_eq!(reference.advance(dtb), vec![a]);
    assert_eq!(lazy.stats().completion_scans, 1);
}

/// Two flows on different links that finish in the same microsecond:
/// whichever was created first is the next completion, and one
/// advance collects both in creation order.
#[test]
fn completion_ties_break_by_flow_id() {
    on_both_kernels!(new, kernel => {
        for thin_first in [true, false] {
            let (t, l0, l1) = two_hop();
            let mut net = new(t);
            // 2 s either way: 4 Mbit at 2 Mbps, 36 Mbit at 18 Mbps.
            let ids = if thin_first {
                let thin = net.add_flow(vec![l0], 4.0).unwrap();
                [thin, net.add_flow(vec![l1], 36.0).unwrap()]
            } else {
                let fat = net.add_flow(vec![l1], 36.0).unwrap();
                [fat, net.add_flow(vec![l0], 4.0).unwrap()]
            };
            let (first, dt) = net.next_completion().unwrap();
            assert_eq!(first, ids[0], "{kernel} thin_first={thin_first}");
            assert_eq!(dt, SimDuration::from_secs(2));
            assert_eq!(net.advance(dt), ids.to_vec(), "{kernel}");
        }
    });
}

/// `on_link_down` re-routes the crossing flows in the order this
/// query yields them, and its trace is pinned: ascending `FlowId`,
/// whatever order the routes' classes were created, emptied or
/// re-created in.
#[test]
fn flows_crossing_answers_in_creation_order() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    let both = net.add_flow(vec![l0, l1], 10.0).unwrap();
    let fat = net.add_flow(vec![l1], 10.0).unwrap();
    let thin = net.add_flow(vec![l0], 10.0).unwrap();
    let both_again = net.add_flow(vec![l0, l1], 10.0).unwrap();
    // Retire the first class; a later route reuses its slot.
    net.remove_flow(both).unwrap();
    net.remove_flow(both_again).unwrap();
    net.settle();
    let reversed = net.add_flow(vec![l1, l0], 10.0).unwrap();
    let fat_again = net.add_flow(vec![l1], 10.0).unwrap();
    assert_eq!(net.classes.len(), 3, "the retired slot is reused");
    let on_l1: Vec<FlowId> = net.flows_crossing(l1).collect();
    assert_eq!(on_l1, vec![fat, reversed, fat_again]);
    let on_l0: Vec<FlowId> = net.flows_crossing(l0).collect();
    assert_eq!(on_l0, vec![thin, reversed]);
    assert_eq!(net.flow_links(reversed).unwrap(), &[l1, l0]);
}

/// GRNET with every city-to-city shortest route.
fn grnet_with_routes() -> (Topology, Vec<Vec<LinkId>>) {
    use vod_net::dijkstra::dijkstra;
    use vod_net::lvn::LinkWeights;
    let topo = vod_net::topologies::grnet::Grnet::new().topology().clone();
    let hops = LinkWeights::uniform(topo.link_count(), 1.0);
    let mut routes = Vec::new();
    for from in topo.node_ids() {
        let paths = dijkstra(&topo, &hops, from).unwrap();
        let others = topo.node_ids().filter(|&to| to != from);
        routes.extend(others.map(|to| paths.route_to(to).unwrap().links().to_vec()));
    }
    (topo, routes)
}

/// One arrival into a thousand contending flows costs a fill over
/// the routes, not over the flows: at most one round per link, at
/// most one class per distinct route.
#[test]
fn reallocation_work_is_bounded_by_routes_not_flows() {
    let (topo, routes) = grnet_with_routes();
    let n_links = topo.link_count() as u64;
    let mut net = FlowNetwork::new(topo);
    for i in 0..1_000 {
        net.add_flow(&routes[i % routes.len()], 1e6).unwrap();
    }
    net.settle();
    let before = net.stats();
    net.add_flow(&routes[7], 1e6).unwrap();
    net.next_completion().unwrap();
    let after = net.stats();
    assert_eq!(after.reallocations - before.reallocations, 1);
    let rounds = after.fill_rounds - before.fill_rounds;
    assert!((1..=n_links).contains(&rounds), "{rounds} fill rounds");
    assert!(after.classes_filled - before.classes_filled <= routes.len() as u64);
    assert!(after.links_scanned - before.links_scanned <= rounds * n_links);
    assert!(after.flows_rerated - before.flows_rerated <= 1_001);
}

/// Re-installing the loads every link already carries — an idle
/// background refresh — skips the refill and changes nothing.
#[test]
fn unchanged_background_skips_reallocation() {
    let (topo, routes) = grnet_with_routes();
    let links: Vec<LinkId> = topo.link_ids().collect();
    let mut net = FlowNetwork::new(topo);
    let loads: Vec<(LinkId, Mbps)> = links
        .iter()
        .map(|&l| (l, Mbps::new(0.125 * l.index() as f64)))
        .collect();
    net.set_background_many(loads.iter().copied());
    let ids: Vec<FlowId> = (0..60)
        .map(|i| {
            net.add_flow(&routes[i % routes.len()], 50.0 + i as f64)
                .unwrap()
        })
        .collect();
    net.advance(SimDuration::from_secs(3));

    let observe = |net: &mut FlowNetwork| {
        let rates: Vec<u64> = ids
            .iter()
            .map(|&f| net.rate(f).unwrap().as_f64().to_bits())
            .collect();
        let volumes: Vec<u64> = links
            .iter()
            .map(|&l| net.link_cumulative_mbit(l).to_bits())
            .collect();
        (rates, volumes, net.next_completion())
    };
    let before = observe(&mut net);
    let stats = net.stats();
    net.set_background_many(loads.iter().copied());
    net.set_background(links[2], loads[2].1);
    let expected = KernelStats {
        reallocations_skipped: stats.reallocations_skipped + 2,
        ..stats
    };
    assert_eq!(net.stats(), expected);
    assert_eq!(observe(&mut net), before);
}

/// A background refresh over an idle backbone — no flow live —
/// enters no fill and re-rates
/// nothing, yet every reader sees the new loads: the total load, the
/// snapshot and the volume the next advance integrates. The first
/// network flow to join is then filled against the capacities as
/// they stand.
#[test]
fn refresh_over_an_idle_backbone_runs_no_fill() {
    let (topo, routes) = grnet_with_routes();
    let links: Vec<LinkId> = topo.link_ids().collect();
    let mut net = FlowNetwork::new(topo);
    let mut snap = net.snapshot();
    let mut volumes = vec![0.0f64; links.len()];
    for minute in 1..=5u32 {
        let before = net.stats();
        let load = |l: LinkId| Mbps::new(0.01 * f64::from(minute) * (1 + l.index()) as f64);
        net.set_background_many(links.iter().map(|&l| (l, load(l))));
        assert_eq!(net.flow_count(), 0);
        net.settle();
        let after = net.stats();
        let expected = KernelStats {
            settles: before.settles + 1,
            reallocations: before.reallocations + 1,
            ..before
        };
        assert_eq!(after, expected, "minute {minute}");
        assert_eq!(after.settles, after.reallocations + after.fills_unchanged);
        net.snapshot_into(&mut snap);
        net.advance(SimDuration::from_secs(60));
        for (&l, volume) in links.iter().zip(&mut volumes) {
            assert_eq!(net.link_total_load(l), load(l));
            assert_eq!(snap.used(l), load(l));
            *volume += load(l).as_f64() * 60.0;
            assert_eq!(net.link_cumulative_mbit(l), *volume, "{l} minute {minute}");
        }
    }
    // 2 Mbps links carrying 0.05 × (1 + index) of background.
    let before = net.stats();
    let route = routes[0].clone();
    let tightest = route
        .iter()
        .map(|&l| net.topology().link(l).capacity() - net.background(l))
        .fold(Mbps::new(f64::MAX), Mbps::min);
    let flow = net.add_flow(route, 10.0).unwrap();
    assert_eq!(net.rate(flow).unwrap(), tightest);
    let after = net.stats();
    assert_eq!(after.classes_filled, before.classes_filled + 1);
    assert_eq!(after.flows_rerated, before.flows_rerated + 1);
}

/// A transfer replaced along its route — what a cluster boundary
/// does — leaves every class with the member count the last fill
/// saw: the settle skips the fill, re-anchors the newcomer alone,
/// and the rates are the ones the oracle's two refills end on.
#[test]
fn replacing_a_flow_along_its_route_skips_the_fill() {
    let (topo, routes) = grnet_with_routes();
    let links: Vec<LinkId> = topo.link_ids().collect();
    let mut net = FlowNetwork::new(topo.clone());
    let mut oracle = LockstepNetwork::new(topo);
    let mut ids = Vec::new();
    for i in 0..40 {
        let route = &routes[i % 12];
        ids.push(net.add_flow(route, 1e3 + i as f64).unwrap());
        oracle.add_flow(route, 1e3 + i as f64).unwrap();
    }
    assert!(net.advance(SimDuration::from_secs(1)).is_empty());
    oracle.advance(SimDuration::from_secs(1));
    let before = net.stats();

    let replaced = ids.remove(5);
    net.remove_flow(replaced).unwrap();
    oracle.remove_flow(replaced).unwrap();
    ids.push(net.add_flow(&routes[5], 70.0).unwrap());
    oracle.add_flow(&routes[5], 70.0).unwrap();
    for &id in &ids {
        assert_eq!(net.rate(id).unwrap(), oracle.rate(id).unwrap(), "{id}");
    }
    for &l in &links {
        let (got, want) = (net.link_flow_load(l), oracle.link_flow_load(l));
        assert_eq!(got.as_f64().to_bits(), want.as_f64().to_bits(), "{l}");
    }
    let expected = KernelStats {
        settles: before.settles + 1,
        fills_unchanged: before.fills_unchanged + 1,
        flows_rerated: before.flows_rerated + 1,
        ..before
    };
    assert_eq!(net.stats(), expected);
}

/// A class emptied and not rejoined by the time the network settles
/// is retired — off its links' lists, its slot reused by the next
/// new route; one rejoined before the settle never leaves.
#[test]
fn emptied_class_is_retired_when_the_network_settles() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    let both = net.add_flow(vec![l0, l1], 10.0).unwrap();
    let fat = net.add_flow(vec![l1], 10.0).unwrap();
    net.settle();
    net.remove_flow(both).unwrap();
    // Until the settle the emptied class waits on its links.
    assert_eq!(net.link_classes[l0.index()].len(), 1);
    assert_eq!(net.link_classes[l1.index()].len(), 2);
    assert!(net.free_classes.is_empty());
    net.settle();
    assert!(net.link_classes[l0.index()].is_empty());
    assert_eq!(net.link_classes[l1.index()].len(), 1);
    assert_eq!(net.free_classes.len(), 1);
    assert_eq!(net.rate(fat).unwrap(), Mbps::new(18.0));

    let thin = net.add_flow(vec![l0], 10.0).unwrap();
    assert_eq!(net.classes.len(), 2, "the retired slot is reused");
    assert!(net.free_classes.is_empty());
    assert_eq!(net.rate(thin).unwrap(), Mbps::new(2.0));

    net.remove_flow(thin).unwrap();
    let thin_again = net.add_flow(vec![l0], 10.0).unwrap();
    net.settle();
    assert_eq!(net.link_classes[l0.index()].len(), 1);
    assert!(net.free_classes.is_empty());
    assert_eq!(net.classes.len(), 2);
    assert_eq!(net.rate(thin_again).unwrap(), Mbps::new(2.0));
}

/// No reader can observe a stale allocation: called on a network
/// every kind of mutation has just left stale, each one answers
/// what the eagerly refilled oracle answers. (Through a shared
/// `&FlowNetwork` none of them can be called at all — the
/// `compile_fail` example in the module docs.)
#[test]
fn every_reader_answers_from_a_settled_allocation() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t.clone());
    let mut oracle = LockstepNetwork::new(t);
    let mut background = Mbps::ZERO;
    // Runs one mutation on both networks, then every reader on its
    // own copy of the still-stale production network.
    macro_rules! step {
        ($flow:expr, $method:ident($($arg:expr),*)) => {{
            let _ = oracle.$method($($arg),*);
            let out = net.$method($($arg),*);
            assert!(net.is_stale(), "{} leaves the allocation stale", stringify!($method));
            let rate = oracle.rate($flow).unwrap();
            let load = oracle.link_flow_load(l0);
            assert_eq!(net.clone().rate($flow).unwrap(), rate);
            assert_eq!(net.clone().link_flow_load(l0), load);
            assert_eq!(net.clone().link_total_load(l0), background + load);
            assert_eq!(net.clone().snapshot().used(l0), background + load);
            let mut snap = TrafficSnapshot::zero(net.topology());
            net.clone().snapshot_into(&mut snap);
            assert_eq!(snap.used(l0), background + load);
            assert_eq!(net.clone().next_completion(), oracle.next_completion());
            out
        }};
    }
    let f = step!(FlowId(0), add_flow(vec![l0, l1], 6.0)).unwrap();
    let g = step!(f, add_flow(vec![l0], 60.0)).unwrap();
    background = Mbps::new(0.5);
    step!(f, set_background(l0, background));
    step!(f, set_link_capacity_scale(l0, 0.75));
    step!(g, set_link_admin_down(l1, true));
    step!(g, set_link_admin_down(l1, false));
    step!(f, remove_flow(g)).unwrap();
    // `f` finishes: the completion, too, only marks the network stale.
    let h = step!(f, add_flow(vec![l1], 600.0)).unwrap();
    let (first, dt) = net.next_completion().unwrap();
    assert_eq!(first, f);
    assert_eq!(step!(h, advance(dt)), vec![f]);
}

#[test]
fn kernel_stats_add_field_wise() {
    let (t, l0, l1) = two_hop();
    let mut net = FlowNetwork::new(t);
    net.set_background(l0, Mbps::ZERO); // skipped: already idle
    net.add_flow(vec![l0, l1], 4.0).unwrap(); // 2 Mbps, done at 2 s
    net.add_flow(vec![l1], 68.0).unwrap(); // 16 Mbps, then 18
    net.advance(SimDuration::from_secs(2)); // settles, completes the first
    assert_eq!(
        net.next_completion().map(|(_, dt)| dt.as_micros()),
        Some(2_000_000)
    );
    let run = net.stats();
    let expected = KernelStats {
        settles: 2,
        reallocations: 2,
        fills_unchanged: 0,
        reallocations_skipped: 1,
        fill_rounds: 3,
        classes_filled: 3,
        links_scanned: 4,
        links_pruned: 0,
        row_updates: 5,
        flows_rerated: 3,
        completion_scans: 1,
    };
    assert_eq!(run, expected);
    let mut total = run;
    total += run;
    total += KernelStats {
        fills_unchanged: 5,
        completion_scans: 3,
        ..KernelStats::default()
    };
    let doubled = KernelStats {
        settles: 4,
        reallocations: 4,
        fills_unchanged: 5,
        reallocations_skipped: 2,
        fill_rounds: 6,
        classes_filled: 6,
        links_scanned: 8,
        links_pruned: 0,
        row_updates: 10,
        flows_rerated: 6,
        completion_scans: 5,
    };
    assert_eq!(total, doubled);
}

mod max_min_properties {
    use super::*;
    use proptest::prelude::*;
    use vod_net::topologies::patterns::line;

    proptest! {
        /// On a random line network with random flows and background
        /// loads, the max-min allocation (a) never oversubscribes a
        /// link, and (b) bottlenecks every flow: each network flow
        /// crosses at least one saturated link.
        #[test]
        fn allocation_is_feasible_and_bottlenecked(
            nodes in 3usize..8,
            caps in proptest::collection::vec(1.0f64..20.0, 7),
            backgrounds in proptest::collection::vec(0.0f64..10.0, 7),
            flows in proptest::collection::vec((0usize..7, 1usize..7), 1..15),
        ) {
            let topo = line(nodes, Mbps::new(1.0));
            // Rebuild with per-link capacities via a fresh topology.
            let mut b = vod_net::TopologyBuilder::new();
            let ids: Vec<_> = (0..nodes).map(|i| b.add_node(format!("n{i}"))).collect();
            let mut links = Vec::new();
            for i in 1..nodes {
                links.push(
                    b.add_link(ids[i - 1], ids[i], Mbps::new(caps[i - 1])).unwrap(),
                );
            }
            let topo2 = b.build();
            drop(topo);
            let mut net = FlowNetwork::new(topo2.clone());
            for (i, &l) in links.iter().enumerate() {
                net.set_background(l, Mbps::new(backgrounds[i].min(caps[i])));
            }
            let mut flow_ids = Vec::new();
            for &(start, len) in &flows {
                let s = start % links.len();
                let e = (s + len).min(links.len());
                let route: Vec<LinkId> = links[s..e].to_vec();
                if !route.is_empty() {
                    flow_ids.push((net.add_flow(&route, 100.0).unwrap(), route));
                }
            }

            // (a) feasibility.
            for (i, &l) in links.iter().enumerate() {
                let residual = (caps[i] - net.background(l).as_f64()).max(0.0);
                prop_assert!(
                    net.link_flow_load(l).as_f64() <= residual + 1e-6,
                    "link {} oversubscribed", l
                );
            }
            // (b) every flow is bottlenecked by a saturated link.
            for (id, route) in &flow_ids {
                let _rate = net.rate(*id).unwrap();
                let bottlenecked = route.iter().any(|&l| {
                    let i = l.index();
                    let residual = (caps[i] - net.background(l).as_f64()).max(0.0);
                    net.link_flow_load(l).as_f64() >= residual - 1e-6
                });
                prop_assert!(bottlenecked, "flow {} is not bottlenecked", id);
            }
        }

        /// advance() and next_completion() agree: advancing by the
        /// predicted time completes exactly the predicted flow first.
        #[test]
        fn completion_prediction_is_consistent(
            volumes in proptest::collection::vec(0.5f64..50.0, 1..8),
        ) {
            let topo = line(3, Mbps::new(2.0));
            let links: Vec<LinkId> = topo.link_ids().collect();
            let mut net = FlowNetwork::new(topo);
            for (i, &v) in volumes.iter().enumerate() {
                net.add_flow(vec![links[i % 2]], v).unwrap();
            }
            if let Some((first, dt)) = net.next_completion() {
                let done = net.advance(dt);
                prop_assert!(done.contains(&first), "{} predicted, got {:?}", first, done);
            }
        }
    }
}

mod kernel_parity {
    use super::*;
    use proptest::prelude::*;
    use vod_net::topologies::patterns::line;

    /// The routes every network flow of a schedule draws from, over
    /// the three links of a 4-node line: few enough that hundreds of
    /// flows share a handful of classes. The last one names a link
    /// twice — a flow counted twice on it.
    fn route_pool(links: &[LinkId]) -> [Vec<LinkId>; 6] {
        let (l0, l1, l2) = (links[0], links[1], links[2]);
        [
            vec![l0],
            vec![l1],
            vec![l0, l1],
            vec![l1, l2],
            vec![l0, l1, l2],
            vec![l2, l1, l2],
        ]
    }

    /// Drives the production network and the lockstep oracle
    /// through the same random schedule of adds (single, in bursts
    /// onto one route, of dust and of transfers a few microseconds
    /// long), removes (single and of a whole class, whose slot the
    /// next new route reuses), twins (a flow with another's
    /// remaining volume along its route), background changes
    /// (single-link and bulk), capacity degradations, administrative
    /// outages and advances (timed, to the next completion, and to
    /// one microsecond short of it), asserting after every
    /// operation that rates, link loads, SNMP volume integrals,
    /// removed volumes and the next completion are *bitwise* equal,
    /// and that completions happen in the same order at the same
    /// events. An operation is one batch: the production network is
    /// not read inside it, so it settles once per operation, while
    /// the oracle refills after every single mutation.
    fn drive(ops: &[(u8, usize, f64)]) -> Result<(), TestCaseError> {
        let topo = line(4, Mbps::new(4.0));
        let links: Vec<LinkId> = topo.link_ids().collect();
        let pool = route_pool(&links);
        let mut lazy = FlowNetwork::new(topo.clone());
        let mut reference = LockstepNetwork::new(topo);
        // Live flows with the pool route they follow.
        let mut live: Vec<(FlowId, usize)> = Vec::new();
        macro_rules! add {
            ($route:expr, $volume:expr) => {{
                let route: usize = $route;
                let a = lazy.add_flow(&pool[route], $volume).unwrap();
                let b = reference.add_flow(&pool[route], $volume).unwrap();
                prop_assert_eq!(a, b);
                live.push((a, route));
            }};
        }
        for &(op, sel, val) in ops {
            match op {
                0 => add!(sel % pool.len(), val),
                1 => {
                    // A transfer of a few microseconds: it finishes
                    // in the same or the next microsecond as others.
                    add!(sel % pool.len(), val * 1e-6);
                }
                2 if !live.is_empty() => {
                    let (id, _) = live.remove(sel % live.len());
                    let ra = lazy.remove_flow(id).unwrap();
                    let rb = reference.remove_flow(id).unwrap();
                    prop_assert_eq!(
                        ra.to_bits(),
                        rb.to_bits(),
                        "remove {}: {} vs {}",
                        id,
                        ra,
                        rb
                    );
                }
                3 => {
                    let l = links[sel % links.len()];
                    let bg = Mbps::new(val * 0.08); // residual ≥ 0.8 Mbps
                    lazy.set_background(l, bg);
                    reference.set_background(l, bg);
                }
                4 => {
                    if let Some((_, dt)) = lazy.next_completion() {
                        let da = lazy.advance(dt);
                        let db = reference.advance(dt);
                        prop_assert_eq!(&da, &db, "advance-to-completion disagrees");
                        prop_assert!(!da.is_empty(), "the next completion is due");
                        live.retain(|(id, _)| !da.contains(id));
                    }
                }
                6 => {
                    // Soft degradation; every fourth draw is a full
                    // outage (zero deliverable capacity).
                    let l = links[sel % links.len()];
                    let scale = if sel % 4 == 0 {
                        0.0
                    } else {
                        (val / 40.0).min(1.0)
                    };
                    lazy.set_link_capacity_scale(l, scale);
                    reference.set_link_capacity_scale(l, scale);
                }
                7 => {
                    let l = links[sel % links.len()];
                    let down = sel % 2 == 0;
                    lazy.set_link_admin_down(l, down);
                    reference.set_link_admin_down(l, down);
                }
                8 => {
                    // Up to one microsecond short of the next
                    // completion: nothing is due yet.
                    if let Some((_, dt)) = lazy.next_completion() {
                        let short = dt.saturating_sub(SimDuration::from_micros(1));
                        prop_assert!(lazy.advance(short).is_empty());
                        prop_assert!(reference.advance(short).is_empty());
                    }
                }
                9 => {
                    // The per-minute `BackgroundModel::apply` shape:
                    // every link re-loaded in one call, some to idle.
                    let loads: Vec<(LinkId, Mbps)> = links
                        .iter()
                        .enumerate()
                        .map(|(i, &l)| (l, Mbps::new(val * 0.04 * ((sel + i) % 3) as f64)))
                        .collect();
                    lazy.set_background_many(loads.iter().copied());
                    reference.set_background_many(loads);
                }
                10 => {
                    // Dust: due on the next microsecond at any rate.
                    add!(sel % pool.len(), val * 1e-11);
                }
                11 => {
                    // A burst onto one route: the class grows by
                    // dozens of members between two other events.
                    let route = sel % pool.len();
                    for k in 0..10 + sel % 40 {
                        add!(route, val + k as f64 * 0.25);
                    }
                }
                12 => {
                    // Empty a class, then open another route (it
                    // takes the retired slot) and the emptied one
                    // again.
                    let route = sel % pool.len();
                    for &(id, _) in live.iter().filter(|(_, r)| *r == route) {
                        lazy.remove_flow(id).unwrap();
                        reference.remove_flow(id).unwrap();
                    }
                    live.retain(|(_, r)| *r != route);
                    for route in [(route + 1) % pool.len(), route] {
                        add!(route, val);
                    }
                }
                13 => {
                    // A twin: a progressing flow's remaining volume
                    // along its route, so the two finish within a
                    // microsecond of each other.
                    let twin = live.iter().find_map(|&(id, route)| {
                        let rate = lazy.rate(id).unwrap();
                        let left = lazy.remaining_mbit(id).unwrap();
                        (rate.as_f64() > 0.0 && left > 0.0).then_some((route, left))
                    });
                    if let Some((route, left)) = twin {
                        add!(route, left);
                    }
                }
                14 => {
                    // A cluster boundary: every flow the advance
                    // completes is followed, at the same instant, by
                    // a new one along the same route.
                    if let Some((_, dt)) = lazy.next_completion() {
                        let da = lazy.advance(dt);
                        let db = reference.advance(dt);
                        prop_assert_eq!(&da, &db, "advance-to-completion disagrees");
                        let (done, rest): (Vec<_>, Vec<_>) =
                            live.drain(..).partition(|(id, _)| da.contains(id));
                        live = rest;
                        for (_, route) in done {
                            add!(route, val);
                        }
                    }
                }
                15 => {
                    // A link failure's re-route: k flows torn down
                    // and k started, on whatever routes come next.
                    let k = (1 + sel % 5).min(live.len());
                    for _ in 0..k {
                        let (id, _) = live.remove(sel % live.len());
                        lazy.remove_flow(id).unwrap();
                        reference.remove_flow(id).unwrap();
                    }
                    for j in 0..k {
                        add!((sel + j) % pool.len(), val);
                    }
                }
                16 => {
                    // Setters interleaved with adds.
                    let l = links[sel % links.len()];
                    let bg = Mbps::new(val * 0.05);
                    let scale = (val / 40.0).min(1.0);
                    for step in 0..3 {
                        add!((sel + step) % pool.len(), val);
                        match step {
                            0 => {
                                lazy.set_background(l, bg);
                                reference.set_background(l, bg);
                            }
                            1 => {
                                lazy.set_link_capacity_scale(l, scale);
                                reference.set_link_capacity_scale(l, scale);
                            }
                            _ => {}
                        }
                    }
                }
                _ => {
                    let dt = SimDuration::from_millis((sel as u64 % 900) + 100);
                    let da = lazy.advance(dt);
                    let db = reference.advance(dt);
                    prop_assert_eq!(&da, &db, "timed advance disagrees");
                    live.retain(|(id, _)| !da.contains(id));
                }
            }
            // Bitwise invariants after every operation.
            for &(id, _) in &live {
                prop_assert_eq!(
                    lazy.rate(id).unwrap().as_f64().to_bits(),
                    reference.rate(id).unwrap().as_f64().to_bits(),
                    "rate of {} diverged",
                    id
                );
            }
            for &l in &links {
                prop_assert_eq!(
                    lazy.link_flow_load(l).as_f64().to_bits(),
                    reference.link_flow_load(l).as_f64().to_bits(),
                    "load of {} diverged",
                    l
                );
                prop_assert_eq!(
                    lazy.link_cumulative_mbit(l).to_bits(),
                    reference.link_cumulative_mbit(l).to_bits(),
                    "SNMP integral of {} diverged",
                    l
                );
            }
            prop_assert_eq!(lazy.flow_count(), reference.flow_count());
            prop_assert!(lazy.flow_ids().eq(reference.flow_ids()));
            prop_assert_eq!(lazy.next_completion(), reference.next_completion());
        }
        Ok(())
    }

    /// The idle-backbone path, deterministically: background
    /// (bulk and single-link), outages and degradations change over
    /// and over while nothing is live — each followed by a timed
    /// advance that integrates the new loads — and flows then join,
    /// complete and leave the backbone idle again, twice. The
    /// random schedules below reach such stretches only by chance,
    /// at their start.
    #[test]
    fn idle_backbone_schedule_agrees_with_lockstep() {
        let tick = (17, 59, 1.0); // a 159 ms advance
        let idle_churn = |seed: usize| {
            let v = 3.0 + seed as f64;
            vec![
                (9, seed, v), // bulk refresh
                tick,
                (3, seed + 1, 2.0 * v), // one link's background
                (7, 2 * seed, v),       // link down …
                tick,
                (9, seed + 2, v + 1.0),
                (6, 4 * seed, v), // … another fully degraded
                tick,
                (7, 2 * seed + 1, v), // … up again
                (6, seed + 1, 40.0),  // … healthy again
                (9, seed + 1, v),
                tick,
            ]
        };
        let mut ops = idle_churn(1);
        ops.extend(idle_churn(2));
        for round in 0..2 {
            // Flows join the churned capacities, run dry …
            ops.extend([(0, 4 + round, 6.0), (11, round, 2.0), (9, 5, 7.0)]);
            ops.extend(std::iter::repeat_n((4, 0, 1.0), 120));
            // … and the backbone is idle again under further churn.
            ops.extend(idle_churn(3 + round));
        }
        drive(&ops).unwrap();
    }

    proptest! {
        #[test]
        fn lazy_and_reference_kernels_agree(
            ops in proptest::collection::vec((0u8..17, 0usize..100, 0.5f64..40.0), 1..90),
        ) {
            drive(&ops)?;
        }
    }
}

/// The pruning step of the fill: a link whose classes' bottlenecks sum
/// to less than its residual capacity gives up its row before the first
/// round, and no rate, load, integral or completion moves.
mod pruning {
    use super::fill::PRUNE_MIN_LINKS;
    use super::*;
    use proptest::prelude::*;
    use vod_net::dijkstra::dijkstra;
    use vod_net::lvn::LinkWeights;
    use vod_net::topologies::random::connected_gnp;
    use vod_net::NodeId;

    /// SplitMix64: the schedule's choices, from one drawn seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A connected random network of `nodes` nodes over the 2, 18, 34
    /// and 155 Mbps tiers, and the fewest-hop routes between `routes`
    /// random node pairs: multi-hop, one link at least.
    fn network(nodes: usize, seed: u64, routes: usize) -> (Topology, Vec<Vec<LinkId>>) {
        let topology = connected_gnp(nodes, 0.12, seed);
        let hops = LinkWeights::uniform(topology.link_count(), 1.0);
        let mut mix = Mix(seed);
        let mut pool = Vec::new();
        while pool.len() < routes {
            let from = NodeId::new(mix.below(nodes) as u32);
            let to = NodeId::new(mix.below(nodes) as u32);
            if from == to {
                continue;
            }
            let paths = dijkstra(&topology, &hops, from).unwrap();
            pool.push(paths.route_to(to).unwrap().links().to_vec());
        }
        (topology, pool)
    }

    /// The network's residual capacity of `link` as the test set it.
    struct Inputs {
        background: Vec<f64>,
        scale: Vec<f64>,
        down: Vec<bool>,
    }

    impl Inputs {
        fn residual(&self, topology: &Topology, link: LinkId) -> f64 {
            let i = link.index();
            if self.down[i] {
                return 0.0;
            }
            (topology.link(link).capacity().as_f64() * self.scale[i] - self.background[i]).max(0.0)
        }
    }

    /// Whether a fill over the live `routes` must prune: the topology has
    /// `PRUNE_MIN_LINKS` links, and one of the fill's rows carries at
    /// most 99 % of its residual even when every class crossing it runs
    /// at its bottleneck. Each route counts as its own class (equal
    /// routes merge into one in the kernel, which only lowers its
    /// bounds).
    fn must_prune(topology: &Topology, inputs: &Inputs, routes: &[&[LinkId]]) -> bool {
        let mut bound = vec![0.0; topology.link_count()];
        let mut crossed = vec![false; topology.link_count()];
        for route in routes {
            let bottleneck = route
                .iter()
                .map(|&l| inputs.residual(topology, l))
                .fold(f64::INFINITY, f64::min);
            for l in route.iter() {
                bound[l.index()] += bottleneck;
                crossed[l.index()] = true;
            }
        }
        topology.link_count() >= PRUNE_MIN_LINKS
            && topology.link_ids().any(|l| {
                crossed[l.index()] && bound[l.index()] < 0.99 * inputs.residual(topology, l)
            })
    }

    /// Drives the production network and the lockstep oracle through
    /// `steps` random operations on a random multi-hop network: bursts
    /// of flows onto random routes, removals, background loads up to
    /// and within a hair of capacity, administrative outages, capacity
    /// degradations and advances. After every operation every rate,
    /// link load and integral and the next completion must be bitwise
    /// equal, and a fill that [`must_prune`] must have pruned. Returns
    /// the links the network pruned.
    fn drive(nodes: usize, seed: u64, steps: usize) -> Result<u64, TestCaseError> {
        let (topology, pool) = network(nodes, seed, 3 * nodes);
        let links: Vec<LinkId> = topology.link_ids().collect();
        let mut lazy = FlowNetwork::new(topology.clone());
        let mut reference = LockstepNetwork::new(topology.clone());
        let mut inputs = Inputs {
            background: vec![0.0; links.len()],
            scale: vec![1.0; links.len()],
            down: vec![false; links.len()],
        };
        let mut live: Vec<(FlowId, usize)> = Vec::new();
        let mut mix = Mix(seed ^ 0x5eed);
        for _ in 0..steps {
            let link = links[mix.below(links.len())];
            let capacity = topology.link(link).capacity().as_f64();
            match mix.below(12) {
                0..=3 => {
                    let route = mix.below(pool.len());
                    for _ in 0..1 + mix.below(12) {
                        let volume = 1.0 + 400.0 * mix.unit();
                        let a = lazy.add_flow(&pool[route], volume).unwrap();
                        let b = reference.add_flow(&pool[route], volume).unwrap();
                        prop_assert_eq!(a, b);
                        live.push((a, route));
                    }
                }
                4 if !live.is_empty() => {
                    let (id, _) = live.remove(mix.below(live.len()));
                    let ra = lazy.remove_flow(id).unwrap();
                    let rb = reference.remove_flow(id).unwrap();
                    prop_assert_eq!(ra.to_bits(), rb.to_bits());
                }
                5 | 6 => {
                    // Background anywhere from idle to a hair below
                    // capacity.
                    let share = match mix.below(3) {
                        0 => 0.0,
                        1 => 0.9 + 0.1 * mix.unit(),
                        _ => 1.0 - 1e-9 * mix.unit(),
                    };
                    let load = capacity * share;
                    inputs.background[link.index()] = load;
                    lazy.set_background(link, Mbps::new(load));
                    reference.set_background(link, Mbps::new(load));
                }
                7 => {
                    let down = !inputs.down[link.index()];
                    inputs.down[link.index()] = down;
                    lazy.set_link_admin_down(link, down);
                    reference.set_link_admin_down(link, down);
                }
                8 => {
                    let scale = [0.0, 0.5, mix.unit(), 1.0][mix.below(4)];
                    inputs.scale[link.index()] = scale;
                    lazy.set_link_capacity_scale(link, scale);
                    reference.set_link_capacity_scale(link, scale);
                }
                9 => {
                    if let Some((_, dt)) = lazy.next_completion() {
                        let da = lazy.advance(dt);
                        let db = reference.advance(dt);
                        prop_assert_eq!(&da, &db);
                        live.retain(|(id, _)| !da.contains(id));
                    }
                }
                _ => {
                    let dt = SimDuration::from_millis(50 + mix.below(5_000) as u64);
                    let da = lazy.advance(dt);
                    let db = reference.advance(dt);
                    prop_assert_eq!(&da, &db);
                    live.retain(|(id, _)| !da.contains(id));
                }
            }
            let before = lazy.stats();
            let routes: Vec<&[LinkId]> = live.iter().map(|&(_, r)| pool[r].as_slice()).collect();
            let expect_pruning = must_prune(&topology, &inputs, &routes);
            for &(id, _) in &live {
                prop_assert_eq!(
                    lazy.rate(id).unwrap().as_f64().to_bits(),
                    reference.rate(id).unwrap().as_f64().to_bits(),
                    "rate of {} diverged",
                    id
                );
            }
            let after = lazy.stats();
            if after.reallocations > before.reallocations && expect_pruning {
                prop_assert!(
                    after.links_pruned > before.links_pruned,
                    "a fill with a clearly unsaturable row pruned nothing"
                );
            }
            for &l in &links {
                prop_assert_eq!(
                    lazy.link_flow_load(l).as_f64().to_bits(),
                    reference.link_flow_load(l).as_f64().to_bits(),
                    "load of {} diverged",
                    l
                );
                prop_assert_eq!(
                    lazy.link_cumulative_mbit(l).to_bits(),
                    reference.link_cumulative_mbit(l).to_bits(),
                    "integral of {} diverged",
                    l
                );
            }
            prop_assert_eq!(lazy.next_completion(), reference.next_completion());
        }
        Ok(lazy.stats().links_pruned)
    }

    /// A fixed contended case: the random schedules above reach the
    /// pruning branch, and prune.
    #[test]
    fn pruning_fires_on_a_contended_network() {
        let pruned = drive(40, 7, 120).unwrap();
        assert!(pruned > 0, "no link pruned");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn pruned_fills_agree_with_lockstep(
            nodes in 12usize..48,
            seed in any::<u64>(),
            steps in 10usize..80,
        ) {
            drive(nodes, seed, steps)?;
        }
    }

    /// Drives the production network alone through `steps` random
    /// operations on a random multi-hop network — bursts of flows onto
    /// random routes, removals, completions, background loads,
    /// outages, degradations and advances, settled after most of them
    /// and so also in batches — and after every settle checks the kept
    /// rows against a rebuild (`FlowNetwork::check_kept_rows`).
    fn drive_kept_rows(nodes: usize, seed: u64, steps: usize) -> Result<(), TestCaseError> {
        let (topology, pool) = network(nodes, seed, 3 * nodes);
        prop_assert!(topology.link_count() >= PRUNE_MIN_LINKS);
        let links: Vec<LinkId> = topology.link_ids().collect();
        let mut net = FlowNetwork::new(topology.clone());
        let mut live: Vec<FlowId> = Vec::new();
        let mut mix = Mix(seed ^ 0x0c0u64);
        for _ in 0..steps {
            let link = links[mix.below(links.len())];
            let capacity = topology.link(link).capacity().as_f64();
            match mix.below(11) {
                0..=3 => {
                    let route = &pool[mix.below(pool.len())];
                    for _ in 0..1 + mix.below(8) {
                        live.push(net.add_flow(route, 1.0 + 400.0 * mix.unit()).unwrap());
                    }
                }
                4 | 5 if !live.is_empty() => {
                    let id = live.remove(mix.below(live.len()));
                    net.remove_flow(id).unwrap();
                }
                6 => {
                    let share = [0.0, 0.5, 1.0 - 1e-9 * mix.unit()][mix.below(3)];
                    net.set_background(link, Mbps::new(capacity * share));
                }
                7 => {
                    let down = mix.below(2) == 0;
                    net.set_link_admin_down(link, down);
                }
                8 => net.set_link_capacity_scale(link, [0.0, 0.5, mix.unit(), 1.0][mix.below(4)]),
                9 => {
                    if let Some((_, dt)) = net.next_completion() {
                        let done = net.advance(dt);
                        live.retain(|id| !done.contains(id));
                    }
                }
                _ => {
                    let done = net.advance(SimDuration::from_millis(50 + mix.below(5_000) as u64));
                    live.retain(|id| !done.contains(id));
                }
            }
            if mix.below(3) > 0 {
                net.settle();
                if let Err(why) = net.check_kept_rows() {
                    return Err(TestCaseError::fail(why));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kept_rows_equal_a_rebuild_after_every_settle(
            nodes in 16usize..40,
            seed in any::<u64>(),
            steps in 10usize..120,
        ) {
            drive_kept_rows(nodes, seed, steps)?;
        }
    }

    /// A builder holding a line of `PRUNE_MIN_LINKS` links no flow
    /// crosses, so that the topology's fills prune.
    fn pruning_builder() -> TopologyBuilder {
        let mut b = TopologyBuilder::new();
        let mut prev = b.add_node("pad0");
        for i in 1..=PRUNE_MIN_LINKS {
            let next = b.add_node(format!("pad{i}"));
            b.add_link(prev, next, Mbps::new(1.0)).unwrap();
            prev = next;
        }
        b
    }

    /// Adds one flow per route to both kernels and checks every rate
    /// bitwise; returns the production network and the flow ids.
    fn fill_both(topology: Topology, routes: &[Vec<LinkId>]) -> (FlowNetwork, Vec<FlowId>) {
        let mut lazy = FlowNetwork::new(topology.clone());
        let mut reference = LockstepNetwork::new(topology);
        let mut ids = Vec::new();
        for route in routes {
            let a = lazy.add_flow(route, 100.0).unwrap();
            assert_eq!(a, reference.add_flow(route, 100.0).unwrap());
            ids.push(a);
        }
        for &id in &ids {
            assert_eq!(
                lazy.rate(id).unwrap().as_f64().to_bits(),
                reference.rate(id).unwrap().as_f64().to_bits()
            );
        }
        (lazy, ids)
    }

    /// A link whose bound is within the margin of its residual keeps its
    /// row; one just past the margin is pruned. Either way every rate
    /// is the oracle's.
    #[test]
    fn a_link_within_the_margin_stays_a_row() {
        // One class over [a, l]: a (5 Mbps) is its bottleneck, so l's
        // bound is 5, and the margin admits l up to
        // 5·(1 + 1e-9) + 1e-9 ≈ 5.000000006. One round freezes the
        // class, scanning every kept row once.
        for (l_capacity, pruned) in [(5.000_000_005, 0), (5.000_000_02, 1)] {
            let mut b = pruning_builder();
            let [x, y, z] = ["x", "y", "z"].map(|n| b.add_node(n));
            let a = b.add_link(x, y, Mbps::new(5.0)).unwrap();
            let l = b.add_link(y, z, Mbps::new(l_capacity)).unwrap();
            let (lazy, _) = fill_both(b.build(), &[vec![a, l]]);
            let stats = lazy.stats();
            assert_eq!(stats.links_pruned, pruned, "capacity {l_capacity}");
            assert_eq!(stats.links_scanned, 2 - pruned);
        }
    }

    /// A pruned link next to a near-tie: b1 and b2 differ by one ulp,
    /// both saturate in the first round (the second within the 1e-12
    /// threshold), and the pruned 100 Mbps link both classes cross moves
    /// neither rate.
    #[test]
    fn a_pruned_link_next_to_a_near_tie_moves_no_rate() {
        let mut b = pruning_builder();
        let [p, q, r, s] = ["p", "q", "r", "s"].map(|n| b.add_node(n));
        let b1 = b.add_link(p, q, Mbps::new(3.0)).unwrap();
        let b2 = b.add_link(r, q, Mbps::new(3.0f64.next_up())).unwrap();
        let fat = b.add_link(q, s, Mbps::new(100.0)).unwrap();
        let (mut lazy, ids) = fill_both(b.build(), &[vec![b1, fat], vec![b2, fat]]);
        for &id in &ids {
            assert_eq!(lazy.rate(id).unwrap().as_f64(), 3.0);
        }
        assert_eq!(lazy.stats().links_pruned, 1);
        assert_eq!(lazy.link_flow_load(fat).as_f64(), 6.0);
    }
}
