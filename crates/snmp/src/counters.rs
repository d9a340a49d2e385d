//! Per-link traffic counters.
//!
//! Real SNMP agents expose monotone octet counters; utilization over an
//! interval is computed from counter *deltas*. [`CounterBank`] reproduces
//! that: the simulation accumulates `rate × dt` volume into each link's
//! counter as time advances, and the poller takes deltas.

use serde::{Deserialize, Serialize};

use vod_net::{LinkId, Mbps};
use vod_sim::flow::FlowNetwork;
use vod_sim::SimDuration;

/// Monotone per-link traffic counters, in megabits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterBank {
    accumulated_mbit: Vec<f64>,
}

impl CounterBank {
    /// Creates counters for `link_count` links, all zero.
    pub fn new(link_count: usize) -> Self {
        CounterBank {
            accumulated_mbit: vec![0.0; link_count],
        }
    }

    /// Number of links covered.
    pub fn link_count(&self) -> usize {
        self.accumulated_mbit.len()
    }

    /// Total megabits ever counted on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the polled topology"
    )]
    pub fn total_mbit(&self, link: LinkId) -> f64 {
        self.accumulated_mbit[link.index()]
    }

    /// Adds `volume_mbit` to `link`'s counter.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or `volume_mbit` is negative/NaN.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: counter increments are finite and non-negative"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the polled topology"
    )]
    pub fn add(&mut self, link: LinkId, volume_mbit: f64) {
        assert!(
            volume_mbit.is_finite() && volume_mbit >= 0.0,
            "counter increments are non-negative"
        );
        self.accumulated_mbit[link.index()] += volume_mbit;
    }

    /// Accumulates the current total load of every link of `net` over an
    /// interval `dt` during which the allocation was constant. Reading a
    /// load settles the network's allocation first, hence `&mut`.
    ///
    /// # Panics
    ///
    /// Panics if `net` covers a different number of links.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `net.topology().link_count()` must match the counter bank"
    )]
    pub fn accumulate(&mut self, net: &mut FlowNetwork, dt: SimDuration) {
        assert_eq!(
            net.topology().link_count(),
            self.accumulated_mbit.len(),
            "counter bank does not match topology"
        );
        let secs = dt.as_secs_f64();
        #[expect(
            clippy::indexing_slicing,
            reason = "`i` ranges over `0..accumulated_mbit.len()`"
        )]
        for i in 0..self.accumulated_mbit.len() {
            let link = LinkId::new(i as u32);
            self.accumulated_mbit[i] += net.link_total_load(link).as_f64() * secs;
        }
    }

    /// Overwrites every counter with the volume integrals `net` maintains
    /// incrementally (see `FlowNetwork::link_cumulative_mbit`) — the
    /// event-driven replacement for calling [`CounterBank::accumulate`]
    /// once per simulation event. Counters and integrals share the same
    /// origin (both start at zero), so the sync preserves monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if `net` covers a different number of links, or if a
    /// counter would move backwards.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `net.topology().link_count()` must match the counter bank, and `SNMP counters are monotone`"
    )]
    pub fn sync_from_network(&mut self, net: &FlowNetwork) {
        assert_eq!(
            net.topology().link_count(),
            self.accumulated_mbit.len(),
            "counter bank does not match topology"
        );
        #[expect(
            clippy::indexing_slicing,
            reason = "`i` ranges over `0..accumulated_mbit.len()`"
        )]
        for i in 0..self.accumulated_mbit.len() {
            let total = net.link_cumulative_mbit(LinkId::new(i as u32));
            assert!(
                total >= self.accumulated_mbit[i] - 1e-9,
                "SNMP counters are monotone"
            );
            self.accumulated_mbit[i] = total;
        }
    }

    /// Average rate on `link` given a baseline counter value and the
    /// elapsed time; this is the SNMP delta computation.
    ///
    /// Returns zero for a zero-length interval.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or the counter went backwards.
    #[expect(
        clippy::disallowed_macros,
        reason = "per-poll contract `delta >= -1e-9`: SNMP counters are monotone"
    )]
    pub fn average_rate_since(
        &self,
        link: LinkId,
        baseline_mbit: f64,
        elapsed: SimDuration,
    ) -> Mbps {
        #[expect(
            clippy::indexing_slicing,
            reason = "documented panic: `link` belongs to the polled topology"
        )]
        let delta = self.accumulated_mbit[link.index()] - baseline_mbit;
        assert!(delta >= -1e-9, "SNMP counters are monotone");
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            Mbps::ZERO
        } else {
            Mbps::new((delta / secs).max(0.0))
        }
    }

    /// Every counter, in link order.
    pub fn totals(&self) -> &[f64] {
        &self.accumulated_mbit
    }

    /// A copy of all counters (the poller's baseline).
    pub fn snapshot(&self) -> Vec<f64> {
        self.accumulated_mbit.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::{Mbps, TopologyBuilder};

    fn one_link_net() -> (FlowNetwork, LinkId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let l = b.add_link(a, c, Mbps::new(2.0)).unwrap();
        (FlowNetwork::new(b.build()), l)
    }

    #[test]
    fn accumulate_integrates_load_over_time() {
        let (mut net, l) = one_link_net();
        net.set_background(l, Mbps::new(1.0));
        let mut bank = CounterBank::new(1);
        bank.accumulate(&mut net, SimDuration::from_secs(60));
        assert!((bank.total_mbit(l) - 60.0).abs() < 1e-9);
        bank.accumulate(&mut net, SimDuration::from_secs(30));
        assert!((bank.total_mbit(l) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn average_rate_from_deltas() {
        let (mut net, l) = one_link_net();
        net.set_background(l, Mbps::new(2.0));
        let mut bank = CounterBank::new(1);
        let baseline = bank.snapshot();
        bank.accumulate(&mut net, SimDuration::from_secs(120));
        let avg = bank.average_rate_since(l, baseline[0], SimDuration::from_secs(120));
        assert!((avg.as_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_rate_over_zero_interval_is_zero() {
        let bank = CounterBank::new(1);
        assert_eq!(
            bank.average_rate_since(LinkId::new(0), 0.0, SimDuration::ZERO),
            Mbps::ZERO
        );
    }

    #[test]
    fn manual_add() {
        let mut bank = CounterBank::new(2);
        bank.add(LinkId::new(1), 5.0);
        assert_eq!(bank.total_mbit(LinkId::new(1)), 5.0);
        assert_eq!(bank.total_mbit(LinkId::new(0)), 0.0);
        assert_eq!(bank.link_count(), 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_increment_rejected() {
        let mut bank = CounterBank::new(1);
        bank.add(LinkId::new(0), -1.0);
    }
}
