//! Diurnal background-traffic profiles.
//!
//! The paper's Table 2 shows how GRNET's backbone load varies over a day
//! (8am, 10am, 4pm, 6pm). [`DiurnalProfile`] interpolates such readings
//! piecewise-linearly over a wrapping 24-hour clock, and
//! [`BackgroundModel`] applies per-link profiles to a
//! [`FlowNetwork`] as simulated time advances —
//! regenerating "Table 2-like" conditions continuously rather than at four
//! instants.

use serde::{Deserialize, Serialize};

use vod_net::topologies::grnet::{Grnet, GrnetLink, TimeOfDay, TABLE2};
use vod_net::{LinkId, Mbps};

use crate::flow::FlowNetwork;
use crate::time::SimTime;

/// A 24-hour wrapping piecewise-linear load profile.
///
/// # Examples
///
/// ```
/// use vod_sim::traffic::DiurnalProfile;
/// use vod_net::Mbps;
///
/// let p = DiurnalProfile::new(vec![(0.0, Mbps::new(0.0)), (12.0, Mbps::new(2.0))]);
/// assert_eq!(p.sample(6.0), Mbps::new(1.0));
/// // Wraps around midnight: 18h is halfway from (12h, 2.0) back to (24h, 0.0).
/// assert_eq!(p.sample(18.0), Mbps::new(1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProfile {
    /// Control points `(hour_of_day, load)`, sorted by hour, hours in
    /// `[0, 24)`.
    points: Vec<(f64, Mbps)>,
}

impl DiurnalProfile {
    /// Creates a profile from `(hour, load)` control points.
    ///
    /// Points are sorted by hour. The profile wraps: between the last
    /// point and the first point (+24h) it interpolates across midnight.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or any hour is outside `[0, 24)`.
    pub fn new(mut points: Vec<(f64, Mbps)>) -> Self {
        assert!(!points.is_empty(), "a profile needs at least one point");
        for (h, _) in &points {
            assert!(
                (0.0..24.0).contains(h),
                "control-point hour {h} outside [0, 24)"
            );
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        DiurnalProfile { points }
    }

    /// A constant profile.
    pub fn constant(load: Mbps) -> Self {
        DiurnalProfile {
            points: vec![(0.0, load)],
        }
    }

    /// The control points, sorted by hour.
    pub fn points(&self) -> &[(f64, Mbps)] {
        &self.points
    }

    /// Samples the profile at `hour` (any non-negative value; wraps
    /// modulo 24).
    ///
    /// # Panics
    ///
    /// Panics if `hour` is negative, NaN or infinite.
    pub fn sample(&self, hour: f64) -> Mbps {
        assert!(hour.is_finite() && hour >= 0.0, "invalid hour {hour}");
        let h = hour % 24.0;
        if self.points.len() == 1 {
            return self.points[0].1;
        }
        // Find the segment [prev, next) containing h, wrapping at 24.
        let n = self.points.len();
        for i in 0..n {
            let (h0, v0) = self.points[i];
            let (mut h1, v1) = self.points[(i + 1) % n];
            let mut hh = h;
            if i + 1 == n {
                h1 += 24.0; // wrap segment
                if hh < h0 {
                    hh += 24.0;
                }
            }
            if (h0..=h1).contains(&hh) {
                let span = h1 - h0;
                if span <= f64::EPSILON {
                    return v0;
                }
                let t = (hh - h0) / span;
                return Mbps::new(v0.as_f64() + (v1.as_f64() - v0.as_f64()) * t);
            }
        }
        // h is before the first point: it lies on the wrap segment.
        let (h_last, v_last) = self.points[n - 1];
        let (h_first, v_first) = self.points[0];
        let span = (h_first + 24.0) - h_last;
        let t = ((h + 24.0) - h_last) / span;
        Mbps::new(v_last.as_f64() + (v_first.as_f64() - v_last.as_f64()) * t)
    }

    /// Samples at a simulated instant (hours since simulation start,
    /// wrapping daily).
    pub fn sample_at(&self, at: SimTime) -> Mbps {
        self.sample(at.as_hours_f64() % 24.0)
    }
}

/// Per-link diurnal background traffic for a whole topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackgroundModel {
    profiles: Vec<DiurnalProfile>,
}

impl BackgroundModel {
    /// Creates a model from one profile per link, in [`LinkId`] order.
    pub fn new(profiles: Vec<DiurnalProfile>) -> Self {
        BackgroundModel { profiles }
    }

    /// A model with the same constant load on every link.
    pub fn uniform(link_count: usize, load: Mbps) -> Self {
        BackgroundModel {
            profiles: vec![DiurnalProfile::constant(load); link_count],
        }
    }

    /// The background model fitted to the paper's Table 2: each GRNET link
    /// interpolates through its four recorded readings.
    pub fn grnet_table2(grnet: &Grnet) -> Self {
        let mut profiles = vec![DiurnalProfile::constant(Mbps::ZERO); 7];
        for link in GrnetLink::ALL {
            let points = TimeOfDay::ALL
                .iter()
                .map(|&t| {
                    let cell = TABLE2[link_row(link)][t.column()];
                    (t.hour() as f64, cell.traffic)
                })
                .collect();
            profiles[grnet.link(link).index()] = DiurnalProfile::new(points);
        }
        BackgroundModel { profiles }
    }

    /// Number of links covered.
    pub fn link_count(&self) -> usize {
        self.profiles.len()
    }

    /// The profile of `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn profile(&self, link: LinkId) -> &DiurnalProfile {
        &self.profiles[link.index()]
    }

    /// The background load on `link` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn load_at(&self, link: LinkId, at: SimTime) -> Mbps {
        self.profiles[link.index()].sample_at(at)
    }

    /// Writes the background load of every link at `at` into `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net`'s topology has a different number of links.
    pub fn apply(&self, net: &mut FlowNetwork, at: SimTime) {
        assert_eq!(
            net.topology().link_count(),
            self.profiles.len(),
            "background model does not match topology"
        );
        let loads = (0..self.profiles.len()).map(|i| {
            let link = LinkId::new(i as u32);
            (link, self.load_at(link, at))
        });
        net.set_background_many(loads);
    }
}

/// Row index of a GRNET link in the paper's `TABLE2` (Table 2 order).
fn link_row(link: GrnetLink) -> usize {
    GrnetLink::ALL
        .iter()
        .position(|&l| l == link)
        .expect("link is in ALL")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies::grnet::GrnetNode;

    #[test]
    fn constant_profile() {
        let p = DiurnalProfile::constant(Mbps::new(1.5));
        for h in [0.0, 6.0, 12.0, 23.9] {
            assert_eq!(p.sample(h), Mbps::new(1.5));
        }
    }

    #[test]
    fn interpolates_between_points() {
        let p = DiurnalProfile::new(vec![
            (8.0, Mbps::new(0.0)),
            (10.0, Mbps::new(2.0)),
            (16.0, Mbps::new(2.0)),
        ]);
        assert_eq!(p.sample(9.0), Mbps::new(1.0));
        assert_eq!(p.sample(13.0), Mbps::new(2.0));
        assert_eq!(p.sample(8.0), Mbps::new(0.0));
    }

    #[test]
    fn wraps_across_midnight() {
        let p = DiurnalProfile::new(vec![(22.0, Mbps::new(2.0)), (2.0, Mbps::new(0.0))]);
        // sorted → points are (2, 0) and (22, 2). Wrap segment 22h→26h(=2h).
        assert_eq!(p.sample(0.0), Mbps::new(1.0));
        assert_eq!(p.sample(23.0), Mbps::new(1.5));
        assert_eq!(p.sample(2.0), Mbps::new(0.0));
        assert_eq!(p.sample(22.0), Mbps::new(2.0));
        // Hours beyond 24 wrap.
        assert_eq!(p.sample(24.0), Mbps::new(1.0));
    }

    #[test]
    fn sample_at_uses_hours_since_start() {
        let p = DiurnalProfile::new(vec![(0.0, Mbps::new(0.0)), (12.0, Mbps::new(12.0))]);
        assert_eq!(p.sample_at(SimTime::from_secs(6 * 3600)), Mbps::new(6.0));
        // A day later, same hour.
        assert_eq!(p.sample_at(SimTime::from_secs(30 * 3600)), Mbps::new(6.0));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_profile_rejected() {
        let _ = DiurnalProfile::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 24)")]
    fn out_of_range_hour_rejected() {
        let _ = DiurnalProfile::new(vec![(24.0, Mbps::ZERO)]);
    }

    #[test]
    fn grnet_model_matches_table2_at_sample_times() {
        let grnet = Grnet::new();
        let model = BackgroundModel::grnet_table2(&grnet);
        for link in GrnetLink::ALL {
            for t in TimeOfDay::ALL {
                let at = SimTime::from_secs(t.hour() as u64 * 3600);
                let expected = grnet.table2(link, t).traffic;
                let got = model.load_at(grnet.link(link), at);
                assert!(
                    (got.as_f64() - expected.as_f64()).abs() < 1e-9,
                    "{} @ {}: {got} vs {expected}",
                    link.label(),
                    t.label()
                );
            }
        }
    }

    #[test]
    fn grnet_model_interpolates_between_readings() {
        let grnet = Grnet::new();
        let model = BackgroundModel::grnet_table2(&grnet);
        // Patra-Athens at 9am: halfway between 0.2 (8am) and 1.82 (10am).
        let at = SimTime::from_secs(9 * 3600);
        let got = model.load_at(grnet.link(GrnetLink::PatraAthens), at);
        assert!((got.as_f64() - 1.01).abs() < 1e-9);
    }

    #[test]
    fn apply_sets_flow_network_background() {
        let grnet = Grnet::new();
        let model = BackgroundModel::grnet_table2(&grnet);
        let mut net = FlowNetwork::new(grnet.topology().clone());
        model.apply(&mut net, SimTime::from_secs(10 * 3600));
        let ta = grnet.link(GrnetLink::ThessalonikiAthens);
        assert!((net.background(ta).as_f64() - 7.0).abs() < 1e-9);
        // And the snapshot sees it.
        let snap = net.snapshot();
        assert!((snap.used(ta).as_f64() - 7.0).abs() < 1e-9);
        let _ = grnet.node(GrnetNode::Athens);
    }

    #[test]
    fn uniform_model() {
        let m = BackgroundModel::uniform(3, Mbps::new(0.5));
        assert_eq!(m.link_count(), 3);
        assert_eq!(m.load_at(LinkId::new(2), SimTime::ZERO), Mbps::new(0.5));
    }
}
