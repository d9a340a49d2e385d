//! Diurnal background-traffic profiles.
//!
//! The paper's Table 2 shows how GRNET's backbone load varies over a day
//! (8am, 10am, 4pm, 6pm). [`DiurnalProfile`] interpolates such readings
//! piecewise-linearly over a wrapping 24-hour clock, and
//! [`BackgroundModel`] applies per-link profiles to a
//! [`FlowNetwork`] as simulated time advances —
//! regenerating "Table 2-like" conditions continuously rather than at four
//! instants.
//!
//! Because the interpolation is continuous, every refresh stores a new
//! load on every link: no refresh is a no-op. What a refresh costs is
//! kept to what it changes — [`BackgroundModel::apply`] wraps the
//! instant to an hour of day once for all links, each profile holds its
//! segments with the differences the interpolation divides and
//! multiplies by already taken, and each link keeps a cursor on the
//! segment it sampled last: refreshes move forward through the day, so
//! the segment search starts where the previous one stopped and is one
//! comparison in the common case.

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
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    /// Control points `(hour_of_day, load)`, sorted by hour, hours in
    /// `[0, 24)`; never empty.
    points: Vec<(f64, Mbps)>,
    /// The stretch from each control point to the next, the last one
    /// wrapping past midnight to the first point (+24h). Empty for a
    /// single-point (constant) profile.
    segments: Vec<Segment>,
}

/// One linear stretch `[h0, h1]` of a profile, from load `v0`.
#[derive(Debug, Copy, Clone, PartialEq)]
struct Segment {
    h0: f64,
    h1: f64,
    v0: f64,
    /// Load difference to the stretch's far end.
    dv: f64,
    /// `h1 - h0`.
    span: f64,
}

impl Segment {
    fn between((h0, v0): (f64, Mbps), (h1, v1): (f64, Mbps)) -> Self {
        Segment {
            h0,
            h1,
            v0: v0.as_f64(),
            dv: v1.as_f64() - v0.as_f64(),
            span: h1 - h0,
        }
    }

    fn load_at(&self, hour: f64) -> Mbps {
        if self.span <= f64::EPSILON {
            return Mbps::new(self.v0);
        }
        let t = (hour - self.h0) / self.span;
        Mbps::new(self.v0 + self.dv * t)
    }
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
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `a profile needs at least one point` and no hour `outside [0, 24)`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(points: Vec<(f64, Mbps)>) -> Self {
        assert!(!points.is_empty(), "a profile needs at least one point");
        for (h, _) in &points {
            assert!(
                (0.0..24.0).contains(h),
                "control-point hour {h} outside [0, 24)"
            );
        }
        Self::from_valid_points(points)
    }

    /// `points` is non-empty with every hour in `[0, 24)`.
    fn from_valid_points(mut points: Vec<(f64, Mbps)>) -> Self {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let consecutive = points.iter().zip(points.iter().skip(1));
        let mut segments: Vec<Segment> = consecutive
            .map(|(&from, &to)| Segment::between(from, to))
            .collect();
        if let &[first, .., last] = points.as_slice() {
            segments.push(Segment::between(last, (first.0 + 24.0, first.1)));
        }
        DiurnalProfile { points, segments }
    }

    /// A constant profile.
    pub fn constant(load: Mbps) -> Self {
        Self::from_valid_points(vec![(0.0, load)])
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
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: the hour is finite and non-negative"
    )]
    pub fn sample(&self, hour: f64) -> Mbps {
        assert!(hour.is_finite() && hour >= 0.0, "invalid hour {hour}");
        self.sample_wrapped(hour % 24.0, &mut 0)
    }

    /// Samples at a simulated instant (hours since simulation start,
    /// wrapping daily).
    pub fn sample_at(&self, at: SimTime) -> Mbps {
        self.sample_wrapped(hour_of_day(at), &mut 0)
    }

    /// [`DiurnalProfile::sample`] of an hour already in `[0, 24)`,
    /// searching from `cursor`, the segment the previous sample through
    /// the same cursor stopped at (0 for a fresh search), and leaving it
    /// at this one's: the one sampling function.
    ///
    /// The segment between two consecutive points is the first whose
    /// far end `h1` is not below `hour`, if it starts at or before
    /// `hour` — the first segment that covers the hour, so at a shared
    /// boundary the earlier segment wins. The inner segments tile the
    /// day in order, so their `h1` never decrease: the search may start
    /// at the cursor whenever the segment before it ends below `hour`,
    /// and starts over at the first segment otherwise (the clock
    /// wrapped to a new day, or the cursor is fresh).
    fn sample_wrapped(&self, hour: f64, cursor: &mut usize) -> Mbps {
        let Some((wrap, inner)) = self.segments.split_last() else {
            return self.points.first().map_or(Mbps::ZERO, |only| only.1);
        };
        let before = cursor.checked_sub(1).and_then(|i| inner.get(i));
        let mut at = if before.is_some_and(|s| s.h1 < hour) {
            *cursor
        } else {
            0
        };
        while inner.get(at).is_some_and(|s| s.h1 < hour) {
            at += 1;
        }
        *cursor = at;
        if let Some(segment) = inner.get(at).filter(|s| s.h0 <= hour) {
            return segment.load_at(hour);
        }
        // Before the first point or after the last: the stretch across
        // midnight, on which the small hours count as tomorrow's.
        let hour = if hour < wrap.h0 { hour + 24.0 } else { hour };
        wrap.load_at(hour)
    }
}

/// The hour of day, in `[0, 24)`, of a simulated instant.
fn hour_of_day(at: SimTime) -> f64 {
    at.as_hours_f64() % 24.0
}

/// Per-link diurnal background traffic for a whole topology.
///
/// Two models are equal when their profiles are: the per-link segment
/// cursors [`BackgroundModel::apply`] keeps are a search hint, not data.
#[derive(Debug, Clone)]
pub struct BackgroundModel {
    profiles: Vec<DiurnalProfile>,
    /// Per link, the segment `apply` sampled last (see
    /// [`DiurnalProfile::sample_wrapped`]).
    cursors: Vec<usize>,
}

impl PartialEq for BackgroundModel {
    fn eq(&self, other: &Self) -> bool {
        self.profiles == other.profiles
    }
}

impl BackgroundModel {
    /// Creates a model from one profile per link, in [`LinkId`] order.
    pub fn new(profiles: Vec<DiurnalProfile>) -> Self {
        let cursors = vec![0; profiles.len()];
        BackgroundModel { profiles, cursors }
    }

    /// A model with the same constant load on every link.
    pub fn uniform(link_count: usize, load: Mbps) -> Self {
        BackgroundModel::new(vec![DiurnalProfile::constant(load); link_count])
    }

    /// The background model fitted to the paper's Table 2: each GRNET link
    /// interpolates through its four recorded readings.
    pub fn grnet_table2(grnet: &Grnet) -> Self {
        let mut profiles = vec![DiurnalProfile::constant(Mbps::ZERO); 7];
        #[expect(
            clippy::indexing_slicing,
            reason = "Table 2 has a row per GRNET link and a column per time of day; `profiles` holds the 7 GRNET links"
        )]
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
        BackgroundModel::new(profiles)
    }

    /// Number of links covered.
    pub fn link_count(&self) -> usize {
        self.profiles.len()
    }

    /// The background load on `link` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the modelled topology"
    )]
    pub fn load_at(&self, link: LinkId, at: SimTime) -> Mbps {
        self.profiles[link.index()].sample_at(at)
    }

    /// Writes the background load of every link at `at` into `net`: one
    /// hour of day for the instant, one sample per link, each searched
    /// from the link's cursor — the same loads [`BackgroundModel::load_at`]
    /// gives, found in one step while `at` moves forward.
    ///
    /// # Panics
    ///
    /// Panics if `net`'s topology has a different number of links.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `net.topology().link_count()` must match the profiles"
    )]
    pub fn apply(&mut self, net: &mut FlowNetwork, at: SimTime) {
        assert_eq!(
            net.topology().link_count(),
            self.profiles.len(),
            "background model does not match topology"
        );
        let hour = hour_of_day(at);
        let per_link = self.profiles.iter().zip(self.cursors.iter_mut());
        let loads = (0u32..).zip(per_link);
        net.set_background_many(
            loads.map(|(i, (profile, cursor))| {
                (LinkId::new(i), profile.sample_wrapped(hour, cursor))
            }),
        );
    }
}

/// Row index of a GRNET link in the paper's `TABLE2` (Table 2 order).
#[expect(clippy::expect_used, reason = "every link is in `GrnetLink::ALL`")]
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
        let mut model = BackgroundModel::grnet_table2(&grnet);
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

    /// `DiurnalProfile::sample` as it was before the segments were
    /// precomputed: the reference the table is compared with.
    fn sample_by_search(points: &[(f64, Mbps)], hour: f64) -> Mbps {
        let h = hour % 24.0;
        if points.len() == 1 {
            return points[0].1;
        }
        let n = points.len();
        for i in 0..n {
            let (h0, v0) = points[i];
            let (mut h1, v1) = points[(i + 1) % n];
            let mut hh = h;
            if i + 1 == n {
                h1 += 24.0;
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
        unreachable!("the wrap segment covers every hour no other does");
    }

    proptest::proptest! {
        /// Bit-for-bit: random profiles (duplicate hours included),
        /// sampled at their own control points, at random hours and
        /// through `sample_at` and `BackgroundModel::load_at`.
        #[test]
        fn segment_table_matches_the_search(
            points in proptest::collection::vec((0u32..96, 0.0f64..18.0), 1..7),
            hours in proptest::collection::vec(0.0f64..72.0, 1..40),
            micros in proptest::collection::vec(0u64..400_000_000_000, 1..20),
        ) {
            let points: Vec<(f64, Mbps)> = points
                .into_iter()
                .map(|(quarter, load)| (f64::from(quarter) / 4.0, Mbps::new(load)))
                .collect();
            let profile = DiurnalProfile::new(points);
            let own = profile.points().iter().map(|p| p.0);
            for hour in own.chain(hours) {
                proptest::prop_assert_eq!(
                    profile.sample(hour).as_f64().to_bits(),
                    sample_by_search(profile.points(), hour).as_f64().to_bits(),
                    "hour {}", hour
                );
            }
            let model = BackgroundModel::new(vec![profile.clone()]);
            for us in micros {
                let at = SimTime::from_micros(us);
                let expected = sample_by_search(profile.points(), at.as_hours_f64() % 24.0);
                proptest::prop_assert_eq!(profile.sample_at(at), expected);
                proptest::prop_assert_eq!(model.load_at(LinkId::new(0), at), expected);
            }
        }

        /// Bit-for-bit through a cursor: a random profile sampled along
        /// a clock that moves forward in random steps (across
        /// midnights, landing on control points and on the same hour
        /// twice) and, for good measure, jumps back.
        #[test]
        fn cursor_matches_the_search(
            points in proptest::collection::vec((0u32..96, 0.0f64..18.0), 1..7),
            steps in proptest::collection::vec((0u8..8, 0u64..100), 1..120),
        ) {
            let points: Vec<(f64, Mbps)> = points
                .into_iter()
                .map(|(quarter, load)| (f64::from(quarter) / 4.0, Mbps::new(load)))
                .collect();
            let profile = DiurnalProfile::new(points);
            let mut cursor = 0;
            let mut quarter_hours = 0u64;
            for (kind, step) in steps {
                quarter_hours = match kind {
                    // Back to an earlier instant.
                    0 => quarter_hours / 2,
                    // Stay.
                    1 => quarter_hours,
                    _ => quarter_hours + step,
                };
                let hour = (quarter_hours as f64 / 4.0) % 24.0;
                let hour = if kind == 2 { hour + 0.1 * (step % 3) as f64 } else { hour };
                let got = profile.sample_wrapped(hour.min(23.99), &mut cursor);
                let expected = sample_by_search(profile.points(), hour.min(23.99));
                proptest::prop_assert_eq!(got.as_f64().to_bits(), expected.as_f64().to_bits());
            }
        }
    }

    /// `apply` walks every link's cursor along a refresh clock and
    /// writes what `load_at` gives at each instant.
    #[test]
    fn apply_through_cursors_matches_load_at() {
        let grnet = Grnet::new();
        let mut model = BackgroundModel::grnet_table2(&grnet);
        let reference = model.clone();
        let mut net = FlowNetwork::new(grnet.topology().clone());
        for minute in (0..3 * 24 * 60).step_by(7) {
            let at = SimTime::from_secs(minute * 60);
            model.apply(&mut net, at);
            for link in grnet.topology().link_ids() {
                assert_eq!(
                    net.background(link),
                    reference.load_at(link, at),
                    "{link:?} at {at}"
                );
            }
        }
        assert_eq!(model, reference);
    }
}
