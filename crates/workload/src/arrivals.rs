//! Poisson request arrivals, optionally modulated over the day.
//!
//! Interarrival times of a homogeneous Poisson process are exponential;
//! the non-homogeneous (diurnal) variant is generated by *thinning*
//! (Lewis & Shedler): draw candidates at the peak rate and accept each
//! with probability `rate(t) / peak_rate`.

use rand::Rng;

use vod_sim::{SimDuration, SimTime};

/// Draws an exponential variate with the given rate (events per second)
/// via inverse-CDF.
///
/// # Panics
///
/// Panics if `rate_per_sec` is not strictly positive and finite.
#[expect(
    clippy::disallowed_macros,
    reason = "documented panic: the `rate must be positive` and finite"
)]
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate_per_sec: f64) -> SimDuration {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "rate must be positive"
    );
    // 1 - U ∈ (0, 1] avoids ln(0).
    let u: f64 = rng.gen();
    let secs = -(1.0 - u).ln() / rate_per_sec;
    SimDuration::from_secs_f64(secs)
}

/// An hour-of-day rate multiplier, piecewise-constant over 24 slots.
#[derive(Debug, Clone, PartialEq)]
pub struct HourlyShape {
    multipliers: [f64; 24],
}

impl HourlyShape {
    /// A flat shape (multiplier 1 all day).
    pub fn flat() -> Self {
        HourlyShape {
            multipliers: [1.0; 24],
        }
    }

    /// Creates a shape from 24 hourly multipliers.
    ///
    /// # Panics
    ///
    /// Panics if any multiplier is negative, NaN or infinite, or all are
    /// zero.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: no `invalid multiplier`, and `at least one hour must have positive rate`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(multipliers: [f64; 24]) -> Self {
        for m in multipliers {
            assert!(m.is_finite() && m >= 0.0, "invalid multiplier {m}");
        }
        assert!(
            multipliers.iter().any(|&m| m > 0.0),
            "at least one hour must have positive rate"
        );
        HourlyShape { multipliers }
    }

    /// An evening-heavy VoD shape: quiet at night, ramping through the
    /// day, peaking 20:00–23:00 — the classic video-on-demand profile.
    pub fn evening_peak() -> Self {
        let mut m = [0.0f64; 24];
        for (h, slot) in m.iter_mut().enumerate() {
            *slot = match h {
                0..=5 => 0.2,
                6..=11 => 0.6,
                12..=17 => 1.0,
                18..=19 => 1.6,
                20..=22 => 2.0,
                _ => 1.0,
            };
        }
        HourlyShape { multipliers: m }
    }

    /// The multiplier in effect at `at`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`hour` is reduced `% 24`, the array's length"
    )]
    pub fn multiplier_at(&self, at: SimTime) -> f64 {
        let hour = (at.as_hours_f64() % 24.0) as usize % 24;
        self.multipliers[hour]
    }

    /// The largest multiplier (the thinning envelope).
    pub fn peak(&self) -> f64 {
        self.multipliers.iter().copied().fold(0.0, f64::max)
    }
}

/// A (possibly diurnally modulated) Poisson arrival process.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use vod_sim::SimTime;
/// use vod_workload::arrivals::{ArrivalProcess, HourlyShape};
///
/// let process = ArrivalProcess::new(0.5, HourlyShape::flat());
/// let mut rng = StdRng::seed_from_u64(3);
/// let t1 = process.next_after(&mut rng, SimTime::ZERO);
/// let t2 = process.next_after(&mut rng, t1);
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    base_rate_per_sec: f64,
    shape: HourlyShape,
}

impl ArrivalProcess {
    /// Creates a process with the given base rate (events/second at
    /// multiplier 1) and hourly shape.
    ///
    /// # Panics
    ///
    /// Panics if `base_rate_per_sec` is not strictly positive and finite.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: the base `rate must be positive`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(base_rate_per_sec: f64, shape: HourlyShape) -> Self {
        assert!(
            base_rate_per_sec.is_finite() && base_rate_per_sec > 0.0,
            "rate must be positive"
        );
        ArrivalProcess {
            base_rate_per_sec,
            shape,
        }
    }

    /// The instantaneous rate at `at`.
    pub fn rate_at(&self, at: SimTime) -> f64 {
        self.base_rate_per_sec * self.shape.multiplier_at(at)
    }

    /// Draws the next arrival instant strictly after `now` (thinning for
    /// the modulated case).
    pub fn next_after<R: Rng + ?Sized>(&self, rng: &mut R, now: SimTime) -> SimTime {
        let peak_rate = self.base_rate_per_sec * self.shape.peak();
        let mut t = now;
        loop {
            let step = exponential(rng, peak_rate);
            // Never return `now` itself: enforce at least 1 µs progress.
            let step = if step.is_zero() {
                SimDuration::from_micros(1)
            } else {
                step
            };
            t += step;
            let accept: f64 = rng.gen();
            if accept * peak_rate <= self.rate_at(t) {
                return t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| exponential(&mut rng, 2.0).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn flat_process_has_poisson_count() {
        let p = ArrivalProcess::new(1.0, HourlyShape::flat());
        let mut rng = StdRng::seed_from_u64(2);
        let horizon = SimTime::from_secs(10_000);
        let mut t = SimTime::ZERO;
        let mut count = 0u64;
        loop {
            t = p.next_after(&mut rng, t);
            if t > horizon {
                break;
            }
            count += 1;
        }
        // Expect ~10000 ± a few sigma (σ = 100).
        assert!((9_500..10_500).contains(&count), "count = {count}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let p = ArrivalProcess::new(100.0, HourlyShape::evening_peak());
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = SimTime::ZERO;
        for _ in 0..1_000 {
            let next = p.next_after(&mut rng, t);
            assert!(next > t);
            t = next;
        }
    }

    #[test]
    fn modulation_shifts_density() {
        let p = ArrivalProcess::new(1.0, HourlyShape::evening_peak());
        let mut rng = StdRng::seed_from_u64(4);
        // Count arrivals in a night hour vs. a peak hour across many days.
        let mut night = 0u64;
        let mut peak = 0u64;
        let mut t = SimTime::ZERO;
        let horizon = SimTime::from_secs(40 * 24 * 3600);
        loop {
            t = p.next_after(&mut rng, t);
            if t > horizon {
                break;
            }
            let hour = (t.as_hours_f64() % 24.0) as usize;
            match hour {
                2 => night += 1,
                21 => peak += 1,
                _ => {}
            }
        }
        let ratio = peak as f64 / night.max(1) as f64;
        assert!(
            (7.0..13.0).contains(&ratio),
            "expected ~10× evening/night ratio, got {ratio}"
        );
    }

    #[test]
    fn rate_at_reflects_shape() {
        let p = ArrivalProcess::new(2.0, HourlyShape::evening_peak());
        assert!((p.rate_at(SimTime::from_secs(21 * 3600)) - 4.0).abs() < 1e-12);
        assert!((p.rate_at(SimTime::from_secs(2 * 3600)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn shape_validation() {
        assert_eq!(HourlyShape::flat().peak(), 1.0);
        assert_eq!(HourlyShape::evening_peak().peak(), 2.0);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn all_zero_shape_rejected() {
        let _ = HourlyShape::new([0.0; 24]);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::new(0.0, HourlyShape::flat());
    }
}
