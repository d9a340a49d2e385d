//! Simulated time: integer microseconds since simulation start.
//!
//! Integer time keeps event ordering exact and runs reproducible across
//! platforms; one microsecond of resolution is far below anything the VoD
//! model needs (cluster fetches take seconds).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An instant of simulated time (microseconds since simulation start).
#[derive(
    Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Raw microseconds since start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Hours since start, as a float (for diurnal profiles).
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3.6e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`; saturates
    /// to zero in release builds.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: `earlier` is not later than `self` (release builds saturate)"
    )]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "duration_since with a later instant");
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

/// A span of simulated time (microseconds).
#[derive(
    Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or too large for the clock.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `secs.is_finite() && secs >= 0.0` and within the clock's range"
    )]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0 && secs < u64::MAX as f64 / 1e6,
            "duration out of range: {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns true for the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is larger; saturates to zero in
    /// release builds (use [`SimDuration::saturating_sub`] to opt in
    /// explicitly).
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: durations never underflow (release builds saturate)"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "duration subtraction underflow");
        self.saturating_sub(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimTime::from_secs(7200).as_hours_f64(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(5);
        assert_eq!((t + d).as_micros(), 15_000_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).duration_since(t), d);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2, t + d);
        assert_eq!(d + d, SimDuration::from_secs(10));
    }

    #[test]
    fn duration_helpers() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(5);
        assert_eq!(a.min(b), a);
        assert_eq!(b - a, SimDuration::from_secs(2));
        assert_eq!(b.saturating_sub(a), SimDuration::from_secs(2));
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn ordering_is_total() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimDuration::from_secs(1) < SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn negative_float_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000000s");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500000s");
    }
}
