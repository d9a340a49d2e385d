//! Physical units used throughout the network model.
//!
//! The paper expresses all link capacities and traffic volumes in megabits
//! per second; [`Mbps`] is a validated newtype for that quantity
//! (C-NEWTYPE). Link load is expressed as a dimensionless fraction of
//! capacity via [`Fraction`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A non-negative bandwidth or traffic volume in megabits per second.
///
/// # Examples
///
/// ```
/// use vod_net::Mbps;
///
/// let capacity = Mbps::new(18.0);
/// let used = Mbps::from_kbps(1_700.0);
/// assert!((used / capacity - 0.094_444).abs() < 1e-5);
/// ```
#[derive(Copy, Clone, PartialEq, PartialOrd, Debug, Default)]
pub struct Mbps(f64);

impl Mbps {
    /// Zero bandwidth.
    pub const ZERO: Mbps = Mbps(0.0);

    /// Creates a bandwidth value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative, NaN or infinite. Use
    /// [`Mbps::try_new`] for fallible construction.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented panic; `try_new` is the fallible form"
    )]
    pub fn new(value: f64) -> Self {
        Self::try_new(value).expect("bandwidth must be finite and non-negative")
    }

    /// Creates a bandwidth value, returning `None` when `value` is
    /// negative, NaN or infinite.
    #[inline]
    pub fn try_new(value: f64) -> Option<Self> {
        if value.is_finite() && value >= 0.0 {
            Some(Mbps(value))
        } else {
            None
        }
    }

    /// Const constructor for crate-internal tables of known-valid values.
    #[inline]
    pub(crate) const fn from_const(value: f64) -> Self {
        Mbps(value)
    }

    /// Creates a bandwidth value from kilobits per second.
    ///
    /// # Panics
    ///
    /// Panics if `kbps` is negative, NaN or infinite.
    #[inline]
    pub fn from_kbps(kbps: f64) -> Self {
        Mbps::new(kbps / 1_000.0)
    }

    /// Returns the value in megabits per second.
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Returns the smaller of two bandwidths.
    #[inline]
    pub fn min(self, other: Mbps) -> Mbps {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two bandwidths.
    #[inline]
    pub fn max(self, other: Mbps) -> Mbps {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Subtracts `other`, clamping at zero instead of going negative.
    #[inline]
    pub fn saturating_sub(self, other: Mbps) -> Mbps {
        Mbps((self.0 - other.0).max(0.0))
    }

    /// Returns true if this is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for Mbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Mbps", self.0)
    }
}

impl Add for Mbps {
    type Output = Mbps;
    #[inline]
    fn add(self, rhs: Mbps) -> Mbps {
        Mbps(self.0 + rhs.0)
    }
}

impl AddAssign for Mbps {
    #[inline]
    fn add_assign(&mut self, rhs: Mbps) {
        self.0 += rhs.0;
    }
}

impl Sub for Mbps {
    type Output = Mbps;
    /// Exact subtraction.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the result would be negative; use
    /// [`Mbps::saturating_sub`] when underflow is expected.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: `Mbps` subtraction never underflows (`saturating_sub` is for when it may)"
    )]
    fn sub(self, rhs: Mbps) -> Mbps {
        debug_assert!(
            self.0 >= rhs.0,
            "Mbps subtraction underflow: {} - {}",
            self.0,
            rhs.0
        );
        Mbps((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Mbps {
    type Output = Mbps;
    #[inline]
    fn mul(self, rhs: f64) -> Mbps {
        Mbps::new(self.0 * rhs)
    }
}

impl Div for Mbps {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Mbps) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<f64> for Mbps {
    type Output = Mbps;
    #[inline]
    fn div(self, rhs: f64) -> Mbps {
        Mbps::new(self.0 / rhs)
    }
}

impl Sum for Mbps {
    #[inline]
    fn sum<I: Iterator<Item = Mbps>>(iter: I) -> Mbps {
        iter.fold(Mbps::ZERO, |acc, x| acc + x)
    }
}

/// A dimensionless fraction, typically a link utilization in `[0, 1]`.
///
/// Utilizations above `1.0` are representable (an SNMP reading can exceed
/// nominal capacity on over-subscribed links) but negative or non-finite
/// values are not.
///
/// # Examples
///
/// ```
/// use vod_net::units::Fraction;
///
/// let u = Fraction::from_percent(38.8);
/// assert!((u.get() - 0.388).abs() < 1e-12);
/// assert_eq!(u.as_percent(), 38.8);
/// ```
#[derive(Copy, Clone, PartialEq, PartialOrd, Debug, Default)]
pub struct Fraction(f64);

impl Fraction {
    /// The zero fraction.
    pub const ZERO: Fraction = Fraction(0.0);
    /// The unit fraction (100%).
    pub const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative, NaN or infinite.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented panic; `try_new` is the fallible form"
    )]
    pub fn new(value: f64) -> Self {
        Self::try_new(value).expect("fraction must be finite and non-negative")
    }

    /// Creates a fraction, returning `None` when `value` is negative, NaN
    /// or infinite.
    #[inline]
    pub fn try_new(value: f64) -> Option<Self> {
        if value.is_finite() && value >= 0.0 {
            Some(Fraction(value))
        } else {
            None
        }
    }

    /// Creates a fraction from a percentage, e.g. `38.8` → `0.388`.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is negative, NaN or infinite.
    #[inline]
    pub fn from_percent(percent: f64) -> Self {
        Fraction::new(percent / 100.0)
    }

    /// Returns the raw fractional value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the value as a percentage, e.g. `0.388` → `38.8`.
    #[inline]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_constructors_validate() {
        assert_eq!(Mbps::new(2.0).as_f64(), 2.0);
        assert!(Mbps::try_new(-1.0).is_none());
        assert!(Mbps::try_new(f64::NAN).is_none());
        assert!(Mbps::try_new(f64::INFINITY).is_none());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mbps_new_panics_on_negative() {
        let _ = Mbps::new(-0.5);
    }

    #[test]
    fn mbps_unit_conversions() {
        assert_eq!(Mbps::from_kbps(1_820.0).as_f64(), 1.82);
    }

    #[test]
    fn mbps_arithmetic() {
        let a = Mbps::new(2.0);
        let b = Mbps::new(0.5);
        assert_eq!((a + b).as_f64(), 2.5);
        assert_eq!((a - b).as_f64(), 1.5);
        assert_eq!((a * 2.0).as_f64(), 4.0);
        assert_eq!(a / b, 4.0);
        assert_eq!((a / 2.0).as_f64(), 1.0);
        assert_eq!(b.saturating_sub(a), Mbps::ZERO);
        let total: Mbps = [a, b, b].into_iter().sum();
        assert_eq!(total.as_f64(), 3.0);
    }

    #[test]
    fn mbps_min_max() {
        let a = Mbps::new(2.0);
        let b = Mbps::new(18.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn fraction_percent_round_trip() {
        let u = Fraction::from_percent(91.0);
        assert!((u.get() - 0.91).abs() < 1e-12);
        assert!((u.as_percent() - 91.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_validates() {
        assert!(Fraction::try_new(-0.1).is_none());
        assert!(Fraction::try_new(f64::NAN).is_none());
        // Over-subscription is representable.
        assert_eq!(Fraction::new(1.5).get(), 1.5);
    }

    #[test]
    fn zero_constants() {
        assert!(Mbps::ZERO.is_zero());
        assert_eq!(Fraction::ZERO.get(), 0.0);
        assert_eq!(Fraction::ONE.get(), 1.0);
    }
}
