//! Metrics collection for experiments: summary statistics and a
//! log-bucketed histogram.

use serde::Serialize;

/// Summary statistics of a set of float values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
    /// Median (0 when empty).
    pub p50: f64,
    /// 95th percentile (0 when empty).
    pub p95: f64,
    /// 99th percentile (0 when empty).
    pub p99: f64,
}

impl Summary {
    /// Computes a summary from values (NaNs are ignored).
    #[expect(
        clippy::indexing_slicing,
        reason = "`v` is non-empty (checked above), so `v[0]` and `v[count - 1]` exist"
    )]
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut v: Vec<f64> = values.into_iter().filter(|x| !x.is_nan()).collect();
        if v.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let count = v.len();
        let mean = v.iter().sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            min: v[0],
            max: v[count - 1],
            p50: percentile(&v, 0.50),
            p95: percentile(&v, 0.95),
            p99: percentile(&v, 0.99),
        }
    }
}

/// A log-bucketed (HDR-style) histogram of non-negative float samples.
///
/// Buckets grow geometrically: each octave (power of two above
/// `min_value`) is split into `sub_per_octave` equal-width sub-buckets,
/// giving a bounded relative quantile error of `1 / sub_per_octave`
/// regardless of magnitude — the classic high-dynamic-range layout. One
/// underflow bucket catches values below `min_value` (including zero) and
/// one overflow bucket catches values beyond the last octave, so every
/// recorded sample lands somewhere and bucket counts always sum to
/// [`Histogram::count`].
///
/// Bucket indexing uses only IEEE-754 exponent/mantissa bit extraction
/// and one float division, so identical inputs produce identical buckets
/// on every platform — the determinism contract of the observability
/// layer (DESIGN.md §10) relies on this.
///
/// # Examples
///
/// ```
/// use vod_sim::metrics::Histogram;
///
/// let mut h = Histogram::default();
/// for i in 1..=100 {
///     h.record(i as f64);
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.50);
/// assert!(p50 >= 45.0 && p50 <= 60.0, "p50 = {p50}");
/// assert_eq!(h.quantile(1.0), 100.0); // exact max is tracked
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower bound of the first log bucket; smaller samples underflow.
    min_value: f64,
    /// Number of octaves covered before overflow.
    octaves: u32,
    /// Power-of-two sub-buckets per octave.
    sub_per_octave: u32,
    /// `counts[0]` underflow, `counts[1..=octaves*sub]` log buckets,
    /// `counts[last]` overflow.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    /// Exact smallest sample (`+inf` when empty).
    min_seen: f64,
    /// Exact largest sample (`-inf` when empty).
    max_seen: f64,
}

impl Default for Histogram {
    /// A general-purpose layout: 1 µs resolution floor, 40 octaves
    /// (covers up to ~1.1e6 × 1e-6 = ~1.1 × 10⁶), 8 sub-buckets per
    /// octave (≤ 12.5 % relative quantile error).
    fn default() -> Self {
        Histogram::new(1e-6, 40, 8)
    }
}

impl Histogram {
    /// Creates a histogram with `octaves` powers of two above
    /// `min_value`, each split into `sub_per_octave` buckets.
    ///
    /// # Panics
    ///
    /// Panics when `min_value` is not finite and positive, `octaves` is
    /// zero, or `sub_per_octave` is not a power of two (the sub-bucket
    /// index is taken from the top mantissa bits).
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `min_value must be finite and positive`, `histogram needs at least one octave`, `sub_per_octave must be a power of two`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(min_value: f64, octaves: u32, sub_per_octave: u32) -> Self {
        assert!(
            min_value.is_finite() && min_value > 0.0,
            "min_value must be finite and positive"
        );
        assert!(octaves > 0, "histogram needs at least one octave");
        assert!(
            sub_per_octave.is_power_of_two(),
            "sub_per_octave must be a power of two"
        );
        Histogram {
            min_value,
            octaves,
            sub_per_octave,
            counts: vec![0; (octaves * sub_per_octave) as usize + 2],
            count: 0,
            sum: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// Records one sample (NaNs are ignored; negatives underflow).
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value` (NaNs are ignored).
    #[expect(
        clippy::indexing_slicing,
        reason = "`bucket_index` returns an index below `counts.len()`"
    )]
    pub fn record_n(&mut self, value: f64, n: u64) {
        if value.is_nan() || n == 0 {
            return;
        }
        let idx = self.bucket_index(value);
        self.counts[idx] += n;
        self.count += n;
        self.sum += value * n as f64;
        self.min_seen = self.min_seen.min(value);
        self.max_seen = self.max_seen.max(value);
    }

    /// Records a simulated duration in seconds.
    pub fn record_duration(&mut self, d: crate::time::SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns true when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_seen
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max_seen
        }
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// holding the `ceil(q·count)`-th sample, clamped to the exact
    /// observed `[min, max]`. Within one octave the estimate is at most
    /// `1/sub_per_octave` (relative) above the true value. Returns 0 when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: the quantile rank lies in [0, 1]"
    )]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile rank out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return self.bucket_upper(idx).clamp(self.min_seen, self.max_seen);
            }
        }
        self.max_seen
    }

    /// The buckets with at least one sample, as `(lower, upper, count)`
    /// triples in ascending value order. The underflow bucket reports
    /// `(0, min_value, n)`; the overflow bucket's upper bound is the
    /// exact observed maximum.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (self.bucket_lower(idx), self.bucket_upper(idx), c))
    }

    /// Maps a value to its bucket index via exponent/mantissa extraction
    /// — deterministic integer arithmetic after one IEEE division.
    fn bucket_index(&self, value: f64) -> usize {
        if value < self.min_value || value.is_nan() {
            return 0; // underflow (also negatives, zero, and NaN)
        }
        let ratio = value / self.min_value; // >= 1.0 here
        let bits = ratio.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let sub_bits = self.sub_per_octave.trailing_zeros();
        let sub = ((bits >> (52 - sub_bits)) & (self.sub_per_octave as u64 - 1)) as i64;
        let linear = exponent * self.sub_per_octave as i64 + sub;
        let last_linear = (self.octaves * self.sub_per_octave) as i64;
        if linear >= last_linear {
            self.counts.len() - 1 // overflow
        } else {
            (linear + 1) as usize
        }
    }

    /// Lower value bound of bucket `idx`.
    fn bucket_lower(&self, idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        if idx == self.counts.len() - 1 {
            return self.min_value * 2f64.powi(self.octaves as i32);
        }
        let linear = (idx - 1) as u32;
        let octave = linear / self.sub_per_octave;
        let sub = linear % self.sub_per_octave;
        self.min_value * 2f64.powi(octave as i32) * (1.0 + sub as f64 / self.sub_per_octave as f64)
    }

    /// Upper value bound of bucket `idx` (observed max for overflow).
    fn bucket_upper(&self, idx: usize) -> f64 {
        if idx == 0 {
            return self.min_value;
        }
        if idx == self.counts.len() - 1 {
            return if self.max_seen.is_finite() {
                self.max_seen
            } else {
                f64::INFINITY
            };
        }
        let linear = (idx - 1) as u32;
        let octave = linear / self.sub_per_octave;
        let sub = linear % self.sub_per_octave + 1;
        self.min_value * 2f64.powi(octave as i32) * (1.0 + sub as f64 / self.sub_per_octave as f64)
    }

    /// Sum over all buckets — always equals [`Histogram::count`]; used by
    /// the property tests pinning the invariant.
    pub fn bucket_total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Nearest-rank percentile over a sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
#[expect(
    clippy::disallowed_macros,
    reason = "documented panic: non-empty data and a rank in [0, 1]"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`rank` is clamped to `1..=sorted.len()`"
)]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty data");
    assert!((0.0..=1.0).contains(&p), "percentile rank out of range");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let sum = Summary::from_values((1..=100).map(|i| i as f64));
        assert_eq!(sum.count, 100);
        assert!((sum.mean - 50.5).abs() < 1e-12);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert_eq!(sum.p50, 50.0);
        assert_eq!(sum.p95, 95.0);
        assert_eq!(sum.p99, 99.0);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let sum = Summary::from_values(std::iter::empty());
        assert_eq!(sum.count, 0);
        assert_eq!(sum.mean, 0.0);
    }

    #[test]
    fn summary_ignores_nans() {
        let sum = Summary::from_values(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(sum.count, 2);
        assert_eq!(sum.mean, 2.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        let _ = percentile(&[], 0.5);
    }

    #[test]
    fn histogram_counts_and_moments() {
        let mut h = Histogram::default();
        h.record(0.5);
        h.record(1.5);
        h.record(2.0);
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_total(), 3);
        assert!((h.sum() - 4.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 2.0);
    }

    #[test]
    fn histogram_quantiles_bound_relative_error() {
        let mut h = Histogram::default();
        for i in 1..=10_000 {
            h.record(i as f64 * 0.01); // 0.01 .. 100.0
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0_f64).ceil() * 0.01;
            let est = h.quantile(q);
            assert!(
                est >= exact * 0.999 && est <= exact * 1.126,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        let p0 = h.quantile(0.0);
        assert!((0.01..=0.0113).contains(&p0), "p0 = {p0}");
        assert_eq!(h.quantile(1.0), 100.0); // clamped to the exact max
    }

    #[test]
    fn histogram_underflow_overflow_and_negatives() {
        let mut h = Histogram::new(1.0, 4, 8); // covers [1, 16)
        h.record(-3.0); // underflow
        h.record(0.0); // underflow
        h.record(0.5); // underflow
        h.record(1_000.0); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket_total(), 4);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (0.0, 1.0, 3));
        assert_eq!(buckets[1].2, 1);
        assert_eq!(buckets[1].0, 16.0);
        assert_eq!(buckets[1].1, 1_000.0); // overflow upper = observed max
        assert_eq!(h.quantile(1.0), 1_000.0);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn histogram_records_durations() {
        use crate::time::SimDuration;
        let mut h = Histogram::default();
        h.record_duration(SimDuration::from_secs(2));
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 2.0);
    }
}
