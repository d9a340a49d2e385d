//! Order statistics for the benchmark's reports: the median and
//! quartiles of repeated host timings, and the tail percentile that a
//! sample count can support.

/// Percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `n` samples beyond it (`None` below 20 samples, where not
/// even the median qualifies).
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        // `n - ceil(p·n)` samples lie strictly beyond the nearest-rank
        // percentile; the epsilon absorbs 0.99 × 1000 = 990.0000000001.
        .find(|p| n - ((p * n as f64 - 1e-9).ceil() as usize).min(n) >= 10)
}

/// The tail percentile reported under a `p99` name: 0.99 when the
/// sample supports it, otherwise the highest percentile that does,
/// otherwise the median.
pub fn tail_percentile(n: usize) -> f64 {
    highest_percentile(n).map_or(0.5, |p| p.min(0.99))
}

/// Nearest-rank percentile of an ascending slice (`0.0` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Five-number summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (the exclusive method), so the spread this benchmark prints is
    /// the one its acceptance rule is stated in. With one sample all
    /// five numbers are that sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        let quartile = |i: usize| {
            if m == 1 {
                return v[0];
            }
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n: m,
            min: v[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: v[m - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn even_and_single_samples() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        let s = Summary::of(&[7.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        // Every workload has >= 1 400 sessions, so p99 is supported.
        assert_eq!(highest_percentile(1_400), Some(0.99));
        assert_eq!(highest_percentile(9_999), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(400_000), Some(0.9999));
    }

    #[test]
    fn tail_percentile_is_capped_at_p99_and_floored_at_the_median() {
        assert_eq!(tail_percentile(5), 0.5);
        assert_eq!(tail_percentile(500), 0.9);
        assert_eq!(tail_percentile(2_000_000), 0.99);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Ten samples lie strictly beyond p99 of 1 000.
        let k: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&k, 0.99), 990.0);
    }
}
