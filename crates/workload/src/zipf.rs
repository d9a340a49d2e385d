//! Zipf-distributed popularity.
//!
//! Rank `k` (1-based) is drawn with probability `(1/k^s) / H(n, s)` where
//! `H(n, s) = Σ_{i=1..n} 1/i^s`. Implemented with a precomputed CDF and
//! binary search, so sampling is `O(log n)` and requires nothing beyond
//! the `rand` core traits.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Zipf distribution over ranks `0..n` (rank 0 is the most popular).
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use vod_workload::Zipf;
///
/// let zipf = Zipf::new(100, 0.8);
/// let mut rng = StdRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// // Rank 0 is the single most likely outcome.
/// assert!(zipf.pmf(0) > zipf.pmf(1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    n: usize,
    s: f64,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with skew `s`.
    ///
    /// `s = 0` is the uniform distribution; classic VoD traces are fit
    /// well by `s ≈ 0.7–1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `s` is negative, NaN or infinite.
    #[expect(clippy::expect_used, reason = "`n > 0` is asserted on entry")]
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `Zipf needs at least one rank` and the `skew must be non-negative`; a typed error is ROADMAP 4(a)"
    )]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "skew must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point round-off at the top.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { n, s, cdf }
    }

    /// Probability of rank `k` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `k >= n`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: the rank is below `n`"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`k < n`, the length of `cdf` (asserted above)"
    )]
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k < self.n, "rank out of range");
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draws a rank (0-based; 0 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index with cdf >= u; total_cmp keeps the comparator a
        // total order even if a NaN ever slipped into the table.
        match self.cdf.binary_search_by(|probe| probe.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.n - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        for s in [0.0, 0.5, 0.8, 1.0, 2.0] {
            let z = Zipf::new(50, s);
            let sum: f64 = (0..50).map(|k| z.pmf(k)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "s={s}: sum={sum}");
        }
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = Zipf::new(20, 1.0);
        for k in 1..20 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    #[test]
    fn zero_skew_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = Zipf::new(100, 0.9);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0usize; 10];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / draws as f64;
            let expect = z.pmf(k);
            assert!(
                (freq - expect).abs() < 0.01,
                "rank {k}: freq {freq} vs pmf {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_skew_rejected() {
        let _ = Zipf::new(5, -1.0);
    }
}
