//! E1's LRU baseline against Che's approximation.
//!
//! Requests drawn i.i.d. from a Zipf law over `n` equal-size titles
//! (the independent reference model), against an LRU cache that holds
//! exactly `C` of them. Che's characteristic-time approximation gives
//! the hit ratio as `Σ pᵢ (1 − e^{−pᵢ T})`, where `T` solves
//! `Σ (1 − e^{−pᵢ T}) = C`: a title is resident when it was requested
//! within the last `T` requests, and `T` is the window in which `C`
//! distinct titles are requested on average.

use rand::{rngs::StdRng, SeedableRng};
use vod_bench::caches::{LruTitleCache, TitleCache};
use vod_storage::video::{Megabytes, VideoId, VideoMeta};
use vod_workload::Zipf;

/// Che's characteristic time: the `T` at which `Σ (1 − e^{−pᵢ T})`
/// reaches `capacity`, by bisection (the sum grows with `T`).
fn characteristic_time(pmf: &[f64], capacity: usize) -> f64 {
    let filled = |t: f64| pmf.iter().map(|p| 1.0 - (-p * t).exp()).sum::<f64>();
    let (mut lo, mut hi) = (0.0, 1.0);
    while filled(hi) < capacity as f64 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if filled(mid) < capacity as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// LRU's hit ratio under i.i.d. Zipf(0.8) requests over 100 equal
/// titles, with room for exactly 10, against Che's approximation. Each
/// seed draws 200 000 requests and measures after the first 1 000 (an
/// LRU cache forgets its start within a few characteristic times). The
/// tolerance and seeds are fixed in EXPERIMENTS.md ("Cache hit ratio
/// under Zipf"), from seeds 1–8.
#[test]
fn lru_hit_ratio_matches_ches_approximation() {
    const SEEDS: [u64; 4] = [1, 2, 3, 4];
    const TOLERANCE: f64 = 0.005;
    const TITLES: usize = 100;
    const CAPACITY: usize = 10;
    const REQUESTS: usize = 200_000;
    const WARM_UP: usize = 1_000;
    let size = Megabytes::new(100.0);
    let titles: Vec<VideoMeta> = (0..TITLES as u32)
        .map(|i| VideoMeta::new(VideoId::new(i), format!("t{i}"), size, 1.5))
        .collect();
    let zipf = Zipf::new(TITLES, 0.8);
    let pmf: Vec<f64> = (0..TITLES).map(|rank| zipf.pmf(rank)).collect();
    let t = characteristic_time(&pmf, CAPACITY);
    let predicted: f64 = pmf.iter().map(|p| p * (1.0 - (-p * t).exp())).sum();
    for seed in SEEDS {
        // Room for `CAPACITY` titles and half of another.
        let mut lru = LruTitleCache::new(Megabytes::new(size.as_f64() * (CAPACITY as f64 + 0.5)));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0usize;
        for n in 0..REQUESTS {
            let hit = lru.request(&titles[zipf.sample(&mut rng)]);
            if n >= WARM_UP {
                hits += usize::from(hit);
            }
        }
        let resident = titles.iter().filter(|v| lru.contains(v.id())).count();
        assert_eq!(resident, CAPACITY, "seed {seed}");
        let measured = hits as f64 / (REQUESTS - WARM_UP) as f64;
        assert!(
            (measured - predicted).abs() <= TOLERANCE,
            "seed {seed}: hit ratio {measured:.4}, Che's approximation gives {predicted:.4} (T = {t:.2})"
        );
    }
}
