//! E1 — DMA cache hit ratio vs cache size and popularity skew, against
//! LRU and LFU baselines (DESIGN.md §4, extended evaluation).
//!
//! Expectation: with the Figure 2 admission rule (admit when space, evict
//! only less-popular victims) the DMA behaves like a frequency-protected
//! cache — close to LFU, clearly ahead of LRU under strong skew, behind
//! LRU when popularity is flat (where recency is all there is).
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_cache [--seed N]`

use rand::rngs::StdRng;
use rand::SeedableRng;

use vod_bench::caches::{DmaTitleCache, LfuTitleCache, LruTitleCache, TitleCache};
use vod_bench::cli::Options;
use vod_bench::Table;
use vod_storage::cluster::ClusterSize;
use vod_storage::dma::{DmaCache, DmaConfig, EvictionMode};
use vod_storage::video::{Megabytes, VideoId};
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::zipf::Zipf;

const REQUESTS: usize = 20_000;

fn run_policy(
    cache: &mut dyn TitleCache,
    stream: &[VideoId],
    library: &vod_storage::video::VideoLibrary,
) -> f64 {
    let mut hits = 0usize;
    for &id in stream {
        let video = library.get(id).expect("stream ids come from the library");
        if cache.request(video) {
            hits += 1;
        }
    }
    hits as f64 / stream.len() as f64
}

fn main() {
    let opts = Options::from_env();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 200,
        min_size_mb: 500.0,
        max_size_mb: 500.0, // uniform sizes isolate the policy effect
        bitrate_mbps: 1.5,
    })
    .generate(opts.seed);
    let ids: Vec<VideoId> = library.ids().collect();
    let total_mb = library.total_size().as_f64();

    println!("E1 — title-cache hit ratio, {REQUESTS} requests over 200 × 500 MB titles\n");
    let mut t = Table::new([
        "zipf s",
        "cache/library",
        "dma (single)",
        "dma (until-fit)",
        "lfu",
        "lru",
    ]);

    for &skew in &[0.0, 0.6, 0.9, 1.2] {
        let zipf = Zipf::new(library.len(), skew);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let stream: Vec<VideoId> = (0..REQUESTS).map(|_| ids[zipf.sample(&mut rng)]).collect();

        for &fraction in &[0.05, 0.10, 0.25] {
            let budget = total_mb * fraction;
            let dma_config = |eviction| DmaConfig {
                disk_count: 4,
                disk_capacity: Megabytes::new(budget / 4.0),
                cluster_size: ClusterSize::new(Megabytes::new(100.0)),
                admit_threshold: 0,
                eviction,
            };
            let mut dma_single =
                DmaTitleCache::new(DmaCache::new(dma_config(EvictionMode::SingleAttempt)).unwrap());
            let mut dma_fit =
                DmaTitleCache::new(DmaCache::new(dma_config(EvictionMode::UntilFit)).unwrap());
            let mut lfu = LfuTitleCache::new(Megabytes::new(budget));
            let mut lru = LruTitleCache::new(Megabytes::new(budget));

            t.row([
                format!("{skew:.1}"),
                format!("{:.0}%", fraction * 100.0),
                format!(
                    "{:.1}%",
                    run_policy(&mut dma_single, &stream, &library) * 100.0
                ),
                format!(
                    "{:.1}%",
                    run_policy(&mut dma_fit, &stream, &library) * 100.0
                ),
                format!("{:.1}%", run_policy(&mut lfu, &stream, &library) * 100.0),
                format!("{:.1}%", run_policy(&mut lru, &stream, &library) * 100.0),
            ]);
        }
    }
    t.print();
    println!("\n(dma single = Figure 2 verbatim; until-fit = multi-eviction ablation)");
}
