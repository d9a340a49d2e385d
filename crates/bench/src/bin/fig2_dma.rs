//! Figure 2 in action: the Disk Manipulation Algorithm replayed over a
//! Zipf request stream, with the decision trace and the resulting cache
//! behaviour, for both eviction modes.
//!
//! Run with: `cargo run -p vod-bench --bin fig2_dma [--seed N]`

use rand::rngs::StdRng;
use rand::SeedableRng;

use vod_bench::cli::Options;
use vod_bench::Table;
use vod_storage::cluster::ClusterSize;
use vod_storage::dma::{DmaCache, DmaConfig, DmaDecision, EvictionMode};
use vod_storage::video::{Megabytes, VideoId};
use vod_workload::library::{LibraryConfig, LibraryGenerator};
use vod_workload::zipf::Zipf;

fn main() {
    let opts = Options::from_env();
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 50,
        min_size_mb: 400.0,
        max_size_mb: 800.0,
        bitrate_mbps: 1.5,
    })
    .generate(opts.seed);
    let zipf = Zipf::new(library.len(), 0.9);
    let ids: Vec<VideoId> = library.ids().collect();

    // A cache that fits roughly 6 average titles.
    let config = DmaConfig {
        disk_count: 4,
        disk_capacity: Megabytes::new(900.0),
        cluster_size: ClusterSize::new(Megabytes::new(100.0)),
        admit_threshold: 0,
        eviction: EvictionMode::SingleAttempt,
    };
    let mut cache = DmaCache::new(config).expect("valid config");
    let mut rng = StdRng::seed_from_u64(opts.seed);

    println!("Figure 2 — DMA decision trace (first 15 requests):\n");
    let mut t = Table::new(["#", "video", "points", "decision"]);
    let requests = 2_000;
    for i in 0..requests {
        let video = library.get(ids[zipf.sample(&mut rng)]).expect("in library");
        let decision = cache.on_request(video);
        if i < 15 {
            let describe = match &decision {
                DmaDecision::Hit => "hit (point awarded)".to_string(),
                DmaDecision::Admitted { layout } => {
                    format!("admitted ({} parts striped over 4 disks)", layout.parts())
                }
                DmaDecision::AdmittedAfterEviction { evicted, .. } => {
                    format!("admitted after evicting {evicted:?}")
                }
                DmaDecision::NotAdmitted { reason, evicted } if !evicted.is_empty() => {
                    format!("not admitted ({reason:?} {{ evicted: {evicted:?} }})")
                }
                DmaDecision::NotAdmitted { reason, .. } => format!("not admitted ({reason:?})"),
            };
            t.row([
                (i + 1).to_string(),
                video.title().to_string(),
                cache.points(video.id()).to_string(),
                describe,
            ]);
        }
    }
    t.print();

    let stats = cache.stats();
    println!("\nAfter {requests} Zipf(0.9) requests:");
    println!(
        "  hit ratio {:.1}%  admissions {}  evictions {}  rejections {}",
        stats.hit_ratio() * 100.0,
        stats.admissions,
        stats.evictions,
        stats.rejections
    );
    println!("  resident titles: {:?}", cache.resident_ids());

    // Compare the two eviction modes over the same stream.
    println!("\nEviction-mode comparison (same stream, fresh caches):\n");
    let mut cmp = Table::new(["mode", "hit%", "admissions", "evictions", "rejections"]);
    for mode in [EvictionMode::SingleAttempt, EvictionMode::UntilFit] {
        let mut cache = DmaCache::new(DmaConfig {
            eviction: mode,
            ..config
        })
        .expect("valid config");
        let mut rng = StdRng::seed_from_u64(opts.seed);
        for _ in 0..requests {
            let video = library.get(ids[zipf.sample(&mut rng)]).expect("in library");
            cache.on_request(video);
        }
        let s = cache.stats();
        cmp.row([
            format!("{mode:?}"),
            format!("{:.1}", s.hit_ratio() * 100.0),
            s.admissions.to_string(),
            s.evictions.to_string(),
            s.rejections.to_string(),
        ]);
    }
    cmp.print();
}
