//! E7 — the paper's *future work*: striping video strips across servers
//! by popularity, evaluated for availability and load spread.
//!
//! "The most popular technique that we have described will not be imposed
//! on whole videos but on video strips." [`DistributedLayout`] assigns
//! each strip to servers cyclically with a popularity-scaled replication
//! factor; this experiment measures (a) how availability under server
//! failures grows with popularity, and (b) how evenly strips spread.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_distributed [--seed N]`

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use vod_bench::cli::Options;
use vod_bench::Table;
use vod_storage::distributed::DistributedLayout;

const SERVERS: usize = 6; // the GRNET fleet
const PARTS: usize = 7; // a 700 MB video at c = 100 MB
const TRIALS: usize = 2_000;

/// Fraction of failure trials (killing `failures` random servers) in
/// which every strip of the video is still reachable.
fn availability(layout: &DistributedLayout, failures: usize, rng: &mut StdRng) -> f64 {
    let mut survivors: Vec<usize> = (0..SERVERS).collect();
    let mut ok = 0usize;
    for _ in 0..TRIALS {
        survivors.shuffle(rng);
        let alive = &survivors[..SERVERS - failures];
        if layout.available_with(alive) {
            ok += 1;
        }
    }
    ok as f64 / TRIALS as f64
}

fn main() {
    let opts = Options::from_env();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    println!(
        "E7 — popularity-scaled strip replication across {SERVERS} servers ({PARTS} strips)\n"
    );
    let mut t = Table::new([
        "popularity",
        "replicas",
        "avail (1 down)",
        "avail (2 down)",
        "avail (3 down)",
        "max server load (strips)",
    ]);
    for &pop in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let layout = DistributedLayout::by_popularity(PARTS, SERVERS, pop, SERVERS);
        let max_load = (0..SERVERS)
            .map(|s| layout.load_of_server(s))
            .max()
            .unwrap_or(0);
        t.row([
            format!("{pop:.2}"),
            layout.replicas().to_string(),
            format!("{:.1}%", availability(&layout, 1, &mut rng) * 100.0),
            format!("{:.1}%", availability(&layout, 2, &mut rng) * 100.0),
            format!("{:.1}%", availability(&layout, 3, &mut rng) * 100.0),
            max_load.to_string(),
        ]);
    }
    t.print();

    println!("\nWhole-video placement (today's DMA) vs strip placement (future work),");
    println!("single copy of a cold title, one random server down:");
    let whole_video_availability = (SERVERS - 1) as f64 / SERVERS as f64;
    let strips = DistributedLayout::by_popularity(PARTS, SERVERS, 0.0, SERVERS);
    let strip_availability = availability(&strips, 1, &mut rng);
    println!(
        "  whole-video: {:.1}%   strips: {:.1}%",
        whole_video_availability * 100.0,
        strip_availability * 100.0
    );
    println!("\n(single-copy strips are *less* available than a single-copy whole video —");
    println!(" losing any of the strip-holding servers breaks playback — which is exactly");
    println!(" why the future-work idea couples strip spreading WITH popularity replication)");
}
