//! Figure 3 regenerated: the cyclic disk-striping layout for both cases
//! the paper describes (`n > p` and `n < p`), plus the parallel-read
//! scaling that motivates "the use of as many disks as possible".
//!
//! Run with: `cargo run -p vod-bench --bin fig3_striping`

use vod_bench::Table;
use vod_storage::cluster::ClusterSize;
use vod_storage::io_model::DiskIoModel;
use vod_storage::striping::StripeLayout;
use vod_storage::video::Megabytes;

fn layout_table(parts: usize, disks: usize) {
    let layout = StripeLayout::cyclic(parts, disks);
    let mut t = Table::new(["disk", "parts stored"]);
    for d in 0..disks {
        let parts = layout.parts_on_disk(d);
        t.row([
            format!("disk {}", d + 1),
            if parts.is_empty() {
                "-".to_string()
            } else {
                parts
                    .iter()
                    .map(|p| format!("part {}", p + 1))
                    .collect::<Vec<_>>()
                    .join(", ")
            },
        ]);
    }
    t.print();
    println!(
        "  imbalance: {} part(s); disks used: {}\n",
        layout.imbalance(),
        layout.disks_used()
    );
}

fn main() {
    let cluster = ClusterSize::new(Megabytes::new(100.0));
    println!("Figure 3 — cyclic data striping (c = {cluster})\n");

    println!("Case n > p: a 300 MB video (p = 3) on n = 8 disks");
    println!("(\"one video part is stored in each one of the first p hard disks\"):\n");
    layout_table(cluster.parts(Megabytes::new(300.0)), 8);

    println!("Case n < p: a 700 MB video (p = 7) on n = 3 disks");
    println!("(\"the rest p−n parts are distributed to the same disks starting from disk 1\"):\n");
    layout_table(cluster.parts(Megabytes::new(700.0)), 3);

    // Parallel read scaling.
    println!("Parallel read throughput of a 700 MB video vs number of disks");
    println!("(period disk model: 9 ms seek, 12 MB/s sustained):\n");
    let io = DiskIoModel::default();
    let size = Megabytes::new(700.0);
    let mut t = Table::new(["disks", "read time (s)", "throughput (MB/s)", "speedup"]);
    let base = io.striped_read_secs(&StripeLayout::for_video(size, cluster, 1), size);
    for disks in [1usize, 2, 4, 7, 8, 16] {
        let layout = StripeLayout::for_video(size, cluster, disks);
        let secs = io.striped_read_secs(&layout, size);
        t.row([
            disks.to_string(),
            format!("{secs:.2}"),
            format!("{:.1}", io.striped_throughput_mb_per_s(&layout, size)),
            format!("{:.2}x", base / secs),
        ]);
    }
    t.print();
    println!("\n(speedup saturates at p = 7 disks: a video has only p parts to parallelize)");
}
