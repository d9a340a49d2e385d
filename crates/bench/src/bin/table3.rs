//! Regenerates Table 3 (the Link Validation Numbers): equations (1)–(4)
//! computed over the Table 2 data, printed next to the paper's published
//! values with per-cell deltas.
//!
//! Run with: `cargo run -p vod-bench --bin table3`

use vod_bench::expected::TABLE3_TOLERANCE;
use vod_bench::Table;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::topologies::grnet::{Grnet, GrnetLink, TimeOfDay};

fn main() {
    let grnet = Grnet::new();
    println!("Table 3 — Link Validation Numbers (computed vs published)\n");

    let mut t = Table::new(["Link", "8am", "10am", "4pm", "6pm"]);
    let mut worst: (f64, &str, &str) = (0.0, "", "");
    for link in GrnetLink::ALL {
        let mut cells = vec![link.label().to_string()];
        for time in TimeOfDay::ALL {
            let snap = grnet.snapshot(time);
            let lvn = LvnComputer::new(grnet.topology(), &snap, LvnParams::default());
            let computed = lvn.lvn(grnet.link(link));
            let paper = grnet.paper_table3_lvn(link, time);
            let delta = computed - paper;
            if delta.abs() > worst.0.abs() {
                worst = (delta, link.label(), time.label());
            }
            cells.push(format!("{computed:.4} ({paper:.4}, Δ{delta:+.4})"));
        }
        t.row(cells);
    }
    t.print();

    println!("\ncell format: computed (published, Δ delta)");
    println!(
        "worst delta: {:+.4} on {} @ {}  — tolerance {} (the paper rounded intermediate NV values)",
        worst.0, worst.1, worst.2, TABLE3_TOLERANCE
    );

    let within = GrnetLink::ALL.iter().all(|&link| {
        TimeOfDay::ALL.iter().all(|&time| {
            let snap = grnet.snapshot(time);
            let lvn = LvnComputer::new(grnet.topology(), &snap, LvnParams::default());
            (lvn.lvn(grnet.link(link)) - grnet.paper_table3_lvn(link, time)).abs()
                <= TABLE3_TOLERANCE
        })
    });
    println!(
        "\nall 28 cells within tolerance: {}",
        if within { "YES" } else { "NO" }
    );
    std::process::exit(if within { 0 } else { 1 });
}
