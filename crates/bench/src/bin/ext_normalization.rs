//! E4 — sensitivity of the VRA to the normalization constant of
//! equation (4) ("an integer with a value approaching 10") and to the
//! node-validation combiner of equation (1).
//!
//! The constant trades off the two terms of the LVN: small N inflates the
//! utilization term (routing chases idle links, ignoring node load),
//! large N suppresses it (routing follows node validations only).
//! Expectation: the case-study decisions are stable for N in a broad band
//! around 10, and max{} vs avg{} rarely changes the winner on GRNET.
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_normalization`

use vod_bench::expected::experiments;
use vod_bench::Table;
use vod_core::selection::SelectionContext;
use vod_core::vra::Vra;
use vod_net::lvn::{LvnParams, NodeCombiner};
use vod_net::topologies::grnet::Grnet;
use vod_net::NodeId;

fn main() {
    let grnet = Grnet::new();

    println!("E4 — VRA decisions on Experiments A–D vs normalization constant N\n");
    let mut t = Table::new(["N", "exp A", "exp B", "exp C", "exp D"]);
    for &n in &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
        let vra = Vra::new(LvnParams::with_normalization(n));
        let mut cells = vec![format!("{n}")];
        for exp in experiments() {
            let snapshot = grnet.snapshot(exp.time);
            let candidates: Vec<NodeId> = exp.candidates.iter().map(|&c| grnet.node(c)).collect();
            let ctx = SelectionContext {
                topology: grnet.topology(),
                snapshot: &snapshot,
                home: grnet.node(exp.home),
                candidates: &candidates,
            };
            let report = vra.select_with_report(&ctx).expect("GRNET is connected");
            cells.push(format!(
                "{} ({:.3})",
                grnet
                    .grnet_node(report.selection.server)
                    .expect("GRNET node")
                    .u_label(),
                report.selection.route.cost()
            ));
        }
        t.row(cells);
    }
    t.print();

    println!("\nNode-validation combiner ablation (N = 10):\n");
    let mut c = Table::new(["combiner", "exp A", "exp B", "exp C", "exp D"]);
    for combiner in [NodeCombiner::Max, NodeCombiner::Avg, NodeCombiner::Sum] {
        let vra = Vra::new(LvnParams {
            combiner,
            ..LvnParams::default()
        });
        let mut cells = vec![format!("{combiner:?}")];
        for exp in experiments() {
            let snapshot = grnet.snapshot(exp.time);
            let candidates: Vec<NodeId> = exp.candidates.iter().map(|&c| grnet.node(c)).collect();
            let ctx = SelectionContext {
                topology: grnet.topology(),
                snapshot: &snapshot,
                home: grnet.node(exp.home),
                candidates: &candidates,
            };
            let report = vra.select_with_report(&ctx).expect("GRNET is connected");
            cells.push(
                grnet
                    .grnet_node(report.selection.server)
                    .expect("GRNET node")
                    .u_label()
                    .to_string(),
            );
        }
        c.row(cells);
    }
    c.print();
    println!("\n(cells show the chosen server; costs in parentheses where relevant)");
}
