//! Regenerates Table 1 (the VRA's input parameters) and works through the
//! Figure 4 link-validation example with live numbers.
//!
//! Run with: `cargo run -p vod-bench --bin table1`

use vod_bench::Table;
use vod_net::lvn::{LvnComputer, LvnParams};
use vod_net::topologies::grnet::{Grnet, GrnetLink, GrnetNode, TimeOfDay};

fn main() {
    println!("Table 1 — The parameters taken into consideration by the VRA\n");
    let mut t = Table::new(["Parameter", "Source"]);
    t.row([
        "SNMP statistics (links' used bandwidth, utilization %)",
        "The SNMP module (vod-snmp, polled into vod-db)",
    ]);
    t.row([
        "Total available network links' bandwidth",
        "Administrators (limited-access database module)",
    ]);
    t.row([
        "Available video titles on every server",
        "Administrators (limited-access database module)",
    ]);
    t.print();

    // Figure 4's worked example: validate one link, showing every term of
    // equations (1)-(4).
    let grnet = Grnet::new();
    let time = TimeOfDay::T0800;
    let snap = grnet.snapshot(time);
    let lvn = LvnComputer::new(grnet.topology(), &snap, LvnParams::default());
    let link = GrnetLink::PatraAthens;
    let id = grnet.link(link);
    let (a, b) = grnet.topology().link(id).endpoints();

    println!(
        "\nFigure 4 worked example — validating {} at {}:",
        link.label(),
        time.label()
    );
    println!(
        "  NV_{} = Σ UBW / Σ LBW over adjacent links = {:.4}      (eq. 2)",
        grnet.topology().node(a).name(),
        lvn.node_validation(a)
    );
    println!(
        "  NV_{} = Σ UBW / Σ LBW over adjacent links = {:.4}      (eq. 2)",
        grnet.topology().node(b).name(),
        lvn.node_validation(b)
    );
    println!(
        "  LV   = bandwidth / normalization constant = {:.4}      (eq. 4, N = {})",
        lvn.link_value(id),
        lvn.params().normalization_constant
    );
    println!(
        "  LU   = LT × LV = {:.4} × {:.4} = {:.4}                 (eq. 3)",
        snap.utilization(grnet.topology(), id).get(),
        lvn.link_value(id),
        lvn.link_utilization_term(id)
    );
    println!(
        "  LVN  = max(NV_a, NV_b) + LU = {:.4}                    (eq. 1)",
        lvn.lvn(id)
    );
    println!(
        "  paper's Table 3 value: {:.4}",
        grnet.paper_table3_lvn(link, time)
    );
    let _ = GrnetNode::ALL;
}
