//! Figure 6 regenerated: the GRNET backbone used by the case study —
//! node inventory, link inventory, and an ASCII rendering of the map.
//!
//! Run with: `cargo run -p vod-bench --bin fig6_topology`

use vod_bench::Table;
use vod_net::topologies::grnet::{Grnet, GrnetLink, GrnetNode, TimeOfDay};

fn main() {
    let grnet = Grnet::new();
    println!("Figure 6 — The Greek Research and Technology Network backbone\n");

    // A fixed ASCII map matching the geography of Figure 6.
    println!(
        r#"        Thessaloniki(U4) ------ Xanthi(U5)
        /        \                  \
       /          \                  \
  Ioannina(U3)     \                  \
       \            \                  \
        \            \                  \
      Patra(U2) --- Athens(U1) ----- Heraklio(U6)
"#
    );

    let mut nodes = Table::new(["label", "city", "degree", "adjacent links"]);
    for node in GrnetNode::ALL {
        let id = grnet.node(node);
        let adjacent: Vec<String> = grnet
            .topology()
            .adjacent(id)
            .iter()
            .map(|inc| {
                grnet
                    .grnet_link(inc.link)
                    .map(|l| l.label().to_string())
                    .unwrap_or_default()
            })
            .collect();
        nodes.row([
            node.u_label().to_string(),
            node.city().to_string(),
            grnet.topology().degree(id).to_string(),
            adjacent.join("; "),
        ]);
    }
    nodes.print();

    println!();
    let mut links = Table::new(["link", "capacity", "8am util", "6pm util"]);
    for link in GrnetLink::ALL {
        links.row([
            link.label().to_string(),
            link.capacity().to_string(),
            format!(
                "{}%",
                grnet.table2(link, TimeOfDay::T0800).utilization_percent
            ),
            format!(
                "{}%",
                grnet.table2(link, TimeOfDay::T1800).utilization_percent
            ),
        ]);
    }
    links.print();

    println!(
        "\n{} nodes, {} links, total capacity {}, connected: {}",
        grnet.topology().node_count(),
        grnet.topology().link_count(),
        grnet.topology().total_capacity(),
        grnet.topology().is_connected()
    );
}
