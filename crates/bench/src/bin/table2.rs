//! Regenerates Table 2 (the GRNET network status): the recorded readings
//! embedded from the paper, plus the same table *regenerated* through the
//! simulation stack (diurnal background model → fluid network → SNMP
//! counters → database readings) to show the substitution is faithful.
//!
//! Run with: `cargo run -p vod-bench --bin table2`

use vod_bench::Table;
use vod_db::Database;
use vod_net::topologies::grnet::{Grnet, GrnetLink, TimeOfDay};
use vod_sim::flow::FlowNetwork;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_snmp::SnmpSystem;
use vod_storage::video::VideoLibrary;

fn main() {
    let grnet = Grnet::new();

    println!("Table 2 — The network status (as recorded in the paper)\n");
    let mut t = Table::new(["Link", "8am", "10am", "4pm", "6pm"]);
    for link in GrnetLink::ALL {
        let mut cells = vec![format!("{} ({} link)", link.label(), link.capacity())];
        for time in TimeOfDay::ALL {
            let cell = grnet.table2(link, time);
            cells.push(format!(
                "{:.4} Mb / {}%",
                cell.traffic.as_f64(),
                cell.utilization_percent
            ));
        }
        t.row(cells);
    }
    t.print();

    // Regeneration: drive the diurnal background model through the SNMP
    // pipeline and read the utilizations back out of the database.
    println!("\nRegenerated via simulation (background model → SNMP poll → database):\n");
    let mut model = BackgroundModel::grnet_table2(&grnet);
    let mut table = Table::new(["Link", "8am", "10am", "4pm", "6pm"]);
    let mut rows: Vec<Vec<String>> = GrnetLink::ALL
        .iter()
        .map(|l| vec![l.label().to_string()])
        .collect();
    let mut worst_delta: f64 = 0.0;

    for time in TimeOfDay::ALL {
        // Fresh pipeline per sampled time: one 2-minute poll window
        // centred on the sampled instant.
        let mut db = Database::from_topology(grnet.topology(), VideoLibrary::new());
        let mut net = FlowNetwork::new(grnet.topology().clone());
        let mut snmp = SnmpSystem::new(grnet.topology(), SimDuration::from_mins(2));
        let at = SimTime::from_secs(time.hour() as u64 * 3600);
        snmp.reset_epoch(at);
        model.apply(&mut net, at);
        let _ = net.advance(SimDuration::from_mins(2));
        snmp.sync_counters(&net);
        let poll_at = at + SimDuration::from_mins(2);
        snmp.poll(grnet.topology(), &mut db, poll_at).unwrap();

        let admin = db.limited_access();
        for (i, link) in GrnetLink::ALL.iter().enumerate() {
            let reading = admin
                .link(grnet.link(*link))
                .unwrap()
                .last_reading()
                .expect("polled");
            let printed = grnet.table2(*link, time).utilization_percent;
            let regenerated = reading.utilization.as_percent();
            worst_delta = worst_delta.max((regenerated - printed).abs());
            rows[i].push(format!("{regenerated:.2}%"));
        }
    }
    for row in rows {
        table.row(row);
    }
    table.print();
    println!(
        "\nLargest |regenerated − printed| utilization delta: {worst_delta:.3} percentage points"
    );
    println!("(the paper rounds its printed percentages; the traffic volumes are exact)");
}
