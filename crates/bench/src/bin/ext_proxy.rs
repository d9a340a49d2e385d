//! E17 — hierarchical prefix-caching tier: the flash-crowd workload on
//! the flat paper topology vs the same workload with every regional
//! server fronting its clients with a popularity-sized prefix store
//! (DESIGN.md §17).
//!
//! Expectation: under the crowd's Zipf(2.0) skew the handful of hot
//! titles go prefix-resident almost immediately, so most sessions start
//! from the local proxy at proxy rate instead of waiting on a 2 Mbit
//! regional link — origin offload (megabits the backbone never carried)
//! and startup latency both improve measurably, at identical admission
//! behaviour otherwise (the tier is additive; the paper-exact flat run
//! is byte-identical to the default configuration).
//!
//! Run with: `cargo run --release -p vod-bench --bin ext_proxy
//! [--seed N] [--json <path>]` — `--json` writes the gate rows
//! `vod-bench compare` holds against the committed `BENCH_proxy.json`.

use vod_bench::compare::{rows_json, Direction, Row};
use vod_bench::Table;
use vod_core::service::{PrefixTierConfig, ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_core::ServiceReport;
use vod_workload::scenario::Scenario;

struct ProxyOptions {
    seed: u64,
    json: Option<String>,
}

fn parse_args() -> Result<ProxyOptions, String> {
    let mut opts = ProxyOptions {
        seed: 42,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().ok_or("--seed requires a value")?;
                opts.seed = value
                    .parse()
                    .map_err(|e| format!("invalid --seed value: {e}"))?;
            }
            "--json" => {
                opts.json = Some(args.next().ok_or("--json requires a path")?);
            }
            "--help" | "-h" => {
                return Err("usage: ext_proxy [--seed <u64>] [--json <path>]".into());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn run(scenario: &Scenario, config: ServiceConfig) -> ServiceReport {
    VodService::new(scenario, Box::new(Vra::default()), config).run()
}

/// The E17 pair: the flash crowd on the flat topology and with the
/// default prefix tier enabled, at the same seed.
fn run_pair(seed: u64) -> (ServiceReport, ServiceReport) {
    let scenario = Scenario::flash_crowd(seed);
    let flat = run(&scenario, ServiceConfig::default());
    let proxy = run(
        &scenario,
        ServiceConfig {
            prefix_tier: Some(PrefixTierConfig::default()),
            ..ServiceConfig::default()
        },
    );
    (flat, proxy)
}

/// The regression-gate rows, all derived from the deterministic
/// seed-42 pair: strictly positive, with per-row directions.
fn gate_rows(flat: &ServiceReport, proxy: &ServiceReport) -> Vec<Row> {
    use Direction::{HigherBetter, LowerBetter};
    let tier = proxy.prefix.expect("proxy run has the tier enabled");
    let flat_startup = flat.startup_summary().mean;
    let proxy_startup = proxy.startup_summary().mean;
    let sessions = tier.full_prefix_sessions as f64;
    vec![
        Row::new("proxy/offload_mbit", tier.served_mbit, HigherBetter),
        Row::new("proxy/hit_ratio", tier.hit_ratio(), HigherBetter),
        Row::new("proxy/full_prefix_sessions", sessions, HigherBetter),
        Row::new(
            "proxy/startup_speedup",
            flat_startup / proxy_startup,
            HigherBetter,
        ),
        Row::new("proxy/startup_mean_s", proxy_startup, LowerBetter),
    ]
}

fn main() {
    let opts = parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    println!("(seed: {})\n", opts.seed);
    println!("E17 — prefix tier vs flat paper topology, flash-crowd workload\n");

    let (flat, proxy) = run_pair(opts.seed);
    let tier = proxy.prefix.expect("proxy run has the tier enabled");

    let mut t = Table::new([
        "configuration",
        "completed",
        "failed",
        "aborted",
        "startup mean (s)",
        "prefix hit %",
        "offload (Mbit)",
    ]);
    for (name, report) in [("flat (paper)", &flat), ("prefix tier", &proxy)] {
        let (hit, offload) = match report.prefix {
            Some(p) => (
                format!("{:.1}%", p.hit_ratio() * 100.0),
                format!("{:.0}", p.served_mbit),
            ),
            None => ("-".into(), "-".into()),
        };
        t.row([
            name.to_string(),
            report.completed.len().to_string(),
            report.failed_requests.to_string(),
            report.aborted_sessions.to_string(),
            format!("{:.1}", report.startup_summary().mean),
            hit,
            offload,
        ]);
    }
    t.print();
    println!(
        "\n({} of {} sessions were fully prefix-resident and never touched the backbone)",
        tier.full_prefix_sessions,
        proxy.completed.len() as u64 + proxy.aborted_sessions
    );

    let rows = gate_rows(&flat, &proxy);
    for Row { id, value, .. } in &rows {
        if !(*value > 0.0 && value.is_finite()) {
            eprintln!("gate row {id} is not strictly positive: {value}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, rows_json(&rows)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("gate rows written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite determinism contract: at equal seed the proxy run —
    /// hit ratio, origin offload and everything else in the report — is
    /// identical across runs, and E17's headline effects (offload > 0,
    /// startup strictly faster than flat) hold.
    #[test]
    fn flash_crowd_proxy_metrics_are_deterministic_and_offload_origin() {
        let (flat_a, proxy_a) = run_pair(7);
        let (flat_b, proxy_b) = run_pair(7);
        assert_eq!(flat_a, flat_b, "flat run must be seed-deterministic");
        assert_eq!(proxy_a, proxy_b, "proxy run must be seed-deterministic");

        let tier = proxy_a.prefix.expect("tier enabled");
        assert!(tier.hit_ratio() > 0.0, "crowd must hit resident prefixes");
        assert!(tier.served_mbit > 0.0, "proxies must offload the origin");
        assert!(
            proxy_a.startup_summary().mean < flat_a.startup_summary().mean,
            "prefix startup ({}) should beat flat startup ({})",
            proxy_a.startup_summary().mean,
            flat_a.startup_summary().mean
        );
        for Row { id, value, .. } in gate_rows(&flat_a, &proxy_a) {
            assert!(value > 0.0 && value.is_finite(), "{id} = {value}");
        }
    }
}
