//! Analyzer timing benchmark: wall time of one full `vod-check
//! analyze` pass (source loading, lexing, item extraction, call-graph
//! reachability and determinism scans) over the real workspace tree.
//!
//! Run with: `cargo run --release -p vod-bench --bin check_analyze
//! [--root DIR] [--iters N] [--json FILE] [--gate BUDGET_SECS]`
//!
//! Emits a criterion-format summary (`[{id, min_ns, mean_ns, max_ns}]`)
//! under the id `check/analyze`, so the committed `BENCH_obs.json`
//! baseline and `vod-bench compare --only check/` catch an analyzer
//! that quietly turns superlinear as the workspace grows. `--gate`
//! additionally fails the run when the mean pass exceeds the given
//! wall budget (the CI gate holds it under 2 s).

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vod_check::analyze::analyze;
use vod_check::lint::{workspace_sources, Allowlist};

struct Options {
    root: PathBuf,
    iters: usize,
    json: Option<String>,
    gate_secs: Option<f64>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        root: PathBuf::from("."),
        iters: 5,
        json: None,
        gate_secs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--iters" => {
                opts.iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => opts.json = Some(args.next().unwrap_or_else(|| usage())),
            "--gate" => {
                opts.gate_secs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    if opts.iters == 0 {
        usage();
    }
    opts
}

fn usage() -> ! {
    eprintln!("usage: check_analyze [--root DIR] [--iters N] [--json FILE] [--gate BUDGET_SECS]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let opts = parse_args();
    let allow_path = opts.root.join("crates/check/lint_allow.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    };

    // Timed end-to-end, including the source scan: the 2 s budget is on
    // what a CI gate or a pre-commit hook actually waits for.
    let mut samples_ns = Vec::with_capacity(opts.iters);
    let mut findings = 0usize;
    let mut fns = 0usize;
    for _ in 0..opts.iters {
        let started = Instant::now();
        let files = match workspace_sources(&opts.root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot scan {}: {e}", opts.root.display());
                return ExitCode::from(2);
            }
        };
        let outcome = analyze(&files, &allow);
        samples_ns.push(started.elapsed().as_nanos() as f64);
        findings = outcome.findings.len();
        fns = outcome.fns;
    }

    let min = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples_ns.iter().copied().fold(0.0f64, f64::max);
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;

    let summary = format!(
        "[\n  {{\"id\": \"check/analyze\", \"min_ns\": {min:.0}, \"mean_ns\": {mean:.0}, \"max_ns\": {max:.0}}}\n]\n"
    );
    println!(
        "check/analyze: {} fns, {} findings; {:.1} ms mean over {} iters ({:.1}..{:.1} ms)",
        fns,
        findings,
        mean / 1e6,
        opts.iters,
        min / 1e6,
        max / 1e6
    );
    if let Some(path) = &opts.json {
        match File::create(path).and_then(|mut f| f.write_all(summary.as_bytes())) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(budget) = opts.gate_secs {
        if mean / 1e9 > budget {
            eprintln!(
                "GATE FAIL: analyze mean {:.2} s exceeds the {budget:.2} s budget",
                mean / 1e9
            );
            return ExitCode::FAILURE;
        }
        println!("gate ok: {:.2} s <= {budget:.2} s", mean / 1e9);
    }
    ExitCode::SUCCESS
}
