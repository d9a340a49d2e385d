//! The `vod-bench` command: the perf gate over the committed
//! `BENCH_*.json` baselines.
//!
//! ```text
//! cargo run -p vod-bench -- compare BASELINE CURRENT [BASELINE CURRENT]...
//! ```
//!
//! Each `BASELINE CURRENT` pair goes through
//! [`vod_bench::compare::compare_pair`]; every row is printed, and the
//! process exits 1, naming the ids, when a row is worse than the limit
//! its baseline gives it, is missing, is unrecorded or is not a finite
//! positive number. There are no options: what is gated and how tightly
//! is written in the baseline files.

use std::process::ExitCode;

use vod_bench::compare::compare_pair;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((command, files))
            if command == "compare" && !files.is_empty() && files.len() % 2 == 0 =>
        {
            run_compare(files)
        }
        _ => {
            eprintln!("usage: vod-bench compare <baseline> <current> [<baseline> <current>]...");
            ExitCode::from(2)
        }
    }
}

fn run_compare(files: &[String]) -> ExitCode {
    let mut failed = Vec::new();
    for pair in files.chunks(2) {
        let read = |path: &String| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        let report = read(&pair[0]).and_then(|baseline| {
            let current = read(&pair[1])?;
            compare_pair(&pair[0], &baseline, &pair[1], &current)
        });
        match report {
            Ok(report) => {
                print!("{}", report.render());
                failed.extend(report.failures().map(str::to_string));
            }
            Err(e) => {
                eprintln!("compare failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed.is_empty() {
        println!("verdict: OK");
        ExitCode::SUCCESS
    } else {
        println!("verdict: FAIL ({})", failed.join(", "));
        ExitCode::FAILURE
    }
}
