//! A/B runner over two builds of the `vod-benchmark` package: runs
//! them in alternating pairs and says, per workload and end-to-end
//! metric, whether the head moved.
//!
//! ```text
//! ab --base <vod-benchmark exe> --head <exe> [--workloads a,b] [--pairs N]
//!    [--seed S] [--seconds S] [--trace]
//! ```
//!
//! Pair `i` runs base first when `i` is even and head first when it is
//! odd, each as `<exe> --workload W --seed S --seconds S --trace 0`, and
//! reads the JSON line the run prints last. Per workload and metric it
//! prints each side's median [q1, q3], the head/base ratio of the
//! medians, the pairs the head won (ties count for neither side) and the
//! two-sided sign-test p of those wins. The verdict is "faster"
//! ("better" for a metric not in seconds) only when at least ten pairs
//! ran, the head won at least nine tenths of them and the medians lie
//! further apart than the base's quartile spread; "slower" ("worse") by the same rule the
//! other way; "equal" when every run of both sides read the same value;
//! otherwise "unresolved". A side whose quartile spread exceeds the
//! metric's bound in the benchmark's manifest is flagged `spread>bound`.
//!
//! `--trace` then runs `--trace 1` once per side and compares every
//! per-layer quantity in a simulated unit (counts, bytes, ratios,
//! simulated seconds, Mbit); any difference fails the exit code. The
//! host-time quantities are printed side by side.
//!
//! The workloads, metrics, directions and bounds come from `<base>
//! manifest`; the runner reads nothing but the two builds' output.
//! Run it from the repository root: a traced run writes under
//! `benchmark/out/`.

use std::process::{Command, ExitCode};

use serde::Value;

/// Per-layer units whose quantities are simulated, so they repeat
/// exactly for a seed: any head/base difference is a behaviour change.
const EXACT_UNITS: [&str; 5] = ["count", "B", "ratio", "sim_s", "Mbit"];

struct Args {
    base: String,
    head: String,
    workloads: Option<Vec<String>>,
    pairs: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        base: String::new(),
        head: String::new(),
        workloads: None,
        pairs: 10,
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} requires a value"));
        let number = |name: &str, text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("invalid {name}: {e}"))
        };
        match arg.as_str() {
            "--base" => args.base = value("--base")?,
            "--head" => args.head = value("--head")?,
            "--workloads" => {
                let list = value("--workloads")?;
                args.workloads = Some(list.split(',').map(str::to_string).collect());
            }
            "--pairs" => args.pairs = number("--pairs", value("--pairs")?)? as usize,
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => args.trace = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.base.is_empty() || args.head.is_empty() {
        return Err("usage: ab --base <exe> --head <exe> [--workloads a,b] [--pairs N] [--seed S] [--seconds S] [--trace]".into());
    }
    if args.pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    Ok(args)
}

/// Runs `exe` with `args` and parses what it prints: the last line of
/// a run, the whole document for `manifest`.
fn run_json(exe: &str, args: &[&str]) -> Result<Value, String> {
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {exe}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{exe} {} exited with {}",
            args.join(" "),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = if args == ["manifest"] {
        &stdout
    } else {
        stdout.lines().last().unwrap_or_default()
    };
    serde_json::from_str(json).map_err(|e| format!("{exe} {}: {e}", args.join(" ")))
}

/// `metric name → value` of a result line; an incorrect run is an error.
fn metrics(result: &Value) -> Result<Vec<(String, f64)>, String> {
    if result.get_field("correct").and_then(Value::as_bool) != Some(true) {
        return Err("a run failed its correctness checks".into());
    }
    let fields = result
        .get_field("metrics")
        .and_then(Value::as_object)
        .ok_or("a result line without \"metrics\"")?;
    Ok(fields
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get_field("value")?.as_f64()?)))
        .collect())
}

fn lookup(metrics: &[(String, f64)], name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .ok_or(format!("no metric {name:?} in a result line"))
}

/// One end-to-end metric of the manifest.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// What the runner reads of `<exe> manifest`.
struct Manifest {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    /// `(name, unit)` of each per-layer metric.
    per_layer: Vec<(String, String)>,
}

fn manifest(exe: &str) -> Result<Manifest, String> {
    let doc = run_json(exe, &["manifest"])?;
    let field = |v: &Value, name: &str| {
        v.get_field(name)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("manifest entry without {name:?}"))
    };
    let list = |name: &str| {
        doc.get_field(name)
            .and_then(Value::as_array)
            .ok_or(format!("manifest without {name:?}"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m
                    .get_field("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end-to-end metric without a bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
        .collect::<Result<_, String>>()?;
    Ok(Manifest {
        workloads,
        end_to_end,
        per_layer,
    })
}

/// Median and quartiles by Python's `statistics.quantiles(n=4)`
/// (the exclusive method), as the benchmark's own summaries.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(1), quartile(2), quartile(3))
}

/// Two-sided sign-test p for `wins` against `losses` (ties dropped).
fn sign_test_p(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    let k = wins.min(losses);
    // P(X <= k) for X ~ Binomial(n, 1/2), term by term.
    let (mut term, mut tail) = (0.5f64.powi(n as i32), 0.0);
    for i in 0..=k {
        tail += term;
        term *= (n - i) as f64 / (i + 1) as f64;
    }
    (2.0 * tail).min(1.0)
}

/// Head against base on one metric, pair by pair.
struct Verdict {
    wins: usize,
    losses: usize,
    word: &'static str,
}

fn verdict(base: &[f64], head: &[f64], lower_is_better: bool, in_seconds: bool) -> Verdict {
    let better = |h: f64, b: f64| if lower_is_better { h < b } else { h > b };
    let wins = head
        .iter()
        .zip(base)
        .filter(|(h, b)| better(**h, **b))
        .count();
    let losses = head
        .iter()
        .zip(base)
        .filter(|(h, b)| better(**b, **h))
        .count();
    let (bq1, bmed, bq3) = quartiles(base);
    let (_, hmed, _) = quartiles(head);
    let apart = (hmed - bmed).abs() > bq3 - bq1;
    // A gain needs ten pairs at least; fewer decide nothing.
    let most = |n: usize| base.len() >= 10 && 10 * n >= 9 * base.len();
    let word = if base
        .iter()
        .chain(head)
        .all(|v| v.to_bits() == base[0].to_bits())
    {
        "equal"
    } else if most(wins) && apart {
        if in_seconds {
            "faster"
        } else {
            "better"
        }
    } else if most(losses) && apart {
        if in_seconds {
            "slower"
        } else {
            "worse"
        }
    } else {
        "unresolved"
    };
    Verdict { wins, losses, word }
}

/// `median [q1, q3]`, and whether the quartile spread exceeds `bound`
/// as a share of the median.
fn summary(values: &[f64], bound: f64) -> (String, bool) {
    let (q1, med, q3) = quartiles(values);
    (
        format!("{med:.4} [{q1:.4}, {q3:.4}]"),
        q3 - q1 > bound * med.abs(),
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let Manifest {
        workloads: all,
        end_to_end,
        per_layer,
    } = manifest(&args.base)?;
    let workloads = args.workloads.clone().unwrap_or(all);
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    println!(
        "ab: {} pairs, seed {seed}, --seconds {seconds}; base {}, head {}",
        args.pairs, args.base, args.head
    );
    let mut identical = true;
    for workload in &workloads {
        let run_side = |exe: &str, trace: &str| {
            let argv = [
                "--workload",
                workload,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ];
            run_json(exe, &argv).and_then(|v| metrics(&v))
        };
        // values[side][metric][pair], side 0 = base.
        let mut values = vec![vec![Vec::new(); end_to_end.len()]; 2];
        for pair in 0..args.pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let exe = if side == 0 { &args.base } else { &args.head };
                let m = run_side(exe, "0")?;
                for (k, metric) in end_to_end.iter().enumerate() {
                    values[side][k].push(lookup(&m, &metric.name)?);
                }
            }
            eprintln!("ab: {workload}: pair {}/{} done", pair + 1, args.pairs);
        }
        for (k, metric) in end_to_end.iter().enumerate() {
            let (base, head) = (&values[0][k], &values[1][k]);
            let v = verdict(base, head, metric.lower_is_better, metric.unit == "s");
            let (b, b_wide) = summary(base, metric.bound);
            let (h, h_wide) = summary(head, metric.bound);
            let flag = |wide: bool| if wide { " spread>bound" } else { "" };
            println!(
                "{workload} {}: base {b}{} head {h}{} head/base {:.3} wins {}/{} (losses {}) p {:.4} -> {}",
                metric.name,
                flag(b_wide),
                flag(h_wide),
                quartiles(head).1 / quartiles(base).1,
                v.wins,
                args.pairs,
                v.losses,
                sign_test_p(v.wins, v.losses),
                v.word
            );
        }
        if args.trace {
            let (base, head) = (run_side(&args.base, "1")?, run_side(&args.head, "1")?);
            let mut same = true;
            for (name, unit) in &per_layer {
                let (b, h) = (lookup(&base, name)?, lookup(&head, name)?);
                if EXACT_UNITS.contains(&unit.as_str()) {
                    if b.to_bits() != h.to_bits() {
                        same = false;
                        println!("{workload} {name}: base {b} head {h} DIFFERS");
                    }
                } else {
                    println!("{workload} {name} ({unit}): base {b:.6} head {h:.6}");
                }
            }
            if same {
                println!("{workload}: every simulated per-layer quantity is identical");
            }
            identical &= same;
        }
    }
    Ok(identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn sign_test_matches_the_binomial_tail() {
        assert_eq!(sign_test_p(5, 5), 1.0);
        // 2 * (1 + 10) / 1024
        assert!((sign_test_p(9, 1) - 22.0 / 1024.0).abs() < 1e-12);
        assert!((sign_test_p(0, 10) - 2.0 / 1024.0).abs() < 1e-12);
        assert_eq!(sign_test_p(0, 0), 1.0);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_medians_apart() {
        let base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01];
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert_eq!(verdict(&base, &faster, true, true).word, "faster");
        assert_eq!(verdict(&faster, &base, true, true).word, "slower");
        assert_eq!(verdict(&base, &faster, false, false).word, "worse");
        // Nine wins, but by less than the base's spread.
        let close: Vec<f64> = base.iter().map(|b| b - 0.001).collect();
        assert_eq!(verdict(&base, &close, true, true).word, "unresolved");
        // Medians far apart, but only eight wins.
        let mut mixed = faster.clone();
        mixed[0] = 2.0;
        mixed[1] = 2.0;
        assert_eq!(verdict(&base, &mixed, true, true).word, "unresolved");
        assert_eq!(verdict(&[1.0; 10], &[1.0; 10], false, false).word, "equal");
        assert_eq!(
            verdict(&base[..9], &faster[..9], true, true).word,
            "unresolved"
        );
    }
}
