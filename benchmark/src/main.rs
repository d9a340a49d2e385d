//! End-to-end + per-layer benchmark of the VoD simulator over its
//! contended operating modes. See `benchmark/README.md`.
//!
//! ```text
//! vod-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! vod-benchmark [--seed N] [--seconds S] [--out FILE]           all workloads, tables + summary JSON
//! vod-benchmark run-one --workload W --seed N [--traced|--null-sink]   one run in this process
//! vod-benchmark manifest                                        BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod layers;
mod manifest;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::Value;

use manifest::{EndToEnd, OverReps, END_TO_END, ESTIMATED_LAYERS, EXACT, RUN_SECONDS};
use run::{ChildOutput, Metrics};
use stats::Summary;
use workloads::{Workload, WORKLOADS};

/// Where the traced child writes `trace-<workload>.json` and the
/// all-workloads mode its summary, relative to the repository root the
/// benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

/// Timed repetitions of an end-to-end measurement: at least this many,
/// then more until `--seconds` have been measured, up to the cap.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 8;
/// Repetitions behind the per-layer run's baseline and its `NullSink`
/// twin: enough to compare their exact quantities.
const BASELINE_REPS: usize = 2;

struct Args {
    command: Option<String>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    traced: bool,
    null_sink: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: None,
        traced: false,
        null_sink: false,
        out: format!("{OUT_DIR}/summary.json"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "run-one" | "manifest" if args.command.is_none() => args.command = Some(arg),
            "--workload" => {
                let name = value("--workload")?;
                let found = workloads::find(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workload = Some(found);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("invalid --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--traced" => args.traced = true,
            "--null-sink" => args.null_sink = true,
            "--out" => args.out = value("--out")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vod-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), args.workload) {
        (Some("manifest"), _) => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        (Some(_), Some(workload)) => run_one(workload, &args),
        (Some(_), None) => Err("run-one requires --workload".to_string()),
        (None, Some(workload)) => driver_run(workload, &args),
        (None, None) => all_workloads(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vod-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `run-one`: one run in this process, one JSON line on stdout.
fn run_one(workload: &Workload, args: &Args) -> Result<bool, String> {
    let output: ChildOutput = if args.traced {
        let (metrics, doc) = trace::traced(workload, args.seed);
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name);
        write_json(&path, &doc)?;
        (metrics, Vec::new())
    } else {
        run::untraced(workload, args.seed, args.null_sink)
    };
    let line = serde_json::to_string(&output).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(true)
}

fn write_json(path: &str, doc: &Value) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text = serde_json::to_string(doc).map_err(std::io::Error::other)?;
        std::fs::write(path, text + "\n")
    };
    write().map_err(|e| format!("cannot write {path}: {e}"))
}

/// Spawns one `run-one` child of this executable and waits for it.
fn spawn_run_one(
    workload: &Workload,
    seed: u64,
    mode: Option<&str>,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run-one", "--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(mode)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn run-one: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run-one {} exited with {}",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("run-one {} output: {e}", workload.name))
}

/// What the correctness checks found, and the request accounting the
/// result line carries.
#[derive(Default)]
struct Checks {
    problems: Vec<String>,
    /// Arrivals driven through the simulator, over every run made.
    attempted: u64,
    /// Arrivals the simulator left without a closed outcome.
    failed: u64,
}

impl Checks {
    fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Every arrival reaches exactly one of completed, failed,
    /// rejected, aborted, unfinished.
    fn account(&mut self, what: &str, m: &Metrics) {
        let (arrivals, outcomes) = (m["workload.arrivals"], m["outcomes"]);
        self.attempted += arrivals as u64;
        self.failed += (arrivals - outcomes).abs() as u64;
        self.require(arrivals == outcomes, || {
            format!("{what}: {outcomes} closed outcomes for {arrivals} arrivals")
        });
    }

    fn all_finite(&mut self, what: &str, m: &Metrics) {
        for (name, value) in m {
            self.require(value.is_finite(), || format!("{what}: {name} is {value}"));
        }
    }
}

/// Repeated untraced runs of one (workload, seed).
struct EndToEndRuns {
    reps: Vec<Metrics>,
    /// Host seconds of the run with every slice at its fastest
    /// repetition (see [`OverReps::SliceMinima`]).
    run_s: f64,
}

impl EndToEndRuns {
    fn summary(&self, name: &str) -> Summary {
        let sample: Vec<f64> = self.reps.iter().map(|m| m[name]).collect();
        Summary::of(&sample)
    }

    fn value(&self, metric: &EndToEnd) -> f64 {
        let sample = self.summary(metric.name);
        match metric.over_reps {
            OverReps::SliceMinima => self.run_s,
            OverReps::Fastest => sample.min,
            OverReps::Median => sample.median,
        }
    }

    fn first(&self) -> &Metrics {
        &self.reps[0]
    }
}

/// Runs `workload` untraced in fresh child processes, one after
/// another: `min_reps`, then more while fewer than `seconds` have been
/// spent. Each child is one (workload, repetition), so its `VmHWM` is
/// that run's alone.
fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    min_reps: usize,
    null_sink: bool,
    checks: &mut Checks,
) -> Result<EndToEndRuns, String> {
    let what = workload.name;
    let started = Instant::now();
    let mut reps: Vec<Metrics> = Vec::new();
    let mut slices: Vec<Vec<f64>> = Vec::new();
    while reps.len() < min_reps || (reps.len() < MAX_REPS && started.elapsed().as_secs() < seconds)
    {
        let (rep, rep_slices) = spawn_run_one(workload, seed, null_sink.then_some("--null-sink"))?;
        checks.account(what, &rep);
        checks.all_finite(what, &rep);
        reps.push(rep);
        slices.push(rep_slices);
    }

    let first = &reps[0];
    for (i, m) in reps.iter().enumerate().skip(1) {
        for name in EXACT {
            // Bit-identical: both sides round-trip through shortest-
            // representation JSON.
            checks.require(m[name].to_bits() == first[name].to_bits(), || {
                format!(
                    "{what}: {name} is {} in rep 0 and {} in rep {i}",
                    first[name], m[name]
                )
            });
        }
    }
    // The slices are cut in simulated time, so their number is exact.
    let slice_count = slices[0].len();
    for (i, s) in slices.iter().enumerate().skip(1) {
        checks.require(s.len() == slice_count, || {
            format!(
                "{what}: {slice_count} slices in rep 0 and {} in rep {i}",
                s.len()
            )
        });
    }
    let run_ns: f64 = (0..slice_count)
        .map(|k| {
            slices
                .iter()
                .filter_map(|s| s.get(k))
                .fold(f64::INFINITY, |fastest, &ns| fastest.min(ns))
        })
        .sum();
    Ok(EndToEndRuns {
        reps,
        run_s: run_ns / 1e9,
    })
}

/// The traced run and the derived per-layer figures, against an
/// untraced baseline of the same (workload, seed).
fn per_layer(
    workload: &Workload,
    seed: u64,
    base: &EndToEndRuns,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let what = workload.name;
    let (traced, _) = spawn_run_one(workload, seed, Some("--traced"))?;
    checks.account(what, &traced);
    checks.all_finite(what, &traced);
    let mut m = base.first().clone();
    m.extend(traced.iter().map(|(k, v)| (k.clone(), *v)));

    // The clock stops at the last `run_until` deadline, which the
    // untraced run's slices and the traced run's steps set apart.
    for name in EXACT.into_iter().filter(|name| *name != "final_now_us") {
        checks.require(
            traced[name].to_bits() == base.first()[name].to_bits(),
            || {
                format!(
                    "{what}: {name} is {} untraced and {} traced",
                    base.first()[name],
                    traced[name]
                )
            },
        );
    }
    let busy_s: f64 = trace::STEP_KINDS
        .iter()
        .map(|kind| traced[&format!("core.step.{kind}.busy_s")])
        .sum();
    let stepped_s = traced["traced_stepped_s"];
    checks.require((busy_s - stepped_s).abs() <= 0.05 * stepped_s, || {
        format!("{what}: step spans cover {busy_s} s of a {stepped_s} s traced run")
    });

    m.insert("core.events_per_s".into(), m["core.events"] / base.run_s);
    // Shares set single plain timings (the traced run, the drivers'
    // unit costs) against a plain wall: the untraced repetitions'
    // median, not the slice-minimum `run_s`.
    let run_s = base.summary("run_s").median;
    m.insert(
        "core.trace_overhead_share".into(),
        (traced["traced_run_s"] - run_s) / run_s,
    );
    let steps: f64 = trace::STEP_KINDS
        .iter()
        .map(|kind| traced[&format!("core.step.{kind}.count")])
        .sum();
    let est_ns = [
        m["sim.flow.remote_fetches"] * m["sim.flow.add_remove_ns"]
            + m["sim.flow.background_updates"] * m["sim.flow.background_update_ns"]
            + steps * m["sim.flow.advance_ns"],
        m["core.events"] * m["sim.scheduler.push_pop_ns"],
        m["net.engine.path_cache_hits"] * m["net.engine.select_warm_ns"]
            + m["net.engine.dijkstra_runs"] * m["net.engine.select_cold_ns"],
        m["snmp.polls"] * m["snmp.poll_ns"],
        m["storage.dma.requests"] * m["storage.dma.on_request_ns"],
        m["storage.prefix.requests"] * m["storage.prefix.on_request_ns"],
    ];
    for (layer, ns) in ESTIMATED_LAYERS.iter().zip(est_ns) {
        m.insert(format!("{layer}.est_share"), ns / 1e9 / run_s);
    }

    // Measured, not estimated: the same scenario under `NullSink`.
    let overhead = if workload.sinks {
        let null = end_to_end(workload, seed, 0, BASELINE_REPS, true, checks)?;
        (base.run_s - null.run_s) / base.run_s
    } else {
        0.0
    };
    m.insert("obs.overhead_share".into(), overhead);
    let others: f64 = ESTIMATED_LAYERS
        .iter()
        .map(|layer| m[&format!("{layer}.est_share")])
        .sum();
    m.insert("core.est_self_share".into(), 1.0 - others - overhead);
    Ok(m)
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// One workload for the benchmark driver: the last stdout line is the
/// result object; a failed correctness check also fails the exit code.
fn driver_run(workload: &Workload, args: &Args) -> Result<bool, String> {
    let traced = args.trace.ok_or("--workload requires --trace 0|1")?;
    let mut checks = Checks::default();
    let metrics: Vec<(String, Value)> = if traced {
        let base = end_to_end(workload, args.seed, 0, BASELINE_REPS, false, &mut checks)?;
        let m = per_layer(workload, args.seed, &base, &mut checks)?;
        checks.all_finite(workload.name, &m);
        manifest::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let value = metric_value(m[&name], unit);
                (name, value)
            })
            .collect()
    } else {
        let runs = end_to_end(
            workload,
            args.seed,
            args.seconds,
            MIN_REPS,
            false,
            &mut checks,
        )?;
        eprintln!(
            "{}: {} repetitions, run_s {:?}, setup_s {:?}",
            workload.name,
            runs.reps.len(),
            runs.reps.iter().map(|m| m["run_s"]).collect::<Vec<_>>(),
            runs.reps.iter().map(|m| m["setup_s"]).collect::<Vec<_>>()
        );
        END_TO_END
            .iter()
            .map(|e| (e.name.to_string(), metric_value(runs.value(e), e.unit)))
            .collect()
    };
    for problem in &checks.problems {
        eprintln!("check failed: {problem}");
    }
    let correct = checks.problems.is_empty();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(checks.attempted)),
        ("failed".into(), Value::U64(checks.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, end to end and then traced, as tables on stdout and
/// a summary document (`--out`) that `aa.sh` compares.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let meta = vec![
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        (
            "git_head".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
        ("nproc".into(), Value::U64(nproc as u64)),
    ];
    for (key, value) in &meta {
        println!(
            "{key}: {}",
            serde_json::to_string(value).map_err(|e| e.to_string())?
        );
    }
    println!(
        "one process, one thread, runs strictly sequential; nothing contends for a shared \
         resource, so a faster layer saves at most its est_share of run_s. Per-step p99 is \
         reported because one 1 ms reallocation hides inside a 1 us median."
    );

    let mut checks = Checks::default();
    let mut documents = Vec::new();
    for workload in &WORKLOADS {
        println!(
            "\n== {} (seed {}) ==\n   {}",
            workload.name, args.seed, workload.why
        );
        let runs = end_to_end(
            workload,
            args.seed,
            args.seconds,
            MIN_REPS,
            false,
            &mut checks,
        )?;
        println!(
            "   end to end, tracing off, {} repetitions:",
            runs.reps.len()
        );
        let mut end_to_end_doc = Vec::new();
        for e in &END_TO_END {
            let s = runs.summary(e.name);
            let value = runs.value(e);
            println!(
                "   {:<18} {:>14.6} {:<6} (n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6})",
                e.name, value, e.unit, s.n, s.min, s.q1, s.median, s.q3, s.max
            );
            end_to_end_doc.push((
                e.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(e.unit.into())),
                    ("better".into(), Value::Str(e.better.into())),
                    ("bound".into(), Value::F64(e.bound)),
                    ("n".into(), Value::U64(s.n as u64)),
                    ("min".into(), Value::F64(s.min)),
                    ("q1".into(), Value::F64(s.q1)),
                    ("median".into(), Value::F64(s.median)),
                    ("q3".into(), Value::F64(s.q3)),
                    ("max".into(), Value::F64(s.max)),
                ]),
            ));
        }
        let exact: Vec<(String, Value)> = EXACT
            .iter()
            .map(|name| (name.to_string(), Value::F64(runs.first()[*name])))
            .collect();

        let m = per_layer(workload, args.seed, &runs, &mut checks)?;
        checks.all_finite(workload.name, &m);
        println!(
            "   per layer, traced run ({OUT_DIR}/trace-{}.json):",
            workload.name
        );
        let mut per_layer_doc = Vec::new();
        for (name, unit, _) in manifest::per_layer() {
            println!("   {:<36} {:>18.6} {}", name, m[&name], unit);
            per_layer_doc.push((name.clone(), metric_value(m[&name], unit)));
        }
        documents.push((
            workload.name.to_string(),
            Value::Object(vec![
                ("end_to_end".into(), Value::Object(end_to_end_doc)),
                ("exact".into(), Value::Object(exact)),
                ("per_layer".into(), Value::Object(per_layer_doc)),
            ]),
        ));
    }

    let summary = Value::Object(vec![
        ("meta".into(), Value::Object(meta)),
        ("workloads".into(), Value::Object(documents)),
    ]);
    write_json(&args.out, &summary)?;
    println!("\nsummary written to {}", args.out);
    for problem in &checks.problems {
        println!("check failed: {problem}");
    }
    println!(
        "{} arrivals simulated, {} without a closed outcome, {} failed checks",
        checks.attempted,
        checks.failed,
        checks.problems.len()
    );
    Ok(checks.problems.is_empty())
}
