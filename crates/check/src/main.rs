//! `vod-check` — trace auditor.
//!
//! ```text
//! vod-check audit [--json] [--series SERIES.json] (--grnet | TRACE.jsonl ...)
//! vod-check help
//! ```
//!
//! `vod-check help` prints the contract: exit 0 when clean, 1 when any
//! finding was emitted, 2 on a usage or I/O error, and `--json` emits a
//! single object of the shape
//! `{"tool":"audit","findings":[{"rule","where","line","message"}],"stats":{...}}`.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vod_check::audit::{AuditSink, AuditSummary};
use vod_check::series::audit_series;
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_workload::scenario::Scenario;

const HELP: &str = "vod-check — trace auditing for the VoD workspace

USAGE:
    vod-check audit [--json] [--series SERIES.json] (--grnet | TRACE.jsonl ...)
    vod-check help

SUBCOMMANDS:
    audit     Replays a JSONL trace against reference implementations of
              the paper's invariants (A000-A016); --series reconciles a
              time-series export against the same run's trace (A013).
              A017 counts (and does not report) every catalog_remove
              that takes a title's last holder at a live server.
              A007 holds each session's lifecycle in order: at most one
              session_start; session_complete only after it; before it,
              a switch only at the first cluster to fetch; no event
              naming the session after its end.
              The source rules (wall clock, threads, HashMap/HashSet,
              unwrap/expect, panic macros, indexing, unsafe) are
              compiler lints: see clippy.toml.

OPTIONS:
    --json            Emit one JSON object instead of human-readable text.
    --series FILE     Reconcile FILE against the run's trace.
    --grnet           Replay the paper's GRNET case study in-process.

JSON SHAPE:
    {\"tool\":\"audit\",
     \"findings\":[{\"rule\":\"A005\",\"where\":\"run.jsonl\",\"line\":42,\"message\":\"...\"}],
     \"stats\":{...audit counters...}}
    `where` is a trace or series label; `line` is a trace line or
    window index.

EXIT CODES:
    0  clean — no findings
    1  at least one finding
    2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => run_audit(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: vod-check audit [--json] [--series SERIES.json] (--grnet | TRACE.jsonl ...)\n\
                 see `vod-check help` for the JSON shape and exit codes"
            );
            ExitCode::from(2)
        }
    }
}

/// One entry of the findings array.
struct Finding {
    rule: String,
    location: String,
    line: usize,
    message: String,
}

/// Prints the JSON object: findings array plus audit stats.
fn print_json(findings: &[Finding], stats: &[(&str, usize)]) {
    let mut out = String::from("{\"tool\":\"audit\",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"where\":{},\"line\":{},\"message\":{}}}",
            json_string(&f.rule),
            json_string(&f.location),
            f.line,
            json_string(&f.message)
        ));
    }
    out.push_str("],\"stats\":{");
    for (i, (k, v)) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{v}", json_string(k)));
    }
    out.push_str("}}");
    println!("{out}");
}

fn verdict(findings: usize) -> ExitCode {
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_audit(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut grnet = false;
    let mut series: Option<PathBuf> = None;
    let mut traces: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--grnet" => grnet = true,
            "--series" => match it.next() {
                Some(v) => series = Some(PathBuf::from(v)),
                None => return usage("--series needs a file"),
            },
            other if other.starts_with("--") => {
                return usage(&format!("unknown audit option `{other}`"))
            }
            path => traces.push(PathBuf::from(path)),
        }
    }
    if !grnet && traces.is_empty() {
        return usage("audit needs --grnet or at least one trace file");
    }
    if series.is_some() && (traces.len() > 1 || (grnet && !traces.is_empty())) {
        return usage("--series reconciles against exactly one run (--grnet or one trace)");
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut stats = trace_stats(&AuditSummary::default()).map(|(name, _)| (name, 0));
    let mut series_stats = [("windows", 0), ("totals_verified", 0)];
    // The last run audited, for --series to reconcile against.
    let mut series_trace: Option<(String, AuditSummary)> = None;
    if grnet {
        let label = "grnet-case-study".to_string();
        let summary = grnet_case_study_audit();
        collect_audit(&label, &summary, &mut findings, &mut stats, json);
        series_trace = Some((label, summary));
    }
    for path in traces {
        let summary = match audit_file(&path) {
            Ok(summary) => summary,
            Err(e) => {
                eprintln!("vod-check: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let label = path.display().to_string();
        collect_audit(&label, &summary, &mut findings, &mut stats, json);
        series_trace = Some((label, summary));
    }
    if let Some(series_path) = series {
        let series_text = match std::fs::read_to_string(&series_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("vod-check: cannot read {}: {e}", series_path.display());
                return ExitCode::from(2);
            }
        };
        let (trace_label, trace) =
            series_trace.expect("audit requires --grnet or a trace before this point");
        let label = format!("{} vs {trace_label}", series_path.display());
        let summary = audit_series(&series_text, &trace);
        series_stats[0].1 += summary.windows;
        series_stats[1].1 += summary.totals_verified;
        for v in &summary.violations {
            findings.push(Finding {
                rule: v.rule.to_string(),
                location: label.clone(),
                line: v.line,
                message: v.message.clone(),
            });
        }
        if !json {
            for v in &summary.violations {
                println!("{label}:window {}: [{}] {}", v.line, v.rule, v.message);
            }
            println!(
                "vod-check audit {label}: {} windows, {} totals verified, {} violations",
                summary.windows,
                summary.totals_verified,
                summary.violations.len()
            );
        }
    }
    if json {
        print_json(&findings, &[&stats[..], &series_stats[..]].concat());
    }
    verdict(findings.len())
}

/// One trace audit's counts, as `--json` names and sums them.
fn trace_stats(summary: &AuditSummary) -> [(&'static str, usize); 7] {
    [
        ("traces", 1),
        ("events", summary.events),
        ("selections_verified", summary.selections_verified),
        ("admits_verified", summary.admits_verified),
        ("evictions_verified", summary.evictions_verified),
        ("prefix_verified", summary.prefix_verified),
        ("last_copy_removals", summary.last_copy_removals),
    ]
}

/// Folds one trace's audit into the unified findings and stats; prints
/// the per-trace human summary unless in JSON mode.
fn collect_audit(
    label: &str,
    summary: &AuditSummary,
    findings: &mut Vec<Finding>,
    stats: &mut [(&str, usize); 7],
    json: bool,
) {
    for (total, (_, n)) in stats.iter_mut().zip(trace_stats(summary)) {
        total.1 += n;
    }
    for v in &summary.violations {
        findings.push(Finding {
            rule: v.rule.to_string(),
            location: label.to_string(),
            line: v.line,
            message: v.message.clone(),
        });
    }
    if !json {
        for v in &summary.violations {
            println!("{label}:{}: [{}] {}", v.line, v.rule, v.message);
        }
        println!(
            "vod-check audit {label}: {} events, {} selections / {} admits / {} evictions / {} prefix decisions verified, {} violations; {} last-copy removals (A017, counted)",
            summary.events,
            summary.selections_verified,
            summary.admits_verified,
            summary.evictions_verified,
            summary.prefix_verified,
            summary.violations.len(),
            summary.last_copy_removals
        );
    }
}

/// Streams a JSONL trace file line by line through an [`AuditSink`].
fn audit_file(path: &Path) -> std::io::Result<AuditSummary> {
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut sink = AuditSink::new();
    for line in file.lines() {
        sink.record_line(&line?);
    }
    Ok(sink.finish())
}

/// Runs the paper's GRNET case study (seed 42, VRA selector) with the
/// auditor as its sink.
fn grnet_case_study_audit() -> AuditSummary {
    let scenario = Scenario::grnet_case_study(42);
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
        AuditSink::new(),
    );
    let (_, sink) = service.run_full();
    sink.finish()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("vod-check: {msg} (see `vod-check help`)");
    ExitCode::from(2)
}
