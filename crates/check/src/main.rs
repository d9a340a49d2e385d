//! `vod-check` — semantic analyzer and trace auditor.
//!
//! ```text
//! vod-check analyze [--root DIR] [--allowlist FILE] [--json]
//! vod-check audit   [--json] [--series SERIES.json] (--grnet | TRACE.jsonl ...)
//! vod-check help
//! ```
//!
//! Both subcommands share one contract (`vod-check help` prints
//! it): exit 0 when clean, 1 when any finding was emitted, 2 on a
//! usage or I/O error, and `--json` emits a single object of the shape
//! `{"tool":...,"findings":[{"rule","where","line","message"}],"stats":{...}}`.

use std::path::PathBuf;
use std::process::ExitCode;

use vod_check::analyze::analyze;
use vod_check::audit::{audit_trace, AuditSummary};
use vod_check::series::audit_series;
use vod_check::source::{workspace_sources, Allowlist};
use vod_core::service::{ServiceConfig, VodService};
use vod_core::vra::Vra;
use vod_obs::JsonlWriter;
use vod_workload::scenario::Scenario;

const HELP: &str = "vod-check — static analysis and trace auditing for the VoD workspace

USAGE:
    vod-check analyze [--root DIR] [--allowlist FILE] [--json]
    vod-check audit   [--json] [--series SERIES.json] (--grnet | TRACE.jsonl ...)
    vod-check help

SUBCOMMANDS:
    analyze   Semantic rules over crates/*/src (L008, L010): reachability
              of panic macros and computed indices from the sim hot-path
              roots, and partial_cmp sort keys. The line-level rules
              (wall clock, threads, HashMap/HashSet, unwrap/expect,
              unsafe) are clippy lints: see clippy.toml. Retired codes
              are not reused.
    audit     Replays a JSONL trace against reference implementations of
              the paper's invariants (A000-A016); --series reconciles a
              time-series export against the same run's trace (A013).

OPTIONS:
    --root DIR        Workspace root to scan (default: current directory).
    --allowlist FILE  Allowlist path (default: ROOT/crates/check/lint_allow.txt).
                      Lines are `L008 PATH NEEDLE`; an entry that grants
                      nothing is itself a finding (L000).
    --json            Emit one JSON object instead of human-readable text.
    --series FILE     (audit) Reconcile FILE against the run's trace.
    --grnet           (audit) Replay the paper's GRNET case study in-process.

JSON SHAPE (same for every subcommand):
    {\"tool\":\"analyze|audit\",
     \"findings\":[{\"rule\":\"L008\",\"where\":\"crates/...\",\"line\":42,\"message\":\"...\"}],
     \"stats\":{...per-tool counters...}}
    `where` is a source path for analyze, a trace or series label
    for audit. `line` is a source line, trace line, or window index.

EXIT CODES:
    0  clean — no findings
    1  at least one finding
    2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => run_analyze(&args[1..]),
        Some("audit") => run_audit(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: vod-check analyze [--root DIR] [--allowlist FILE] [--json]\n\
                        vod-check audit   [--json] [--series SERIES.json] (--grnet | TRACE.jsonl ...)\n\
                 see `vod-check help` for the JSON shape and exit codes"
            );
            ExitCode::from(2)
        }
    }
}

/// One entry of the unified findings array shared by every subcommand.
struct UnifiedFinding {
    rule: String,
    location: String,
    line: usize,
    message: String,
}

/// Prints the unified JSON object: findings array plus per-tool stats.
fn print_json(tool: &str, findings: &[UnifiedFinding], stats: &[(&str, usize)]) {
    let mut out = format!("{{\"tool\":{},\"findings\":[", json_string(tool));
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

fn run_analyze(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--allowlist" => match it.next() {
                Some(v) => allowlist = Some(PathBuf::from(v)),
                None => return usage("--allowlist needs a file"),
            },
            "--json" => json = true,
            other => return usage(&format!("unknown analyze option `{other}`")),
        }
    }
    let allow_path = allowlist.unwrap_or_else(|| root.join("crates/check/lint_allow.txt"));
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    };
    let files = match workspace_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("vod-check: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let outcome = analyze(&files, &allow);
    let findings: Vec<UnifiedFinding> = outcome
        .findings
        .iter()
        .map(|f| UnifiedFinding {
            rule: f.rule.code().to_string(),
            location: f.path.clone(),
            line: f.line,
            message: f.message.clone(),
        })
        .collect();
    if json {
        print_json(
            "analyze",
            &findings,
            &[
                ("files", outcome.files),
                ("fns", outcome.fns),
                ("reachable_fns", outcome.reachable_fns),
                ("stale_allow", outcome.unused_allow.len()),
            ],
        );
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.location, f.line, f.rule, f.message);
        }
        println!(
            "vod-check analyze: {} findings ({} stale entries in {}); {} files, {} fns ({} reachable from sim roots)",
            findings.len(),
            outcome.unused_allow.len(),
            allow_path.display(),
            outcome.files,
            outcome.fns,
            outcome.reachable_fns
        );
    }
    verdict(findings.len())
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

    let mut findings: Vec<UnifiedFinding> = Vec::new();
    let mut stats = AuditStats::default();
    let mut series_trace: Option<(String, String)> = None;
    if grnet {
        let text = grnet_case_study_trace();
        collect_audit(
            "grnet-case-study",
            &audit_trace(&text),
            &mut findings,
            &mut stats,
            json,
        );
        series_trace = Some(("grnet-case-study".into(), text));
    }
    for path in traces {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("vod-check: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let label = path.display().to_string();
        collect_audit(&label, &audit_trace(&text), &mut findings, &mut stats, json);
        series_trace = Some((label, text));
    }
    if let Some(series_path) = series {
        let series_text = match std::fs::read_to_string(&series_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("vod-check: cannot read {}: {e}", series_path.display());
                return ExitCode::from(2);
            }
        };
        let (trace_label, trace_text) =
            series_trace.expect("audit requires --grnet or a trace before this point");
        let label = format!("{} vs {trace_label}", series_path.display());
        let summary = audit_series(&series_text, &trace_text);
        stats.windows += summary.windows;
        stats.totals_verified += summary.totals_verified;
        for v in &summary.violations {
            findings.push(UnifiedFinding {
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
        print_json(
            "audit",
            &findings,
            &[
                ("traces", stats.traces),
                ("events", stats.events),
                ("selections_verified", stats.selections_verified),
                ("admits_verified", stats.admits_verified),
                ("evictions_verified", stats.evictions_verified),
                ("prefix_verified", stats.prefix_verified),
                ("windows", stats.windows),
                ("totals_verified", stats.totals_verified),
            ],
        );
    }
    verdict(findings.len())
}

#[derive(Default)]
struct AuditStats {
    traces: usize,
    events: usize,
    selections_verified: usize,
    admits_verified: usize,
    evictions_verified: usize,
    prefix_verified: usize,
    windows: usize,
    totals_verified: usize,
}

/// Folds one trace's audit into the unified findings and stats; prints
/// the per-trace human summary unless in JSON mode.
fn collect_audit(
    label: &str,
    summary: &AuditSummary,
    findings: &mut Vec<UnifiedFinding>,
    stats: &mut AuditStats,
    json: bool,
) {
    stats.traces += 1;
    stats.events += summary.events;
    stats.selections_verified += summary.selections_verified;
    stats.admits_verified += summary.admits_verified;
    stats.evictions_verified += summary.evictions_verified;
    stats.prefix_verified += summary.prefix_verified;
    for v in &summary.violations {
        findings.push(UnifiedFinding {
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
            "vod-check audit {label}: {} events, {} selections / {} admits / {} evictions / {} prefix decisions verified, {} violations",
            summary.events,
            summary.selections_verified,
            summary.admits_verified,
            summary.evictions_verified,
            summary.prefix_verified,
            summary.violations.len()
        );
    }
}

/// Runs the paper's GRNET case study (seed 42, VRA selector) with a
/// JSONL sink and returns the trace text.
fn grnet_case_study_trace() -> String {
    let scenario = Scenario::grnet_case_study(42);
    let sink = JsonlWriter::new(Vec::new());
    let service = VodService::with_sink(
        &scenario,
        Box::new(Vra::default()),
        ServiceConfig::default(),
        sink,
    );
    let (_, sink) = service.run_full();
    sink.into_inner()
        .ok()
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .unwrap_or_default()
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
