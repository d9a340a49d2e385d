//! The workspace's source rules are compiler lints, so they hold only
//! where a crate opts in. These tests keep every crate opted in: each
//! member manifest outside `vendor/` adopts `[workspace.lints]` (which
//! forbids `unsafe_code`), each library root except `vod-bench`'s
//! denies `unwrap`/`expect`, and the eight simulation crates deny
//! indexing and the panic macros `clippy.toml` lists. Four rules are
//! not lints and are checked here by a scan of the source: no
//! `partial_cmp` sort key, serde only on the report `experiments
//! --metrics` writes, the taxonomy's counters counted by
//! `vod_obs::Tally` alone, every event of the service written
//! through `EventSink::emit`, and threads only in the JSONL writer.

use std::fs;
use std::path::{Path, PathBuf};

use vod_obs::Tally;

/// The simulation crates: everything a service run executes.
const SIM_CRATES: [&str; 8] = [
    "core", "db", "net", "obs", "sim", "snmp", "storage", "workload",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `crates/*` member directories, sorted.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    out.sort();
    out
}

/// True when `manifest` has a `[lints]` table containing
/// `workspace = true`.
fn adopts_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_member_adopts_the_workspace_lints() {
    let root = root();
    let mut manifests: Vec<PathBuf> = crate_dirs(&root)
        .iter()
        .map(|dir| dir.join("Cargo.toml"))
        .collect();
    manifests.push(root.join("tests/Cargo.toml"));
    let missing: Vec<String> = manifests
        .iter()
        .filter(|p| !adopts_workspace_lints(&fs::read_to_string(p).expect("manifest is readable")))
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
    let workspace = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        workspace.contains("unsafe_code = \"forbid\""),
        "[workspace.lints.rust] must forbid unsafe_code"
    );
}

#[test]
fn manifest_parse_needs_the_lints_table() {
    assert!(adopts_workspace_lints(
        "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
    ));
    assert!(!adopts_workspace_lints("[package]\nname = \"x\"\n"));
    assert!(!adopts_workspace_lints("[lints.rust]\nworkspace = true\n"));
    assert!(!adopts_workspace_lints(
        "[lints]\n\n[dependencies]\nworkspace = true\n"
    ));
}

#[test]
fn every_library_root_but_bench_denies_unwrap_and_expect() {
    let root = root();
    let deny = "#![deny(clippy::unwrap_used, clippy::expect_used)]";
    let mut checked = 0;
    for dir in crate_dirs(&root) {
        let lib = dir.join("src/lib.rs");
        if !lib.is_file() || dir.ends_with("crates/bench") {
            continue;
        }
        let text = fs::read_to_string(&lib).expect("lib.rs is readable");
        assert!(text.contains(deny), "{} lacks `{deny}`", lib.display());
        checked += 1;
    }
    assert!(
        checked >= 9,
        "found {checked} library roots, expected the nine non-bench ones"
    );
}

#[test]
fn every_sim_crate_denies_indexing_and_panic_macros() {
    let root = root();
    let deny = "#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]";
    let test_allow =
        "#![cfg_attr(test, allow(clippy::indexing_slicing, clippy::disallowed_macros))]";
    for name in SIM_CRATES {
        let lib = root.join("crates").join(name).join("src/lib.rs");
        let text = fs::read_to_string(&lib).expect("lib.rs is readable");
        let deny_at = text.find(deny);
        let allow_at = text.find(test_allow);
        assert!(deny_at.is_some(), "{} lacks `{deny}`", lib.display());
        assert!(
            allow_at > deny_at,
            "{} lacks `{test_allow}` after the deny",
            lib.display()
        );
    }
}

#[test]
fn clippy_toml_disallows_the_panic_macros() {
    let text = fs::read_to_string(root().join("clippy.toml")).expect("clippy.toml is readable");
    for krate in ["std", "core"] {
        for mac in ["assert", "assert_eq", "assert_ne", "panic", "unreachable"] {
            let entry = format!("path = \"{krate}::{mac}\"");
            assert!(text.contains(&entry), "clippy.toml lacks `{entry}`");
        }
    }
}

/// What precedes and what follows each occurrence of `name` in `code`
/// that is not part of a longer identifier.
fn occurrences<'a>(code: &'a str, name: &str) -> Vec<(&'a str, &'a str)> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    code.match_indices(name)
        .map(|(at, _)| (&code[..at], &code[at + name.len()..]))
        .filter(|(before, after)| {
            !ident(before.chars().next_back()) && !ident(after.chars().next())
        })
        .collect()
}

/// `(line, code)` of each line of `text` (1-based, `//` comment cut
/// off), except the lines inside the body of a block whose head names
/// `head` (`fn partial_cmp`, `mod oracle`); the head line is kept.
fn code_outside<'a>(text: &'a str, head: &str) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    // Brace depth at which the current skipped body closes.
    let mut inside: Option<usize> = None;
    let mut pending = false;
    for (n, line) in text.lines().enumerate() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        if inside.is_none() {
            out.push((n + 1, code));
        }
        pending |= !occurrences(code, head).is_empty();
        for c in code.chars() {
            if c == '{' {
                if std::mem::take(&mut pending) {
                    inside = Some(depth);
                }
                depth += 1;
            } else if c == '}' {
                depth = depth.saturating_sub(1);
                if inside == Some(depth) {
                    inside = None;
                }
            }
        }
    }
    out
}

/// Lines (1-based) of `text` that name `partial_cmp` outside the body
/// of a `fn partial_cmp` definition; `//` comments are skipped. A
/// `PartialOrd` impl may delegate to another `partial_cmp`, but a sort
/// key or comparator built on it is order-unstable under NaN, which
/// `total_cmp` is not.
fn partial_cmp_uses(text: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for (n, code) in code_outside(text, "fn partial_cmp") {
        for (before, _) in occurrences(code, "partial_cmp") {
            if !before.trim_end().ends_with("fn") {
                hits.push(n);
            }
        }
    }
    hits
}

/// `path:hit` for every hit `scan` reports in one of `files`.
fn scan_hits<T: std::fmt::Display>(
    files: &[PathBuf],
    scan: impl Fn(&str) -> Vec<T>,
) -> Vec<String> {
    let mut hits = Vec::new();
    for path in files {
        let text = fs::read_to_string(path).expect("source is readable");
        hits.extend(
            scan(&text)
                .into_iter()
                .map(|hit| format!("{}:{hit}", path.display())),
        );
    }
    hits
}

/// The `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("source dir is readable")
        .map(|e| e.expect("source dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_partial_cmp_sort_key_in_the_sources() {
    let root = root();
    let mut files = Vec::new();
    for dir in crate_dirs(&root) {
        if !dir.ends_with("crates/check") {
            rust_files(&dir.join("src"), &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let hits = scan_hits(&files, partial_cmp_uses);
    assert!(
        hits.is_empty(),
        "`partial_cmp` outside a `PartialOrd` impl (use `total_cmp`): {hits:?}"
    );
}

#[test]
fn partial_cmp_scan_spares_only_the_impl_body() {
    let sort_key = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    assert_eq!(partial_cmp_uses(sort_key), vec![2]);
    assert_eq!(
        partial_cmp_uses("fn g(v: &mut Vec<f64>) { v.sort_by(f64::partial_cmp) }"),
        vec![1]
    );
    let delegating = "impl PartialOrd for K {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {\n        self.0.partial_cmp(&o.0)\n    }\n}\nfn h(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).is_some()\n}\n";
    assert_eq!(partial_cmp_uses(delegating), vec![7]);
    assert!(
        partial_cmp_uses("// a.partial_cmp(b) in a comment\nfn my_partial_cmp_x() {}\n").is_empty()
    );
}

/// The types `experiments --metrics` writes: the `ServiceReport` and
/// everything it holds. They are the only bytes the workspace
/// serializes, so they are the only types that derive `Serialize`.
const REPORT_TYPES: [&str; 16] = [
    "ServiceReport",
    "QosRecord",
    "PrefixTierReport",
    "TickStats",
    "SessionId",
    "NodeId",
    "EngineStats",
    "SimTime",
    "SimDuration",
    "Summary",
    "KernelStats",
    "SchedulerStats",
    "QueueStats",
    "VideoId",
    "DmaStats",
    "PrefixStats",
];

/// The reading half of serde, spelled in two pieces so that this file
/// is not a hit of its own scan, nor of a `grep` for it.
const READ_TRAIT: &str = concat!("Deser", "ialize");

/// `(line, type)` of every `#[derive(…)]` in `text` that lists
/// `Serialize`, with the struct or enum it is attached to.
fn serialize_derives(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("#[derive(") {
        let line = text.len() - rest.len() + at;
        let line = text[..line].matches('\n').count() + 1;
        let after = &rest[at + "#[derive(".len()..];
        let close = after.find(")]").unwrap_or(after.len());
        let listed = after[..close]
            .split(',')
            .any(|name| name.trim() == "Serialize");
        rest = &after[close..];
        if listed {
            let mut words = rest.split_whitespace();
            let name = words
                .by_ref()
                .find(|&w| w == "struct" || w == "enum")
                .and(words.next())
                .unwrap_or("");
            let name = name
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("");
            out.push((line, name.to_string()));
        }
    }
    out
}

/// What `text` has of serde beyond the report's derives: any mention of
/// the reading trait, a hand-written `Serialize` impl, and `Serialize`
/// derived on a type outside [`REPORT_TYPES`].
fn serde_findings(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.contains(READ_TRAIT) {
            out.push(format!("{}: {READ_TRAIT}", n + 1));
        }
        if line.contains("impl") && line.contains("Serialize for") {
            out.push(format!("{}: hand-written Serialize impl", n + 1));
        }
    }
    for (n, name) in serialize_derives(text) {
        if !REPORT_TYPES.contains(&name.as_str()) {
            out.push(format!("{n}: Serialize derived on `{name}`"));
        }
    }
    out
}

/// The sources the serde rule covers: `crates/*/src` and `tests/`.
fn serde_scanned_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in crate_dirs(root) {
        rust_files(&dir.join("src"), &mut files);
    }
    rust_files(&root.join("tests"), &mut files);
    files
}

#[test]
fn serde_serves_the_metrics_report_alone() {
    let files = serde_scanned_files(&root());
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut derived = Vec::new();
    let mut findings = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("source is readable");
        derived.extend(serialize_derives(&text).into_iter().map(|(_, name)| name));
        let found = serde_findings(&text);
        findings.extend(found.into_iter().map(|f| format!("{}:{f}", path.display())));
    }
    assert!(findings.is_empty(), "serde beyond the report: {findings:?}");
    derived.sort();
    let mut expected: Vec<String> = REPORT_TYPES.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(derived, expected, "`Serialize` derives");
}

#[test]
fn serde_scan_catches_a_planted_derive() {
    let planted = format!(
        "use serde::{{{READ_TRAIT}, Serialize}};\n\n/// A link.\n#[derive(\n    Debug, Clone, Serialize, {READ_TRAIT},\n)]\npub struct Link {{\n    id: u32,\n}}\n\n#[derive(Debug, Serialize)]\n#[serde(transparent)]\npub struct NodeId(u32);\n\nimpl Serialize for Topology {{}}\n"
    );
    assert_eq!(
        serialize_derives(&planted),
        vec![(4, "Link".to_string()), (11, "NodeId".to_string())]
    );
    assert_eq!(
        serde_findings(&planted),
        vec![
            format!("1: {READ_TRAIT}"),
            format!("5: {READ_TRAIT}"),
            "15: hand-written Serialize impl".to_string(),
            "4: Serialize derived on `Link`".to_string(),
        ]
    );
}

/// `line: counter` for every `+=` on a name in `names` in `text`,
/// outside any `mod oracle` block (the series' reference fold, which
/// the tally is tested against); `//` comments are skipped.
fn tally_increments(text: &str, names: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for (n, code) in code_outside(text, "mod oracle") {
        for name in names {
            for (_, after) in occurrences(code, name) {
                if after.trim_start().starts_with("+=") {
                    hits.push(format!("{n}: {name}"));
                }
            }
        }
    }
    hits
}

/// The per-kind counts a series window, the auditor and the tests keep
/// are one `Tally`, folded by `Tally::apply` and summed by its
/// `AddAssign`: nothing in the obs and check sources or the tests
/// increments a counter of that name by hand.
#[test]
fn tally_counters_are_kept_by_the_tally_alone() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates/obs/src", "crates/check/src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.retain(|path| !path.ends_with("crates/obs/src/tally.rs"));
    assert!(files.len() > 20, "found only {} source files", files.len());
    let names: Vec<_> = Tally::default().fields().into_iter().map(|f| f.0).collect();
    let hits = scan_hits(&files, |text| tally_increments(text, &names));
    assert!(
        hits.is_empty(),
        "a tally counter kept by hand (apply or add a `Tally`): {hits:?}"
    );
}

#[test]
fn tally_scan_catches_a_planted_increment() {
    let planted = "fn f(w: &mut W) {\n    w.arrivals += 1;\n    total.vra_local+=n; // snmp_polls += 1\n    my_arrivals += 1;\n    started += 1;\n}\nmod tests {\n    mod oracle {\n        fn g(acc: &mut W) { acc.switches += 1; }\n    }\n    fn h(mut retries: u64) { retries += 2; }\n}\n";
    let names: Vec<_> = Tally::default().fields().into_iter().map(|f| f.0).collect();
    assert_eq!(
        tally_increments(planted, &names),
        ["2: arrivals", "3: vra_local", "11: retries"]
    );
}

/// `line: call` for every way `text` writes a trace event other than
/// `EventSink::emit`: any `.record(` call, and any `enabled()` call
/// outside the body of `fn select_source` (whose engine-stats snapshot
/// guards work for a field of an event, not an event); `//` comments
/// are skipped.
fn hand_emissions(text: &str) -> Vec<String> {
    let mut hits = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        let called = occurrences(code, "record")
            .iter()
            .any(|(before, after)| before.ends_with('.') && after.starts_with('('));
        if called {
            hits.push(format!("{}: .record(", n + 1));
        }
    }
    for (n, code) in code_outside(text, "fn select_source") {
        let called = occurrences(code, "enabled")
            .iter()
            .any(|(_, after)| after.starts_with("()"));
        if called {
            hits.push(format!("{n}: enabled()"));
        }
    }
    hits
}

/// `vod-core` writes its trace one way: each event is an
/// `EventSink::emit` whose closure builds it, so a disabled sink never
/// builds one and no site keeps a guard of its own. The service's tests
/// may record into sinks directly.
#[test]
fn core_writes_every_event_through_emit() {
    let root = root();
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    files.retain(|path| !path.ends_with("service/tests.rs"));
    assert!(files.len() > 10, "found only {} source files", files.len());
    let hits = scan_hits(&files, hand_emissions);
    assert!(
        hits.is_empty(),
        "a trace event written around `EventSink::emit`: {hits:?}"
    );
}

#[test]
fn emit_scan_spares_only_the_select_source_snapshot() {
    let planted = "fn a(&mut self) {\n    if self.sink.enabled() {\n        self.sink.record(now, &e);\n    }\n}\nfn select_source(&mut self) {\n    let before = if sink.enabled() { s() } else { None };\n}\nfn b(&mut self) {\n    self.sink\n        .record(now, &e); // if sink.enabled()\n    self.sink.emit(now, || e);\n    self.samples.record_n(x, 1);\n    fn enabled(&self) -> bool { self.recorder.is_on() }\n}\n";
    assert_eq!(
        hand_emissions(planted),
        ["3: .record(", "11: .record(", "2: enabled()"]
    );
}

/// The one file that may start a thread: `JsonlWriter`'s formatter.
const THREAD_HOME: &str = "crates/obs/src/sink.rs";

/// `line: name` for every thread, channel or cross-thread wait
/// primitive `text` names; `//` comments are skipped.
fn thread_uses(text: &str) -> Vec<String> {
    const NAMES: [&str; 6] = [
        "thread::spawn",
        "thread::Builder",
        "thread::scope",
        "mpsc::",
        "Condvar",
        "Barrier",
    ];
    let mut hits = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        for name in NAMES {
            let bare = name.trim_end_matches(':');
            if occurrences(code, bare)
                .iter()
                .any(|(_, after)| !name.ends_with("::") || after.starts_with("::"))
            {
                hits.push(format!("{}: {name}", n + 1));
            }
        }
    }
    hits
}

/// The simulation is single-threaded, so scheduling order can never
/// reach a trace or report. The one exception is the JSONL writer's
/// formatter: a single worker fed in record order by the caller, which
/// writes its lines back in that order, cannot reorder a byte. Clippy
/// holds the calls (`clippy.toml`); this holds the names, so a new
/// `Condvar` or `Barrier` handshake needs a place here too.
#[test]
fn threads_live_only_in_the_jsonl_writer() {
    let root = root();
    let mut files = Vec::new();
    for dir in crate_dirs(&root) {
        rust_files(&dir.join("src"), &mut files);
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let home = root.join(THREAD_HOME);
    assert!(files.contains(&home), "{THREAD_HOME} is scanned");
    assert!(
        !thread_uses(&fs::read_to_string(&home).expect("sink.rs is readable")).is_empty(),
        "the scan still sees the writer's own thread"
    );
    files.retain(|path| *path != home);
    let hits = scan_hits(&files, thread_uses);
    assert!(
        hits.is_empty(),
        "a thread primitive outside {THREAD_HOME}: {hits:?}"
    );
}

#[test]
fn thread_scan_catches_planted_primitives() {
    let planted = "use std::sync::{mpsc, Condvar};\nfn f() {\n    std::thread::spawn(|| ());\n    let b = thread::Builder::new();\n    thread::scope(|s| ());\n    let (tx, rx) = mpsc::channel();\n    let bar = Barrier::new(2); // Condvar in a comment\n    let my_thread_spawn = spawner::spawn();\n    let c = MyCondvarLike;\n}\n";
    assert_eq!(
        thread_uses(planted),
        [
            "1: Condvar",
            "3: thread::spawn",
            "4: thread::Builder",
            "5: thread::scope",
            "6: mpsc::",
            "7: Barrier",
        ]
    );
}
