//! The source lint pass: rules `L001` and `L003`–`L005` over
//! `crates/*/src`.
//!
//! The scanner is deliberately dependency-free: it strips comments and
//! literal contents with a small state machine, masks `#[cfg(test)]`
//! blocks by brace tracking, and matches the remaining *code* text
//! against substring needles. That is coarse next to a real parser, but
//! the rules are chosen so that coarse is enough — each needle is a
//! token sequence that has exactly one meaning in this workspace.
//!
//! | rule | meaning |
//! |------|---------|
//! | L001 | wall-clock read (`SystemTime`/`Instant` `::now`) outside `vod-bench` — breaks trace determinism |
//! | L003 | `HashMap`/`HashSet` outside `vod-net` — iteration order would leak into reports and traces |
//! | L004 | `.unwrap()` / un-allowlisted `.expect(` in library code — panics replace typed errors |
//! | L005 | crate root missing `#![forbid(unsafe_code)]` |
//!
//! `.expect(` sites that are documented infallible are granted by the
//! allowlist file (`crates/check/lint_allow.txt`); unused entries are
//! reported so the list can only shrink.
//!
//! Codes are stable: a retired rule leaves its number unused. `L002`
//! (ambient RNG) had nothing to match — the only RNG crate in the build,
//! `vendor/rand`, has no ambient generator — and `L006`/`L007`
//! (reachable `unwrap`/`expect`) only repeated `L004` findings, since the
//! analyzer reads a subset of this pass's files.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A lint/analyzer rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L000: allowlist or analyzer-configuration staleness (a grant
    /// that matches nothing, or a hot-path root that stopped
    /// resolving). Hard failure so the allowlist can only shrink.
    StaleAllow,
    /// L001: wall-clock time read outside `vod-bench`.
    Wallclock,
    /// L003: iteration-order-dependent collection in deterministic code.
    UnorderedCollection,
    /// L004: `unwrap`/`expect` in library code outside tests.
    PanicHygiene,
    /// L005: crate root without `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// L008: panic-family macro or computed slice index reachable from
    /// a hot-path root without an allowlist grant.
    ReachablePanic,
    /// L009: thread/channel primitive outside `vod-bench`/`vod-check`.
    ThreadPrimitive,
    /// L010: float sort key via `partial_cmp` without `total_cmp`.
    FloatSortKey,
    /// L011: `Hash`-without-`Ord` type keying an unordered map.
    HashKeyIteration,
}

impl Rule {
    /// The stable rule code (`"L000"`…`"L011"`; `L002`, `L006` and
    /// `L007` are retired).
    pub fn code(self) -> &'static str {
        match self {
            Rule::StaleAllow => "L000",
            Rule::Wallclock => "L001",
            Rule::UnorderedCollection => "L003",
            Rule::PanicHygiene => "L004",
            Rule::ForbidUnsafe => "L005",
            Rule::ReachablePanic => "L008",
            Rule::ThreadPrimitive => "L009",
            Rule::FloatSortKey => "L010",
            Rule::HashKeyIteration => "L011",
        }
    }
}

/// Rule codes whose allowlist entries the `lint` pass owns (and
/// stale-checks). `L008` entries belong to the `analyze` pass.
pub const LINT_OWNED_RULES: &[&str] = &["L001", "L003", "L004", "L005"];

/// One lint finding, pointing at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One source file presented to the linter. Paths are repo-relative
/// with `/` separators (`crates/net/src/lib.rs`), which is what rule
/// scoping and the allowlist match against.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// One allowlist entry: `rule path needle` (needle = rest of line).
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule code the entry applies to (`"L004"`).
    pub rule: String,
    /// Exact repo-relative path.
    pub path: String,
    /// Substring of the *original* source line being granted.
    pub needle: String,
}

/// The parsed allowlist file.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the `rule path needle` line format; `#` comments and blank
    /// lines are skipped.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(path), Some(needle)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                needle: needle.trim().to_string(),
            });
        }
        Allowlist { entries }
    }

    /// The parsed entries, in file order.
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

/// The outcome of a lint run: findings plus allowlist bookkeeping.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// All findings, sorted by `(path, line, rule)`. Stale lint-owned
    /// allowlist entries appear here as hard `L000` findings.
    pub findings: Vec<Finding>,
    /// Stale lint-owned allowlist entries (also present in `findings`
    /// as `L000`).
    pub unused_allow: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files: usize,
}

/// Collects every `crates/*/src/**/*.rs` file under `root`, sorted by
/// path for deterministic output.
///
/// # Errors
///
/// Propagates filesystem errors other than a missing `crates` directory.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates = root.join("crates");
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(&crates)? {
        let dir = entry?.path();
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let text = fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile { path: rel, text });
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Replaces the contents of comments, string literals and char literals
/// with spaces, preserving length and newlines so that byte offsets and
/// line numbers survive. Quote characters themselves are kept; raw
/// strings (`r"…"`, `r#"…"#`) and nested block comments are handled;
/// lifetimes are distinguished from char literals by lookahead.
pub fn strip_source(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match st {
            St::Code => match c {
                b'/' if b.get(i + 1) == Some(&b'/') => {
                    st = St::Line;
                    out.push(b' ');
                }
                b'/' if b.get(i + 1) == Some(&b'*') => {
                    st = St::Block(1);
                    out.push(b' ');
                    out.push(b' ');
                    i += 1;
                }
                b'"' => {
                    st = St::Str;
                    out.push(b'"');
                }
                b'r' if b.get(i + 1) == Some(&b'"') || b.get(i + 1) == Some(&b'#') => {
                    // Possible raw string: r"…" or r#"…"# (any # count).
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j;
                        st = St::RawStr(hashes);
                    } else {
                        out.push(c);
                    }
                }
                b'\'' => {
                    // Char literal iff '\x' or 'x' closes with a quote;
                    // otherwise it is a lifetime.
                    let is_char = b.get(i + 1) == Some(&b'\\')
                        || (b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\''));
                    if is_char {
                        st = St::Char;
                    }
                    out.push(b'\'');
                }
                _ => out.push(c),
            },
            St::Line => {
                if c == b'\n' {
                    st = St::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            St::Block(depth) => {
                if c == b'\n' {
                    out.push(b'\n');
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(depth + 1);
                    out.push(b' ');
                    out.push(b' ');
                    i += 1;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if depth > 1 {
                        St::Block(depth - 1)
                    } else {
                        St::Code
                    };
                    out.push(b' ');
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(b' ');
                }
            }
            St::Str => match c {
                b'\\' => {
                    out.push(b' ');
                    if let Some(&n) = b.get(i + 1) {
                        out.push(if n == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
                b'"' => {
                    st = St::Code;
                    out.push(b'"');
                }
                b'\n' => out.push(b'\n'),
                _ => out.push(b' '),
            },
            St::RawStr(hashes) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && b.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        out.extend(std::iter::repeat_n(b' ', j - i));
                        i = j - 1;
                        st = St::Code;
                    } else {
                        out.push(b' ');
                    }
                } else if c == b'\n' {
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            St::Char => match c {
                b'\\' => {
                    out.push(b' ');
                    if b.get(i + 1).is_some() {
                        out.push(b' ');
                        i += 1;
                    }
                }
                b'\'' => {
                    st = St::Code;
                    out.push(b'\'');
                }
                _ => out.push(b' '),
            },
        }
        i += 1;
    }
    // The state machine emits one byte per input byte (multibyte UTF-8
    // only ever occurs inside literals, which are blanked to ASCII), so
    // the result is valid UTF-8 by construction.
    String::from_utf8(out).unwrap_or_default()
}

/// Marks each line of *stripped* source that belongs to a
/// `#[cfg(test)]`-gated item (the attribute line, the braced block it
/// introduces, and `mod x;` forms). An inner `#![cfg(test)]` — the
/// head of a module file that is test code as a whole — gates every
/// line from there on.
pub fn test_line_mask(stripped: &str) -> Vec<bool> {
    let test_attr = concat!("#[cfg", "(test)]");
    let file_attr = concat!("#![cfg", "(test)]");
    let mut mask = Vec::new();
    let mut whole_file = false;
    let mut in_test = false;
    let mut pending = false;
    let mut depth: u32 = 0;
    for line in stripped.lines() {
        whole_file |= line.contains(file_attr);
        let starts_masked = whole_file || in_test || pending;
        let has_attr = !in_test && line.contains(test_attr);
        if has_attr {
            pending = true;
        }
        mask.push(starts_masked || has_attr);
        for c in line.chars() {
            if pending {
                match c {
                    '{' => {
                        pending = false;
                        in_test = true;
                        depth = 1;
                    }
                    ';' => pending = false,
                    _ => {}
                }
            } else if in_test {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            in_test = false;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    mask
}

/// The crate name of a `crates/<name>/…` path, or `""`.
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// True for binary crate roots: `src/main.rs` and `src/bin/*.rs`.
fn is_bin_root(path: &str) -> bool {
    path.ends_with("/src/main.rs") || path.contains("/src/bin/")
}

/// True for files that must carry `#![forbid(unsafe_code)]`: library
/// roots and binary roots.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("/src/lib.rs") || is_bin_root(path)
}

/// Runs rules L001 and L003–L005 over `files`, granting `allow`listed
/// `expect`s.
pub fn lint(files: &[SourceFile], allow: &Allowlist) -> LintOutcome {
    // Needles are assembled so they never appear verbatim in this
    // crate's own (stripped) source.
    let wallclock = [concat!("SystemTime", "::now"), concat!("Instant", "::now")];
    let unordered = [concat!("Hash", "Map"), concat!("Hash", "Set")];
    let unwrap_call = concat!(".unw", "rap()");
    let expect_call = concat!(".exp", "ect(");
    let forbid_attr = concat!("#![forbid", "(unsafe_code)]");

    let mut findings = Vec::new();
    let mut allow_used = vec![false; allow.entries.len()];
    for file in files {
        let krate = crate_of(&file.path);
        let stripped = strip_source(&file.text);
        let mask = test_line_mask(&stripped);

        if is_crate_root(&file.path) && !file.text.contains(forbid_attr) {
            findings.push(Finding {
                rule: Rule::ForbidUnsafe,
                path: file.path.clone(),
                line: 1,
                message: format!("crate root is missing `{forbid_attr}`"),
            });
        }

        for (idx, (code_line, raw_line)) in stripped.lines().zip(file.text.lines()).enumerate() {
            if mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let line = idx + 1;
            if krate != "bench" {
                for needle in wallclock {
                    if code_line.contains(needle) {
                        findings.push(Finding {
                            rule: Rule::Wallclock,
                            path: file.path.clone(),
                            line,
                            message: format!(
                                "`{needle}` reads the wall clock; simulations must use SimTime"
                            ),
                        });
                    }
                }
            }
            if krate != "net" {
                for needle in unordered {
                    if code_line.contains(needle) {
                        findings.push(Finding {
                            rule: Rule::UnorderedCollection,
                            path: file.path.clone(),
                            line,
                            message: format!(
                                "`{needle}` iteration order is nondeterministic; \
                                 use BTreeMap/BTreeSet in report- and trace-feeding code"
                            ),
                        });
                    }
                }
            }
            if krate != "bench" && !is_bin_root(&file.path) {
                if code_line.contains(unwrap_call) {
                    findings.push(Finding {
                        rule: Rule::PanicHygiene,
                        path: file.path.clone(),
                        line,
                        message: format!(
                            "`{unwrap_call}` in library code; return a typed error instead"
                        ),
                    });
                }
                if code_line.contains(expect_call) {
                    let granted = allow.entries.iter().enumerate().any(|(i, e)| {
                        let hit = e.rule == Rule::PanicHygiene.code()
                            && e.path == file.path
                            && raw_line.contains(&e.needle);
                        if hit {
                            allow_used[i] = true;
                        }
                        hit
                    });
                    if !granted {
                        findings.push(Finding {
                            rule: Rule::PanicHygiene,
                            path: file.path.clone(),
                            line,
                            message: format!(
                                "`{expect_call}…)` in library code is not allowlisted; \
                                 document infallibility in lint_allow.txt or return an error"
                            ),
                        });
                    }
                }
            }
        }
    }
    // Stale lint-owned grants are hard findings so the allowlist can
    // only shrink in CI; `L008` entries belong to the analyze pass and
    // are stale-checked there.
    let unused_allow: Vec<AllowEntry> = allow
        .entries
        .iter()
        .zip(&allow_used)
        .filter(|(e, &used)| LINT_OWNED_RULES.contains(&e.rule.as_str()) && !used)
        .map(|(e, _)| e.clone())
        .collect();
    for e in &unused_allow {
        findings.push(Finding {
            rule: Rule::StaleAllow,
            path: e.path.clone(),
            line: 0,
            message: format!(
                "stale allowlist entry `{} {} {}` granted nothing; remove it",
                e.rule, e.path, e.needle
            ),
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    LintOutcome {
        findings,
        unused_allow,
        files: files.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = "let a = \"SystemTime::now()\"; // Instant::now\nlet b = 1;\n";
        let s = strip_source(src);
        assert!(!s.contains("SystemTime"));
        assert!(!s.contains("Instant"));
        assert!(s.contains("let b = 1;"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn strips_raw_strings_and_block_comments() {
        let src = "let x = r#\"thread_rng\"#; /* outer /* HashMap */ still */ let y = 2;";
        let s = strip_source(src);
        assert!(!s.contains("thread_rng"));
        assert!(!s.contains("HashMap"));
        assert!(s.contains("let y = 2;"));
    }

    #[test]
    fn lifetimes_survive_char_literal_stripping() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nlet u = y.unwrap();\n";
        let s = strip_source(src);
        assert!(s.contains("fn f<'a>(x: &'a str)"));
        assert!(s.contains(".unwrap()"));
    }

    #[test]
    fn test_mask_covers_cfg_test_blocks() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let mask = test_line_mask(&strip_source(src));
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_mask_covers_a_module_file_gated_by_an_inner_attribute() {
        let src = "//! Tests.\n#![cfg(test)]\nuse super::*;\nfn t() { x.unwrap(); }\n";
        let mask = test_line_mask(&strip_source(src));
        assert_eq!(mask, vec![false, true, true, true]);
    }

    #[test]
    fn wallclock_flagged_outside_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); let s = SystemTime::now(); }\n";
        let out = lint(&[file("crates/core/src/x.rs", src)], &Allowlist::default());
        let codes: Vec<&str> = out.findings.iter().map(|f| f.rule.code()).collect();
        assert_eq!(codes, vec!["L001", "L001"]);
        // The same text inside vod-bench is fine.
        let out = lint(&[file("crates/bench/src/x.rs", src)], &Allowlist::default());
        assert!(out.findings.is_empty());
    }

    #[test]
    fn unordered_collections_flagged_outside_net() {
        let src = "use std::collections::HashMap;\n";
        let out = lint(&[file("crates/obs/src/x.rs", src)], &Allowlist::default());
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::UnorderedCollection);
        let out = lint(&[file("crates/net/src/x.rs", src)], &Allowlist::default());
        assert!(out.findings.is_empty());
    }

    #[test]
    fn unwrap_flagged_but_unwrap_or_is_not() {
        let src = "fn f() { a.unwrap(); b.unwrap_or(3); }\n";
        let out = lint(&[file("crates/db/src/x.rs", src)], &Allowlist::default());
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::PanicHygiene);
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn expect_needs_an_allowlist_entry() {
        let src = "fn f() { a.expect(\"is infallible\"); }\n";
        let f = file("crates/db/src/x.rs", src);
        let out = lint(std::slice::from_ref(&f), &Allowlist::default());
        assert_eq!(out.findings.len(), 1);

        let allow = Allowlist::parse("L004 crates/db/src/x.rs is infallible\n");
        let out = lint(&[f], &allow);
        assert!(out.findings.is_empty());
        assert!(out.unused_allow.is_empty());
    }

    #[test]
    fn unused_allow_entries_are_hard_findings() {
        let allow = Allowlist::parse("# comment\nL004 crates/db/src/x.rs never matches anything\n");
        let out = lint(&[file("crates/db/src/x.rs", "fn f() {}\n")], &allow);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::StaleAllow);
        assert!(out.findings[0].message.contains("never matches anything"));
        assert_eq!(out.unused_allow.len(), 1);
        assert_eq!(out.unused_allow[0].needle, "never matches anything");
    }

    #[test]
    fn analyzer_owned_entries_are_not_lint_stale() {
        let allow = Allowlist::parse("L008 crates/db/src/x.rs some proven assert\n");
        let out = lint(&[file("crates/db/src/x.rs", "fn f() {}\n")], &allow);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(out.unused_allow.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let out = lint(&[file("crates/db/src/x.rs", src)], &Allowlist::default());
        assert!(out.findings.is_empty());
    }

    #[test]
    fn crate_roots_need_forbid_unsafe() {
        let out = lint(
            &[file("crates/db/src/lib.rs", "//! Docs.\nfn f() {}\n")],
            &Allowlist::default(),
        );
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::ForbidUnsafe);
        let ok = "//! Docs.\n#![forbid(unsafe_code)]\nfn f() {}\n";
        let out = lint(&[file("crates/db/src/lib.rs", ok)], &Allowlist::default());
        assert!(out.findings.is_empty());
    }

    #[test]
    fn bin_roots_are_exempt_from_panic_hygiene_but_not_unsafe() {
        let src = "#![forbid(unsafe_code)]\nfn main() { x.unwrap(); }\n";
        let out = lint(
            &[file("crates/check/src/main.rs", src)],
            &Allowlist::default(),
        );
        assert!(out.findings.is_empty());
        let out = lint(
            &[file("crates/check/src/main.rs", "fn main() {}\n")],
            &Allowlist::default(),
        );
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::ForbidUnsafe);
    }
}
