//! Workspace source files as the analyzer reads them: loading
//! `crates/*/src`, blanking comments and literal contents, masking
//! `#[cfg(test)]` regions, plus the finding, rule-code and allowlist
//! types the analyzer reports through.
//!
//! Rule codes are stable: a retired rule leaves its number unused.
//! `L001`, `L003`–`L005`, `L009` and `L011` are clippy and rustc lints
//! now (`clippy.toml`, the root `[workspace.lints]` and each library
//! root's `#![deny(clippy::unwrap_used, clippy::expect_used)]`), with
//! every grant an `#[expect(…, reason = "…")]` at its site. `L002`
//! (ambient RNG) had nothing to match, and `L006`/`L007` (reachable
//! `unwrap`/`expect`) only repeated `L004`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// An analyzer rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L000: allowlist or analyzer-configuration staleness (a grant
    /// that matches nothing, or a hot-path root that stopped
    /// resolving). Hard failure so the allowlist can only shrink.
    StaleAllow,
    /// L008: panic-family macro or computed slice index reachable from
    /// a hot-path root without an allowlist grant.
    ReachablePanic,
    /// L010: float sort key via `partial_cmp` without `total_cmp`.
    FloatSortKey,
}

impl Rule {
    /// The stable rule code (`"L000"`, `"L008"` or `"L010"`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::StaleAllow => "L000",
            Rule::ReachablePanic => "L008",
            Rule::FloatSortKey => "L010",
        }
    }
}

/// One finding, pointing at a source line.
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

/// One source file presented to the analyzer. Paths are repo-relative
/// with `/` separators (`crates/net/src/lib.rs`), which is what crate
/// exemptions and the allowlist match against.
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
    /// Rule code the entry applies to (`"L008"`).
    pub rule: String,
    /// Exact repo-relative path.
    pub path: String,
    /// Substring of the *original* source being granted.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
