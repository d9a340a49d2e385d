//! The workspace's source rules are compiler lints, so they hold only
//! where a crate opts in. These tests keep every crate opted in: each
//! member manifest outside `vendor/` adopts `[workspace.lints]` (which
//! forbids `unsafe_code`), each library root except `vod-bench`'s
//! denies `unwrap`/`expect`, and the eight simulation crates deny
//! indexing and the panic macros `clippy.toml` lists. One rule is not a
//! lint: no `partial_cmp` sort key, checked here by a scan of the
//! source.

use std::fs;
use std::path::{Path, PathBuf};

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

/// Lines (1-based) of `text` that name `partial_cmp` outside the body
/// of a `fn partial_cmp` definition; `//` comments are skipped. A
/// `PartialOrd` impl may delegate to another `partial_cmp`, but a sort
/// key or comparator built on it is order-unstable under NaN, which
/// `total_cmp` is not.
fn partial_cmp_uses(text: &str) -> Vec<usize> {
    const NAME: &str = "partial_cmp";
    let mut hits = Vec::new();
    let mut depth = 0usize;
    // Brace depth at which the current `fn partial_cmp` body closes.
    let mut inside: Option<usize> = None;
    let mut pending_fn = false;
    for (n, line) in text.lines().enumerate() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        let mut rest = code;
        while let Some(at) = rest.find(NAME) {
            let before = &rest[..at];
            let after = &rest[at + NAME.len()..];
            let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !ident(before.chars().next_back()) && !ident(after.chars().next()) {
                if before.trim_end().ends_with("fn") {
                    pending_fn = true;
                } else if inside.is_none() {
                    hits.push(n + 1);
                }
            }
            rest = after;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_fn {
                        pending_fn = false;
                        inside = Some(depth);
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if inside == Some(depth) {
                        inside = None;
                    }
                }
                _ => {}
            }
        }
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
    let hits: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let text = fs::read_to_string(path).expect("source is readable");
            partial_cmp_uses(&text)
                .into_iter()
                .map(move |line| format!("{}:{line}", path.display()))
        })
        .collect();
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
