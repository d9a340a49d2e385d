//! The workspace's source rules are compiler lints, so they hold only
//! where a crate opts in. These tests keep every crate opted in: each
//! member manifest outside `vendor/` adopts `[workspace.lints]` (which
//! forbids `unsafe_code`), and each library root except `vod-bench`'s
//! denies `unwrap`/`expect`.

use std::fs;
use std::path::{Path, PathBuf};

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
