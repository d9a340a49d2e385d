//! The semantic analyzer: rules `L008` and `L010` over the extracted
//! workspace model — what a line-local clippy lint cannot say:
//!
//! | rule | meaning |
//! |------|---------|
//! | L008 | `panic!`-family macro or computed slice index reachable from a root and not allowlisted |
//! | L010 | float sort key via `partial_cmp` without `total_cmp` |
//!
//! The hot-path roots are the entry points the paper's experiments
//! drive — [`ROOTS`] — and reachability is computed over the
//! [`callgraph`](crate::callgraph)'s over-approximating resolution, so
//! dynamic dispatch cannot hide a panic. `L008` allowlist grants cover
//! release-mode asserts whose invariant is documented; an entry that
//! grants nothing, whatever its rule code, is a hard finding (`L000`).
//! `unwrap`/`expect` are `clippy::unwrap_used`/`expect_used`'s in every
//! library crate, reachable or not.
//!
//! `vod-bench` and `vod-check` itself are tooling, not the simulation,
//! and are exempt from both rules.

use std::collections::BTreeMap;

use crate::callgraph;
use crate::lex::{lex, Tok, TokKind};
use crate::model::{self, PanicKind};
use crate::source::{
    strip_source, test_line_mask, AllowEntry, Allowlist, Finding, Rule, SourceFile,
};

/// The sim hot-path roots reachability starts from: the service's
/// experiment drivers (which reach `RoutingEngine::select`) and the
/// flow kernel's advancement entry points.
pub const ROOTS: &[&str] = &[
    "VodService::run_full",
    "VodService::run_to_end",
    "FlowNetwork::advance",
    "FlowNetwork::advance_into",
    "FlowNetwork::next_completion",
];

/// Crates exempt from both rules (measurement and analysis tooling).
pub const EXEMPT_CRATES: &[&str] = &["bench", "check"];

/// Comparator-taking sort/search functions whose key function must be
/// a total order.
const SORT_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// The outcome of one analyzer run.
#[derive(Debug, Default)]
pub struct AnalyzeOutcome {
    /// All findings (including hard `L000` stale-allowlist findings),
    /// sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Stale allowlist entries (also present in `findings` as `L000`).
    pub unused_allow: Vec<AllowEntry>,
    /// Files analyzed (after crate exemptions).
    pub files: usize,
    /// Functions extracted.
    pub fns: usize,
    /// Functions reachable from the roots.
    pub reachable_fns: usize,
}

/// True for files both rules skip.
fn exempt(path: &str) -> bool {
    EXEMPT_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/")))
}

/// Runs rules `L008` and `L010` over `files` (the full workspace source
/// set; crate exemptions are applied internally).
pub fn analyze(files: &[SourceFile], allow: &Allowlist) -> AnalyzeOutcome {
    let mut out = AnalyzeOutcome::default();
    let analyzed: Vec<SourceFile> = files.iter().filter(|f| !exempt(&f.path)).cloned().collect();
    out.files = analyzed.len();

    let ws = model::extract(&analyzed);
    out.fns = ws.fns.len();
    let graph = callgraph::build(&ws);
    let reach = callgraph::reach(&ws, &graph, ROOTS);
    out.reachable_fns = (0..ws.fns.len()).filter(|&i| reach.is_reachable(i)).count();

    // A root that stopped resolving means the analyzer is anchored to
    // nothing — fail loudly instead of passing vacuously.
    for root in &reach.unresolved_roots {
        out.findings.push(Finding {
            rule: Rule::StaleAllow,
            path: "crates/check/src/analyze.rs".to_string(),
            line: 0,
            message: format!(
                "analyzer root `{root}` resolves to no workspace function; \
                 update ROOTS to the current hot-path entry points"
            ),
        });
    }

    // Raw line text by (path, 1-based line), for allowlist needles.
    let raw_lines: BTreeMap<&str, Vec<&str>> = files
        .iter()
        .map(|f| (f.path.as_str(), f.text.lines().collect()))
        .collect();
    // A needle window of three lines starting at the finding line: a
    // multi-line `assert!` puts its condition and message on the lines
    // after the one holding `assert!(`, and the needle should be able
    // to quote the invariant, not the macro name.
    let raw_line = |path: &str, line: u32| -> String {
        raw_lines
            .get(path)
            .map(|ls| {
                let start = (line as usize).saturating_sub(1);
                ls.iter()
                    .skip(start)
                    .take(3)
                    .copied()
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .unwrap_or_default()
    };

    let mut allow_used = vec![false; allow.entries().len()];
    let mut grant = |path: &str, line_text: &str| {
        let mut granted = false;
        for (i, e) in allow.entries().iter().enumerate() {
            if e.rule == Rule::ReachablePanic.code()
                && e.path == path
                && line_text.contains(&e.needle)
            {
                granted = true;
                allow_used[i] = true;
            }
        }
        granted
    };

    for (idx, f) in ws.fns.iter().enumerate() {
        if !reach.is_reachable(idx) {
            continue;
        }
        let chain = reach.chain(&ws, idx);
        let root = chain.first().cloned().unwrap_or_default();
        let hops = chain.len().saturating_sub(1);
        for site in &f.panics {
            if grant(&f.file, &raw_line(&f.file, site.line)) {
                continue;
            }
            let message = match &site.kind {
                PanicKind::Macro(name) => format!(
                    "`{name}!` in {} is reachable from hot-path root {root} \
                     ({hops} calls); prove the invariant in an L008 allowlist \
                     entry or return an error",
                    f.display()
                ),
                PanicKind::Index(expr) => format!(
                    "computed slice index `[{expr}]` in {} is reachable from \
                     hot-path root {root} ({hops} calls); bounds-check it or \
                     prove it in an L008 allowlist entry",
                    f.display()
                ),
            };
            out.findings.push(Finding {
                rule: Rule::ReachablePanic,
                path: f.file.clone(),
                line: site.line as usize,
                message,
            });
        }
    }

    for file in &analyzed {
        scan_sort_keys(file, &mut out.findings);
    }

    // A grant that granted nothing is a hard finding, so the list can
    // only shrink. Only L008 entries can grant, so an entry under any
    // other code (a rule retired into clippy) is stale by definition.
    for (i, e) in allow.entries().iter().enumerate() {
        if !allow_used[i] {
            out.findings.push(Finding {
                rule: Rule::StaleAllow,
                path: e.path.clone(),
                line: 0,
                message: format!(
                    "stale allowlist entry `{} {} {}` granted nothing; remove it",
                    e.rule, e.path, e.needle
                ),
            });
            out.unused_allow.push(e.clone());
        }
    }

    out.findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// The token-level sort-key rule (`L010`) for one file.
fn scan_sort_keys(file: &SourceFile, findings: &mut Vec<Finding>) {
    let stripped = strip_source(&file.text);
    let mask = test_line_mask(&stripped);
    let toks: Vec<Tok> = lex(&stripped)
        .into_iter()
        .filter(|t| !mask.get(t.line as usize - 1).copied().unwrap_or(false))
        .collect();

    for (i, t) in toks.iter().enumerate() {
        let name = t.text(&stripped);
        let called = matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Punct(b'('));
        if t.kind != TokKind::Ident || !called || !SORT_FNS.contains(&name) {
            continue;
        }
        let end = balanced_end(&toks, i + 1);
        let span = &toks[i + 2..end.saturating_sub(1).max(i + 2)];
        let has = |needle: &str| {
            span.iter()
                .any(|t| t.kind == TokKind::Ident && t.text(&stripped) == needle)
        };
        if has("partial_cmp") && !has("total_cmp") {
            findings.push(Finding {
                rule: Rule::FloatSortKey,
                path: file.path.clone(),
                line: t.line as usize,
                message: format!(
                    "`{name}` comparator uses `partial_cmp`, which is not a total \
                     order over floats (NaN breaks sort stability); use `total_cmp`"
                ),
            });
        }
    }
}

/// Index one past the `)` matching the `(` at `open`.
fn balanced_end(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'(') => depth += 1,
            TokKind::Punct(b')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
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

    /// Stubs for all five hot-path roots, so fixture workspaces resolve
    /// the anchor without dragging in the real tree. `run_full` calls
    /// `step()`, the hook each fixture hangs its violation on.
    fn roots_stub() -> SourceFile {
        file(
            "crates/core/src/roots.rs",
            "impl VodService {\n    pub fn run_full(&self) { step(); }\n    pub fn run_to_end(&self) {}\n}\n\
             impl FlowNetwork {\n    pub fn advance(&self) {}\n    pub fn advance_into(&self) {}\n    pub fn next_completion(&self) {}\n}\n",
        )
    }

    fn analyze_with(extra: &[SourceFile], allow: &Allowlist) -> AnalyzeOutcome {
        let mut files = vec![roots_stub()];
        files.extend(extra.iter().cloned());
        analyze(&files, allow)
    }

    fn codes(out: &AnalyzeOutcome) -> Vec<&'static str> {
        out.findings.iter().map(|f| f.rule.code()).collect()
    }

    #[test]
    fn reachable_panic_macro_is_l008_and_grantable() {
        let f = file(
            "crates/core/src/step.rs",
            "fn step(i: usize) { assert!(i > 0, \"i is positive\"); }\n\
             fn dead(i: usize) { assert!(i > 1); }\n",
        );
        let out = analyze_with(std::slice::from_ref(&f), &Allowlist::default());
        assert_eq!(codes(&out), vec!["L008"], "only the reachable assert");
        assert_eq!(out.findings[0].line, 1);
        assert!(out.findings[0].message.contains("run_full"));
        let allow = Allowlist::parse("L008 crates/core/src/step.rs i is positive\n");
        let out = analyze_with(&[f], &allow);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn computed_index_is_l008_plain_index_is_not() {
        let out = analyze_with(
            &[file(
                "crates/core/src/step.rs",
                "fn step(xs: &[u32], i: usize) { let _ = xs[i + 1]; let _ = xs[i]; }\n",
            )],
            &Allowlist::default(),
        );
        assert_eq!(codes(&out), vec!["L008"]);
    }

    #[test]
    fn partial_cmp_sort_key_is_l010_total_cmp_is_not() {
        let out = analyze_with(
            &[file(
                "crates/net/src/rank.rs",
                "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| cmp(a, b)); }\n\
                 fn g(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\")); }\n",
            )],
            &Allowlist::default(),
        );
        assert_eq!(codes(&out), vec!["L010"]);
        assert_eq!(out.findings[0].line, 2);
        let out = analyze_with(
            &[file(
                "crates/net/src/rank.rs",
                "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.total_cmp(b)); }\n",
            )],
            &Allowlist::default(),
        );
        assert!(out.findings.is_empty());
    }

    #[test]
    fn stale_analyzer_grants_are_hard_findings() {
        let allow = Allowlist::parse(
            "L008 crates/core/src/step.rs never matches\n\
             L004 crates/core/src/step.rs a rule retired into clippy\n",
        );
        let out = analyze_with(&[file("crates/core/src/step.rs", "fn step() {}\n")], &allow);
        assert_eq!(codes(&out), vec!["L000", "L000"]);
        let rules: Vec<&str> = out.unused_allow.iter().map(|e| e.rule.as_str()).collect();
        assert_eq!(rules, vec!["L008", "L004"]);
    }

    #[test]
    fn exempt_crates_are_skipped() {
        let out = analyze_with(
            &[file(
                "crates/bench/src/timing.rs",
                "fn step() { if bad { panic!(\"tooling\"); } }\n",
            )],
            &Allowlist::default(),
        );
        assert!(out.findings.is_empty());
    }

    #[test]
    fn unresolved_roots_fail_loudly() {
        let out = analyze(
            &[file("crates/core/src/lib.rs", "fn nothing_here() {}\n")],
            &Allowlist::default(),
        );
        assert!(codes(&out).iter().all(|c| *c == "L000"));
        assert_eq!(out.findings.len(), ROOTS.len());
    }
}
