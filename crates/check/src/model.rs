//! The item extractor: files → functions, impls, `use` decls and the
//! per-crate module tree, with call sites and potential panic sites
//! recorded per function body.
//!
//! This is a single linear token walk per file with an explicit brace
//! stack — no AST, no type checking. Item headers (`impl`, `trait`,
//! `mod`, `fn`) set a *pending* context that the next `{` pushes, so
//! the walker always knows which function body, impl block and inline
//! module it is inside. `#[cfg(test)]`-gated lines are removed before
//! the walk (tests may panic freely) by
//! [`test_line_mask`](crate::source::test_line_mask).
//!
//! The extraction is deliberately an over-approximation in the
//! direction that makes the panic-reachability pass *sound for this
//! workspace*: a method call edge `x.foo()` resolves to every workspace
//! function named `foo` defined in an impl or trait block, so dynamic
//! dispatch and generics never hide an edge. The cost is spurious edges
//! between same-named methods of unrelated types, which only ever
//! *add* reachable code — acceptable for a panic ban, fatal for
//! nothing.

use crate::lex::{lex, Tok, TokKind};
use crate::source::{strip_source, test_line_mask, SourceFile};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — a free function (possibly module-qualified by a
    /// lowercase path, which resolves the same way).
    Free,
    /// `x.foo(…)` or `<T as Trait>::foo(…)` — resolved by name across
    /// every impl/trait block in the workspace.
    Method,
    /// `Type::foo(…)` / `Self::foo(…)` — resolved against `Type`'s
    /// impl blocks first, falling back to by-name resolution.
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Resolution mode.
    pub kind: CallKind,
    /// Callee name as written.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// What kind of potential panic a site is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `assert!`-family (release-mode
    /// asserts; `debug_assert*` is exempt by design).
    Macro(String),
    /// Slice/array indexing with a *computed* index expression (the
    /// index contains arithmetic or nested indexing) — the class where
    /// off-by-one panics live. Bare `x[i]` / `x[0]` / `x[id.index()]`
    /// are not flagged.
    Index(String),
}

/// One potential panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The panic class.
    pub kind: PanicKind,
    /// 1-based line of the site.
    pub line: u32,
}

/// One extracted function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Repo-relative file path.
    pub file: String,
    /// Crate directory name (`"net"` for `crates/net`).
    pub krate: String,
    /// Module path within the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// The enclosing impl/trait type, when the fn is a method.
    pub impl_type: Option<String>,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Potential panic sites in the body, in source order.
    pub panics: Vec<PanicSite>,
}

impl FnDef {
    /// `Type::name` or plain `name` — the key the call graph and the
    /// root list resolve against.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Fully qualified display path
    /// (`vod_net::engine::RoutingEngine::select`).
    pub fn display(&self) -> String {
        let mut out = format!("vod_{}", self.krate);
        for m in &self.module {
            out.push_str("::");
            out.push_str(m);
        }
        out.push_str("::");
        out.push_str(&self.qualified());
        out
    }
}

/// One `use` declaration (kept for the module tree and diagnostics).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Repo-relative file path.
    pub file: String,
    /// The path text as written, whitespace-normalized.
    pub path: String,
}

/// One `mod` declaration (`mod x;` or inline `mod x { … }`).
#[derive(Debug, Clone)]
pub struct ModDecl {
    /// Repo-relative file path of the declaring file.
    pub file: String,
    /// The declared module's name.
    pub name: String,
    /// True for inline `mod x { … }` blocks.
    pub inline: bool,
}

/// The extracted workspace model.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every function definition, in file order.
    pub fns: Vec<FnDef>,
    /// Every `use` declaration.
    pub uses: Vec<UseDecl>,
    /// Every `mod` declaration (the per-crate module tree's edges).
    pub mods: Vec<ModDecl>,
    /// Files walked.
    pub files: usize,
}

/// Keywords that can precede `(` or `[` without being a call/index.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "mut",
    "ref", "pub", "unsafe", "where", "impl", "dyn", "fn", "use", "mod", "const", "static",
    "struct", "enum", "trait", "type", "break", "continue", "crate", "super", "self",
];

/// Macros that panic in release builds. `debug_assert*` is exempt: the
/// workspace uses it for mirrored invariants that must cost nothing in
/// the paper binaries.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Module path of a `crates/<name>/src/…` file: `lib.rs`/`main.rs` map
/// to the crate root, `a/mod.rs` to `a`, `a/b.rs` to `a::b`.
fn file_module_path(path: &str) -> Vec<String> {
    let Some(rest) = path
        .split_once("/src/")
        .map(|(_, r)| r)
        .and_then(|r| r.strip_suffix(".rs"))
    else {
        return Vec::new();
    };
    let mut parts: Vec<String> = rest.split('/').map(str::to_string).collect();
    if parts
        .last()
        .is_some_and(|l| l == "lib" || l == "main" || l == "mod")
    {
        parts.pop();
    }
    parts
}

/// The crate name of a `crates/<name>/…` path, or `""`.
fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

#[derive(Debug, Clone, PartialEq)]
enum Ctx {
    Brace,
    Module(String),
    Impl(String),
    Fn(usize),
}

/// Extracts the workspace model from `files`. Test-masked lines are
/// dropped before the walk.
pub fn extract(files: &[SourceFile]) -> Workspace {
    let mut ws = Workspace::default();
    for file in files {
        extract_file(file, &mut ws);
        ws.files += 1;
    }
    ws
}

fn extract_file(file: &SourceFile, ws: &mut Workspace) {
    let stripped = strip_source(&file.text);
    let mask = test_line_mask(&stripped);
    let toks: Vec<Tok> = lex(&stripped)
        .into_iter()
        .filter(|t| !mask.get(t.line as usize - 1).copied().unwrap_or(false))
        .collect();

    let krate = crate_of(&file.path);
    let file_mods = file_module_path(&file.path);

    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending: Option<Ctx> = None;
    let mut i = 0;

    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct(b'#') if matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Punct(b'[')) =>
            {
                // Attribute: skip `#[…]` whole.
                i = skip_balanced(&toks, i + 1, b'[', b']');
            }
            TokKind::Ident => {
                let text = t.text(&stripped);
                match text {
                    "impl" | "trait" => {
                        let (name, next) = parse_impl_header(&toks, &stripped, i + 1);
                        pending = Some(Ctx::Impl(name));
                        i = next;
                    }
                    "mod" => {
                        if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)
                        {
                            let name = name_tok.text(&stripped).to_string();
                            let inline = matches!(
                                toks.get(i + 2),
                                Some(t) if t.kind == TokKind::Punct(b'{')
                            );
                            ws.mods.push(ModDecl {
                                file: file.path.clone(),
                                name: name.clone(),
                                inline,
                            });
                            if inline {
                                pending = Some(Ctx::Module(name));
                            }
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    "fn" => {
                        if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)
                        {
                            let impl_type = stack.iter().rev().find_map(|c| match c {
                                Ctx::Impl(t) => Some(t.clone()),
                                _ => None,
                            });
                            let mut module = file_mods.clone();
                            for c in &stack {
                                if let Ctx::Module(m) = c {
                                    module.push(m.clone());
                                }
                            }
                            let def = FnDef {
                                file: file.path.clone(),
                                krate: krate.clone(),
                                module,
                                impl_type,
                                name: name_tok.text(&stripped).to_string(),
                                line: t.line,
                                calls: Vec::new(),
                                panics: Vec::new(),
                            };
                            ws.fns.push(def);
                            pending = Some(Ctx::Fn(ws.fns.len() - 1));
                            // Skip the signature up to `{` (body) or
                            // `;` (trait method declaration).
                            i = skip_signature(&toks, i + 2);
                            if matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(b';')) {
                                pending = None;
                                i += 1;
                            }
                        } else {
                            i += 1;
                        }
                    }
                    "use" => {
                        let mut j = i + 1;
                        let mut path = String::new();
                        while j < toks.len() && toks[j].kind != TokKind::Punct(b';') {
                            path.push_str(toks[j].text(&stripped));
                            j += 1;
                        }
                        ws.uses.push(UseDecl {
                            file: file.path.clone(),
                            path,
                        });
                        i = j + 1;
                    }
                    _ => {
                        if let Some(fn_idx) = innermost_fn(&stack) {
                            scan_body_token(&toks, &stripped, i, fn_idx, &stack, ws);
                        }
                        i += 1;
                    }
                }
            }
            TokKind::Punct(b'{') => {
                stack.push(pending.take().unwrap_or(Ctx::Brace));
                i += 1;
            }
            TokKind::Punct(b'}') => {
                stack.pop();
                i += 1;
            }
            TokKind::Punct(b'[') => {
                if let Some(fn_idx) = innermost_fn(&stack) {
                    scan_index_site(&toks, &stripped, i, fn_idx, ws);
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
}

fn innermost_fn(stack: &[Ctx]) -> Option<usize> {
    stack.iter().rev().find_map(|c| match c {
        Ctx::Fn(idx) => Some(*idx),
        _ => None,
    })
}

/// Skips a balanced `open`…`close` region starting at `open`'s index;
/// returns the index one past the matching close.
fn skip_balanced(toks: &[Tok], start: usize, open: u8, close: u8) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(c) if c == open => depth += 1,
            TokKind::Punct(c) if c == close => {
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

/// Parses an `impl`/`trait` header from just after the keyword:
/// skips generics, reads the type path (taking the segment after `for`
/// in trait impls), and stops *at* the opening `{`. Returns
/// `(type name, index of the stop token)`.
fn parse_impl_header(toks: &[Tok], stripped: &str, start: usize) -> (String, usize) {
    let mut i = start;
    let mut angle: i32 = 0;
    let mut name = String::new();
    let mut after_for = false;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => angle -= 1,
            TokKind::Punct(b'{') if angle <= 0 => break,
            TokKind::Punct(b';') if angle <= 0 => break,
            TokKind::Ident if angle <= 0 => {
                let text = toks[i].text(stripped);
                match text {
                    "for" => {
                        after_for = true;
                        name.clear();
                    }
                    "where" => {
                        // Trailing bounds; the type name is fixed now.
                        let _ = after_for;
                    }
                    _ => name = text.to_string(),
                }
            }
            _ => {}
        }
        i += 1;
    }
    (name, i)
}

/// Skips a fn signature from just after the name: generics, parameter
/// list, return type and where clause; stops *at* the body `{` or the
/// declaration-terminating `;`.
fn skip_signature(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    let mut angle: i32 = 0;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => angle = (angle - 1).max(0),
            TokKind::Punct(b'(') => i = skip_balanced(toks, i, b'(', b')') - 1,
            TokKind::Punct(b'{') if angle == 0 => return i,
            TokKind::Punct(b';') if angle == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Records call sites and panic-macro sites for the ident at `i` inside
/// function `fn_idx`'s body.
fn scan_body_token(
    toks: &[Tok],
    stripped: &str,
    i: usize,
    fn_idx: usize,
    stack: &[Ctx],
    ws: &mut Workspace,
) {
    let t = &toks[i];
    let name = t.text(stripped);
    if KEYWORDS.contains(&name) {
        return;
    }
    let next = toks.get(i + 1);
    // Panic macro: `name ! (` / `name ! [` / `name ! {`.
    if matches!(next, Some(n) if n.kind == TokKind::Punct(b'!'))
        && matches!(
            toks.get(i + 2),
            Some(n) if matches!(n.kind, TokKind::Punct(b'(' | b'[' | b'{'))
        )
    {
        if PANIC_MACROS.contains(&name) {
            ws.fns[fn_idx].panics.push(PanicSite {
                kind: PanicKind::Macro(name.to_string()),
                line: t.line,
            });
        }
        return;
    }
    // Call: `name (`.
    if !matches!(next, Some(n) if n.kind == TokKind::Punct(b'(')) {
        return;
    }
    let prev = i.checked_sub(1).map(|p| &toks[p]);
    let kind = match prev {
        Some(p) if p.kind == TokKind::Punct(b'.') => CallKind::Method,
        Some(p) if p.kind == TokKind::Punct(b':') => {
            // `…::name(` — look at the segment before the `::`.
            match i.checked_sub(3).map(|q| &toks[q]) {
                Some(q) if q.kind == TokKind::Ident => {
                    let seg = q.text(stripped);
                    if seg == "Self" {
                        let ty = stack.iter().rev().find_map(|c| match c {
                            Ctx::Impl(t) => Some(t.clone()),
                            _ => None,
                        });
                        match ty {
                            Some(t) => CallKind::Qualified(t),
                            None => CallKind::Free,
                        }
                    } else if seg.starts_with(char::is_uppercase) {
                        CallKind::Qualified(seg.to_string())
                    } else {
                        CallKind::Free
                    }
                }
                // `<T as Trait>::name(` and friends: resolve by name.
                _ => CallKind::Method,
            }
        }
        _ => CallKind::Free,
    };
    ws.fns[fn_idx].calls.push(CallSite {
        kind,
        name: name.to_string(),
        line: t.line,
    });
}

/// Records a computed-index site for the `[` at `i`, when it is an
/// index expression (not an attribute, macro bracket, array type or
/// slice pattern) whose index contains arithmetic or nested indexing.
fn scan_index_site(toks: &[Tok], stripped: &str, i: usize, fn_idx: usize, ws: &mut Workspace) {
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return;
    };
    let is_index_position = match prev.kind {
        TokKind::Ident => !KEYWORDS.contains(&prev.text(stripped)),
        TokKind::Punct(b')') | TokKind::Punct(b']') => true,
        _ => false,
    };
    if !is_index_position {
        return;
    }
    let end = skip_balanced(toks, i, b'[', b']');
    let inner = &toks[i + 1..end.saturating_sub(1).max(i + 1)];
    let mut computed = false;
    for (j, t) in inner.iter().enumerate() {
        match t.kind {
            TokKind::Punct(b'[') => computed = true,
            TokKind::Punct(b'+') | TokKind::Punct(b'/') | TokKind::Punct(b'%') => computed = true,
            TokKind::Punct(b'*') | TokKind::Punct(b'-') => {
                // Binary only: unary deref/negation is not arithmetic.
                let before = j.checked_sub(1).map(|k| &inner[k]);
                if matches!(
                    before,
                    Some(b) if matches!(
                        b.kind,
                        TokKind::Ident | TokKind::Num | TokKind::Punct(b')') | TokKind::Punct(b']')
                    )
                ) {
                    computed = true;
                }
            }
            _ => {}
        }
        if computed {
            break;
        }
    }
    if computed {
        let text: String = inner
            .iter()
            .map(|t| t.text(stripped))
            .collect::<Vec<_>>()
            .join(" ");
        ws.fns[fn_idx].panics.push(PanicSite {
            kind: PanicKind::Index(text),
            line: toks[i].line,
        });
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

    fn ws(text: &str) -> Workspace {
        extract(&[file("crates/core/src/x.rs", text)])
    }

    #[test]
    fn extracts_free_and_impl_fns() {
        let w = ws("fn a() {}\nimpl Foo {\n    pub fn b(&self) -> u32 { 1 }\n}\n");
        let names: Vec<String> = w.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["a", "Foo::b"]);
        assert_eq!(w.fns[1].display(), "vod_core::x::Foo::b");
    }

    #[test]
    fn trait_impls_take_the_for_type() {
        let w = ws("impl<T: Clone> fmt::Display for Wrapper<T> {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(w.fns[0].qualified(), "Wrapper::fmt");
    }

    #[test]
    fn calls_are_classified() {
        let w = ws(
            "fn f() {\n    helper();\n    x.method();\n    Foo::create();\n    mod_a::free();\n}\nfn helper() {}\n",
        );
        let calls = &w.fns[0].calls;
        assert_eq!(calls[0].kind, CallKind::Free);
        assert_eq!(calls[0].name, "helper");
        assert_eq!(calls[1].kind, CallKind::Method);
        assert_eq!(calls[2].kind, CallKind::Qualified("Foo".into()));
        assert_eq!(calls[3].kind, CallKind::Free);
        assert_eq!(calls[3].name, "free");
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let w = ws("impl Foo {\n    fn f() { Self::g(); }\n    fn g() {}\n}\n");
        assert_eq!(w.fns[0].calls[0].kind, CallKind::Qualified("Foo".into()));
    }

    #[test]
    fn panic_sites_are_recorded() {
        let w = ws(
            "fn f(xs: &[u32], i: usize) {\n    xs.first().unwrap();\n    xs.last().expect(\"has\");\n    panic!(\"no\");\n    assert!(i > 0);\n    debug_assert!(i > 0);\n    let _ = xs[i + 1];\n    let _ = xs[i];\n}\n",
        );
        let kinds: Vec<&PanicKind> = w.fns[0].panics.iter().map(|p| &p.kind).collect();
        assert_eq!(
            kinds.len(),
            3,
            "unwrap/expect (clippy's), debug_assert and xs[i] are exempt: {kinds:?}"
        );
        assert_eq!(*kinds[0], PanicKind::Macro("panic".into()));
        assert_eq!(*kinds[1], PanicKind::Macro("assert".into()));
        assert!(matches!(kinds[2], PanicKind::Index(t) if t.contains('+')));
    }

    #[test]
    fn index_heuristics_skip_attrs_macros_types_patterns() {
        let w = ws(
            "fn f(xs: &[u32]) {\n    let v = vec![1, 2];\n    let a: [u8; 4] = [0; 4];\n    let [p, q] = [1, 2];\n    let _ = (v, a, p, q, xs[0]);\n}\n#[derive(Debug)]\nstruct S;\n",
        );
        assert!(w.fns[0].panics.is_empty());
    }

    #[test]
    fn nested_indexing_is_computed() {
        let w = ws("fn f(xs: &[u32], ys: &[usize], i: usize) { let _ = xs[ys[i]]; }\n");
        assert_eq!(w.fns[0].panics.len(), 1);
    }

    #[test]
    fn unary_deref_index_is_not_computed() {
        let w = ws("fn f(xs: &[u32], i: &usize) { let _ = xs[*i]; }\n");
        assert!(w.fns[0].panics.is_empty());
    }

    #[test]
    fn test_code_is_invisible() {
        let w = ws("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { assert!(x); }\n}\n");
        assert_eq!(w.fns.len(), 1);
        assert!(w.fns[0].panics.is_empty());
    }

    #[test]
    fn module_tree_and_uses_are_recorded() {
        let files = [
            file("crates/net/src/lib.rs", "mod engine;\nuse std::fmt;\n"),
            file(
                "crates/net/src/topologies/grnet.rs",
                "mod inner { fn f() {} }\n",
            ),
        ];
        let w = extract(&files);
        assert_eq!(w.mods[0].name, "engine");
        assert!(!w.mods[0].inline);
        assert_eq!(w.mods[1].name, "inner");
        assert!(w.mods[1].inline);
        assert_eq!(w.uses[0].path, "std::fmt");
        assert_eq!(w.fns[0].module, vec!["topologies", "grnet", "inner"]);
    }

    #[test]
    fn fn_signatures_do_not_produce_calls() {
        let w = ws("fn f(g: impl Fn(u32) -> u32, xs: [u8; 2]) -> Result<u32, E> { g(1) }\n");
        assert_eq!(w.fns[0].calls.len(), 1);
        assert_eq!(w.fns[0].calls[0].name, "g");
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let w = ws(
            "trait T {\n    fn decl(&self);\n    fn dflt(&self) { helper(); }\n}\nfn helper() {}\n",
        );
        assert_eq!(w.fns.len(), 3);
        assert!(w.fns[0].calls.is_empty());
        assert_eq!(w.fns[1].calls[0].name, "helper");
        assert_eq!(w.fns[1].impl_type.as_deref(), Some("T"));
    }
}
