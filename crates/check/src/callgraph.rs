//! The call graph over an extracted [`Workspace`], with BFS
//! reachability from the simulation hot-path roots.
//!
//! Name resolution is heuristic and over-approximating by design (see
//! the [`model`](crate::model) module docs): a `Free` call resolves to
//! every free function of that name, a `Method` call to every impl or
//! trait method of that name, and a `Qualified` call to the named
//! type's methods first, falling back to by-name resolution when the
//! type has no matching method (trait impls called through a different
//! receiver type alias). Extra edges only widen the reachable set,
//! which is the safe direction for a panic ban.

use std::collections::{BTreeMap, VecDeque};

use crate::model::{CallKind, Workspace};

/// The call graph: adjacency over `Workspace::fns` indices.
pub struct CallGraph {
    /// `edges[i]` lists the fn indices that fn `i` may call.
    pub edges: Vec<Vec<usize>>,
}

/// Reachability from a root set.
pub struct Reachability {
    /// `via[i]` is `Some(caller)` for every reachable non-root fn `i`,
    /// `Some(i)` for roots; `None` means unreachable.
    pub via: Vec<Option<usize>>,
    /// Indices of the resolved roots, in root-spec order.
    pub roots: Vec<usize>,
    /// Root specs (`"Type::method"`) that resolved to no function —
    /// a non-empty list means the analyzer's anchor is stale.
    pub unresolved_roots: Vec<String>,
}

impl Reachability {
    /// True when fn `i` is reachable from any root.
    pub fn is_reachable(&self, i: usize) -> bool {
        self.via[i].is_some()
    }

    /// The root-to-`i` call chain as display names, for messages.
    pub fn chain(&self, ws: &Workspace, i: usize) -> Vec<String> {
        let mut path = vec![i];
        let mut cur = i;
        while let Some(prev) = self.via[cur] {
            if prev == cur {
                break;
            }
            path.push(prev);
            cur = prev;
        }
        path.reverse();
        path.into_iter().map(|f| ws.fns[f].display()).collect()
    }
}

/// Builds the call graph for `ws`.
pub fn build(ws: &Workspace) -> CallGraph {
    // Name → fn indices, split by definition shape.
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        match &f.impl_type {
            None => free.entry(&f.name).or_default().push(i),
            Some(t) => {
                methods.entry(&f.name).or_default().push(i);
                typed.entry((t.as_str(), &f.name)).or_default().push(i);
            }
        }
    }

    let mut edges = vec![Vec::new(); ws.fns.len()];
    for (i, f) in ws.fns.iter().enumerate() {
        for call in &f.calls {
            let targets: &[usize] = match &call.kind {
                CallKind::Free => free.get(call.name.as_str()).map_or(&[], |v| v),
                CallKind::Method => methods.get(call.name.as_str()).map_or(&[], |v| v),
                CallKind::Qualified(ty) => {
                    match typed.get(&(ty.as_str(), call.name.as_str())) {
                        Some(v) => v,
                        // The type has no such method in the workspace:
                        // fall back to name-wide resolution so trait
                        // impls and associated-fn re-exports stay
                        // covered.
                        None => methods
                            .get(call.name.as_str())
                            .or_else(|| free.get(call.name.as_str()))
                            .map_or(&[], |v| v),
                    }
                }
            };
            for &t in targets {
                if !edges[i].contains(&t) {
                    edges[i].push(t);
                }
            }
        }
    }
    CallGraph { edges }
}

/// BFS from `root_specs` (each `"Type::method"` or a bare fn name).
pub fn reach(ws: &Workspace, graph: &CallGraph, root_specs: &[&str]) -> Reachability {
    let mut via: Vec<Option<usize>> = vec![None; ws.fns.len()];
    let mut roots = Vec::new();
    let mut unresolved = Vec::new();
    let mut queue = VecDeque::new();

    for spec in root_specs {
        let mut matched = false;
        for (i, f) in ws.fns.iter().enumerate() {
            if f.qualified() == *spec {
                matched = true;
                if via[i].is_none() {
                    via[i] = Some(i);
                    roots.push(i);
                    queue.push_back(i);
                }
            }
        }
        if !matched {
            unresolved.push(spec.to_string());
        }
    }

    while let Some(i) = queue.pop_front() {
        for &t in &graph.edges[i] {
            if via[t].is_none() {
                via[t] = Some(i);
                queue.push_back(t);
            }
        }
    }

    Reachability {
        via,
        roots,
        unresolved_roots: unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::extract;
    use crate::source::SourceFile;

    fn ws(text: &str) -> Workspace {
        extract(&[SourceFile {
            path: "crates/core/src/x.rs".into(),
            text: text.into(),
        }])
    }

    #[test]
    fn reaches_through_free_and_method_calls() {
        let w = ws(
            "impl Svc {\n    pub fn run(&self) { step(); }\n}\nfn step() { helper(); }\nfn helper() {}\nfn dead() {}\n",
        );
        let g = build(&w);
        let r = reach(&w, &g, &["Svc::run"]);
        let reachable: Vec<String> = w
            .fns
            .iter()
            .enumerate()
            .filter(|(i, _)| r.is_reachable(*i))
            .map(|(_, f)| f.qualified())
            .collect();
        assert_eq!(reachable, vec!["Svc::run", "step", "helper"]);
        assert!(r.unresolved_roots.is_empty());
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let w = ws(
            "impl A {\n    fn go(&self) { self.inner.poll(); }\n}\nimpl B {\n    fn poll(&self) { deep(); }\n}\nfn deep() {}\n",
        );
        let g = build(&w);
        let r = reach(&w, &g, &["A::go"]);
        let deep = w.fns.iter().position(|f| f.name == "deep").unwrap();
        assert!(r.is_reachable(deep), "b.poll() edge must over-approximate");
    }

    #[test]
    fn qualified_calls_prefer_the_named_type() {
        let w = ws(
            "impl A {\n    fn go() { B::make(); }\n}\nimpl B {\n    fn make() {}\n}\nimpl C {\n    fn make() { bad(); }\n}\nfn bad() {}\n",
        );
        let g = build(&w);
        let r = reach(&w, &g, &["A::go"]);
        let bad = w.fns.iter().position(|f| f.name == "bad").unwrap();
        assert!(
            !r.is_reachable(bad),
            "C::make must not be an edge of B::make()"
        );
    }

    #[test]
    fn unresolved_roots_are_reported() {
        let w = ws("fn f() {}\n");
        let g = build(&w);
        let r = reach(&w, &g, &["Ghost::run"]);
        assert_eq!(r.unresolved_roots, vec!["Ghost::run"]);
    }

    #[test]
    fn chain_names_the_path_from_the_root() {
        let w =
            ws("impl S {\n    fn run(&self) { mid(); }\n}\nfn mid() { leaf(); }\nfn leaf() {}\n");
        let g = build(&w);
        let r = reach(&w, &g, &["S::run"]);
        let leaf = w.fns.iter().position(|f| f.name == "leaf").unwrap();
        let chain = r.chain(&w, leaf);
        assert_eq!(
            chain,
            vec![
                "vod_core::x::S::run",
                "vod_core::x::mid",
                "vod_core::x::leaf"
            ]
        );
    }
}
