//! Workspace call-graph construction over the extracted functions.
//!
//! Resolution is name-based and deliberately over-approximate — the lint has
//! no type inference, so a method call `x.train(...)` gets edges to *every*
//! workspace `train`. Over-approximation is the safe direction for a taint
//! analysis: it can report a chain that cannot happen at runtime (silenced
//! with a reasoned waiver), but it cannot miss one that can.
//!
//! Resolution order per call site:
//! 1. `Type::name(...)`, `Self::name(...)` and `self.name(...)` → functions
//!    in `impl Type` blocks with that name (the `self`/`Self` markers
//!    resolve to the caller's own impl type).
//! 2. A qualified call that matches no impl (module paths like
//!    `exec::run(...)`) → free functions with that simple name.
//! 3. Unqualified calls and method calls → every function with that simple
//!    name, impl'd or free.

use std::collections::BTreeMap;

use crate::items::FnInfo;

/// The workspace call-graph: extracted functions plus resolved edges.
#[derive(Debug)]
pub struct CallGraph {
    /// All functions, in extraction order (files sorted by the walker).
    pub fns: Vec<FnInfo>,
    /// `edges[caller]` = sorted, deduped `(callee, call-site line)` pairs.
    pub edges: Vec<Vec<(usize, usize)>>,
}

/// Builds the graph from per-file extraction results.
pub fn build(fns: Vec<FnInfo>) -> CallGraph {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_type_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
        match &f.impl_type {
            Some(t) => by_type_name
                .entry((t.as_str(), f.name.as_str()))
                .or_default()
                .push(i),
            None => free_by_name.entry(&f.name).or_default().push(i),
        }
    }

    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); fns.len()];
    for (caller, f) in fns.iter().enumerate() {
        for call in &f.calls {
            let qualifier = match call.qualifier.as_deref() {
                Some("self") | Some("Self") => f.impl_type.as_deref(),
                other => other,
            };
            let targets: &[usize] = match qualifier {
                Some(q) => by_type_name
                    .get(&(q, call.name.as_str()))
                    .map(Vec::as_slice)
                    .or_else(|| free_by_name.get(call.name.as_str()).map(Vec::as_slice))
                    .unwrap_or(&[]),
                None => by_name
                    .get(call.name.as_str())
                    .map(Vec::as_slice)
                    .unwrap_or(&[]),
            };
            for &t in targets {
                if t != caller {
                    edges[caller].push((t, call.line));
                }
            }
        }
    }
    for list in &mut edges {
        list.sort_unstable();
        list.dedup_by_key(|(t, _)| *t);
    }
    CallGraph { fns, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::parse;

    fn graph(src: &str) -> CallGraph {
        build(crate::items::extract("crates/x/src/lib.rs", &parse(src)).fns)
    }

    fn names(g: &CallGraph, from: &str) -> Vec<String> {
        let i = g
            .fns
            .iter()
            .position(|f| f.qualified() == from)
            .unwrap_or(usize::MAX);
        g.edges[i]
            .iter()
            .map(|&(t, _)| g.fns[t].qualified())
            .collect()
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let g = graph(
            "impl Sys {\n    fn run(&self) { self.step(); }\n    fn step(&self) {}\n}\nimpl Other {\n    fn step(&self) {}\n}\n",
        );
        assert_eq!(names(&g, "Sys::run"), vec!["Sys::step"]);
    }

    #[test]
    fn capital_self_calls_resolve_to_the_impl_type() {
        let g = graph(
            "impl Sys {\n    fn run(&self) { Self::stage(); }\n    fn stage() {}\n}\nimpl Other {\n    fn stage(&self) {}\n}\n",
        );
        assert_eq!(names(&g, "Sys::run"), vec!["Sys::stage"]);
    }

    #[test]
    fn unqualified_method_calls_fan_out() {
        let g = graph(
            "fn drive(m: &dyn M) { m.train(); }\nimpl A {\n    fn train(&self) {}\n}\nimpl B {\n    fn train(&self) {}\n}\n",
        );
        assert_eq!(names(&g, "drive"), vec!["A::train", "B::train"]);
    }

    #[test]
    fn module_qualified_calls_fall_back_to_free_fns() {
        let g = graph("fn a() { helpers::tick(); }\nfn tick() {}\n");
        assert_eq!(names(&g, "a"), vec!["tick"]);
    }

    #[test]
    fn unknown_targets_get_no_edges() {
        let g = graph("fn a() { Vec::with_capacity(4); mystery(); }\n");
        assert!(names(&g, "a").is_empty());
    }
}
