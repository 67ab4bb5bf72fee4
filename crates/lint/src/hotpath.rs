//! Hot-path hygiene analysis over the workspace call-graph.
//!
//! The paper's serving claim (§1: the end model serves "at the speed of a
//! single trained model") made PRs 4–7 build a scratch-reuse discipline by
//! hand — `InferScratch`, `GradScratch`, `PackedWeights`, write-once output
//! blocks. Nothing enforced it: a refactor could quietly reintroduce a
//! per-request `Vec`, a lock in a worker closure, or a panicking slice
//! index on the serve path. This sixth stage turns the convention into a
//! machine-checked invariant using the same item facts and call-graph as
//! the determinism and concurrency passes:
//!
//! * **TL014** — a heap allocation ([`HFactKind::HeapAlloc`]: `Vec::new`/
//!   `with_capacity`, `vec![]`, `.to_vec()`, `.collect()`, `.clone()`,
//!   `Box::new`, `String::from`, `format!`) transitively reachable from a
//!   latency-critical root, unless the site carries a reasoned
//!   `// lint: alloc(reason)` waiver.
//! * **TL015** — a blocking operation ([`HFactKind::Blocking`]:
//!   `Mutex`/`RwLock` lock, channel `recv`, `std::fs`/`std::io` calls,
//!   `thread::sleep`) reachable from a hot root. No reasoned waiver exists:
//!   blocking is cut out of the hot path or explicitly `allow(TL015)`ed.
//! * **TL016** — a panic-capable op ([`HFactKind::PanicCapable`]: slice/
//!   array indexing, `copy_from_slice`, integer division by a non-literal
//!   divisor) on the serve path, unless the site carries a
//!   `// lint: panicfree(reason)` waiver stating the bounds argument.
//!
//! The latency-critical roots are the serving engine's and router's methods
//! (`ServingEngine::run`/`submit`/the flush path), the batched inference
//! fast path (`predict_proba_batched`) and every `*_into` kernel entry
//! point. Setup code — `new`/
//! `default`/`with_*`/`load*` constructors and the one-time `*Scratch`/
//! `Packed*` builders — is exempt by a *root-relative cut*: the BFS never
//! walks into a setup function, so a `Vec::with_capacity` inside
//! `InferScratch::new` stays silent while the same call inline in
//! `predict_proba_batched` fires. There are no path allowlists; the waivers
//! on the surviving sites are the audit, exactly as the unsafe rule does.
//!
//! Each violation carries the full root → … → site chain in TL007 style,
//! reported once per fact with the first (shortest) chain found, roots
//! scanned in definition order for deterministic output.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::items::{FnInfo, HFact, HFactKind};
use crate::rules::{Rule, Violation};
use crate::taint::chain_to;

/// Runs the hot-path reachability walk: BFS from every latency-critical
/// root, cutting setup functions, firing TL014/TL015/TL016 at each
/// unwaived fact with the root-relative chain.
pub fn analyze(graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut reported: BTreeMap<(usize, usize), ()> = BTreeMap::new();
    let roots: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| is_hot_root(&graph.fns[i]))
        .collect();
    for &root in &roots {
        let mut parent: Vec<Option<usize>> = vec![None; graph.fns.len()];
        let mut seen = vec![false; graph.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[root] = true;
        queue.push_back(root);
        while let Some(at) = queue.pop_front() {
            let f = &graph.fns[at];
            for (fact_idx, fact) in f.hfacts.iter().enumerate() {
                let rule = match fact.kind {
                    HFactKind::HeapAlloc => Rule::Tl014,
                    HFactKind::Blocking => Rule::Tl015,
                    HFactKind::PanicCapable => Rule::Tl016,
                };
                if !rule.applies_to(&f.file)
                    || suppressed(fact, rule)
                    || reported.contains_key(&(at, fact_idx))
                {
                    continue;
                }
                reported.insert((at, fact_idx), ());
                out.push(Violation {
                    rule,
                    file: f.file.clone(),
                    line: fact.line,
                    excerpt: format!("{} [{}]", fact.what, fact.kind.describe()),
                    chain: chain_to(graph, &parent, root, at),
                });
            }
            for &(next, _) in &graph.edges[at] {
                if !seen[next] && !is_setup(&graph.fns[next]) {
                    seen[next] = true;
                    parent[next] = Some(at);
                    queue.push_back(next);
                }
            }
        }
    }
    out
}

/// True for the latency-critical roots the walk starts from: serving-engine
/// and router methods (minus their constructors — routing sits upstream of
/// every per-request serving latency, so its dispatch/collect surface is
/// held to the same hygiene bar), the batched inference fast path and
/// every `*_into` kernel entry point — *not* the tape-backed
/// `predict_proba`, which allocates a graph by design.
fn is_hot_root(f: &FnInfo) -> bool {
    if is_setup(f) {
        return false;
    }
    f.impl_type.as_deref() == Some("ServingEngine")
        || f.impl_type.as_deref() == Some("Router")
        || f.name.starts_with("predict_proba_batched")
        || f.name.ends_with("_into")
}

/// The root-relative setup cut: constructors (`new`, `default`, `with_*`,
/// `load*`), the weight packer (`pack_weights` — run once when a model is
/// wrapped for serving), and methods of the one-time scratch/packing
/// builders (`*Scratch`, `Packed*`) run once per engine or training run, so
/// their allocations are the point — the BFS neither starts from nor walks
/// into them.
/// Anything they miss fires at the steady-state call site instead.
fn is_setup(f: &FnInfo) -> bool {
    f.name == "new"
        || f.name == "default"
        || f.name.starts_with("with_")
        || f.name == "load"
        || f.name.starts_with("load_")
        || f.name == "pack_weights"
        || f.impl_type
            .as_deref()
            .map(|t| t.ends_with("Scratch") || t.starts_with("Packed"))
            .unwrap_or(false)
}

/// True when the fact's line suppresses `rule` — an explicit `allow(TLxxx)`
/// or the matching reasoned waiver (`alloc(reason)` / `panicfree(reason)`,
/// already resolved into `waived` by the extractor).
fn suppressed(fact: &HFact, rule: Rule) -> bool {
    fact.waived || fact.allows.iter().any(|a| a == rule.code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::items::extract;
    use crate::lexer::lex;
    use crate::scanner::scan;

    fn analyze_src(src: &str) -> Vec<Violation> {
        let lines = scan(src);
        let ex = extract("crates/core/src/serve.rs", &lex(src), &lines);
        analyze(&build(ex.fns))
    }

    #[test]
    fn reachable_allocation_is_reported_with_chain() {
        let src = "impl ServingEngine {\n    fn run(&mut self) { helper(); }\n}\nfn helper() { leaf(); }\nfn leaf(xs: &[f32]) {\n    let v = xs.to_vec();\n}\n";
        let v = analyze_src(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl014);
        let names: Vec<&str> = v[0].chain.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["ServingEngine::run", "helper", "leaf"]);
    }

    #[test]
    fn blocking_and_panic_ops_fire_their_rules() {
        let src = "fn gemm_into(m: &M, out: &mut [f32], k: usize) {\n    let g = m.lock();\n    out[0] = 1.0;\n    let b = n / k;\n}\n";
        let v = analyze_src(src);
        let rules: Vec<Rule> = v.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::Tl015, Rule::Tl016, Rule::Tl016]);
    }

    #[test]
    fn setup_constructors_are_cut_root_relatively() {
        // Allocations inside `new`/`with_*` and `*Scratch` methods never
        // fire — neither as roots nor via the walk — but the same shape
        // inline in a hot fn does.
        let src = "impl ServingEngine {\n    fn new() -> Self { let q = Vec::with_capacity(64); Self {} }\n    fn run(&mut self) { self.new_scratch(); }\n    fn with_cache(n: usize) { let c = vec![0u8; n]; }\n    fn new_scratch(&self) {}\n}\nimpl InferScratch {\n    fn resize(&mut self) { let b = Vec::with_capacity(9); }\n}\nfn predict_proba_batched(s: &mut InferScratch) {\n    let fresh = Vec::with_capacity(8);\n}\n";
        let v = analyze_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/core/src/serve.rs");
        assert!(v[0].excerpt.contains("Vec::with_capacity"));
        assert_eq!(v[0].chain.len(), 1, "fires inline in the hot root");
        assert_eq!(v[0].chain[0].name, "predict_proba_batched");
    }

    #[test]
    fn unreached_allocations_stay_silent() {
        let src = "fn orphan() {\n    let v = Vec::with_capacity(4);\n    let g = m.lock();\n}\nfn also_cold() { orphan(); }\n";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn waivers_and_allows_silence_sites() {
        let src = "impl ServingEngine {\n    fn submit(&mut self) {\n        let a = buf.to_vec(); // lint: alloc(amortized: doubles at most log n times)\n        let b = probs[0]; // lint: panicfree(dims validated at load)\n        let g = m.lock(); // lint: allow(TL015)\n        let c = buf.to_vec();\n    }\n}\n";
        let v = analyze_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Tl014);
        assert_eq!(v[0].line, 6);
    }
}
