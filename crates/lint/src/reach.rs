//! The reachability engine: every call-graph rule is one table entry run
//! through [`reach`].
//!
//! Three system claims become reachability questions over the same
//! [`CallGraph`] and item [`Fact`]s:
//!
//! | analysis        | roots                        | cut            | fact kind → rule |
//! |-----------------|------------------------------|----------------|------------------|
//! | [`DETERMINISM`] | `root(determinism)` markers  | none           | time, thread spawn, unseeded RNG, map iteration, libm call → TL007 |
//! | [`DISPATCH`]    | functions with a dispatch site | none         | interior mutability → TL011 |
//! | [`HOT`]         | `root(hot)` markers          | [`is_setup`]   | allocation → TL014, blocking → TL015, panic-capable → TL016 |
//!
//! * **Determinism.** Parallel training is bitwise-identical to serial only
//!   while everything reachable from a seeded root is deterministic.
//! * **Dispatch.** Shared mutable state reachable from a function that hands
//!   closures to worker threads can break worker-count invariance. The
//!   roots read the code (executor `map`/`run`/`for_each`, `scope.spawn`),
//!   so they need no marker.
//! * **Hot.** The distilled end model serves at the speed of one trained
//!   model only while the serve path reuses scratch, never blocks, and
//!   argues its bounds. Setup code (`new`/`default`/`with_*`/`load*`, the
//!   weight packer, `*Scratch`/`Packed*` builders) runs once, so the walk
//!   never enters it: a `Vec::with_capacity` inside `InferScratch::new`
//!   stays silent while the same call inline in a hot root fires.
//!
//! A root is declared where the function is defined, with a `root(...)`
//! marker in a `lint:` comment trailing the `fn` line or on a comment line
//! directly above it. A misplaced or unknown marker fails the run, so a
//! renamed root can never drop out silently.
//!
//! The engine walks breadth-first from each root in definition order, never
//! enters a cut function, and reports each fact once, with the first
//! (shortest) chain that reaches it, so the diagnostic shows *how* the root
//! reaches the site. Facts whose rule holds wherever they sit — map
//! iteration, unseeded RNGs, `unsafe`, weak orderings, and shared state at
//! file scope, where no call edge can reach — go through [`site_rules`]
//! instead.

use std::collections::VecDeque;

use crate::callgraph::CallGraph;
use crate::items::{Fact, FactKind, FnInfo, RootKind};
use crate::rules::{Hop, Rule, Violation};

/// One reachability analysis: where the walk starts, which functions it
/// never enters, and which rule each fact kind fires on a reached function.
pub(crate) struct Reach {
    pub(crate) roots: fn(&FnInfo) -> bool,
    pub(crate) cut: fn(&FnInfo) -> bool,
    pub(crate) rules: &'static [(FactKind, Rule)],
}

/// TL007: nondeterminism reachable from a `root(determinism)` function.
pub(crate) const DETERMINISM: Reach = Reach {
    roots: |f| f.roots.contains(&RootKind::Determinism),
    cut: |_| false,
    rules: &[
        (FactKind::TimeAsData, Rule::Tl007),
        (FactKind::ThreadSpawn, Rule::Tl007),
        (FactKind::RngNotSeedDerived, Rule::Tl007),
        (FactKind::MapIter, Rule::Tl007),
        (FactKind::LibmCall, Rule::Tl007),
    ],
};

/// TL011: interior mutability reachable from an executor dispatch. The
/// dispatching function's own facts count as hop zero: an atomic next to
/// the dispatch is still shared with the workers.
pub(crate) const DISPATCH: Reach = Reach {
    roots: |f| !f.dispatches.is_empty(),
    cut: |_| false,
    rules: &[(FactKind::InteriorMutability, Rule::Tl011)],
};

/// TL014–TL016: allocating, blocking and panic-capable ops reachable from a
/// `root(hot)` function, up to the setup cut.
pub(crate) const HOT: Reach = Reach {
    roots: |f| f.roots.contains(&RootKind::Hot),
    cut: is_setup,
    rules: &[
        (FactKind::HeapAlloc, Rule::Tl014),
        (FactKind::Blocking, Rule::Tl015),
        (FactKind::PanicCapable, Rule::Tl016),
    ],
};

/// Rules that fire at a fact inside a function body, reachable or not.
const SITE_RULES: [(FactKind, Rule); 4] = [
    (FactKind::MapIter, Rule::Tl008),
    (FactKind::RngNotSeedDerived, Rule::Tl009),
    (FactKind::UnsafeCode, Rule::Tl010),
    (FactKind::WeakOrdering, Rule::Tl012),
];

/// Rules that fire at a file-scope fact. No call edge reaches a
/// declaration, so a struct field or static holding shared state is
/// flagged (TL011) wherever it sits.
const FILE_SCOPE_RULES: [(FactKind, Rule); 3] = [
    (FactKind::UnsafeCode, Rule::Tl010),
    (FactKind::InteriorMutability, Rule::Tl011),
    (FactKind::WeakOrdering, Rule::Tl012),
];

/// The setup cut: constructors (`new`, `default`, `with_*`, `load*`), the
/// weight packer (`pack_weights`, run once when a model is wrapped for
/// serving), and methods of the one-time scratch/packing builders
/// (`*Scratch`, `Packed*`). Anything they miss fires at the steady-state
/// call site instead.
fn is_setup(f: &FnInfo) -> bool {
    f.name == "new"
        || f.name == "default"
        || f.name.starts_with("with_")
        || f.name == "load"
        || f.name.starts_with("load_")
        || f.name == "pack_weights"
        || f.impl_type
            .as_deref()
            .is_some_and(|t| t.ends_with("Scratch") || t.starts_with("Packed"))
}

/// Runs one analysis: a breadth-first walk from each root in definition
/// order that never enters a cut function, firing the table's rule at each
/// unsuppressed fact with the root → … → containing-function chain.
pub(crate) fn reach(graph: &CallGraph, analysis: &Reach) -> Vec<Violation> {
    let n = graph.fns.len();
    let mut out = Vec::new();
    // Whether a fact is reportable depends only on its site, so a function
    // first reached by any root reports all of its facts at once; the set
    // of functions already reported is the set of reported facts.
    let mut reported = vec![false; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for root in (0..n).filter(|&i| (analysis.roots)(&graph.fns[i])) {
        parent.fill(None);
        seen.fill(false);
        seen[root] = true;
        queue.push_back(root);
        while let Some(at) = queue.pop_front() {
            let f = &graph.fns[at];
            if !reported[at] {
                reported[at] = true;
                for fact in &f.facts {
                    if let Some(rule) = rule_for(analysis.rules, fact, &f.file) {
                        out.push(violation(rule, &f.file, fact, chain_to(graph, &parent, at)));
                    }
                }
            }
            for &(next, _) in &graph.edges[at] {
                if !seen[next] && !(analysis.cut)(&graph.fns[next]) {
                    seen[next] = true;
                    parent[next] = Some(at);
                    queue.push_back(next);
                }
            }
        }
    }
    out
}

/// The site-level rules: every function-body fact against [`SITE_RULES`],
/// then every file-scope fact against [`FILE_SCOPE_RULES`]. `file_facts`
/// pairs each workspace-relative path with a fact found outside any body.
pub(crate) fn site_rules(graph: &CallGraph, file_facts: &[(String, Fact)]) -> Vec<Violation> {
    let body = graph.fns.iter().flat_map(|f| {
        f.facts
            .iter()
            .map(move |fact| (&f.file, fact, &SITE_RULES[..]))
    });
    let file_scope = file_facts
        .iter()
        .map(|(file, fact)| (file, fact, &FILE_SCOPE_RULES[..]));
    body.chain(file_scope)
        .filter_map(|(file, fact, table)| {
            let rule = rule_for(table, fact, file)?;
            Some(violation(rule, file, fact, Vec::new()))
        })
        .collect()
}

/// The rule `table` fires for `fact` in `file`, unless the rule does not
/// apply there or the site suppresses it.
fn rule_for(table: &[(FactKind, Rule)], fact: &Fact, file: &str) -> Option<Rule> {
    let &(_, rule) = table.iter().find(|(kind, _)| *kind == fact.kind)?;
    (rule.applies_to(file) && !fact.suppresses(rule)).then_some(rule)
}

fn violation(rule: Rule, file: &str, fact: &Fact, chain: Vec<Hop>) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line: fact.line,
        excerpt: format!("{} [{}]", fact.what, fact.kind.describe()),
        chain,
    }
}

/// Reconstructs root → … → `at` from BFS parent pointers (the root has
/// none).
fn chain_to(graph: &CallGraph, parent: &[Option<usize>], at: usize) -> Vec<Hop> {
    let mut path: Vec<usize> = std::iter::successors(Some(at), |&i| parent[i]).collect();
    path.reverse();
    path.into_iter()
        .map(|i| {
            let f = &graph.fns[i];
            Hop {
                name: f.qualified(),
                file: f.file.clone(),
                line: f.line,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::items::extract;
    use crate::source::parse;

    /// Every graph-level rule over one file: site rules, then the three
    /// reachability analyses.
    fn analyze(path: &str, src: &str) -> Vec<Violation> {
        let ex = extract(path, &parse(src));
        let file_facts: Vec<(String, Fact)> = ex
            .file_facts
            .into_iter()
            .map(|f| (path.to_string(), f))
            .collect();
        let graph = build(ex.fns);
        let mut out = site_rules(&graph, &file_facts);
        for analysis in [&DETERMINISM, &DISPATCH, &HOT] {
            out.extend(reach(&graph, analysis));
        }
        out
    }

    fn chain(v: &Violation) -> Vec<&str> {
        v.chain.iter().map(|h| h.name.as_str()).collect()
    }

    const SYSTEM: &str = "crates/core/src/system.rs";
    const SERVE: &str = "crates/core/src/serve.rs";
    const POOL: &str = "crates/core/src/pool.rs";

    #[test]
    fn marked_functions_are_roots_whatever_their_name() {
        let src = "fn warm_start() { jitter(); } // lint: root(determinism)\nfn jitter() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n// lint: root(hot)\nfn any_name(xs: &[f32]) { let v = xs.to_vec(); }\n";
        let v = analyze(SYSTEM, src);
        let rules: Vec<Rule> = v.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::Tl007, Rule::Tl014], "{v:?}");
        assert_eq!(chain(&v[0]), vec!["warm_start", "jitter"]);
        assert_eq!(chain(&v[1]), vec!["any_name"]);
    }

    #[test]
    fn unmarked_taglets_system_run_is_not_a_root() {
        let src = "impl TagletsSystem {\n    fn run(&self) { let t = Instant::now(); }\n}\nimpl<'a> ServingEngine<'a> {\n    fn run(&mut self, xs: &[f32]) { let v = xs.to_vec(); }\n}\nfn predict_proba_batched(xs: &[f32]) { let v = xs.to_vec(); }\n";
        let fns = extract(SYSTEM, &parse(src)).fns;
        assert!(fns.iter().all(|f| f.roots.is_empty()));
        assert!(analyze(SYSTEM, src).is_empty());
    }

    #[test]
    fn reachable_time_source_is_reported_with_chain() {
        let src = "impl TagletsSystem {\n    fn run(&self) { self.stage(); } // lint: root(determinism)\n    fn stage(&self) { jitter(); }\n}\nfn jitter() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n";
        let v = analyze(SYSTEM, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl007);
        assert_eq!(
            chain(&v[0]),
            vec!["TagletsSystem::run", "TagletsSystem::stage", "jitter"]
        );
    }

    #[test]
    fn unreachable_sources_do_not_taint() {
        let src = "impl TagletsSystem {\n    fn run(&self) {} // lint: root(determinism)\n}\nfn orphan() { let t = Instant::now(); }\n";
        assert!(analyze(SYSTEM, src).is_empty());
    }

    #[test]
    fn waiver_with_reason_silences_all_three_rules() {
        let src = "impl TagletsSystem {\n    fn run(&self) { // lint: root(determinism)\n        let t = Instant::now(); // lint: nondeterministic(stage telemetry only)\n        let r = thread_rng(); // lint: nondeterministic(exploratory sampling, not part of results)\n    }\n}\n";
        assert!(analyze(SYSTEM, src).is_empty());
    }

    #[test]
    fn reasonless_waiver_does_not_silence() {
        let src = "impl TagletsSystem {\n    fn run(&self) { // lint: root(determinism)\n        let t = Instant::now(); // lint: nondeterministic()\n    }\n}\n";
        let v = analyze(SYSTEM, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl007);
    }

    #[test]
    fn site_rules_fire_without_reachability() {
        let src = "fn untouched(m: &HashMap<u8, u8>) {\n    for x in m { }\n    let r = StdRng::seed_from_u64(x);\n}\n";
        let rules: Vec<Rule> = analyze(SYSTEM, src).iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::Tl008, Rule::Tl009]);
    }

    #[test]
    fn allow_silences_one_rule_only() {
        let src = "fn f(m: &HashMap<u8, u8>) {\n    for x in m { } // lint: allow(TL008)\n    let r = thread_rng(); // lint: allow(TL008)\n}\n";
        let v = analyze(SYSTEM, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl009);
    }

    #[test]
    fn reachable_mutex_is_reported_with_chain() {
        let src = "fn run_pool(executor: &Executor) {\n    executor.map(4, |i| evaluate(i));\n}\nfn evaluate(i: usize) -> u64 { lookup(i) }\nfn lookup(i: usize) -> u64 {\n    let cache = Mutex::new(0u64);\n    i as u64\n}\n";
        let v = analyze(POOL, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl011);
        assert_eq!(chain(&v[0]), vec!["run_pool", "evaluate", "lookup"]);
    }

    #[test]
    fn unreachable_interior_mutability_is_not_flagged() {
        let src = "fn run_pool(executor: &Executor) {\n    executor.map(4, |i| i);\n}\nfn orphan() {\n    let cache = Mutex::new(0u64);\n}\n";
        assert!(analyze(POOL, src).is_empty());
    }

    #[test]
    fn file_scope_facts_fire_without_a_chain() {
        let v = analyze(POOL, "struct Clock {\n    now: Cell<u64>,\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl011);
        assert!(v[0].chain.is_empty());
    }

    #[test]
    fn unsafe_and_weak_ordering_fire_at_site() {
        let src =
            "fn f() {\n    let n = unsafe { read() };\n    let o = x.load(Ordering::Relaxed);\n}\n";
        let rules: Vec<Rule> = analyze(POOL, src).iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::Tl010, Rule::Tl012]);
    }

    #[test]
    fn reasoned_waivers_silence_their_rules() {
        let src = "fn run_pool(executor: &Executor) {\n    let next = AtomicUsize::new(0); // lint: concurrency(claim counter; results reassembled by index)\n    let i = next.fetch_add(1, Ordering::Relaxed); // lint: concurrency(atomic RMW yields unique indices)\n    let p = unsafe { buf.as_mut_ptr() }; // lint: unsafe(chunks are disjoint by construction)\n    executor.map(4, |i| i);\n}\n";
        assert!(analyze(POOL, src).is_empty());
    }

    #[test]
    fn reachable_allocation_is_reported_with_chain() {
        let src = "impl ServingEngine {\n    fn run(&mut self) { helper(); } // lint: root(hot)\n}\nfn helper() { leaf(); }\nfn leaf(xs: &[f32]) {\n    let v = xs.to_vec();\n}\n";
        let v = analyze(SERVE, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl014);
        assert_eq!(chain(&v[0]), vec!["ServingEngine::run", "helper", "leaf"]);
    }

    #[test]
    fn blocking_and_panic_ops_fire_their_rules() {
        let src = "fn gemm_into(m: &M, out: &mut [f32], k: usize) { // lint: root(hot)\n    let g = m.lock();\n    out[0] = 1.0;\n    let b = n / k;\n}\n";
        let rules: Vec<Rule> = analyze(SERVE, src).iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::Tl015, Rule::Tl016, Rule::Tl016]);
    }

    #[test]
    fn setup_constructors_are_cut_root_relatively() {
        // Allocations inside `new`/`with_*` and `*Scratch` methods never
        // fire via the walk, but the same shape inline in a hot fn does.
        let src = "impl ServingEngine {\n    fn new() -> Self { let q = Vec::with_capacity(64); Self {} }\n    fn run(&mut self) { self.new_scratch(); Self::new(); self.with_cache(4); } // lint: root(hot)\n    fn with_cache(n: usize) { let c = vec![0u8; n]; }\n    fn new_scratch(&self) { InferScratch::resize(); }\n}\nimpl InferScratch {\n    fn resize(&mut self) { let b = Vec::with_capacity(9); }\n}\n// lint: root(hot)\nfn predict_proba_batched(s: &mut InferScratch) {\n    let fresh = Vec::with_capacity(8);\n}\n";
        let v = analyze(SERVE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, SERVE);
        assert!(v[0].excerpt.contains("Vec::with_capacity"));
        assert_eq!(v[0].chain.len(), 1, "fires inline in the hot root");
        assert_eq!(v[0].chain[0].name, "predict_proba_batched");
    }

    #[test]
    fn unreached_allocations_stay_silent() {
        let src = "fn orphan() {\n    let v = Vec::with_capacity(4);\n    let g = m.lock();\n}\nfn also_cold() { orphan(); }\n";
        assert!(analyze(SERVE, src).is_empty());
    }

    #[test]
    fn waivers_and_allows_silence_sites() {
        let src = "impl ServingEngine {\n    fn submit(&mut self) { // lint: root(hot)\n        let a = buf.to_vec(); // lint: alloc(amortized: doubles at most log n times)\n        let b = probs[0]; // lint: panicfree(dims validated at load)\n        let g = m.lock(); // lint: allow(TL015)\n        let c = buf.to_vec();\n    }\n}\n";
        let v = analyze(SERVE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Tl014);
        assert_eq!(v[0].line, 6);
    }
}
