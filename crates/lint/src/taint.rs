//! Determinism taint propagation over the workspace call-graph.
//!
//! The execution engine's guarantee — parallel training bitwise-identical
//! to serial — holds only while every function reachable from a *seeded
//! root* is deterministic. The roots are declared here, mirroring the
//! system's contract:
//!
//! * `TagletsSystem::run` (the staged pipeline),
//! * `ServingEngine::run` and `Router::run` (the single-engine and
//!   multi-replica replay drivers — routed serving promises byte-identical
//!   telemetry per seed, so everything dispatch reaches must be
//!   deterministic),
//! * every `TagletModule::train` implementation,
//! * every method of `core::exec::Executor`,
//! * the eval sweep (`sweep_method`).
//!
//! A breadth-first walk from each root visits everything the call-graph can
//! reach; any [`FactKind`](crate::items::FactKind) found along the way
//! becomes a TL007 violation carrying the full call chain (root → … →
//! containing function), reconstructed from BFS parent pointers, so the
//! diagnostic explains *how* the seeded path reaches the source. TL008
//! (map iteration) and TL009 (unseeded RNG) fire at the fact site itself,
//! reachable or not.
//!
//! Sites are silenced either per-rule (`// lint: allow(TL008)`) or with the
//! determinism waiver `// lint: nondeterministic(reason)`, which suppresses
//! all three rules at that line but *must* carry a non-empty reason.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::items::{Fact, FactKind, FnInfo};
use crate::rules::{Hop, Rule, Violation};

/// True for functions the determinism contract declares as seeded roots.
pub fn is_root(f: &FnInfo) -> bool {
    let impl_type = f.impl_type.as_deref();
    (impl_type == Some("TagletsSystem") && f.name == "run")
        || (impl_type == Some("ServingEngine") && f.name == "run")
        || (impl_type == Some("Router") && f.name == "run")
        || (f.trait_name.as_deref() == Some("TagletModule") && f.name == "train")
        || impl_type == Some("Executor")
        || f.name == "sweep_method"
}

/// Runs the analysis: produces TL007 (reachable nondeterminism, with
/// chains), TL008 and TL009 violations, already filtered by rule scope and
/// per-site suppressions.
pub fn analyze(graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();

    // Site-level rules first: every fact of the matching kind, wherever it
    // sits in library code.
    for f in &graph.fns {
        for fact in &f.facts {
            let rule = match fact.kind {
                FactKind::MapIter => Rule::Tl008,
                FactKind::RngNotSeedDerived => Rule::Tl009,
                _ => continue,
            };
            if rule.applies_to(&f.file) && !suppressed(fact, rule) {
                out.push(Violation {
                    rule,
                    file: f.file.clone(),
                    line: fact.line,
                    excerpt: format!("{} [{}]", fact.what, fact.kind.describe()),
                    chain: Vec::new(),
                });
            }
        }
    }

    // Taint pass: BFS from each root; a fact is reported once, with the
    // first (shortest) chain that reaches it, roots scanned in definition
    // order so output is deterministic.
    let mut reported: BTreeMap<(usize, usize), ()> = BTreeMap::new();
    let roots: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| is_root(&graph.fns[i]))
        .collect();
    for &root in &roots {
        let mut parent: Vec<Option<usize>> = vec![None; graph.fns.len()];
        let mut seen = vec![false; graph.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[root] = true;
        queue.push_back(root);
        while let Some(at) = queue.pop_front() {
            let f = &graph.fns[at];
            for (fact_idx, fact) in f.facts.iter().enumerate() {
                if !Rule::Tl007.applies_to(&f.file)
                    || suppressed(fact, Rule::Tl007)
                    || reported.contains_key(&(at, fact_idx))
                {
                    continue;
                }
                reported.insert((at, fact_idx), ());
                out.push(Violation {
                    rule: Rule::Tl007,
                    file: f.file.clone(),
                    line: fact.line,
                    excerpt: format!("{} [{}]", fact.what, fact.kind.describe()),
                    chain: chain_to(graph, &parent, root, at),
                });
            }
            for &(next, _) in &graph.edges[at] {
                if !seen[next] {
                    seen[next] = true;
                    parent[next] = Some(at);
                    queue.push_back(next);
                }
            }
        }
    }
    out
}

/// True when the fact's line suppresses `rule` — either an explicit
/// `allow(TLxxx)` or a reasoned `nondeterministic(...)` waiver.
fn suppressed(fact: &Fact, rule: Rule) -> bool {
    fact.waived || fact.allows.iter().any(|a| a == rule.code())
}

/// Reconstructs root → … → `at` from BFS parent pointers. Shared with the
/// concurrency stage, whose TL011 chains are built the same way.
pub(crate) fn chain_to(
    graph: &CallGraph,
    parent: &[Option<usize>],
    root: usize,
    at: usize,
) -> Vec<Hop> {
    let mut rev = vec![at];
    let mut cursor = at;
    while cursor != root {
        match parent[cursor] {
            Some(p) => {
                rev.push(p);
                cursor = p;
            }
            None => break,
        }
    }
    rev.reverse();
    rev.into_iter()
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
    use crate::lexer::lex;
    use crate::scanner::scan;

    fn analyze_src(src: &str) -> Vec<Violation> {
        let lines = scan(src);
        analyze(&build(
            extract("crates/core/src/system.rs", &lex(src), &lines).fns,
        ))
    }

    #[test]
    fn roots_cover_the_contract() {
        let src = "impl TagletsSystem {\n    fn run(&self) {}\n}\nimpl TagletModule for FixMatch {\n    fn train(&self) {}\n}\nimpl Executor {\n    fn map_indexed(&self) {}\n}\nimpl<'a> ServingEngine<'a> {\n    fn run() {}\n    fn submit(&self) {}\n}\nimpl<'a> Router<'a> {\n    fn run() {}\n    fn dispatch(&self) {}\n}\nfn sweep_method() {}\nfn helper() {}\n";
        let lines = scan(src);
        let fns = extract("crates/core/src/system.rs", &lex(src), &lines).fns;
        let rooted: Vec<bool> = fns.iter().map(is_root).collect();
        assert_eq!(
            rooted,
            vec![true, true, true, true, false, true, false, true, false]
        );
    }

    #[test]
    fn reachable_time_source_is_reported_with_chain() {
        let src = "impl TagletsSystem {\n    fn run(&self) { self.stage(); }\n    fn stage(&self) { jitter(); }\n}\nfn jitter() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n";
        let v = analyze_src(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl007);
        let names: Vec<&str> = v[0].chain.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["TagletsSystem::run", "TagletsSystem::stage", "jitter"]
        );
    }

    #[test]
    fn unreachable_sources_do_not_taint() {
        let src = "impl TagletsSystem {\n    fn run(&self) {}\n}\nfn orphan() { let t = Instant::now(); }\n";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn waiver_with_reason_silences_all_three_rules() {
        let src = "impl TagletsSystem {\n    fn run(&self) {\n        let t = Instant::now(); // lint: nondeterministic(stage telemetry only)\n        let r = thread_rng(); // lint: nondeterministic(exploratory sampling, not part of results)\n    }\n}\n";
        assert!(analyze_src(src).is_empty());
    }

    #[test]
    fn reasonless_waiver_does_not_silence() {
        let src = "impl TagletsSystem {\n    fn run(&self) {\n        let t = Instant::now(); // lint: nondeterministic()\n    }\n}\n";
        let v = analyze_src(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl007);
    }

    #[test]
    fn site_rules_fire_without_reachability() {
        let src = "fn untouched(m: &HashMap<u8, u8>) {\n    for x in m { }\n    let r = StdRng::seed_from_u64(x);\n}\n";
        let v = analyze_src(src);
        let rules: Vec<Rule> = v.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::Tl008, Rule::Tl009]);
    }

    #[test]
    fn allow_silences_one_rule_only() {
        let src = "fn f(m: &HashMap<u8, u8>) {\n    for x in m { } // lint: allow(TL008)\n    let r = thread_rng(); // lint: allow(TL008)\n}\n";
        let v = analyze_src(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl009);
    }
}
