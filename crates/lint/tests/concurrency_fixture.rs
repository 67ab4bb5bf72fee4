//! End-to-end test of the concurrency-safety stage (TL011–TL013) over a
//! miniature workspace (`tests/fixtures/conc_ws/`) shaped like the real
//! one: an executor core with reasoned waivers, a deliberately seeded
//! three-hop TL011 race, and TL012/TL013 sites.

use std::path::PathBuf;

use taglets_lint::{scan_workspace, Rule, Violation};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("conc_ws")
}

fn scan() -> Vec<Violation> {
    scan_workspace(&fixture_root()).expect("fixture workspace scans")
}

#[test]
fn tl011_reports_the_three_hop_chain() {
    let v = scan();
    let raced: Vec<&Violation> = v
        .iter()
        .filter(|v| v.rule == Rule::Tl011 && !v.chain.is_empty())
        .collect();
    assert_eq!(raced.len(), 1, "exactly one reachable race: {raced:?}");
    assert_eq!(raced[0].file, "crates/core/src/pool.rs");
    let names: Vec<&str> = raced[0].chain.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["run_pool", "evaluate", "lookup"],
        "the dispatch-to-Mutex path is three hops"
    );
}

#[test]
fn tl011_flags_file_scope_fields_without_a_chain() {
    let v = scan();
    let fields: Vec<&Violation> = v
        .iter()
        .filter(|v| v.rule == Rule::Tl011 && v.chain.is_empty())
        .collect();
    assert_eq!(fields.len(), 1, "{fields:?}");
    assert_eq!(fields[0].file, "crates/core/src/pool.rs");
    assert!(fields[0].excerpt.contains("Cell"));
}

#[test]
fn tl013_flags_the_worker_closure_reduction() {
    let v = scan();
    let hits: Vec<&Violation> = v.iter().filter(|v| v.rule == Rule::Tl013).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].file, "crates/core/src/stats.rs");
    assert!(hits[0].excerpt.contains("total += chunk"));
}

#[test]
fn tl012_fires_outside_the_waived_executor_core() {
    let v = scan();
    let hits: Vec<&Violation> = v.iter().filter(|v| v.rule == Rule::Tl012).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].file, "crates/core/src/stats.rs");
    assert!(hits[0].excerpt.contains("Ordering::Relaxed"));
}

#[test]
fn the_waived_executor_core_is_silent() {
    let v = scan();
    assert!(
        !v.iter().any(|v| v.file == "crates/tensor/src/exec.rs"
            && matches!(v.rule, Rule::Tl011 | Rule::Tl012 | Rule::Tl013)),
        "reasoned waivers must silence the executor core"
    );
}
