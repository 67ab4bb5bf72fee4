//! End-to-end test of the analyzer over a miniature routed-serving
//! workspace (`tests/fixtures/route_ws/`): a `Router::run` root whose
//! dispatch path reaches a heap allocation in the fingerprint helper
//! (TL014), with constructors the setup cut must keep silent.
//!
//! The fixture's `ServingEngine` deliberately has no `run`, so the exact
//! chain pins that the router root actually drives the walk, rather than
//! riding along an engine root.

use std::path::PathBuf;

use taglets_lint::{scan_workspace, Rule, Violation};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("route_ws")
}

fn scan() -> Vec<Violation> {
    scan_workspace(&fixture_root()).expect("fixture workspace scans")
}

#[test]
fn tl014_fires_from_the_router_root() {
    let v = scan();
    let allocs: Vec<&Violation> = v.iter().filter(|v| v.rule == Rule::Tl014).collect();
    assert_eq!(
        allocs.len(),
        1,
        "exactly one reachable allocation: {allocs:?}"
    );
    assert_eq!(allocs[0].file, "crates/core/src/route.rs");
    assert!(allocs[0].excerpt.contains(".to_vec()"));
    let names: Vec<&str> = allocs[0].chain.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["Router::run", "dispatch", "fingerprint"],
        "the allocation is reached from the router root, not an engine root"
    );
}

#[test]
fn constructors_stay_silent_under_the_setup_cut() {
    // `Router::new` allocates its replica vector; nothing may fire there,
    // so the pinned chain is the only report.
    let v = scan();
    assert!(
        !v.iter().any(|v| v.excerpt.contains("Vec::with_capacity")),
        "constructor allocation fired: {v:?}"
    );
    assert_eq!(v.len(), 1, "exactly the pinned chain: {v:?}");
}
