//! End-to-end fixture test for the determinism taint analysis: scans a
//! miniature workspace (`tests/fixtures/taint_ws/`) shaped like the real
//! one and asserts TL007 fires with the full multi-hop call chain from
//! `TagletsSystem::run` down to the function holding `Instant::now()`.

use std::path::PathBuf;

use taglets_lint::{scan_workspace, Rule};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("taint_ws")
}

#[test]
fn tl007_reports_a_multi_hop_chain_from_the_seeded_root() {
    let violations = scan_workspace(&fixture_root()).expect("fixture workspace scans");
    let tl007: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::Tl007)
        .collect();
    assert_eq!(
        tl007.len(),
        2,
        "one reachable time source per fixture root expected, got: {violations:?}"
    );

    let v = tl007
        .iter()
        .find(|v| v.file == "crates/core/src/system.rs")
        .expect("system.rs chain present");
    assert!(
        v.excerpt.contains("Instant::now"),
        "excerpt names the source: {}",
        v.excerpt
    );

    // The chain must walk root → … → containing function with at least
    // three hops, so the diagnostic explains *how* the seeded path reaches
    // the wall clock.
    let names: Vec<&str> = v.chain.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "TagletsSystem::run",
            "TagletsSystem::train_modules",
            "measure_stage",
            "stage_clock",
        ]
    );
    assert!(v.chain.len() >= 3, "chain has at least three hops");
    for hop in &v.chain {
        assert_eq!(hop.file, "crates/core/src/system.rs");
        assert!(hop.line >= 1);
    }
}

#[test]
fn tl007_roots_the_serving_engine_run_path() {
    // `ServingEngine::run` is a seeded taint root (ISSUE 4): an
    // `Instant::now()` injected anywhere in the serve path must surface as
    // a TL007 chain from the root down to the offending function.
    let violations = scan_workspace(&fixture_root()).expect("fixture workspace scans");
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::Tl007 && v.file == "crates/core/src/serve.rs")
        .expect("serve.rs chain present");
    assert!(
        v.excerpt.contains("Instant::now"),
        "excerpt names the source: {}",
        v.excerpt
    );
    let names: Vec<&str> = v.chain.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["ServingEngine::run", "flush_deadline", "batch_clock"]
    );
    for hop in &v.chain {
        assert_eq!(hop.file, "crates/core/src/serve.rs");
    }
}

#[test]
fn unreachable_nondeterminism_in_the_fixture_stays_silent() {
    // The fixture has no orphan sources, so TL007 count is exactly the one
    // reachable site; nothing else in the mini-workspace may fire TL008/9.
    let violations = scan_workspace(&fixture_root()).expect("fixture workspace scans");
    assert!(
        violations
            .iter()
            .all(|v| !matches!(v.rule, Rule::Tl008 | Rule::Tl009)),
        "fixture must be free of map-iteration and unseeded-RNG findings: {violations:?}"
    );
}
