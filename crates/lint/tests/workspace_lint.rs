//! Runs the lint engine over the actual workspace so `cargo test` enforces
//! it: any violation fails this test with the offending sites listed.

use std::path::Path;

use taglets_lint::scan_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn workspace_has_no_blocking_violations() {
    let violations = scan_workspace(workspace_root()).expect("workspace scan succeeds");
    let message: String = violations
        .iter()
        .map(|v| {
            format!(
                "\n    {} {}:{} | {}",
                v.rule.code(),
                v.file,
                v.line,
                v.excerpt
            )
        })
        .collect();
    assert!(message.is_empty(), "lint violations:{message}");
}

#[test]
fn workspace_scan_finds_library_sources() {
    // Guards against the lint silently scanning nothing (e.g. a layout
    // change). Zero violations is the healthy state, so coverage is
    // asserted on the file walk itself instead.
    let root = workspace_root();
    let files = taglets_lint::workspace_files(root).expect("workspace walk succeeds");
    assert!(
        files.len() >= 20,
        "expected the scan to visit the workspace's library sources, saw {} files",
        files.len()
    );
    for expected in [
        "crates/tensor/src/exec.rs",
        "crates/core/src/serve.rs",
        "crates/lint/src/concurrency.rs",
    ] {
        assert!(
            files.iter().any(|f| f == expected),
            "scan misses {expected}"
        );
    }
}
