//! A `root(...)` marker that names an unknown analysis or does not sit on
//! a function definition would silently declare nothing, so the CLI fails
//! the run with exit 2 and names the file and line.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Writes `src` as the only library file of a scratch workspace and runs
/// `taglets-lint --check` over it, returning (exit code, stderr).
fn lint(name: &str, src: &str) -> (Option<i32>, String) {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("stale scratch removed");
    }
    let dir = root.join("crates").join("core").join("src");
    fs::create_dir_all(&dir).expect("scratch workspace created");
    fs::write(dir.join("lib.rs"), src).expect("source written");
    let out = Command::new(env!("CARGO_BIN_EXE_taglets-lint"))
        .arg("--check")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("lint binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn well_placed_markers_pass() {
    let (code, stderr) = lint(
        "root_markers_ok",
        "/// Marked trailing.\nfn a() {} // lint: root(determinism, hot)\n/// Marked above.\n#[inline]\n// lint: root(hot)\nfn b() {}\n",
    );
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn every_misplaced_or_unknown_marker_exits_2_naming_its_line() {
    let cases = [
        ("root_markers_unknown", "fn a() {} // lint: root(fast)\n", 1),
        ("root_markers_empty", "fn a() {} // lint: root()\n", 1),
        (
            "root_markers_above_attribute",
            "// lint: root(hot)\n#[inline]\nfn a() {}\n",
            2,
        ),
        (
            "root_markers_not_a_fn",
            "fn a() {\n    let x = 1; // lint: root(determinism)\n}\n",
            2,
        ),
        (
            "root_markers_trailing_file",
            "fn a() {}\n// lint: root(hot)\n",
            2,
        ),
    ];
    for (name, src, line) in cases {
        let (code, stderr) = lint(name, src);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("crates/core/src/lib.rs:{line}: `root(")),
            "{name}: stderr must name the marker's file and line: {stderr}"
        );
    }
}
