//! Runs the lint engine over the actual workspace so `cargo test` enforces
//! it: any violation fails this test with the offending sites listed. Also
//! pins the clippy configuration that holds the determinism and
//! concurrency line, so an entry cannot drop out unnoticed.

use std::fs;
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
        "crates/lint/src/reach.rs",
    ] {
        assert!(
            files.iter().any(|f| f == expected),
            "scan misses {expected}"
        );
    }
}

/// The `path = "..."` entries of the `key = [ ... ]` list in `clippy.toml`.
fn clippy_list<'a>(config: &'a str, key: &str) -> Vec<&'a str> {
    let start = config
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
    let body = &config[start..];
    let body = &body[..body.find("\n]").unwrap_or(body.len())];
    body.split("path = \"")
        .skip(1)
        .filter_map(|entry| entry.split('"').next())
        .collect()
}

#[test]
fn clippy_config_holds_the_determinism_and_concurrency_line() {
    let root = workspace_root();
    let config = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml is readable");
    let methods = clippy_list(&config, "disallowed-methods");
    let mut expected_methods = vec![
        "std::time::Instant::now".to_string(),
        "std::time::SystemTime::now".to_string(),
        "std::thread::spawn".to_string(),
        "std::thread::scope".to_string(),
        "std::thread::Builder::new".to_string(),
        "std::process::id".to_string(),
        "std::hash::RandomState::new".to_string(),
    ];
    for float in ["f32", "f64"] {
        for f in ["exp", "ln", "tanh", "sin", "cos"] {
            expected_methods.push(format!("{float}::{f}"));
        }
    }
    for f in ["iter", "iter_mut", "keys", "values", "values_mut", "drain"] {
        expected_methods.push(format!("std::collections::HashMap::{f}"));
    }
    for f in ["iter", "drain"] {
        expected_methods.push(format!("std::collections::HashSet::{f}"));
    }
    for method in &expected_methods {
        assert!(
            methods.contains(&method.as_str()),
            "clippy.toml disallowed-methods lost {method}"
        );
    }

    let types = clippy_list(&config, "disallowed-types");
    let mut expected_types: Vec<String> = [
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::cell::Cell",
        "std::cell::RefCell",
        "std::cell::UnsafeCell",
        "std::cell::OnceCell",
        "std::sync::OnceLock",
        "std::cell::LazyCell",
        "std::sync::LazyLock",
        "std::sync::atomic::AtomicBool",
        "std::sync::atomic::AtomicPtr",
    ]
    .map(String::from)
    .to_vec();
    for sign in ["I", "U"] {
        for width in ["8", "16", "32", "64", "size"] {
            expected_types.push(format!("std::sync::atomic::Atomic{sign}{width}"));
        }
    }
    for ty in &expected_types {
        assert!(
            types.contains(&ty.as_str()),
            "clippy.toml disallowed-types lost {ty}"
        );
    }

    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("Cargo.toml is readable");
    let section = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .expect("the root Cargo.toml has a [workspace.lints.clippy] table");
    for lint in [
        "disallowed_methods",
        "disallowed_types",
        "iter_over_hash_type",
        "float_cmp",
    ] {
        assert!(
            section
                .lines()
                .any(|l| l.trim() == format!("{lint} = \"warn\"")),
            "[workspace.lints.clippy] must set {lint} = \"warn\""
        );
    }
}
