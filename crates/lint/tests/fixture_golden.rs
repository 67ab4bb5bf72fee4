//! Golden-file tests for the analyses: every diagnostic each fixture
//! workspace (`tests/fixtures/<ws>/`) produces, rendered with
//! [`taglets_lint::report::violation_json`] in [`taglets_lint::scan_workspace`]
//! order, must match the checked-in `tests/golden/<ws>.jsonl` byte for byte.
//! The files pin rule, site, excerpt and call chain at once, so a change to
//! the lexer, the per-line metadata, the per-file rules, the extractor,
//! call-graph or reachability engine that moves any of them shows up as a
//! diff. `rules_ws` holds the TL001–TL006 hits and non-hits: literals,
//! comments, test regions and allow directives; and one TL007 libm call
//! beside a tape op named like one and a waived call.
//!
//! Regenerate after an intentional analysis change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p taglets-lint --test fixture_golden
//! ```

use std::fs;
use std::path::PathBuf;

use taglets_lint::report::violation_json;
use taglets_lint::scan_workspace;

/// Fixture workspaces and how many diagnostics each must produce.
const WORKSPACES: [(&str, usize); 5] = [
    ("conc_ws", 5),
    ("hotpath_ws", 3),
    ("route_ws", 3),
    ("rules_ws", 33),
    ("taint_ws", 6),
];

fn tests_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests")
}

#[test]
fn fixture_workspaces_match_their_golden_diagnostics() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (ws, expected_count) in WORKSPACES {
        let violations = scan_workspace(&tests_dir().join("fixtures").join(ws))
            .expect("fixture workspace scans");
        assert_eq!(
            violations.len(),
            expected_count,
            "{ws} diagnostic count: {violations:?}"
        );
        let actual: String = violations
            .iter()
            .map(|v| violation_json(v) + "\n")
            .collect();
        let golden_path = tests_dir().join("golden").join(format!("{ws}.jsonl"));
        if update {
            fs::write(&golden_path, &actual).expect("golden file is writable");
            continue;
        }
        let expected = fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {} — run with UPDATE_GOLDEN=1 to create it",
                golden_path.display()
            )
        });
        assert_eq!(
            actual,
            expected,
            "{ws} diagnostics diverged from {}",
            golden_path.display()
        );
    }
}
