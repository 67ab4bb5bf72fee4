//! Schema test for the `--json` contract: per-stage wall-times and
//! per-rule hit counts in the summary object, and the diagnostic line
//! shape. Downstream tooling greps these keys, so lint performance and
//! rule coverage stay visible PR-over-PR.

use std::path::PathBuf;

use taglets_lint::report::{summary_json, violation_json};
use taglets_lint::{scan_workspace_timed, ALL_RULES, STAGES};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("hotpath_ws")
}

#[test]
fn stage_timings_cover_the_pipeline_in_order() {
    let (_, timings) = scan_workspace_timed(&fixture_root()).expect("fixture scans");
    let stages: Vec<&str> = timings.iter().map(|t| t.stage).collect();
    assert_eq!(stages, STAGES.to_vec());
    assert_eq!(
        STAGES,
        ["scan", "rules", "items", "callgraph", "hot"],
        "stage names are part of the --json contract"
    );
}

#[test]
fn summary_json_carries_stages_and_rule_counts() {
    let (violations, timings) = scan_workspace_timed(&fixture_root()).expect("fixture scans");
    let json = summary_json(&violations, &timings);

    for key in [
        "\"summary\":true",
        "\"total\":",
        "\"regressing_entries\":",
        "\"blocking_entries\":",
        "\"ok\":",
        "\"stages\":[",
        "\"rules\":{",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    for stage in STAGES {
        assert!(
            json.contains(&format!("{{\"stage\":\"{stage}\",\"millis\":")),
            "missing stage {stage} in {json}"
        );
    }
    for rule in ALL_RULES {
        assert!(
            json.contains(&format!("\"{}\":", rule.code())),
            "missing rule count {} in {json}",
            rule.code()
        );
    }
    // The fixture seeds known hits; the counts must reflect them.
    for rule in ["TL014", "TL015", "TL016"] {
        assert!(json.contains(&format!("\"{rule}\":1")), "{json}");
    }
}

#[test]
fn diagnostic_lines_keep_their_keys() {
    let (violations, _) = scan_workspace_timed(&fixture_root()).expect("fixture scans");
    let chained = violations
        .iter()
        .find(|v| !v.chain.is_empty())
        .expect("fixture has a chained diagnostic");
    let line = violation_json(chained);
    for key in [
        "\"rule\":",
        "\"file\":",
        "\"line\":",
        "\"description\":",
        "\"excerpt\":",
        "\"advisory\":",
        "\"chain\":[{\"fn\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}
