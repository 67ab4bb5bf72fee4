//! JSON rendering for the lint CLI.
//!
//! Hand-rolled (the crate is std-only) but schema-stable: the shapes here
//! are asserted by the `json_contract` integration test, so downstream
//! tooling can parse `--json` output without a JSON dependency drifting
//! underneath it.
//!
//! Two line shapes exist:
//!
//! * a **diagnostic** per violation — `rule`, `file`, `line`,
//!   `description`, `excerpt`, `advisory`, and the (possibly empty) TL007/
//!   TL011 call `chain`;
//! * one trailing **summary** object — totals, the (rule, file) entries
//!   with hits and how many of them block, per-stage wall-times (`stages`), and per-rule hit counts (`rules`,
//!   every rule present, zeros included, so counts are diffable
//!   PR-over-PR).

use std::collections::BTreeSet;

use crate::rules::{Rule, Violation};
use crate::{StageTiming, ALL_RULES};

/// Renders one violation as a single-line JSON object.
pub fn violation_json(v: &Violation) -> String {
    let mut chain = String::from("[");
    for (i, hop) in v.chain.iter().enumerate() {
        if i > 0 {
            chain.push(',');
        }
        chain.push_str(&format!(
            "{{\"fn\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
            json_escape(&hop.name),
            json_escape(&hop.file),
            hop.line
        ));
    }
    chain.push(']');
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"description\":\"{}\",\"excerpt\":\"{}\",\"advisory\":{},\"chain\":{}}}",
        v.rule.code(),
        json_escape(&v.file),
        v.line,
        json_escape(v.rule.description()),
        json_escape(&v.excerpt),
        v.rule.is_advisory(),
        chain
    )
}

/// Renders the trailing summary object for `--check --json`.
/// `regressing_entries` counts the (rule, file) entries with any hit,
/// `blocking_entries` those with a non-advisory hit; `ok` means none block.
pub fn summary_json(violations: &[Violation], timings: &[StageTiming]) -> String {
    let entries: BTreeSet<(Rule, &str)> = violations
        .iter()
        .map(|v| (v.rule, v.file.as_str()))
        .collect();
    let blocking = entries.iter().filter(|(r, _)| !r.is_advisory()).count();
    let stages: Vec<String> = timings
        .iter()
        .map(|t| format!("{{\"stage\":\"{}\",\"millis\":{}}}", t.stage, t.millis))
        .collect();
    format!(
        "{{\"summary\":true,\"total\":{},\"regressing_entries\":{},\"blocking_entries\":{},\"ok\":{},\"stages\":[{}],\"rules\":{{{}}}}}",
        violations.len(),
        entries.len(),
        blocking,
        blocking == 0,
        stages.join(","),
        rule_counts(violations)
    )
}

/// Renders `BENCH_lint.json`: analyzer cost and violation trajectory as one
/// machine-readable line. `min_nanos` pairs each stage (in [`crate::STAGES`]
/// order) with its minimum wall-time across the benchmark's repeated runs —
/// the same min-of-N discipline as `BENCH_kernels.json`, at nanosecond
/// resolution because the whole pipeline finishes in milliseconds. Rule hit
/// counts list every rule, zeros included, so counts diff PR-over-PR. The
/// header records the host's core count and the timing protocol, as
/// `BENCH_kernels.json`'s does, so a diff against a baseline from another
/// host shows it.
pub fn bench_json(
    runs: usize,
    files: usize,
    cores: usize,
    min_nanos: &[(&'static str, u128)],
    violations: &[Violation],
) -> String {
    let stages: Vec<String> = min_nanos
        .iter()
        .map(|(stage, nanos)| {
            format!(
                "{{\"stage\":\"{stage}\",\"min_nanos\":{nanos},\"min_millis\":{:.3}}}",
                *nanos as f64 / 1e6
            )
        })
        .collect();
    let total: u128 = min_nanos.iter().map(|(_, n)| n).sum();
    format!(
        "{{\"bench\":\"lint\",\"cores\":{cores},\"protocol\":\"{BENCH_PROTOCOL}\",\"runs\":{runs},\"files\":{files},\"total_min_nanos\":{total},\"total_min_millis\":{:.3},\"stages\":[{}],\"rules\":{{{}}},\"total_violations\":{}}}",
        total as f64 / 1e6,
        stages.join(","),
        rule_counts(violations),
        violations.len()
    )
}

/// How `--bench` times the pipeline, recorded in the `BENCH_lint.json`
/// header.
pub const BENCH_PROTOCOL: &str = "single-threaded; the whole pipeline runs `runs` times over \
     the tree in one process, and each stage reports its minimum wall-time";

/// Per-rule hit counts as JSON object members, every rule present (zeros
/// included) so counts diff PR-over-PR.
fn rule_counts(violations: &[Violation]) -> String {
    let counts: Vec<String> = ALL_RULES
        .iter()
        .map(|r| {
            let hits = violations.iter().filter(|v| v.rule == *r).count();
            format!("\"{}\":{hits}", r.code())
        })
        .collect();
    counts.join(",")
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Hop;

    #[test]
    fn violation_json_includes_chain_hops() {
        let v = Violation {
            rule: Rule::Tl011,
            file: "crates/core/src/pool.rs".to_string(),
            line: 9,
            excerpt: "Mutex [interior-mutability type (shared mutable state)]".to_string(),
            chain: vec![Hop {
                name: "run_pool".to_string(),
                file: "crates/core/src/pool.rs".to_string(),
                line: 1,
            }],
        };
        let json = violation_json(&v);
        assert!(json.contains("\"rule\":\"TL011\""));
        assert!(json.contains("\"chain\":[{\"fn\":\"run_pool\""));
    }

    #[test]
    fn summary_lists_every_rule_and_stage() {
        let timings = vec![
            StageTiming {
                stage: "scan",
                millis: 3,
                nanos: 3_000_000,
            },
            StageTiming {
                stage: "concurrency",
                millis: 1,
                nanos: 1_000_000,
            },
        ];
        let json = summary_json(&[], &timings);
        for rule in ALL_RULES {
            assert!(json.contains(&format!("\"{}\":0", rule.code())), "{json}");
        }
        assert!(json.contains("{\"stage\":\"scan\",\"millis\":3}"));
        assert!(json.contains("\"ok\":true"));
    }

    #[test]
    fn summary_counts_entries_and_blocking_ones() {
        let v = |rule: Rule, file: &str| Violation {
            rule,
            file: file.to_string(),
            line: 1,
            excerpt: String::new(),
            chain: Vec::new(),
        };
        let violations = [
            v(Rule::Tl001, "a.rs"),
            v(Rule::Tl001, "a.rs"),
            v(Rule::Tl001, "b.rs"),
            v(Rule::Tl005, "a.rs"),
        ];
        let json = summary_json(&violations, &[]);
        assert!(json
            .contains("\"total\":4,\"regressing_entries\":3,\"blocking_entries\":2,\"ok\":false"));
        let advisory_only = summary_json(&violations[3..], &[]);
        assert!(advisory_only.contains("\"blocking_entries\":0,\"ok\":true"));
    }

    #[test]
    fn bench_json_lists_every_stage_and_rule() {
        let mins: Vec<(&'static str, u128)> =
            crate::STAGES.iter().map(|s| (*s, 1_500_000u128)).collect();
        let json = bench_json(9, 34, 2, &mins, &[]);
        for stage in crate::STAGES {
            assert!(
                json.contains(&format!("{{\"stage\":\"{stage}\",\"min_nanos\":1500000")),
                "{json}"
            );
        }
        for rule in ALL_RULES {
            assert!(json.contains(&format!("\"{}\":0", rule.code())), "{json}");
        }
        assert!(json.contains("\"runs\":9"));
        assert!(json.contains("\"cores\":2,\"protocol\":\"single-threaded;"));
        assert!(json.contains("\"min_millis\":1.500"));
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
