//! CLI for the workspace lint: `cargo run -p taglets-lint -- [FLAGS]`.
//!
//! * `--check` (default): scan and report; exit 1 on any violation.
//! * `--list`: print every current violation with per-rule totals.
//! * `--json`: machine-readable output — one JSON diagnostic per line,
//!   including TL007/TL011/TL014–TL016 call chains, plus a summary object
//!   with per-stage wall-times and per-rule hit counts (combines with
//!   `--check` or `--list`).
//! * `--bench`: run the whole pipeline repeatedly and print one JSON line —
//!   per-stage minimum wall-times (min-of-9, the `BENCH_kernels.json`
//!   discipline) plus per-rule hit counts. Redirect it into
//!   `BENCH_lint.json` to refresh the checked-in trajectory; a gate run
//!   never overwrites it.
//! * `--explain TLxxx`: print one rule's rationale and waiver syntax.
//! * `--root <dir>`: override workspace-root autodetection.
//!
//! Exit codes: `0` clean, `1` violations, `2` internal lint error (bad
//! arguments, unreadable workspace, misplaced or unknown `root(...)`
//! marker).

use std::collections::BTreeMap;
use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use taglets_lint::report::{bench_json, summary_json, violation_json};
use taglets_lint::{find_workspace_root, scan_workspace_timed};
use taglets_lint::{Rule, Violation, ALL_RULES};

/// Pipeline repetitions for `--bench`, matching BENCH_kernels.json.
const BENCH_RUNS: usize = 9;

enum Mode {
    Check,
    List,
    Bench,
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("taglets-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut mode = Mode::Check;
    // The rule `--explain` names; the last mode flag given wins.
    let mut explain: Option<String> = None;
    let mut json = false;
    let mut root_override: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => (mode, explain) = (Mode::Check, None),
            "--list" => (mode, explain) = (Mode::List, None),
            "--json" => json = true,
            "--bench" => (mode, explain) = (Mode::Bench, None),
            "--explain" => {
                let code = args
                    .next()
                    .ok_or("--explain requires a rule code (see --help)")?;
                explain = Some(code);
            }
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory argument")?;
                root_override = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                print_help();
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }

    // `--explain` needs no workspace at all.
    if let Some(code) = &explain {
        let rule = Rule::from_code(&code.to_uppercase()).ok_or_else(|| {
            let valid: Vec<&str> = ALL_RULES.iter().map(|r| r.code()).collect();
            format!("unknown rule `{code}` (valid: {})", valid.join(", "))
        })?;
        print_explain(rule);
        return Ok(ExitCode::SUCCESS);
    }

    let root = match root_override {
        Some(r) => r,
        None => {
            let cwd = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("cannot locate workspace root (run from the repo or pass --root)")?
        }
    };

    let (violations, timings) =
        scan_workspace_timed(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;

    match mode {
        Mode::List => {
            for v in &violations {
                if json {
                    println!("{}", violation_json(v));
                } else {
                    println!(
                        "{} {}:{} {} | {}",
                        v.rule.code(),
                        v.file,
                        v.line,
                        v.rule.description(),
                        v.excerpt
                    );
                    print_chain(v);
                }
            }
            if !json {
                print_totals(&violations);
            }
            Ok(ExitCode::SUCCESS)
        }
        Mode::Bench => {
            // First run already happened above; 8 more complete the
            // min-of-9. Per-stage minimums absorb scheduler noise the same
            // way BENCH_kernels.json's interleaved pairs do.
            let mut mins: Vec<(&'static str, u128)> =
                timings.iter().map(|t| (t.stage, t.nanos)).collect();
            for _ in 1..BENCH_RUNS {
                let (_, t) = scan_workspace_timed(&root)
                    .map_err(|e| format!("scanning {}: {e}", root.display()))?;
                for (slot, timing) in mins.iter_mut().zip(&t) {
                    slot.1 = slot.1.min(timing.nanos);
                }
            }
            let files = taglets_lint::workspace_files(&root)
                .map_err(|e| format!("listing {}: {e}", root.display()))?
                .len();
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            println!(
                "{}",
                bench_json(BENCH_RUNS, files, cores, &mins, &violations)
            );
            Ok(ExitCode::SUCCESS)
        }
        Mode::Check => {
            if json {
                for v in &violations {
                    println!("{}", violation_json(v));
                }
                println!("{}", summary_json(&violations, &timings));
            } else {
                report_check(&violations);
            }
            if violations.is_empty() {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
            }
        }
    }
}

/// Prints a TL007/TL011 chain under its diagnostic in the human-readable
/// modes.
fn print_chain(v: &Violation) {
    for (i, hop) in v.chain.iter().enumerate() {
        println!(
            "    {}└─ {} ({}:{})",
            "   ".repeat(i),
            hop.name,
            hop.file,
            hop.line
        );
    }
}

/// Prints every violation with its site, then the verdict.
fn report_check(violations: &[Violation]) {
    for v in violations {
        println!(
            "error: {} {}:{} | {}",
            v.rule.code(),
            v.file,
            v.line,
            v.excerpt
        );
        print_chain(v);
    }
    if violations.is_empty() {
        println!("lint check passed");
    } else {
        println!("lint check FAILED: {} violation(s)", violations.len());
    }
}

/// Prints one rule's one-line description, rationale paragraph, and waiver
/// syntax — the same table DESIGN.md §6 renders.
fn print_explain(rule: Rule) {
    println!("{} — {}", rule.code(), rule.description());
    println!();
    println!("{}", rule.rationale());
    println!();
    println!("waiver: {}", rule.waiver());
}

fn print_totals(violations: &[Violation]) {
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for v in violations {
        *per_rule.entry(v.rule.code()).or_insert(0) += 1;
    }
    let summary: Vec<String> = ALL_RULES
        .iter()
        .map(|r| {
            format!(
                "{} {}",
                r.code(),
                per_rule.get(r.code()).copied().unwrap_or(0)
            )
        })
        .collect();
    println!(
        "totals: {} ({} violations)",
        summary.join(", "),
        violations.len()
    );
}

fn print_help() {
    println!(
        "taglets-lint: std-only static analysis for the TAGLETS workspace\n\
         \n\
         USAGE: cargo run -p taglets-lint -- [--check | --list | --bench | --explain TLxxx] [--root DIR]\n\
         \n\
         --check            report violations; exit 1 on any (default)\n\
         --list             print every violation with per-rule totals\n\
         --json             one JSON diagnostic per line plus a summary with stage timings\n\
         --bench            print BENCH_lint.json's line (min-of-{BENCH_RUNS} per-stage wall-times + per-rule counts)\n\
         --explain TLxxx    print one rule's rationale and waiver syntax\n\
         --root DIR         workspace root (default: walk up from the current directory)\n\
         \n\
         EXIT CODES: 0 clean · 1 violations · 2 internal lint error"
    );
}
