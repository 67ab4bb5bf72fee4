//! `taglets-lint`: a dependency-free static-analysis pass for the TAGLETS
//! workspace.
//!
//! The engine lexes every library source file (`crates/*/src/**/*.rs` plus
//! the root `src/`) once, builds per-line test and directive metadata from
//! the tokens and comments ([`source`]), and applies the TL rule set:
//!
//! | rule  | checks |
//! |-------|--------|
//! | TL004 | `==` / `!=` on float expressions (token-level) |
//! | TL007 | nondeterminism reachable from a deterministic root (taint, with call chain) |
//! | TL008 | iteration over unordered `HashMap`/`HashSet` in library code |
//! | TL009 | RNG construction not derived from a seed |
//! | TL011 | interior mutability reachable from an executor dispatch (with call chain) |
//! | TL012 | atomic memory ordering weaker than `SeqCst` |
//! | TL013 | float accumulation onto shared state in a worker closure |
//! | TL014 | heap allocation reachable from a latency-critical root (with call chain) |
//! | TL015 | blocking operation reachable from a latency-critical root (with call chain) |
//! | TL016 | panic-capable op on the serve path (with call chain) |
//!
//! TL004 matches over each file's tokens ([`rules`]). The workspace-level
//! rules run over per-function facts and a call-graph ([`lexer`] →
//! [`items`] → [`callgraph`] → [`reach`]): TL008, TL009, TL012 and
//! file-scope TL011 fire at the fact's site, while TL007, TL011 and
//! TL014–TL016 are one reachability engine run from three root sets.
//! Determinism and hot-path roots are declared where the function is
//! defined, by a `root(determinism)` / `root(hot)` marker in a `lint:`
//! comment on the `fn` line or directly above it; dispatch roots (TL011)
//! are the functions that hand closures to worker threads. TL013 is a
//! token walk over dispatched closures ([`concurrency`]). `--explain
//! TLxxx` prints each rule's rationale and waiver syntax.
//!
//! Per-file rules the toolchain already has (unwrap and panic macros,
//! wall-clock reads and thread spawning, missing docs, `unsafe`) live in
//! the workspace's `[workspace.lints]` table and `clippy.toml` instead.
//!
//! `--check` fails on any violation. Individual intentional sites can be
//! suppressed with a trailing `// lint: allow(TL004)` comment.
//!
//! The crate is deliberately std-only so the gate builds and runs with
//! `cargo run -p taglets-lint -- --check` even when the crate registry is
//! unreachable.

pub mod callgraph;
pub mod concurrency;
pub mod items;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Hop, Rule, Violation, ALL_RULES};

/// Directory components never scanned (generated, vendored, or test-only).
const SKIP_DIRS: [&str; 6] = ["target", "vendor", ".git", "tests", "benches", "examples"];

/// The analysis stages, in execution order, as reported by
/// [`scan_workspace_timed`]. The names are part of the `--json` contract:
/// `determinism` times the site rules and the determinism walk,
/// `concurrency` the dispatch walk and TL013, `hot` the hot walk.
pub const STAGES: [&str; 7] = [
    "scan",
    "rules",
    "items",
    "callgraph",
    "determinism",
    "concurrency",
    "hot",
];

/// Wall-time spent in one analysis stage. Telemetry only: the values feed
/// the `--json` report so lint performance regressions are visible
/// PR-over-PR, never the analysis results.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// One of [`STAGES`].
    pub stage: &'static str,
    /// Elapsed wall-clock milliseconds.
    pub millis: u128,
    /// Elapsed wall-clock nanoseconds. The whole pipeline runs in a few
    /// milliseconds, so `BENCH_lint.json` records at this resolution;
    /// `millis` stays for the `--json` summary contract.
    pub nanos: u128,
}

/// Scans the workspace rooted at `root` and returns all violations, sorted
/// by (file, line, rule). A misplaced or unknown `root(...)` marker is an
/// `InvalidData` error naming its file and line.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    scan_workspace_timed(root).map(|(v, _)| v)
}

/// [`scan_workspace`] plus per-stage wall-times, in [`STAGES`] order.
pub fn scan_workspace_timed(root: &Path) -> io::Result<(Vec<Violation>, Vec<StageTiming>)> {
    let mut timings = Vec::new();

    // Stage "scan": file discovery, one lexing pass per file, line metadata.
    let t = stage_clock();
    let files = workspace_file_paths(root)?;
    let mut parsed = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file)?;
        parsed.push((relative_path(root, file), source::parse(&text)));
    }
    push_timing(&mut timings, "scan", t);

    // Stage "rules": the per-file token rule (TL004).
    let t = stage_clock();
    let mut violations = Vec::new();
    for (rel, src) in &parsed {
        violations.extend(rules::check_file(rel, src));
    }
    push_timing(&mut timings, "rules", t);

    // Stage "items": per-function facts, calls and root markers.
    let t = stage_clock();
    let mut fns = Vec::new();
    let mut file_facts = Vec::new();
    let mut marker_errors = Vec::new();
    for (rel, src) in &parsed {
        let extraction = items::extract(rel, src);
        fns.extend(extraction.fns);
        file_facts.extend(extraction.file_facts.into_iter().map(|f| (rel.clone(), f)));
        marker_errors.extend(extraction.marker_errors);
    }
    if !marker_errors.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            marker_errors.join("\n"),
        ));
    }
    push_timing(&mut timings, "items", t);

    // Stage "callgraph": name-based over-approximate call resolution.
    let t = stage_clock();
    let graph = callgraph::build(fns);
    push_timing(&mut timings, "callgraph", t);

    // Stage "determinism": site rules (TL008, TL009, TL012, file-scope TL011)
    // and determinism reachability (TL007).
    let t = stage_clock();
    violations.extend(reach::site_rules(&graph, &file_facts));
    violations.extend(reach::reach(&graph, &reach::DETERMINISM));
    push_timing(&mut timings, "determinism", t);

    // Stage "concurrency": dispatch reachability (TL011) and worker-closure
    // accumulation (TL013).
    let t = stage_clock();
    violations.extend(reach::reach(&graph, &reach::DISPATCH));
    for (rel, src) in &parsed {
        violations.extend(concurrency::check_closures(rel, src));
    }
    push_timing(&mut timings, "concurrency", t);

    // Stage "hot": hot-path reachability (TL014–TL016).
    let t = stage_clock();
    violations.extend(reach::reach(&graph, &reach::HOT));
    push_timing(&mut timings, "hot", t);

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok((violations, timings))
}

/// Workspace-relative paths of every file the scan covers, sorted. Public
/// so integration tests can assert scan coverage without re-implementing
/// the walk.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    Ok(workspace_file_paths(root)?
        .iter()
        .map(|f| relative_path(root, f))
        .collect())
}

/// Absolute paths of every scannable source file under `root`, sorted.
fn workspace_file_paths(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rust_files(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rust_files(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// Starts a stage clock. Isolated here so the telemetry waiver covers the
/// single wall-clock read in the crate.
#[expect(
    clippy::disallowed_methods,
    reason = "lint stage telemetry; the value never feeds analysis results"
)]
fn stage_clock() -> std::time::Instant {
    // lint: nondeterministic(lint stage telemetry; the value never feeds analysis results)
    std::time::Instant::now()
}

fn push_timing(timings: &mut Vec<StageTiming>, stage: &'static str, start: std::time::Instant) {
    let elapsed = start.elapsed();
    timings.push(StageTiming {
        stage,
        millis: elapsed.as_millis(),
        nanos: elapsed.as_nanos(),
    });
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`].
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rust_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators (stable across platforms).
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: walks up from `start` to the first
/// `Cargo.toml` declaring `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find_map(|d| {
        let manifest = fs::read_to_string(d.join("Cargo.toml")).ok()?;
        manifest.contains("[workspace]").then(|| d.to_path_buf())
    })
}
