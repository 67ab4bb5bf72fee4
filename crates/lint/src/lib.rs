//! `taglets-lint`: a dependency-free static-analysis pass for the TAGLETS
//! workspace.
//!
//! The engine scans every library source file (`crates/*/src/**/*.rs` plus
//! the root `src/`), strips comments and literal contents with a small
//! Rust-aware scanner, and applies the TL rule set:
//!
//! | rule  | checks |
//! |-------|--------|
//! | TL001 | `unwrap()` / `expect()` in non-test library code |
//! | TL002 | `panic!` / `todo!` / `unreachable!` / `unimplemented!` |
//! | TL003 | nondeterminism sources (`thread_rng`, `rand::random`, `Instant::now`, `SystemTime`) |
//! | TL004 | `==` / `!=` on float expressions (token-level) |
//! | TL005 | missing doc comment on `pub fn` in `tensor`/`core` (advisory) |
//! | TL006 | thread spawning outside `tensor::exec` |
//! | TL007 | nondeterminism reachable from a deterministic root (taint, with call chain) |
//! | TL008 | iteration over unordered `HashMap`/`HashSet` in library code |
//! | TL009 | RNG construction not derived from a seed |
//! | TL010 | `unsafe` code without a reasoned `lint: unsafe(reason)` waiver |
//! | TL011 | interior mutability reachable from an executor dispatch (with call chain) |
//! | TL012 | atomic memory ordering weaker than `SeqCst` |
//! | TL013 | float accumulation onto shared state in a worker closure |
//! | TL014 | heap allocation reachable from a latency-critical root (with call chain) |
//! | TL015 | blocking operation reachable from a latency-critical root (with call chain) |
//! | TL016 | panic-capable op on the serve path (with call chain) |
//!
//! TL001–TL006 come from the line scanner and token stream per file. The
//! workspace-level rules run over per-function facts and a call-graph
//! ([`lexer`] → [`items`] → [`callgraph`] → [`reach`]): TL008–TL010,
//! TL012 and file-scope TL011 fire at the fact's site, while TL007, TL011
//! and TL014–TL016 are one reachability engine run from three root sets.
//! Determinism and hot-path roots are declared where the function is
//! defined, by a `root(determinism)` / `root(hot)` marker in a `lint:`
//! comment on the `fn` line or directly above it; dispatch roots (TL011)
//! are the functions that hand closures to worker threads. TL013 is a
//! token walk over dispatched closures ([`concurrency`]). `--explain
//! TLxxx` prints each rule's rationale and waiver syntax.
//!
//! Pre-existing violations live in `lint-baseline.txt` as per-(rule, file)
//! counts; `--check` fails only on *new* violations and `--update-baseline`
//! locks in burn-down progress. Individual intentional sites can be
//! suppressed with a trailing `// lint: allow(TL002)` comment.
//!
//! The crate is deliberately std-only so the gate builds and runs with
//! `cargo run -p taglets-lint -- --check` even when the crate registry is
//! unreachable.

pub mod baseline;
pub mod callgraph;
pub mod concurrency;
pub mod items;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scanner;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Hop, Rule, Violation, ALL_RULES};

/// Name of the checked-in baseline file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";

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

    // Stage "scan": file discovery, comment stripping, lexing.
    let t = stage_clock();
    let files = workspace_file_paths(root)?;
    let mut parsed = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file)?;
        let rel = relative_path(root, file);
        let lines = scanner::scan(&source);
        let tokens = lexer::lex(&source);
        parsed.push((rel, lines, tokens));
    }
    push_timing(&mut timings, "scan", t);

    // Stage "rules": per-file line- and token-level rules.
    let t = stage_clock();
    let mut violations = Vec::new();
    for (rel, lines, tokens) in &parsed {
        violations.extend(rules::check_file(rel, lines, tokens));
    }
    push_timing(&mut timings, "rules", t);

    // Stage "items": per-function facts, calls and root markers.
    let t = stage_clock();
    let mut fns = Vec::new();
    let mut file_facts = Vec::new();
    let mut marker_errors = Vec::new();
    for (rel, lines, tokens) in &parsed {
        let extraction = items::extract(rel, tokens, lines);
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

    // Stage "determinism": site rules (TL008–TL010, TL012, file-scope TL011)
    // and determinism reachability (TL007).
    let t = stage_clock();
    violations.extend(reach::site_rules(&graph, &file_facts));
    violations.extend(reach::reach(&graph, &reach::DETERMINISM));
    push_timing(&mut timings, "determinism", t);

    // Stage "concurrency": dispatch reachability (TL011) and worker-closure
    // accumulation (TL013).
    let t = stage_clock();
    violations.extend(reach::reach(&graph, &reach::DISPATCH));
    for (rel, lines, tokens) in &parsed {
        violations.extend(concurrency::check_closures(rel, tokens, lines));
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
fn stage_clock() -> std::time::Instant {
    // lint: allow(TL003), nondeterministic(lint stage telemetry; the value never feeds analysis results)
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

/// Locates the workspace root: walks up from `start` looking for the
/// baseline file or a `Cargo.toml` declaring `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join(BASELINE_FILE).is_file() {
            return Some(d);
        }
        if let Ok(manifest) = fs::read_to_string(d.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Regenerates `lint-baseline.txt` at `root` from the current tree and
/// returns `(total violations, rule/file entries)`. Backs both the
/// `--update-baseline` flag and the `UPDATE_BASELINE=1` environment mode
/// (the `UPDATE_GOLDEN=1` idiom), so the baseline is never hand-edited.
pub fn update_baseline(root: &Path) -> Result<(usize, usize), String> {
    let violations =
        scan_workspace(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let counts = baseline::count(&violations);
    let path = root.join(BASELINE_FILE);
    fs::write(&path, baseline::render(&counts))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((violations.len(), counts.len()))
}

/// Loads the baseline at `root`, treating a missing file as empty.
pub fn load_baseline(root: &Path) -> Result<baseline::Counts, String> {
    let path = root.join(BASELINE_FILE);
    match fs::read_to_string(&path) {
        Ok(text) => baseline::parse(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(baseline::Counts::new()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}
