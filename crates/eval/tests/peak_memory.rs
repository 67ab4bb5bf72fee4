//! The process's peak memory over set-up and one TAGLETS run.
//!
//! Builds the smoke-scale experiment (zoo pretraining and ZSL-KG
//! pretraining included), runs Grocery 1-shot at training seed 0, and
//! checks the peak resident set (`VmHWM` in `/proc/self/status`) against a
//! fixed bound. The bound catches a buffer pool or a whole-set temporary
//! that grows with the number of training steps or evaluated rows: the
//! whole run peaks near 19 MiB, while a gradient pool that gains one
//! buffer per step passes 180 MiB by the end of zoo pretraining.
//!
//! It is `#[ignore]`d and in a binary of its own, because the peak belongs
//! to the whole process: run it alone, in release mode, as
//! `cargo test --release --offline -p taglets-eval --test peak_memory -- --ignored`.
//! Where `/proc/self/status` is missing it skips with a message.

use taglets_core::TagletsConfig;
use taglets_eval::{Experiment, ExperimentScale};
use taglets_scads::PruneLevel;

/// The bound on the process's peak resident set, in MiB (the unit of the
/// repository benchmark's `peak_rss_mb`).
const PEAK_RSS_BOUND_MB: f64 = 64.0;

/// `VmHWM` in MiB, or `None` where the process status file is missing or
/// carries no such line.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[test]
#[ignore = "measures the whole process; run alone in release mode (scripts/check.sh `memory`)"]
fn setup_and_one_run_stay_under_the_peak_memory_bound() {
    if peak_rss_mb().is_none() {
        eprintln!("skipped: no VmHWM in /proc/self/status on this platform");
        return;
    }
    let exp = Experiment::standard(ExperimentScale::Smoke).expect("smoke world builds");
    let task = exp.task("grocery_store").expect("grocery task");
    let split = task.split(0, 1);
    let run = exp
        .system(TagletsConfig::default())
        .run(task, &split, PruneLevel::NoPruning, 0)
        .expect("grocery run");
    let acc = run.end_model.accuracy(&split.test_x, &split.test_y);
    let peak = peak_rss_mb().expect("VmHWM was readable at the start");
    eprintln!("peak resident set {peak:.1} MiB (bound {PEAK_RSS_BOUND_MB} MiB), end-model accuracy {acc:.4}");
    assert!(
        peak <= PEAK_RSS_BOUND_MB,
        "peak resident set {peak:.1} MiB exceeds {PEAK_RSS_BOUND_MB} MiB"
    );
}
