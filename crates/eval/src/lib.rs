//! # taglets-eval
//!
//! Experiment infrastructure for reproducing the TAGLETS evaluation: a
//! shared [`Experiment`] environment (universe → tasks → SCADS → model zoo →
//! pretrained ZSL-KG), a [`Method`] enum covering every row of Tables 1–6,
//! per-seed [`Stats`] with the paper's ± 95%-CI formatting, and plain-text
//! [`TextTable`] rendering. The `taglets-bench` crate drives these to
//! regenerate each table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod metrics;
mod runner;
mod serve_report;

pub use error::EvalError;
pub use format::{fmt_delta_pct, fmt_stats, TextTable};
pub use metrics::{mean, Stats};
pub use runner::{
    run_taglets_detailed, sweep_method, Experiment, ExperimentScale, Method, SweepCell,
    TagletsDetail,
};
pub use serve_report::{render_serve_json, render_serve_text};
