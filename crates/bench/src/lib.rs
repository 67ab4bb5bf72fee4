//! # taglets-bench
//!
//! Benchmark harness for the TAGLETS reproduction. Each paper table/figure
//! has a bench target under `benches/` (plain `harness = false` binaries
//! that print paper-style rows), plus the serving-engine sweep
//! (`serving_latency`) and the GEMM kernel rows (`kernels`). Helpers
//! shared by the bench binaries live here.

mod support;

pub use support::{method_table, shot_grid, table_cell, write_results, TableCell};
