//! Seeded TL012/TL013 sites: a float reduction across worker closures
//! and a relaxed atomic outside the executor core.
//!

use std::sync::atomic::{AtomicU64, Ordering};

/// Sums chunks through worker closures — the non-associative reduction
/// TL013 exists to catch.
pub fn reduce(executor: &Executor, chunks: &[f32]) -> f32 {
    let mut total = 0.0_f32;
    executor.for_each(chunks.len(), |i, chunk| {
        total += chunk;
    });
    total
}

/// Bumps a counter with a relaxed ordering (TL012 site).
pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}
