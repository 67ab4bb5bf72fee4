// Token classes around shared state: `unsafe` as a bare keyword vs the
// `unsafe_code` ident, Atomic types, orderings, compound assignment
// operators, and a `lint:` comment that must stay out of the tokens.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

static mut LEGACY: usize = 0;

fn claim(next: &AtomicUsize, total: &mut f32, chunk: f32) -> usize {
    // lint: concurrency(claim counter only orders claiming)
    let i = next.fetch_add(1, Ordering::Relaxed);
    let order = std::cmp::Ordering::Less;
    *total += chunk;
    // raw read: pointer validity is argued by the caller
    let v = unsafe { *(&LEGACY as *const usize) };
    i + v
}
