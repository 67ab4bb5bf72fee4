//! Mini executor core mirroring the real `tensor::exec`: the claim counter
//! and its relaxed ordering carry reasoned waivers, so the concurrency
//! stage must stay silent here.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic work distributor (fixture stand-in).
pub struct Executor;

impl Executor {
    /// Claims jobs atomically; results are reassembled in index order.
    pub fn map(&self, jobs: usize) -> usize { // lint: root(determinism)
        // lint: concurrency(claim counter only orders job claiming; results carry their index and are reassembled in order)
        let next = AtomicUsize::new(0);
        // lint: concurrency(atomic RMW yields unique indices; the scope join is the happens-before edge)
        let i = next.fetch_add(1, Ordering::Relaxed);
        jobs + i
    }
}
