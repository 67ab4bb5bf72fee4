//! Miniature serving engine for the hot-path hygiene fixture: a
//! latency-critical root whose call chain crosses into `crates/nn`, one
//! blocking site on the flush path, waived sites that must stay silent,
//! and setup code the root-relative cut must never walk into.

use crate::infer::pack_rows;

pub struct ServingEngine {
    queue: Receiver,
    scratch: InferScratch,
}

impl ServingEngine {
    /// Setup: allocations here are the point and must stay silent.
    pub fn new(capacity: usize) -> Self {
        let backing = Vec::with_capacity(capacity);
        ServingEngine {
            queue: Receiver::over(backing),
            scratch: InferScratch::empty(),
        }
    }

    /// The latency-critical root: drains the queue and dispatches batches.
    pub fn run(&mut self) { // lint: root(determinism, hot)
        let req = self.queue.recv();
        let flat = build_input(&req);
        let first = flat[0]; // lint: panicfree(admission rejects empty inputs)
        let audit = flat.to_vec(); // lint: alloc(the audit log owns its copy)
        let _g = self.queue.lock(); // lint: allow(TL015)
        self.scratch.grow(flat.len().max(first as usize + audit.len()));
    }
}

/// Hop two of the pinned chain: still allocation-free itself.
fn build_input(req: &Request) -> Vec<f32> {
    pack_rows(req.rows())
}

pub struct InferScratch {
    buf: Vec<f32>,
}

impl InferScratch {
    /// Setup-cut target: `*Scratch` methods never fire even when a hot
    /// root calls them.
    pub fn empty() -> Self {
        InferScratch { buf: Vec::new() }
    }

    /// One-time resize; the `to_vec` below must never fire.
    pub fn grow(&mut self, n: usize) {
        self.buf.resize(n, 0.0);
        let shadow = self.buf.to_vec();
        self.buf.truncate(shadow.len());
    }
}
