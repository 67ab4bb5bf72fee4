//! Fixture: the replica engine behind the router. Its admission path reads
//! the wall clock — the TL007 fact the `Router::run` root must reach
//! through `dispatch`. `ServingEngine::run` is deliberately absent so the
//! router is the *only* taint root that reaches `submit`.

pub struct ServingEngine {
    depth: usize,
}

impl ServingEngine {
    /// Setup-cut target: constructors never fire even from a hot root.
    pub fn idle() -> Self {
        ServingEngine { depth: 0 }
    }

    /// Terminal hop of the TL007 chain: stamps admission with real time.
    pub fn submit(&mut self, _req: &Req) { // lint: root(hot)
        let _admitted_at = Instant::now();
        self.depth += 1;
    }
}
