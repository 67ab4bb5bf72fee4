//! Fixture: the replica engine behind the router. Its admission path is
//! fact-free, and its constructor sits behind the setup cut.

pub struct ServingEngine {
    depth: usize,
}

impl ServingEngine {
    /// Setup-cut target: constructors never fire even from a hot root.
    pub fn idle() -> Self {
        ServingEngine { depth: 0 }
    }

    /// Admission: a hot root in its own right, reached by the router too.
    pub fn submit(&mut self, _req: &Req) { // lint: root(hot)
        self.depth += 1;
    }
}
