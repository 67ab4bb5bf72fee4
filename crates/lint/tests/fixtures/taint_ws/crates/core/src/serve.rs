//! Fixture: a serving engine whose deadline flush consults the wall clock.
//! The chain run → flush_deadline → batch_clock is what the taint pass
//! must reconstruct from the `ServingEngine::run` root.

pub struct ServingEngine<'a> {
    _model: &'a (),
}
impl<'a> ServingEngine<'a> {
    // lint: root(determinism, hot)
    pub fn run() {
        flush_deadline();
    }
}

fn flush_deadline() {
    let _deadline = batch_clock();
}

fn batch_clock() -> u128 {
    Instant::now().elapsed().as_nanos()
}
