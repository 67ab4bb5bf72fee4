//! Fixture: a seeded pipeline whose telemetry helper leaks wall-clock time.
//! The chain run → train_modules → measure_stage → stage_clock is what the
//! taint pass must reconstruct.

pub struct TagletsSystem;
impl TagletsSystem {
    // lint: root(determinism)
    pub fn run(&self) {
        self.train_modules();
    }

    fn train_modules(&self) {
        measure_stage();
    }
}

fn measure_stage() {
    let _nanos = stage_clock();
}

fn stage_clock() -> u128 {
    Instant::now().elapsed().as_nanos()
}
