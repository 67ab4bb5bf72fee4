//! The executor may spawn threads; TL006 does not apply here.

/// Runs `f` on a scoped worker.
pub fn run(f: fn()) {
    std::thread::scope(|s| {
        s.spawn(f);
    });
}
