//! Benches time things: TL003 and TL006 do not apply, TL001 still does.

use std::time::Instant;

/// Times one call.
pub fn time(f: fn()) -> u128 {
    let t0 = Instant::now();
    std::thread::spawn(f).join().unwrap();
    t0.elapsed().as_nanos()
}
