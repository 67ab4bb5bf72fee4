//! Fixture: a multi-replica router whose dispatch path reaches a heap
//! allocation (in the fingerprint helper). The chain the analyzer must
//! reconstruct from the `Router::run` root is
//! `run → dispatch → fingerprint` (TL014). The replica engine's
//! admission, also reached through `dispatch`, is fact-free, so nothing
//! fires there.

use crate::serve::ServingEngine;

pub struct Router {
    engines: Vec<ServingEngine>,
}

impl Router {
    /// Setup: allocations here are the point and must stay silent.
    pub fn new(replicas: usize) -> Self {
        let mut engines = Vec::with_capacity(replicas);
        engines.resize_with(replicas, ServingEngine::idle);
        Router { engines }
    }

    /// The routing root: replays a request stream across the fleet.
    pub fn run(&mut self, stream: &[Req]) { // lint: root(hot)
        for req in stream {
            dispatch(&mut self.engines, req);
        }
    }
}

/// Hop two of the pinned chain: picks a replica and forwards. Free of
/// facts itself, so nothing may be reported at this hop.
fn dispatch(engines: &mut [ServingEngine], req: &Req) {
    let slot = fingerprint(req);
    if let Some(engine) = engines.iter_mut().nth(slot) {
        engine.submit(req);
    }
}

/// Terminal hop of the TL014 chain: owns a copy of the request bytes.
fn fingerprint(req: &Req) -> usize {
    let owned = req.bytes().to_vec();
    owned.len()
}
