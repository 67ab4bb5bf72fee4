//! Inference half of the hot-path hygiene fixture: the tail of the pinned
//! TL014 chain plus an indexing TL016 inside a batched-inference root.

/// Hop three of the pinned chain: the unwaived allocation the walk from
/// `ServingEngine::run` must reach two files away.
pub fn pack_rows(rows: &[f32]) -> Vec<f32> {
    rows.to_vec()
}

/// A latency-critical root in its own right: fires TL016 directly.
pub fn predict_proba_batched(probs: &[f32], idx: usize) -> f32 { // lint: root(hot)
    probs[idx]
}

/// Cold code: facts here must stay silent — nothing reaches it.
pub fn export_report(rows: &[f32]) -> Vec<f32> {
    let copy = rows.to_vec();
    copy
}
