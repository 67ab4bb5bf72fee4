//! Hand-computed fixtures pinning the eval metrics: every number asserted
//! here was derived on paper, so a regression in averaging or the interval
//! formula breaks against an independent source rather than a
//! re-derivation of the code.

use taglets_eval::Stats;

#[test]
fn stats_interval_matches_hand_computed_ci() {
    // accuracies 0.50, 0.58, 0.66: mean 0.58, σ = 0.08,
    // sem = 0.08/√3 ≈ 0.046188, ci95 = 1.96·sem ≈ 0.090528.
    let s = Stats::from_values(&[0.50, 0.58, 0.66]);
    assert!((s.mean - 0.58).abs() < 1e-6);
    assert!((s.ci95 - 0.090528).abs() < 1e-4, "ci95 = {}", s.ci95);
    assert_eq!(s.to_string(), "58.00 ± 9.05");
}
