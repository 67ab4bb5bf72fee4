//! Learning-rate schedules used throughout the TAGLETS training recipes
//! (paper Appendix A.5).
//!
//! Each schedule maps a 0-based step index to a learning rate; trainers call
//! [`LrSchedule::lr_at`] before every optimizer step.

use crate::math;

/// A learning-rate schedule.
///
/// # Examples
///
/// ```
/// use taglets_tensor::LrSchedule;
///
/// // Warm up for 2 steps, then decay ×0.1 at step 6.
/// let s = LrSchedule::warmup_milestones(1.0, 2, vec![6], 0.1);
/// assert!(s.lr_at(0) < 1.0);
/// assert_eq!(s.lr_at(3), 1.0);
/// assert!((s.lr_at(7) - 0.1).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant {
        /// The fixed rate.
        base_lr: f32,
    },
    /// Multiply the learning rate by `gamma` at each milestone step.
    /// Used by the Transfer/Multi-task modules (e.g. decay ×0.1 at epochs 20
    /// and 30 of 40).
    Milestones {
        /// Peak rate before any decay.
        base_lr: f32,
        /// Steps at which the rate is multiplied by `gamma`.
        milestones: Vec<usize>,
        /// Multiplicative decay factor per milestone.
        gamma: f32,
    },
    /// Linear warmup from 0 over `warmup_steps`, then milestone decay.
    /// The BiT fine-tuning recipe.
    WarmupMilestones {
        /// Peak rate reached at the end of warmup.
        base_lr: f32,
        /// Steps over which the rate ramps linearly.
        warmup_steps: usize,
        /// Steps at which the rate is multiplied by `gamma`.
        milestones: Vec<usize>,
        /// Multiplicative decay factor per milestone.
        gamma: f32,
    },
    /// FixMatch's truncated cosine: `η · cos(7πk / 16K)`.
    FixMatchCosine {
        /// Initial rate `η`.
        base_lr: f32,
        /// Horizon `K` of the schedule.
        total_steps: usize,
    },
    /// Meta Pseudo Labels' half cosine: `η/2 · (1 + cos(πk / K))`.
    HalfCosine {
        /// Initial rate `η`.
        base_lr: f32,
        /// Horizon `K` of the schedule.
        total_steps: usize,
    },
}

impl LrSchedule {
    /// Constant schedule at `base_lr`.
    pub fn constant(base_lr: f32) -> Self {
        LrSchedule::Constant { base_lr }
    }

    /// Milestone decay schedule.
    pub fn milestones(base_lr: f32, milestones: Vec<usize>, gamma: f32) -> Self {
        LrSchedule::Milestones {
            base_lr,
            milestones,
            gamma,
        }
    }

    /// Linear warmup followed by milestone decay.
    pub fn warmup_milestones(
        base_lr: f32,
        warmup_steps: usize,
        milestones: Vec<usize>,
        gamma: f32,
    ) -> Self {
        LrSchedule::WarmupMilestones {
            base_lr,
            warmup_steps,
            milestones,
            gamma,
        }
    }

    /// FixMatch's `η · cos(7πk / 16K)` schedule over `total_steps`.
    pub fn fixmatch_cosine(base_lr: f32, total_steps: usize) -> Self {
        LrSchedule::FixMatchCosine {
            base_lr,
            total_steps: total_steps.max(1),
        }
    }

    /// Meta Pseudo Labels' `η/2 · (1 + cos(πk/K))` schedule over `total_steps`.
    pub fn half_cosine(base_lr: f32, total_steps: usize) -> Self {
        LrSchedule::HalfCosine {
            base_lr,
            total_steps: total_steps.max(1),
        }
    }

    /// The schedule's base (peak) learning rate.
    pub fn base_lr(&self) -> f32 {
        match *self {
            LrSchedule::Constant { base_lr }
            | LrSchedule::Milestones { base_lr, .. }
            | LrSchedule::WarmupMilestones { base_lr, .. }
            | LrSchedule::FixMatchCosine { base_lr, .. }
            | LrSchedule::HalfCosine { base_lr, .. } => base_lr,
        }
    }

    /// Learning rate at 0-based step `k`.
    ///
    /// All schedules return a strictly positive value so optimizers never see
    /// a degenerate rate (the cosine schedules are floored at 1e-3 of base).
    pub fn lr_at(&self, k: usize) -> f32 {
        let lr = match self {
            LrSchedule::Constant { base_lr } => *base_lr,
            LrSchedule::Milestones {
                base_lr,
                milestones,
                gamma,
            } => {
                let hits = milestones.iter().filter(|&&m| k >= m).count() as i32;
                base_lr * gamma.powi(hits)
            }
            LrSchedule::WarmupMilestones {
                base_lr,
                warmup_steps,
                milestones,
                gamma,
            } => {
                if k < *warmup_steps {
                    base_lr * (k + 1) as f32 / *warmup_steps as f32
                } else {
                    let hits = milestones.iter().filter(|&&m| k >= m).count() as i32;
                    base_lr * gamma.powi(hits)
                }
            }
            LrSchedule::FixMatchCosine {
                base_lr,
                total_steps,
            } => {
                let frac = (k as f32 / *total_steps as f32).min(1.0);
                base_lr * math::cos_pi(7.0 * frac / 16.0)
            }
            LrSchedule::HalfCosine {
                base_lr,
                total_steps,
            } => {
                let frac = (k as f32 / *total_steps as f32).min(1.0);
                base_lr / 2.0 * (1.0 + math::cos_pi(frac))
            }
        };
        lr.max(self.base_lr() * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::constant(0.003);
        assert_eq!(s.lr_at(0), 0.003);
        assert_eq!(s.lr_at(10_000), 0.003);
    }

    #[test]
    fn milestones_apply_cumulatively() {
        let s = LrSchedule::milestones(1.0, vec![20, 30], 0.1);
        assert_eq!(s.lr_at(19), 1.0);
        assert!((s.lr_at(20) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(30) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn warmup_ramps_linearly_then_peaks() {
        let s = LrSchedule::warmup_milestones(1.0, 4, vec![], 0.1);
        assert!((s.lr_at(0) - 0.25).abs() < 1e-6);
        assert!((s.lr_at(1) - 0.5).abs() < 1e-6);
        assert!((s.lr_at(3) - 1.0).abs() < 1e-6);
        assert_eq!(s.lr_at(4), 1.0);
    }

    #[test]
    fn fixmatch_cosine_is_decreasing_and_positive() {
        let s = LrSchedule::fixmatch_cosine(0.0005, 100);
        let mut prev = f32::INFINITY;
        for k in 0..100 {
            let lr = s.lr_at(k);
            assert!(lr > 0.0, "lr must stay positive at step {k}");
            assert!(lr <= prev + 1e-9, "cosine schedule must not increase");
            prev = lr;
        }
        // cos(7π/16) ≈ 0.195 of base at the end.
        assert!((s.lr_at(100) / 0.0005 - 0.195).abs() < 0.01);
    }

    #[test]
    fn half_cosine_starts_at_base_and_approaches_zero_floor() {
        let s = LrSchedule::half_cosine(0.001, 50);
        assert!((s.lr_at(0) - 0.001).abs() < 1e-6);
        assert!(s.lr_at(50) <= 0.001 * 1e-3 + 1e-9);
        assert!(s.lr_at(50) > 0.0);
    }

    #[test]
    fn base_lr_is_reported_for_all_variants() {
        for s in [
            LrSchedule::constant(0.5),
            LrSchedule::milestones(0.5, vec![1], 0.1),
            LrSchedule::warmup_milestones(0.5, 2, vec![3], 0.1),
            LrSchedule::fixmatch_cosine(0.5, 10),
            LrSchedule::half_cosine(0.5, 10),
        ] {
            assert_eq!(s.base_lr(), 0.5);
        }
    }
}
