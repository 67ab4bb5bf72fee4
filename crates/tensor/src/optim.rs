//! First-order optimizers: SGD (with momentum/Nesterov/weight decay) and Adam.
//!
//! Optimizers operate positionally: the caller passes the same parameter list
//! in the same order on every step, paired with gradients of matching shape.
//! This keeps parameter ownership with the model (see `taglets-nn`) while the
//! optimizer owns only its slot state (momentum buffers, Adam moments).

use crate::Tensor;

/// A first-order optimizer over a fixed, positionally-identified parameter set.
///
/// Implementations lazily size their state on the first [`Optimizer::step`].
///
/// # Examples
///
/// ```
/// use taglets_tensor::{Sgd, SgdConfig, Optimizer, Tensor};
///
/// let mut w = Tensor::from_vec(vec![1.0]);
/// let grad = Tensor::from_vec(vec![0.5]);
/// let mut opt = Sgd::new(SgdConfig { lr: 0.1, ..SgdConfig::default() });
/// opt.step(&mut [&mut w], &[Some(grad)]);
/// assert!((w.data()[0] - 0.95).abs() < 1e-6);
/// ```
pub trait Optimizer {
    /// Applies one update. `grads[i]` is the gradient for `params[i]`
    /// (a `None` gradient leaves the parameter untouched).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, if a gradient's shape differs
    /// from its parameter, or if the parameter count changes between steps.
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Option<Tensor>]);

    /// Sets the learning rate (used by schedules between steps).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;
}

/// Configuration for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Use Nesterov momentum (the FixMatch paper's setting).
    pub nesterov: bool,
    /// Decoupled L2 weight decay applied to the parameter values.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.01,
            momentum: 0.0,
            nesterov: false,
            weight_decay: 0.0,
        }
    }
}

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug)]
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Vec<Option<Tensor>>,
    /// Reused effective-gradient buffer (replaces the per-step `clone()`);
    /// resized by `copy_from` per slot, so one buffer serves all shapes.
    scratch: Tensor,
}

impl Sgd {
    /// Creates an SGD optimizer with the given configuration.
    pub fn new(cfg: SgdConfig) -> Self {
        assert!(cfg.lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.momentum),
            "momentum must be in [0,1)"
        );
        Sgd {
            cfg,
            velocity: Vec::new(),
            scratch: Tensor::default(),
        }
    }

    /// The paper's most common setting: lr with momentum 0.9.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd::new(SgdConfig {
            lr,
            momentum,
            ..SgdConfig::default()
        })
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Option<Tensor>]) {
        assert_eq!(params.len(), grads.len(), "one gradient slot per parameter");
        if self.velocity.is_empty() {
            self.velocity = vec![None; params.len()];
        }
        assert_eq!(self.velocity.len(), params.len(), "parameter count changed");
        // The update below is arithmetic-for-arithmetic the classic
        // `g = grad.clone(); ...` formulation, with the effective gradient
        // living either in `grad` itself (read-only cases) or in the
        // reused `scratch` buffer — copies carry exact bits, so removing
        // the per-slot allocations cannot change any update.
        let Sgd {
            cfg,
            velocity,
            scratch,
        } = self;
        let wd = cfg.weight_decay > 0.0;
        let slots = params.iter_mut().zip(grads).zip(velocity.iter_mut());
        #[expect(
            clippy::unused_enumerate_index,
            reason = "the update loop is kept as the bit pins were recorded with it"
        )]
        for (_slot, ((param, grad), vel)) in slots.enumerate() {
            let Some(grad) = grad else { continue };
            #[cfg(feature = "strict-numerics")]
            crate::checks::enforce_optimizer_invariants("SGD", _slot, param, grad);
            assert_eq!(param.shape(), grad.shape(), "gradient shape mismatch");
            if wd {
                scratch.copy_from(grad);
                scratch.add_scaled(param, cfg.weight_decay);
            }
            if cfg.momentum > 0.0 {
                let v = vel.get_or_insert_with(|| Tensor::zeros(param.shape()));
                v.scale_assign(cfg.momentum);
                v.add_assign(if wd { &*scratch } else { grad });
                if cfg.nesterov {
                    if !wd {
                        scratch.copy_from(grad);
                    }
                    scratch.add_scaled(v, cfg.momentum);
                    param.add_scaled(scratch, -cfg.lr);
                } else {
                    // Formerly `g = v.clone()`: the update reads v directly.
                    param.add_scaled(v, -cfg.lr);
                }
            } else if wd {
                param.add_scaled(scratch, -cfg.lr);
            } else {
                param.add_scaled(grad, -cfg.lr);
            }
        }
    }

    fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.cfg.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }
}

/// Configuration for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first-moment estimate.
    pub beta1: f32,
    /// Exponential decay for the second-moment estimate.
    pub beta2: f32,
    /// Numerical stabiliser added to the denominator.
    pub eps: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The Adam optimizer (Kingma & Ba), used by the paper for the end model and
/// for pretraining ZSL-KG.
#[derive(Debug)]
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
    /// Reused weight-decay effective-gradient buffer (replaces the per-step
    /// `clone()`).
    scratch: Tensor,
}

impl Adam {
    /// Creates an Adam optimizer with the given configuration.
    pub fn new(cfg: AdamConfig) -> Self {
        assert!(cfg.lr > 0.0, "learning rate must be positive");
        Adam {
            cfg,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            scratch: Tensor::default(),
        }
    }

    /// Adam with a learning rate and the standard β defaults.
    pub fn with_lr(lr: f32) -> Self {
        Adam::new(AdamConfig {
            lr,
            ..AdamConfig::default()
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Tensor], grads: &[Option<Tensor>]) {
        assert_eq!(params.len(), grads.len(), "one gradient slot per parameter");
        if self.m.is_empty() {
            self.m = vec![None; params.len()];
            self.v = vec![None; params.len()];
        }
        assert_eq!(self.m.len(), params.len(), "parameter count changed");
        self.t += 1;
        let Adam {
            cfg,
            t,
            m,
            v,
            scratch,
        } = self;
        let b1t = 1.0 - cfg.beta1.powi(*t as i32);
        let b2t = 1.0 - cfg.beta2.powi(*t as i32);
        let wd = cfg.weight_decay > 0.0;
        for (i, (param, grad)) in params.iter_mut().zip(grads).enumerate() {
            let Some(grad) = grad else { continue };
            #[cfg(feature = "strict-numerics")]
            crate::checks::enforce_optimizer_invariants("Adam", i, param, grad);
            assert_eq!(param.shape(), grad.shape(), "gradient shape mismatch");
            // Effective gradient: `grad` itself, or the reused scratch when
            // weight decay modifies it (bitwise identical to the former
            // `grad.clone()` since copies carry exact bits).
            let g: &Tensor = if wd {
                scratch.copy_from(grad);
                scratch.add_scaled(param, cfg.weight_decay);
                scratch
            } else {
                grad
            };
            let mi = m[i].get_or_insert_with(|| Tensor::zeros(param.shape()));
            let vi = v[i].get_or_insert_with(|| Tensor::zeros(param.shape()));
            mi.scale_assign(cfg.beta1);
            mi.add_scaled(g, 1.0 - cfg.beta1);
            vi.scale_assign(cfg.beta2);
            // Fused form of `v.add_scaled(&g.mul(&g), 1-β2)` without the g²
            // temporary: `gv*gv` then `c2 * (gv*gv)` then `+=` is the exact
            // rounding sequence of the two-step original.
            let c2 = 1.0 - cfg.beta2;
            for (vv, gv) in vi.data_mut().iter_mut().zip(g.data()) {
                *vv += c2 * (gv * gv);
            }
            let lr = cfg.lr;
            let eps = cfg.eps;
            for ((p, mv), vv) in param.data_mut().iter_mut().zip(mi.data()).zip(vi.data()) {
                let m_hat = mv / b1t;
                let v_hat = vv / b2t;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }

    fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.cfg.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn quadratic_grad(w: &Tensor) -> Tensor {
        // f(w) = 0.5 ||w - 3||² ⇒ ∇f = w - 3
        w.map(|v| v - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut w = Tensor::from_vec(vec![0.0, 10.0, -4.0]);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            ..SgdConfig::default()
        });
        for _ in 0..200 {
            let g = quadratic_grad(&w);
            opt.step(&mut [&mut w], &[Some(g)]);
        }
        assert!(w.data().iter().all(|&v| (v - 3.0).abs() < 1e-3), "{w:?}");
    }

    #[test]
    fn momentum_accelerates_over_plain_sgd() {
        let run = |momentum: f32| {
            let mut w = Tensor::from_vec(vec![10.0]);
            let mut opt = Sgd::new(SgdConfig {
                lr: 0.02,
                momentum,
                ..SgdConfig::default()
            });
            for _ in 0..50 {
                let g = quadratic_grad(&w);
                opt.step(&mut [&mut w], &[Some(g)]);
            }
            (w.data()[0] - 3.0).abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut w = Tensor::from_vec(vec![-20.0, 40.0]);
        let mut opt = Adam::with_lr(0.5);
        for _ in 0..400 {
            let g = quadratic_grad(&w);
            opt.step(&mut [&mut w], &[Some(g)]);
        }
        assert!(w.data().iter().all(|&v| (v - 3.0).abs() < 1e-2), "{w:?}");
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient_signal() {
        let mut w = Tensor::from_vec(vec![5.0]);
        let zero = Tensor::zeros(&[1]);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..SgdConfig::default()
        });
        for _ in 0..10 {
            opt.step(&mut [&mut w], &[Some(zero.clone())]);
        }
        assert!(w.data()[0] < 5.0 && w.data()[0] > 0.0);
    }

    #[test]
    fn none_gradient_leaves_parameter_untouched() {
        let mut w = Tensor::from_vec(vec![1.0]);
        let mut opt = Sgd::new(SgdConfig::default());
        opt.step(&mut [&mut w], &[None]);
        assert_eq!(w.data(), &[1.0]);
    }

    #[test]
    fn nesterov_matches_direction_of_plain_momentum_near_optimum() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut w = Tensor::randn(&[4], 1.0, &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            nesterov: true,
            ..SgdConfig::default()
        });
        for _ in 0..300 {
            let g = quadratic_grad(&w);
            opt.step(&mut [&mut w], &[Some(g)]);
        }
        assert!(w.data().iter().all(|&v| (v - 3.0).abs() < 1e-2));
    }
}
