//! Training steps and supervised training loops.
//!
//! [`train_step`] is the one optimizer step every training loop in the
//! workspace takes; the loops differ only in their data and their loss
//! (paper Sec. 3.2–3.3). [`fit`] implements the shared skeleton of every
//! supervised recipe in the paper's Appendix A.5: mini-batch SGD over
//! shuffled data with a learning-rate schedule, for either hard integer
//! labels or soft target distributions (the distillation stage trains on
//! soft pseudo labels).

use rand::seq::SliceRandom;
use rand::Rng;

use taglets_tensor::{GradScratch, LrSchedule, Optimizer, Tape, Tensor, Var};

use crate::{Classifier, Module};

/// Targets for supervised fitting.
#[derive(Debug, Clone)]
pub enum Targets<'a> {
    /// One class index per example.
    Hard(&'a [usize]),
    /// One probability distribution per example (`[n, num_classes]`).
    Soft(&'a Tensor),
}

impl Targets<'_> {
    /// Number of target rows.
    pub fn len(&self) -> usize {
        match self {
            Targets::Hard(labels) => labels.len(),
            Targets::Soft(t) => t.rows(),
        }
    }

    /// `true` when there are no targets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hyperparameters for [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct FitConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Learning-rate schedule, indexed by optimizer step.
    pub schedule: LrSchedule,
    /// Train-time augmentation applied (weakly) to every batch — the
    /// analogue of the paper's random-resized-crop + horizontal-flip
    /// (Appendix A.5). On by default; essential in the 1-shot regime, where
    /// unaugmented full fine-tuning collapses onto single exemplars.
    pub augment: Option<crate::Augmenter>,
}

impl FitConfig {
    /// A config with the given epochs/batch size, a constant rate, and the
    /// default weak augmentation.
    pub fn new(epochs: usize, batch_size: usize, lr: f32) -> Self {
        FitConfig {
            epochs,
            batch_size,
            schedule: LrSchedule::constant(lr),
            augment: Some(crate::Augmenter::default()),
        }
    }

    /// Replaces the schedule.
    pub fn with_schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// Per-epoch training telemetry returned by the fitting functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Total optimizer steps taken.
    pub steps: usize,
}

impl FitReport {
    /// Final epoch's mean loss (`None` before any epoch completes).
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }

    /// Folds another phase's report into this one: epoch losses are
    /// concatenated in phase order, steps accumulate. Multi-phase recipes
    /// (e.g. auxiliary pretraining followed by target fine-tuning) use this
    /// to surface one telemetry stream per module.
    pub fn absorb(&mut self, other: FitReport) {
        self.epoch_losses.extend(other.epoch_losses);
        self.steps += other.steps;
    }
}

/// One optimizer step of `model` on the loss that `loss` records.
///
/// Binds every parameter of `model` as a trainable leaf on a fresh tape,
/// then calls `loss(model, tape, vars)`
/// with the bound variables in [`Module::parameters`] order; the closure
/// records the forward pass and returns the scalar loss node. The backward
/// pass draws its buffers from `scratch`, the gradients pair with the
/// parameters in binding order, the optimizer steps at `lr` (or at its
/// current rate when `None`), and every gradient buffer returns to
/// `scratch` for the next step. Returns the loss value.
///
/// Models trained jointly bind as one tuple (`(A, B)` implements
/// [`Module`]). Keep one `scratch` across a loop's steps: every buffer a
/// step returns to it was drawn from it, so it holds the same number of
/// buffers after every step, none larger than the largest gradient, and
/// the backward pass soon allocates nothing. The bits are those of a
/// fresh scratch.
///
/// # Panics
///
/// Panics if the node `loss` returns is not a scalar.
pub fn train_step<M: Module>(
    model: &mut M,
    opt: &mut dyn Optimizer,
    lr: Option<f32>,
    scratch: &mut GradScratch,
    loss: impl FnOnce(&M, &mut Tape, &[Var]) -> Var,
) -> f32 {
    let mut tape = Tape::new();
    let vars = model.bind(&mut tape);
    let loss = loss(model, &mut tape, &vars);
    let value = tape.value(loss).item();
    let mut grads = tape.backward_with(loss, scratch);
    let grad_vec: Vec<Option<Tensor>> = vars.iter().map(|&v| grads.take(v)).collect();
    if let Some(lr) = lr {
        opt.set_lr(lr);
    }
    opt.step(&mut model.parameters_mut(), &grad_vec);
    scratch.recycle(grads);
    for g in grad_vec.into_iter().flatten() {
        scratch.recycle_tensor(g);
    }
    value
}

/// Random mini-batch index partitions for one epoch.
pub fn shuffled_batches<R: Rng + ?Sized>(
    n: usize,
    batch_size: usize,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch size must be positive");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.chunks(batch_size).map(|c| c.to_vec()).collect()
}

/// Fits `clf` on `(x, targets)` by mini-batch gradient descent.
///
/// Both backbone and head train (full fine-tuning). The loss is softmax
/// cross-entropy — hard or soft according to `targets`.
///
/// # Panics
///
/// Panics if row counts of `x` and `targets` differ or `x` is empty while
/// epochs > 0 (there is nothing to fit).
pub fn fit<R: Rng + ?Sized>(
    clf: &mut Classifier,
    x: &Tensor,
    targets: Targets<'_>,
    cfg: &FitConfig,
    opt: &mut dyn Optimizer,
    rng: &mut R,
) -> FitReport {
    assert_eq!(x.rows(), targets.len(), "one target per input row");
    let mut report = FitReport::default();
    if x.rows() == 0 || cfg.epochs == 0 {
        return report;
    }
    let batch_size = cfg.batch_size.min(x.rows()).max(1);
    let mut scratch = GradScratch::new();
    for _epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        let batches = shuffled_batches(x.rows(), batch_size, rng);
        let n_batches = batches.len();
        for batch in batches {
            let mut xb = x.gather_rows(&batch);
            if let Some(aug) = &cfg.augment {
                xb = aug.weak_batch(&xb, rng);
            }
            let lr = cfg.schedule.lr_at(report.steps);
            epoch_loss += train_step(clf, opt, Some(lr), &mut scratch, |clf, tape, vars| {
                let xv = tape.constant(xb);
                let logits = clf.forward_logits(tape, vars, xv, true, rng);
                match &targets {
                    Targets::Hard(labels) => {
                        let yb: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                        tape.softmax_cross_entropy(logits, &yb)
                    }
                    Targets::Soft(t) => {
                        let tb = t.gather_rows(&batch);
                        tape.soft_cross_entropy(logits, &tb)
                    }
                }
            });
            report.steps += 1;
        }
        report.epoch_losses.push(epoch_loss / n_batches as f32);
    }
    report
}

/// Convenience wrapper: [`fit`] with hard labels.
pub fn fit_hard<R: Rng + ?Sized>(
    clf: &mut Classifier,
    x: &Tensor,
    labels: &[usize],
    cfg: &FitConfig,
    opt: &mut dyn Optimizer,
    rng: &mut R,
) -> FitReport {
    fit(clf, x, Targets::Hard(labels), cfg, opt, rng)
}

/// Convenience wrapper: [`fit`] with soft targets (distillation).
pub fn fit_soft<R: Rng + ?Sized>(
    clf: &mut Classifier,
    x: &Tensor,
    targets: &Tensor,
    cfg: &FitConfig,
    opt: &mut dyn Optimizer,
    rng: &mut R,
) -> FitReport {
    fit(clf, x, Targets::Soft(targets), cfg, opt, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use taglets_tensor::{Sgd, SgdConfig};

    /// Two well-separated Gaussian blobs.
    fn blobs(n_per: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            let center = if class == 0 { 2.0 } else { -2.0 };
            for _ in 0..n_per {
                let noise = Tensor::randn(&[4], 0.5, &mut rng);
                let row: Vec<f32> = noise.data().iter().map(|v| v + center).collect();
                rows.push(row);
                labels.push(class);
            }
        }
        (Tensor::stack_rows(&rows), labels)
    }

    #[test]
    fn fit_hard_separates_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let (x, y) = blobs(20, 1);
        let mut clf = Classifier::from_dims(&[4, 8], 2, 0.0, &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        let report = fit_hard(
            &mut clf,
            &x,
            &y,
            &FitConfig::new(20, 8, 0.05),
            &mut opt,
            &mut rng,
        );
        assert!(clf.accuracy(&x, &y) > 0.95);
        assert!(report.final_loss().unwrap() < report.epoch_losses[0]);
    }

    #[test]
    fn fit_soft_with_one_hot_matches_hard_direction() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = blobs(15, 3);
        let mut one_hot = Tensor::zeros(&[x.rows(), 2]);
        for (i, &c) in y.iter().enumerate() {
            one_hot.set(i, c, 1.0);
        }
        let mut clf = Classifier::from_dims(&[4, 8], 2, 0.0, &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        fit_soft(
            &mut clf,
            &x,
            &one_hot,
            &FitConfig::new(20, 8, 0.05),
            &mut opt,
            &mut rng,
        );
        assert!(clf.accuracy(&x, &y) > 0.9);
    }

    #[test]
    fn zero_epochs_is_a_no_op() {
        let mut rng = StdRng::seed_from_u64(4);
        let (x, y) = blobs(5, 5);
        let mut clf = Classifier::from_dims(&[4, 8], 2, 0.0, &mut rng);
        let before = clf.clone();
        let mut opt = Sgd::new(SgdConfig::default());
        let report = fit_hard(
            &mut clf,
            &x,
            &y,
            &FitConfig::new(0, 8, 0.01),
            &mut opt,
            &mut rng,
        );
        assert_eq!(report.steps, 0);
        assert_eq!(clf, before);
    }

    #[test]
    fn fit_reports_merge_in_phase_order() {
        let a = FitReport {
            epoch_losses: vec![3.0, 2.0],
            steps: 10,
        };
        let b = FitReport {
            epoch_losses: vec![1.0],
            steps: 4,
        };
        let mut merged = a;
        merged.absorb(b);
        assert_eq!(merged.epoch_losses, vec![3.0, 2.0, 1.0]);
        assert_eq!(merged.steps, 14);
        assert_eq!(merged.final_loss(), Some(1.0));
    }

    #[test]
    fn training_artifacts_cross_thread_boundaries() {
        // The staged executor trains modules on scoped worker threads;
        // everything a worker returns or borrows must be Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Classifier>();
        assert_send_sync::<FitReport>();
        assert_send_sync::<FitConfig>();
        assert_send_sync::<Tensor>();
    }

    #[test]
    fn shuffled_batches_partition_all_indices() {
        let mut rng = StdRng::seed_from_u64(6);
        let batches = shuffled_batches(17, 5, &mut rng);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_is_applied_across_steps() {
        let mut rng = StdRng::seed_from_u64(7);
        let (x, y) = blobs(8, 8);
        let mut clf = Classifier::from_dims(&[4, 4], 2, 0.0, &mut rng);
        let mut opt = Sgd::new(SgdConfig::default());
        let cfg =
            FitConfig::new(2, 4, 1.0).with_schedule(LrSchedule::milestones(1.0, vec![2], 0.1));
        fit_hard(&mut clf, &x, &y, &cfg, &mut opt, &mut rng);
        // After 8 steps the last applied LR must reflect the milestone.
        assert!((opt.lr() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn train_step_keeps_the_gradient_pool_the_same_size() {
        // A loop that keeps one scratch allocates nothing after its first
        // step only if every step returns exactly the buffers it drew.
        let mut rng = StdRng::seed_from_u64(4);
        let (x, y) = blobs(8, 5);
        let mut clf = Classifier::from_dims(&[4, 8, 8], 2, 0.3, &mut rng);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut scratch = GradScratch::new();
        let mut sizes = Vec::new();
        for _ in 0..20 {
            train_step(&mut clf, &mut opt, None, &mut scratch, |clf, tape, vars| {
                let xv = tape.constant(x.clone());
                let logits = clf.forward_logits(tape, vars, xv, true, &mut rng);
                tape.softmax_cross_entropy(logits, &y)
            });
            sizes.push(scratch.pooled());
        }
        assert!(
            sizes.iter().all(|&n| n == sizes[0]),
            "pooled buffers after each step {sizes:?} must stay constant"
        );
    }
}
