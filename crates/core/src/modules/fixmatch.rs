//! The FixMatch module; see [`FixMatchModule`].

use rand::rngs::StdRng;

use taglets_data::Augmenter;
use taglets_nn::{fit_hard, shuffled_batches, train_step, Classifier, FitConfig, FitReport};
use taglets_tensor::{confidence_rows, GradScratch, LrSchedule, Sgd, SgdConfig, Tensor};

use crate::{ClassifierTaglet, CoreError, ModuleContext, TagletModule, TrainedTaglet};

/// The FixMatch module (Sec. 3.2.3): consistency-regularised semi-supervised
/// learning, initialised from a backbone fine-tuned on SCADS-selected
/// auxiliary data to fight confirmation bias.
///
/// Each step combines a supervised loss on weakly-augmented labeled examples
/// with the FixMatch unlabeled objective: pseudo-label the weak view
/// `u_a = α(u)` when `max φ(u_a) ≥ τ`, and train the strong view `u_b`
/// against that label.
///
/// The plain FixMatch *baseline* (Sec. 4.2) runs the same loop,
/// [`fixmatch_train`], without the SCADS phase — the auxiliary-data
/// initialisation is what Sec. 4.4.2 shows lets the module beat it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixMatchModule {
    augmenter: Augmenter,
}

impl FixMatchModule {
    /// Module display name.
    pub const NAME: &'static str = "fixmatch";

    /// The standard module: backbone first fine-tuned on `R`.
    pub fn new() -> Self {
        FixMatchModule::default()
    }
}

impl TagletModule for FixMatchModule {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn train(&self, ctx: &ModuleContext<'_>, rng: &mut StdRng) -> Result<TrainedTaglet, CoreError> {
        if ctx.split.labeled_y.is_empty() {
            return Err(CoreError::NoLabeledData { module: Self::NAME });
        }
        let cfg = &ctx.config.fixmatch;
        let backbone = ctx.zoo.get(ctx.backbone).backbone();
        let mut report = FitReport::default();

        // SCADS pretraining phase (the module's addition over the baseline).
        let mut clf = match ctx.auxiliary_training_set() {
            Some((aux_x, aux_y)) => {
                let mut clf = Classifier::new(backbone, ctx.selection.num_aux_classes(), rng);
                let mut opt = Sgd::with_momentum(cfg.pretrain_lr, 0.9);
                let fit = FitConfig::new(cfg.pretrain_epochs, cfg.batch_size, cfg.pretrain_lr);
                report.absorb(fit_hard(&mut clf, &aux_x, &aux_y, &fit, &mut opt, rng));
                clf.reset_head(ctx.num_classes(), rng);
                clf
            }
            None => Classifier::new(backbone, ctx.num_classes(), rng),
        };

        // Warm start the head on the labeled data so pseudo labels are not
        // uniform noise in the first epochs (standard practice; the paper's
        // million-step budget amortises this instead).
        {
            let mut opt = Sgd::with_momentum(cfg.pretrain_lr, 0.9);
            let fit = FitConfig::new(10, cfg.batch_size, cfg.pretrain_lr);
            report.absorb(fit_hard(
                &mut clf,
                &ctx.split.labeled_x,
                &ctx.split.labeled_y,
                &fit,
                &mut opt,
                rng,
            ));
        }

        report.absorb(fixmatch_train(
            &mut clf,
            &ctx.split.labeled_x,
            &ctx.split.labeled_y,
            ctx.unlabeled,
            cfg,
            &self.augmenter,
            rng,
        ));

        Ok(TrainedTaglet::new(
            Box::new(ClassifierTaglet::new(Self::NAME, clf)),
            report,
        ))
    }
}

/// The FixMatch semi-supervised loop, shared by the module and the plain
/// FixMatch baseline (Sec. 4.2): per step, supervised cross-entropy on
/// weakly-augmented labeled data plus confidence-masked cross-entropy of the
/// strong view against the weak view's pseudo label, under Nesterov SGD with
/// the `η·cos(7πk/16K)` schedule.
///
/// A no-op when the unlabeled pool is empty. Returns the per-epoch mean of
/// the combined (labeled + weighted unlabeled) loss and the step count.
pub fn fixmatch_train(
    clf: &mut Classifier,
    labeled_x: &Tensor,
    labeled_y: &[usize],
    unlabeled: &Tensor,
    cfg: &crate::FixMatchConfig,
    augmenter: &Augmenter,
    rng: &mut StdRng,
) -> FitReport {
    let mut report = FitReport::default();
    if unlabeled.rows() == 0 || labeled_x.rows() == 0 {
        return report;
    }
    let mut opt = Sgd::new(SgdConfig {
        lr: cfg.lr,
        momentum: 0.9,
        nesterov: true,
        ..SgdConfig::default()
    });
    let steps_per_epoch = unlabeled.rows().div_ceil(cfg.batch_size);
    let total_steps = (cfg.epochs * steps_per_epoch).max(1);
    let schedule = LrSchedule::fixmatch_cosine(cfg.lr, total_steps);

    let labeled_n = labeled_x.rows();
    let labeled_batch = cfg.batch_size.min(labeled_n);
    let mut scratch = GradScratch::new();
    let mut step = 0usize;
    for _epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        let mut epoch_batches = 0usize;
        for u_batch in shuffled_batches(unlabeled.rows(), cfg.batch_size, rng) {
            let u_rows = unlabeled.gather_rows(&u_batch);

            // Pseudo-label the weak view with the current model.
            let u_weak = augmenter.weak_batch(&u_rows, rng);
            let probs = clf.predict_proba(&u_weak);
            let conf = confidence_rows(&probs);
            let pseudo: Vec<usize> = conf.iter().map(|&(c, _)| c).collect();
            let weights: Vec<f32> = conf
                .iter()
                .map(|&(_, p)| if p >= cfg.tau { 1.0 } else { 0.0 })
                .collect();

            let u_strong = augmenter.strong_batch(&u_rows, rng);
            let l_idx: Vec<usize> = (0..labeled_batch)
                .map(|_| rand::Rng::gen_range(rng, 0..labeled_n))
                .collect();
            let l_rows = labeled_x.gather_rows(&l_idx);
            let l_weak = augmenter.weak_batch(&l_rows, rng);
            let l_y: Vec<usize> = l_idx.iter().map(|&i| labeled_y[i]).collect();

            let lr = Some(schedule.lr_at(step));
            epoch_loss += train_step(clf, &mut opt, lr, &mut scratch, |clf, tape, vars| {
                let lx = tape.constant(l_weak);
                let logits_l = clf.forward_logits(tape, vars, lx, true, rng);
                let loss_l = tape.softmax_cross_entropy(logits_l, &l_y);

                let ux = tape.constant(u_strong);
                let logits_u = clf.forward_logits(tape, vars, ux, true, rng);
                let lp_u = tape.log_softmax(logits_u);
                let loss_u = tape.nll_weighted(lp_u, &pseudo, &weights);

                let weighted_u = tape.scale(loss_u, cfg.lambda_u);
                tape.add(loss_l, weighted_u)
            });
            epoch_batches += 1;
            step += 1;
        }
        report
            .epoch_losses
            .push(epoch_loss / epoch_batches.max(1) as f32);
    }
    report.steps = step;
    report
}
