//! The Multi-task module (Sec. 3.2.2): joint training of the target task and
//! the auxiliary task built from `R`, sharing one backbone.
//!
//! Optimises `L_joint = L_target + λ·L_aux` (Eq. 3–5) with two heads on a
//! shared encoder. Each step draws one mini-batch from `R` (which paces the
//! epoch count) and one from `X`.

use rand::rngs::StdRng;

use taglets_nn::{shuffled_batches, Augmenter, Classifier, FitReport, Linear, Module};
use taglets_tensor::{LrSchedule, Optimizer, Sgd, SgdConfig, Tape, Tensor};

use crate::{ClassifierTaglet, CoreError, ModuleContext, TagletModule, TrainedTaglet};

/// The Multi-task module. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiTaskModule;

impl MultiTaskModule {
    /// Module display name.
    pub const NAME: &'static str = "multitask";
}

impl TagletModule for MultiTaskModule {
    fn name(&self) -> &str {
        Self::NAME
    }

    // lint: root(determinism)
    fn train(&self, ctx: &ModuleContext<'_>, rng: &mut StdRng) -> Result<TrainedTaglet, CoreError> {
        if ctx.split.labeled_y.is_empty() {
            return Err(CoreError::NoLabeledData { module: Self::NAME });
        }
        let cfg = &ctx.config.multitask;
        let backbone = ctx.zoo.get(ctx.backbone).backbone();
        let feat = backbone.output_dim();
        // Zero-initialised heads (BiT recipe): joint training starts from
        // the uniform prediction on both tasks.
        let mut zero_head = |classes: usize| {
            Linear::from_parts(
                taglets_tensor::Init::Zeros.weight(feat, classes, rng),
                taglets_tensor::Init::Zeros.bias(classes),
            )
        };
        let mut target_head = zero_head(ctx.num_classes());

        let aux = ctx.auxiliary_training_set();
        let Some((aux_x, aux_y)) = aux else {
            // Fully pruned SCADS: joint training degenerates to plain
            // fine-tuning of the shared backbone on the target data.
            let mut clf = Classifier::from_parts(backbone, target_head);
            let mut opt = Sgd::with_momentum(cfg.lr, 0.9);
            let fit = taglets_nn::FitConfig::new(cfg.epochs * 4, cfg.batch_size, cfg.lr);
            let report = taglets_nn::fit_hard(
                &mut clf,
                &ctx.split.labeled_x,
                &ctx.split.labeled_y,
                &fit,
                &mut opt,
                rng,
            );
            return Ok(TrainedTaglet::new(
                Box::new(ClassifierTaglet::new(Self::NAME, clf)),
                report,
            ));
        };

        let mut shared = backbone;
        let mut aux_head = zero_head(ctx.selection.num_aux_classes());
        let mut opt = Sgd::new(SgdConfig {
            lr: cfg.lr,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        let steps_per_epoch = aux_x.rows().div_ceil(cfg.batch_size);
        let milestones: Vec<usize> = cfg
            .milestones
            .iter()
            .map(|&e| e * steps_per_epoch)
            .collect();
        let schedule = LrSchedule::milestones(cfg.lr, milestones, 0.1);

        let labeled_n = ctx.split.labeled_x.rows();
        let target_batch = cfg.batch_size.min(labeled_n);
        let mut report = FitReport::default();
        let mut step = 0usize;
        for _epoch in 0..cfg.epochs {
            let mut epoch_loss = 0.0;
            let mut epoch_batches = 0usize;
            for aux_batch in shuffled_batches(aux_x.rows(), cfg.batch_size, rng) {
                // A fresh target mini-batch each step (with replacement when
                // the labeled set is tiny, e.g. 1-shot).
                let target_idx: Vec<usize> = (0..target_batch)
                    .map(|_| rand::Rng::gen_range(rng, 0..labeled_n))
                    .collect();

                let augmenter = Augmenter::default();
                let mut tape = Tape::new();
                let shared_vars = shared.bind(&mut tape);
                let target_vars = target_head.bind(&mut tape);
                let aux_vars = aux_head.bind(&mut tape);

                let xt_rows =
                    augmenter.weak_batch(&ctx.split.labeled_x.gather_rows(&target_idx), rng);
                let xt = tape.constant(xt_rows);
                let yt: Vec<usize> = target_idx.iter().map(|&i| ctx.split.labeled_y[i]).collect();
                let ft = shared.forward(&mut tape, &shared_vars, xt, true, rng);
                let logits_t = target_head.forward(&mut tape, &target_vars, ft);
                let loss_t = tape.softmax_cross_entropy(logits_t, &yt);

                let xa_rows = augmenter.weak_batch(&aux_x.gather_rows(&aux_batch), rng);
                let xa = tape.constant(xa_rows);
                let ya: Vec<usize> = aux_batch.iter().map(|&i| aux_y[i]).collect();
                let fa = shared.forward(&mut tape, &shared_vars, xa, true, rng);
                let logits_a = aux_head.forward(&mut tape, &aux_vars, fa);
                let loss_a = tape.softmax_cross_entropy(logits_a, &ya);

                let weighted_aux = tape.scale(loss_a, cfg.lambda);
                let loss = tape.add(loss_t, weighted_aux);
                epoch_loss += tape.value(loss).item();
                epoch_batches += 1;

                let mut grads = tape.backward(loss);
                let all_vars: Vec<_> = shared_vars
                    .iter()
                    .chain(&target_vars)
                    .chain(&aux_vars)
                    .copied()
                    .collect();
                let grad_vec: Vec<Option<Tensor>> =
                    all_vars.iter().map(|&v| grads.take(v)).collect();
                let mut params = shared.parameters_mut();
                params.extend(target_head.parameters_mut());
                params.extend(aux_head.parameters_mut());
                opt.set_lr(schedule.lr_at(step));
                opt.step(&mut params, &grad_vec);
                step += 1;
            }
            report
                .epoch_losses
                .push(epoch_loss / epoch_batches.max(1) as f32);
        }
        report.steps = step;

        let clf = Classifier::from_parts(shared, target_head);
        Ok(TrainedTaglet::new(
            Box::new(ClassifierTaglet::new(Self::NAME, clf)),
            report,
        ))
    }
}
