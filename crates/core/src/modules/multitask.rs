//! The Multi-task module; see [`MultiTaskModule`].

use rand::rngs::StdRng;

use taglets_nn::{shuffled_batches, train_step, Augmenter, Classifier, FitReport, Linear};
use taglets_tensor::{GradScratch, LrSchedule, Sgd, SgdConfig};

use crate::{ClassifierTaglet, CoreError, ModuleContext, TagletModule, TrainedTaglet};

/// The Multi-task module (Sec. 3.2.2): joint training of the target task and
/// the auxiliary task built from `R`, sharing one backbone.
///
/// Optimises `L_joint = L_target + λ·L_aux` (Eq. 3–5) with two heads on a
/// shared encoder. Each step draws one mini-batch from `R` (which paces the
/// epoch count) and one from `X`.
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
        let target_head = zero_head(ctx.num_classes());
        let mut clf = Classifier::from_parts(backbone, target_head);

        let aux = ctx.auxiliary_training_set();
        let Some((aux_x, aux_y)) = aux else {
            // Fully pruned SCADS: joint training degenerates to plain
            // fine-tuning of the shared backbone on the target data.
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

        // The target classifier (shared backbone + target head) and the
        // auxiliary head train as one model, in that binding order.
        let mut model = (clf, zero_head(ctx.selection.num_aux_classes()));
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
        let augmenter = Augmenter::default();
        let mut scratch = GradScratch::new();
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

                let lr = Some(schedule.lr_at(step));
                epoch_loss += train_step(
                    &mut model,
                    &mut opt,
                    lr,
                    &mut scratch,
                    |(clf, aux_head), tape, vars| {
                        // Both heads bind as exactly [w, b]: the auxiliary head
                        // last, the target head just before it.
                        let (clf_vars, aux_vars) = vars.split_at(vars.len() - 2);
                        let backbone_vars = &clf_vars[..clf_vars.len() - 2];

                        let xt_rows = augmenter
                            .weak_batch(&ctx.split.labeled_x.gather_rows(&target_idx), rng);
                        let xt = tape.constant(xt_rows);
                        let yt: Vec<usize> =
                            target_idx.iter().map(|&i| ctx.split.labeled_y[i]).collect();
                        let logits_t = clf.forward_logits(tape, clf_vars, xt, true, rng);
                        let loss_t = tape.softmax_cross_entropy(logits_t, &yt);

                        let xa_rows = augmenter.weak_batch(&aux_x.gather_rows(&aux_batch), rng);
                        let xa = tape.constant(xa_rows);
                        let ya: Vec<usize> = aux_batch.iter().map(|&i| aux_y[i]).collect();
                        let fa = clf.backbone().forward(tape, backbone_vars, xa, true, rng);
                        let logits_a = aux_head.forward(tape, aux_vars, fa);
                        let loss_a = tape.softmax_cross_entropy(logits_a, &ya);

                        let weighted_aux = tape.scale(loss_a, cfg.lambda);
                        tape.add(loss_t, weighted_aux)
                    },
                );
                epoch_batches += 1;
                step += 1;
            }
            report
                .epoch_losses
                .push(epoch_loss / epoch_batches.max(1) as f32);
        }
        report.steps = step;

        let (clf, _aux_head) = model;
        Ok(TrainedTaglet::new(
            Box::new(ClassifierTaglet::new(Self::NAME, clf)),
            report,
        ))
    }
}
