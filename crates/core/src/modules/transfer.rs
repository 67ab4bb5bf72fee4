//! The Transfer module (Sec. 3.2.1): sequential fine-tuning on selected
//! auxiliary data, then on the labeled target data.
//!
//! 1. Intermediate phase (Eq. 1): fine-tune the pretrained backbone `φ` on
//!    `R` as an `NC`-way classification task.
//! 2. Target phase (Eq. 2): replace the head and fine-tune on the labeled
//!    examples `X`.

use rand::rngs::StdRng;

use taglets_nn::{fit_hard, Classifier, FitConfig, FitReport};
use taglets_tensor::{LrSchedule, Sgd, SgdConfig};

use crate::{ClassifierTaglet, CoreError, ModuleContext, TagletModule, TrainedTaglet};

/// The Transfer module. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferModule;

impl TransferModule {
    /// Module display name.
    pub const NAME: &'static str = "transfer";
}

impl TagletModule for TransferModule {
    fn name(&self) -> &str {
        Self::NAME
    }

    // lint: root(determinism)
    fn train(&self, ctx: &ModuleContext<'_>, rng: &mut StdRng) -> Result<TrainedTaglet, CoreError> {
        if ctx.split.labeled_y.is_empty() {
            return Err(CoreError::NoLabeledData { module: Self::NAME });
        }
        let cfg = &ctx.config.transfer;
        let backbone = ctx.zoo.get(ctx.backbone).backbone();
        let mut report = FitReport::default();

        // Intermediate phase on R (skipped when pruning empties the
        // selection — the module degrades to plain fine-tuning).
        let mut clf = match ctx.auxiliary_training_set() {
            Some((aux_x, aux_y)) => {
                let mut clf = Classifier::new(backbone, ctx.selection.num_aux_classes(), rng);
                let mut opt = Sgd::with_momentum(cfg.lr, 0.9);
                let fit = FitConfig::new(cfg.aux_epochs, cfg.batch_size, cfg.lr);
                report.absorb(fit_hard(&mut clf, &aux_x, &aux_y, &fit, &mut opt, rng));
                clf
            }
            None => Classifier::new(backbone, 1, rng),
        };

        // Target phase on X with the paper's milestone decay.
        clf.reset_head(ctx.num_classes(), rng);
        let steps_per_epoch = ctx
            .split
            .labeled_x
            .rows()
            .div_ceil(cfg.batch_size.min(ctx.split.labeled_x.rows()).max(1));
        let milestones: Vec<usize> = cfg
            .target_milestones
            .iter()
            .map(|&e| e * steps_per_epoch)
            .collect();
        let schedule = LrSchedule::milestones(cfg.lr, milestones, 0.1);
        let fit = FitConfig::new(cfg.target_epochs, cfg.batch_size, cfg.lr).with_schedule(schedule);
        let mut opt = Sgd::new(SgdConfig {
            lr: cfg.lr,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        report.absorb(fit_hard(
            &mut clf,
            &ctx.split.labeled_x,
            &ctx.split.labeled_y,
            &fit,
            &mut opt,
            rng,
        ));

        Ok(TrainedTaglet::new(
            Box::new(ClassifierTaglet::new(Self::NAME, clf)),
            report,
        ))
    }
}
