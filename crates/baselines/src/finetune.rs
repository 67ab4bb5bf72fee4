//! Fine-tuning and distilled fine-tuning baselines (Sec. 4.2).
//!
//! **Fine-tuning** is the default transfer-learning recipe: take a
//! pretrained encoder (BiT or ResNet-50 stand-in) and fine-tune it on the
//! labeled target examples. **Distilled fine-tuning** additionally
//! pseudo-labels the unlabeled pool with the fine-tuned model and trains a
//! fresh model on the pseudo-labeled + labeled data — isolating the value of
//! TAGLETS' distillation stage from the value of its modules.

use rand::rngs::StdRng;

use taglets_core::distillation::{distillation_set, train_end_model};
use taglets_core::{EndModelConfig, ServableModel, TransferConfig};
use taglets_data::{BackboneKind, ModelZoo, TaskSplit};
use taglets_nn::{fit_hard, Classifier, FitConfig};
use taglets_tensor::{LrSchedule, Sgd, SgdConfig, Tensor};

/// Fine-tunes a pretrained backbone on the labeled split (the paper's
/// "Fine-tuning" row), using the same recipe as the Transfer module's
/// target phase so the only difference is the auxiliary data.
pub fn fine_tune(
    zoo: &ModelZoo,
    backbone: BackboneKind,
    split: &TaskSplit,
    num_classes: usize,
    cfg: &TransferConfig,
    rng: &mut StdRng,
) -> Classifier {
    let mut clf = Classifier::new(zoo.get(backbone).backbone(), num_classes, rng);
    let steps_per_epoch = split
        .labeled_x
        .rows()
        .div_ceil(cfg.batch_size.min(split.labeled_x.rows()).max(1));
    let milestones: Vec<usize> = cfg
        .target_milestones
        .iter()
        .map(|&e| e * steps_per_epoch)
        .collect();
    let fit = FitConfig::new(cfg.target_epochs, cfg.batch_size, cfg.lr)
        .with_schedule(LrSchedule::milestones(cfg.lr, milestones, 0.1));
    let mut opt = Sgd::new(SgdConfig {
        lr: cfg.lr,
        momentum: 0.9,
        ..SgdConfig::default()
    });
    fit_hard(
        &mut clf,
        &split.labeled_x,
        &split.labeled_y,
        &fit,
        &mut opt,
        rng,
    );
    clf
}

/// Distilled fine-tuning (the paper's "Fine-tuning (Distilled)" row):
/// fine-tune, pseudo-label `unlabeled` with the result, then train a fresh
/// pretrained model on pseudo-labels + labels with the end-model recipe.
pub fn fine_tune_distilled(
    zoo: &ModelZoo,
    backbone: BackboneKind,
    split: &TaskSplit,
    unlabeled: &Tensor,
    num_classes: usize,
    cfg: &TransferConfig,
    end_cfg: &EndModelConfig,
    rng: &mut StdRng,
) -> ServableModel {
    let teacher = fine_tune(zoo, backbone, split, num_classes, cfg, rng);
    let pseudo = if unlabeled.rows() > 0 {
        teacher.predict_proba(unlabeled)
    } else {
        Tensor::zeros(&[0, num_classes])
    };
    let (inputs, targets) = distillation_set(
        unlabeled,
        &pseudo,
        &split.labeled_x,
        &split.labeled_y,
        num_classes,
    );
    let (end, _report) =
        train_end_model(zoo, backbone, &inputs, &targets, num_classes, end_cfg, rng);
    ServableModel::new(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use taglets_data::{standard_tasks, ConceptUniverse, UniverseConfig, ZooConfig};
    use taglets_graph::SyntheticGraphConfig;

    fn setup() -> (taglets_data::Task, ModelZoo) {
        let mut universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: 400,
                ..SyntheticGraphConfig::default()
            },
            ..UniverseConfig::default()
        })
        .expect("universe builds");
        let mut tasks = standard_tasks(&mut universe).expect("standard tasks build");
        let corpus = universe.build_corpus(12, 0);
        let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())
            .expect("corpus is non-empty");
        let fmd = tasks.remove(0);
        (fmd, zoo)
    }

    #[test]
    fn fine_tuning_beats_chance_and_distillation_runs() {
        let (task, zoo) = setup();
        let split = task.split(0, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let clf = fine_tune(
            &zoo,
            BackboneKind::ResNet50ImageNet1k,
            &split,
            task.num_classes(),
            &TransferConfig::default(),
            &mut rng,
        );
        let acc = clf.accuracy(&split.test_x, &split.test_y);
        assert!(
            acc > 0.2,
            "5-shot fine-tuning should beat chance clearly: {acc}"
        );

        let distilled = fine_tune_distilled(
            &zoo,
            BackboneKind::ResNet50ImageNet1k,
            &split,
            &split.unlabeled_x,
            task.num_classes(),
            &TransferConfig::default(),
            &EndModelConfig::default(),
            &mut rng,
        );
        let dacc = distilled.accuracy(&split.test_x, &split.test_y);
        assert!(
            dacc > 0.2,
            "distilled fine-tuning should beat chance clearly: {dacc}"
        );
    }
}
