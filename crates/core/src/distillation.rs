//! The distillation stage (Sec. 3.3): pseudo-label the unlabeled pool with
//! the taglet ensemble, then train one servable end model on pseudo-labeled
//! and labeled data with the soft cross-entropy of Eq. 7.

use rand::rngs::StdRng;

use taglets_data::{BackboneKind, ModelZoo};
use taglets_nn::{fit_soft, Classifier, FitConfig, FitReport};
use taglets_tensor::{Adam, AdamConfig, LrSchedule, Tensor};

use crate::EndModelConfig;

/// Builds the distillation training set: pseudo-labeled unlabeled examples
/// `P` stacked with the labeled examples `X` (as one-hot rows).
///
/// Returns `(inputs, soft_targets)`.
///
/// # Panics
///
/// Panics if row counts disagree, the label spaces differ, or both sources
/// are empty.
pub fn distillation_set(
    unlabeled_x: &Tensor,
    pseudo_labels: &Tensor,
    labeled_x: &Tensor,
    labeled_y: &[usize],
    num_classes: usize,
) -> (Tensor, Tensor) {
    assert_eq!(
        unlabeled_x.rows(),
        pseudo_labels.rows(),
        "one pseudo label per row"
    );
    assert_eq!(
        labeled_x.rows(),
        labeled_y.len(),
        "one label per labeled row"
    );
    if unlabeled_x.rows() > 0 {
        assert_eq!(
            pseudo_labels.cols(),
            num_classes,
            "pseudo-label width mismatch"
        );
    }
    let total = unlabeled_x.rows() + labeled_x.rows();
    assert!(total > 0, "distillation needs at least one example");

    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(total);
    let mut targets: Vec<Vec<f32>> = Vec::with_capacity(total);
    for (row, p) in unlabeled_x.rows_iter().zip(pseudo_labels.rows_iter()) {
        rows.push(row.to_vec());
        targets.push(p.to_vec());
    }
    for (row, &y) in labeled_x.rows_iter().zip(labeled_y) {
        assert!(y < num_classes, "label out of range");
        rows.push(row.to_vec());
        let mut one_hot = vec![0.0f32; num_classes];
        one_hot[y] = 1.0;
        targets.push(one_hot);
    }
    (Tensor::stack_rows(&rows), Tensor::stack_rows(&targets))
}

/// Trains the end model `h` (Eq. 7): a fresh pretrained backbone fine-tuned
/// on the distillation set with soft cross-entropy, Adam, and the paper's
/// milestone decay. Returns the classifier together with its fit telemetry.
///
/// Distillation trains a *single* model on the calling thread; the run's
/// workers parallelize only the module stage before it.
pub fn train_end_model(
    zoo: &ModelZoo,
    backbone: BackboneKind,
    inputs: &Tensor,
    soft_targets: &Tensor,
    num_classes: usize,
    cfg: &EndModelConfig,
    rng: &mut StdRng,
) -> (Classifier, FitReport) {
    let mut clf = Classifier::new(zoo.get(backbone).backbone(), num_classes, rng);
    let steps_per_epoch = inputs
        .rows()
        .div_ceil(cfg.batch_size.min(inputs.rows()).max(1));
    let milestones: Vec<usize> = cfg
        .milestones
        .iter()
        .map(|&e| e * steps_per_epoch)
        .collect();
    let fit = FitConfig::new(cfg.epochs, cfg.batch_size, cfg.lr)
        .with_schedule(LrSchedule::milestones(cfg.lr, milestones, 0.1));
    let mut opt = Adam::new(AdamConfig {
        lr: cfg.lr,
        weight_decay: cfg.weight_decay,
        ..AdamConfig::default()
    });
    let report = fit_soft(&mut clf, inputs, soft_targets, &fit, &mut opt, rng);
    (clf, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn distillation_set_stacks_pseudo_then_one_hot() {
        let u = Tensor::from_rows(&[&[1.0, 1.0]]);
        let p = Tensor::from_rows(&[&[0.6, 0.4]]);
        let x = Tensor::from_rows(&[&[2.0, 2.0]]);
        let (inputs, targets) = distillation_set(&u, &p, &x, &[1], 2);
        assert_eq!(inputs.rows(), 2);
        assert_eq!(targets.row(0), &[0.6, 0.4]);
        assert_eq!(targets.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn distillation_set_works_without_unlabeled_data() {
        let u = Tensor::zeros(&[0, 2]);
        let p = Tensor::zeros(&[0, 3]);
        let x = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let (inputs, targets) = distillation_set(&u, &p, &x, &[0, 2], 3);
        assert_eq!(inputs.rows(), 2);
        assert_eq!(targets.row(1), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn end_model_learns_its_pseudo_labels() {
        use taglets_data::{ConceptUniverse, ModelZoo, UniverseConfig, ZooConfig};
        use taglets_graph::SyntheticGraphConfig;

        let universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: 60,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("universe builds");
        let corpus = universe.build_corpus(8, 0);
        let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())
            .expect("corpus is non-empty");
        let mut rng = StdRng::seed_from_u64(0);

        // Synthetic two-class problem from two distant concepts.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        let mut gen_rng = StdRng::seed_from_u64(1);
        for i in 0..40 {
            let concept = taglets_graph::ConceptId(if i % 2 == 0 { 2 } else { 55 });
            rows.push(universe.render(concept, taglets_data::Domain::Natural, 1.0, &mut gen_rng));
            let mut t = vec![0.0f32; 2];
            t[i % 2] = 1.0;
            targets.push(t);
        }
        let inputs = Tensor::stack_rows(&rows);
        let soft = Tensor::stack_rows(&targets);
        let (clf, report) = train_end_model(
            &zoo,
            BackboneKind::ResNet50ImageNet1k,
            &inputs,
            &soft,
            2,
            &EndModelConfig::default(),
            &mut rng,
        );
        assert!(report.steps > 0, "distillation telemetry must be populated");
        let preds = clf.predict(&inputs);
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let acc = taglets_nn::accuracy(&preds, &labels);
        assert!(acc > 0.9, "end model should fit its targets: {acc}");
    }
}
