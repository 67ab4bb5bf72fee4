//! SimCLRv2-lite (Chen et al. 2020; paper Sec. 4.2).
//!
//! Contrastive (NT-Xent) self-supervised pretraining on the task's
//! unlabeled pool, followed by supervised fine-tuning on the labeled
//! examples. The paper evaluated SimCLRv2 and *excluded it from the result
//! tables* because its performance deteriorates sharply on small unlabeled
//! pools; this implementation exists to reproduce that finding (see the
//! `simclr_degrades_on_small_data` integration test).

use rand::rngs::StdRng;

use taglets_data::{Augmenter, BackboneKind, ModelZoo, TaskSplit};
use taglets_nn::{fit_hard, shuffled_batches, train_step, Classifier, FitConfig, Linear, Mlp};
use taglets_tensor::{GradScratch, Optimizer, Sgd, SgdConfig, Tensor};

/// Hyperparameters of SimCLR-lite.
#[derive(Debug, Clone, PartialEq)]
pub struct SimclrConfig {
    /// Contrastive pretraining epochs over the unlabeled pool.
    pub pretrain_epochs: usize,
    /// Contrastive batch size (each example contributes two views).
    pub batch_size: usize,
    /// Contrastive learning rate.
    pub pretrain_lr: f32,
    /// NT-Xent temperature.
    pub temperature: f32,
    /// Supervised fine-tuning epochs on labeled data.
    pub finetune_epochs: usize,
    /// Supervised fine-tuning learning rate.
    pub finetune_lr: f32,
    /// Encoder hidden width (the encoder trains from scratch, as in
    /// SimCLR's self-supervised protocol).
    pub hidden: usize,
    /// Encoder feature width.
    pub feature_dim: usize,
}

impl Default for SimclrConfig {
    fn default() -> Self {
        SimclrConfig {
            pretrain_epochs: 15,
            batch_size: 64,
            pretrain_lr: 0.01,
            temperature: 0.5,
            finetune_epochs: 30,
            finetune_lr: 0.003,
            hidden: 64,
            feature_dim: 32,
        }
    }
}

/// One NT-Xent training step of the encoder and its projection over a
/// batch of positive view-pairs.
///
/// `views_a[i]` and `views_b[i]` are two augmentations of the same image;
/// every other row in the doubled batch is a negative.
fn ntxent_step(
    model: &mut (Mlp, Linear),
    views_a: &Tensor,
    views_b: &Tensor,
    temperature: f32,
    opt: &mut dyn Optimizer,
    scratch: &mut GradScratch,
    rng: &mut StdRng,
) -> f32 {
    let b = views_a.rows();
    debug_assert_eq!(b, views_b.rows());
    // Stack [a; b] into one 2B batch.
    let stacked = Tensor::vstack(&[views_a, views_b]);

    train_step(
        model,
        opt,
        None,
        scratch,
        |(encoder, projection), tape, vars| {
            // The projection binds last, as exactly [w, b].
            let (enc_vars, proj_vars) = vars.split_at(vars.len() - 2);
            let xv = tape.constant(stacked);
            let feats = encoder.forward(tape, enc_vars, xv, true, rng);
            let proj = projection.forward(tape, proj_vars, feats);
            let z = tape.row_normalize(proj);
            let sim = tape.matmul_nt(z, z);
            let scaled = tape.scale(sim, 1.0 / temperature);
            // Mask self-similarity on the diagonal.
            let mut mask = Tensor::zeros(&[2 * b, 2 * b]);
            for i in 0..2 * b {
                mask.set(i, i, -1e4);
            }
            let mv = tape.constant(mask);
            let logits = tape.add(scaled, mv);
            // Row i's positive is i+b (first half) or i−b (second half).
            let labels: Vec<usize> = (0..2 * b)
                .map(|i| if i < b { i + b } else { i - b })
                .collect();
            tape.softmax_cross_entropy(logits, &labels)
        },
    )
}

/// Telemetry from [`simclr_lite`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimclrReport {
    /// Mean NT-Xent loss per pretraining epoch.
    pub contrastive_losses: Vec<f32>,
}

/// Runs SimCLR-lite: contrastive pretraining on `unlabeled`, then supervised
/// fine-tuning on the labeled split. Returns the classifier and telemetry.
pub fn simclr_lite(
    _zoo: &ModelZoo,
    _backbone: BackboneKind,
    split: &TaskSplit,
    unlabeled: &Tensor,
    num_classes: usize,
    cfg: &SimclrConfig,
    rng: &mut StdRng,
) -> (Classifier, SimclrReport) {
    let input_dim = split.labeled_x.cols();
    let encoder = Mlp::new(&[input_dim, cfg.hidden, cfg.feature_dim], 0.0, rng);
    let projection = Linear::new(cfg.feature_dim, cfg.feature_dim, rng);
    let mut model = (encoder, projection);
    let augmenter = Augmenter::default();
    let mut report = SimclrReport {
        contrastive_losses: Vec::new(),
    };

    if unlabeled.rows() >= 4 {
        let mut opt = Sgd::new(SgdConfig {
            lr: cfg.pretrain_lr,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        let mut scratch = GradScratch::new();
        for _ in 0..cfg.pretrain_epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for batch in shuffled_batches(unlabeled.rows(), cfg.batch_size, rng) {
                if batch.len() < 2 {
                    continue;
                }
                let x = unlabeled.gather_rows(&batch);
                let a = augmenter.strong_batch(&x, rng);
                let b = augmenter.strong_batch(&x, rng);
                epoch_loss += ntxent_step(
                    &mut model,
                    &a,
                    &b,
                    cfg.temperature,
                    &mut opt,
                    &mut scratch,
                    rng,
                );
                batches += 1;
            }
            report
                .contrastive_losses
                .push(epoch_loss / batches.max(1) as f32);
        }
    }

    // Supervised fine-tuning of encoder + fresh head on the labeled data.
    let (encoder, _projection) = model;
    let mut clf = Classifier::new(encoder, num_classes, rng);
    let mut opt = Sgd::with_momentum(cfg.finetune_lr, 0.9);
    let fit = FitConfig::new(cfg.finetune_epochs, cfg.batch_size, cfg.finetune_lr);
    fit_hard(
        &mut clf,
        &split.labeled_x,
        &split.labeled_y,
        &fit,
        &mut opt,
        rng,
    );
    (clf, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use taglets_data::{standard_tasks, ConceptUniverse, UniverseConfig, ZooConfig};
    use taglets_graph::SyntheticGraphConfig;

    #[test]
    fn contrastive_loss_decreases() {
        let mut universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: 400,
                ..SyntheticGraphConfig::default()
            },
            ..UniverseConfig::default()
        })
        .expect("universe builds");
        let tasks = standard_tasks(&mut universe).expect("standard tasks build");
        let corpus = universe.build_corpus(5, 0);
        let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())
            .expect("corpus is non-empty");
        let fmd = &tasks[0];
        let split = fmd.split(0, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let (_clf, report) = simclr_lite(
            &zoo,
            BackboneKind::ResNet50ImageNet1k,
            &split,
            &split.unlabeled_x,
            fmd.num_classes(),
            &SimclrConfig::default(),
            &mut rng,
        );
        let first = report.contrastive_losses[0];
        let last = *report.contrastive_losses.last().unwrap();
        assert!(
            last < first,
            "NT-Xent loss should decrease: {first} → {last}"
        );
    }
}
