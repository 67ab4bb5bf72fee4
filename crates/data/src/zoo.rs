//! The pretrained-backbone zoo: stand-ins for "ResNet-50 (ImageNet-1k)" and
//! "BiT (ImageNet-21k)".
//!
//! The paper varies module backbones between a ResNet-50 pretrained on
//! ImageNet-1k (part of the auxiliary data) and BigTransfer pretrained on
//! ImageNet-21k (all of it). Here both are MLP encoders pretrained on the
//! synthetic auxiliary corpus: the ResNet stand-in sees a ~third of the
//! concepts, the BiT stand-in sees all of them with more capacity and more
//! epochs — reproducing the "pretrained on parts vs. all of the auxiliary
//! data" axis (Sec. 4.3).

use rand::rngs::StdRng;
use rand::SeedableRng;

use taglets_graph::ConceptId;
use taglets_nn::{fit_hard, Classifier, FitConfig, Mlp};
use taglets_tensor::exec::Executor;
use taglets_tensor::{LrSchedule, Sgd, SgdConfig, Tensor};

use crate::{AuxiliaryCorpus, ConceptUniverse, DataError};

/// Which pretrained encoder a method uses (paper Tables 1–6, "Backbone").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackboneKind {
    /// Stand-in for ResNet-50 pretrained on ImageNet-1k (a subset of the
    /// auxiliary data).
    ResNet50ImageNet1k,
    /// Stand-in for BigTransfer (BiT) pretrained on ImageNet-21k (all of the
    /// auxiliary data).
    BitImageNet21k,
}

impl BackboneKind {
    /// Both backbones, in the order the paper's tables list them.
    pub const ALL: [BackboneKind; 2] = [
        BackboneKind::BitImageNet21k,
        BackboneKind::ResNet50ImageNet1k,
    ];

    /// The display name used in the paper's tables.
    pub fn display_name(self) -> &'static str {
        match self {
            BackboneKind::ResNet50ImageNet1k => "ResNet-50 (ImageNet-1k)",
            BackboneKind::BitImageNet21k => "BiT (ImageNet-21k)",
        }
    }
}

impl std::fmt::Display for BackboneKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// A pretrained encoder together with the classifier head it was pretrained
/// with (the head provides ZSL-KG's regression targets, Appendix A.5).
#[derive(Debug, Clone)]
pub struct PretrainedModel {
    kind: BackboneKind,
    classifier: Classifier,
    class_concepts: Vec<ConceptId>,
    train_accuracy: f32,
}

impl PretrainedModel {
    /// Which backbone this is.
    pub fn kind(&self) -> BackboneKind {
        self.kind
    }

    /// A clone of the pretrained feature extractor, ready to fine-tune.
    pub fn backbone(&self) -> Mlp {
        self.classifier.backbone().clone()
    }

    /// Input (raw image) width the encoder expects.
    pub fn input_dim(&self) -> usize {
        self.classifier.input_dim()
    }

    /// Feature dimensionality of the encoder.
    pub fn feature_dim(&self) -> usize {
        self.classifier.backbone().output_dim()
    }

    /// The concepts this model was pretrained to classify, in label order.
    pub fn class_concepts(&self) -> &[ConceptId] {
        &self.class_concepts
    }

    /// The pretrained head's weight column for pretraining class `label` —
    /// ZSL-KG's regression target `w_i` (Eq. 9).
    pub fn class_weight_vector(&self, label: usize) -> Vec<f32> {
        let w = self.classifier.head().weight(); // [feat, n_classes]
        (0..w.rows()).map(|r| w.at(r, label)).collect()
    }

    /// All `(concept, head-weight-vector)` pairs — the ZSL-KG pretraining set.
    pub fn zslkg_targets(&self) -> Vec<(ConceptId, Vec<f32>)> {
        self.class_concepts
            .iter()
            .enumerate()
            .map(|(label, &c)| (c, self.class_weight_vector(label)))
            .collect()
    }

    /// Features of a batch under the frozen pretrained encoder.
    pub fn features(&self, x: &Tensor) -> Tensor {
        self.classifier.backbone().features(x)
    }

    /// Training accuracy reached during pretraining (diagnostic).
    pub fn train_accuracy(&self) -> f32 {
        self.train_accuracy
    }
}

/// Pretraining hyperparameters for the zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooConfig {
    /// Hidden width of the ResNet-50 stand-in.
    pub hidden_resnet: usize,
    /// Hidden width of the (larger) BiT stand-in.
    pub hidden_bit: usize,
    /// Feature (penultimate) dimensionality, shared by both.
    pub feature_dim: usize,
    /// Taxonomy depth whose ancestors form the ResNet-50 stand-in's coarse
    /// label space. The real "ImageNet-1k vs 21k" axis is both coverage and
    /// *granularity*: 1k is a small, coarser view of the visual world, so
    /// the ResNet-50 stand-in trains on coarse taxonomy ancestors (strong
    /// generic features, missing the fine local distinctions that
    /// SCADS-selected auxiliary data supplies) while the BiT stand-in
    /// trains on every concept at full granularity.
    pub coarse_depth: usize,
    /// Pretraining epochs for the ResNet stand-in.
    pub epochs_resnet: usize,
    /// Pretraining epochs for the BiT stand-in.
    pub epochs_bit: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Initialisation/shuffling seed.
    pub seed: u64,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            hidden_resnet: 64,
            hidden_bit: 96,
            feature_dim: 64,
            coarse_depth: 2,
            epochs_resnet: 20,
            epochs_bit: 25,
            batch_size: 128,
            lr: 0.05,
            seed: 1234,
        }
    }
}

/// The zoo of pretrained encoders shared by every method in an experiment.
///
/// Building the zoo is the expensive one-time step of an evaluation; all
/// methods then clone encoders out of it.
#[derive(Debug, Clone)]
pub struct ModelZoo {
    resnet: PretrainedModel,
    bit: PretrainedModel,
}

impl ModelZoo {
    /// Pretrains both encoders on the auxiliary corpus, concurrently: they
    /// share nothing but the read-only corpus, and each seeds its own RNG
    /// (`cfg.seed ^ kind`), so the result is bitwise that of a serial loop.
    ///
    /// # Errors
    ///
    /// [`DataError::EmptyCorpus`] if the corpus holds no images.
    pub fn pretrain(
        universe: &ConceptUniverse,
        corpus: &AuxiliaryCorpus,
        cfg: &ZooConfig,
    ) -> Result<Self, DataError> {
        if corpus.is_empty() {
            return Err(DataError::EmptyCorpus);
        }
        let jobs = [
            (
                BackboneKind::ResNet50ImageNet1k,
                cfg.hidden_resnet,
                cfg.epochs_resnet,
            ),
            (BackboneKind::BitImageNet21k, cfg.hidden_bit, cfg.epochs_bit),
        ];
        let mut models = Executor::new().run(jobs.len(), |i| {
            let (kind, hidden, epochs) = jobs[i];
            Ok::<_, DataError>(Self::pretrain_one(
                universe, corpus, cfg, kind, hidden, epochs,
            ))
        })?;
        // `run` returns one model per job, in job order.
        let bit = models.swap_remove(1);
        let resnet = models.swap_remove(0);
        Ok(ModelZoo { resnet, bit })
    }

    fn pretrain_one(
        universe: &ConceptUniverse,
        corpus: &AuxiliaryCorpus,
        cfg: &ZooConfig,
        kind: BackboneKind,
        hidden: usize,
        epochs: usize,
    ) -> PretrainedModel {
        // ResNet-50 stand-in: coarse ancestor labels over the full corpus.
        // BiT stand-in: fine per-concept labels.
        let set = corpus.training_set(|_| true);
        let (labels, concepts) = match kind {
            BackboneKind::BitImageNet21k => (set.labels.clone(), set.concepts.clone()),
            BackboneKind::ResNet50ImageNet1k => {
                let taxonomy = universe.taxonomy();
                let ancestor = |mut c: taglets_graph::ConceptId| {
                    // The root sits at depth 0 ≤ coarse_depth, so a missing
                    // parent can only mean we already reached the top.
                    while taxonomy.depth(c) > cfg.coarse_depth {
                        match taxonomy.parent(c) {
                            Some(p) => c = p,
                            None => break,
                        }
                    }
                    c
                };
                let mut coarse_concepts: Vec<ConceptId> = Vec::new();
                let mut remap = std::collections::HashMap::new();
                let labels = set
                    .labels
                    .iter()
                    .map(|&l| {
                        let a = ancestor(set.concepts[l]);
                        *remap.entry(a).or_insert_with(|| {
                            coarse_concepts.push(a);
                            coarse_concepts.len() - 1
                        })
                    })
                    .collect();
                (labels, coarse_concepts)
            }
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ kind as u64);
        let dims = [universe.image_dim(), hidden, cfg.feature_dim];
        let mut clf = Classifier::from_dims(&dims, concepts.len(), 0.0, &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            lr: cfg.lr,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        let steps_per_epoch = set.x.rows().div_ceil(cfg.batch_size);
        let total_steps = epochs * steps_per_epoch;
        let fit_cfg = FitConfig::new(epochs, cfg.batch_size, cfg.lr).with_schedule(
            LrSchedule::milestones(cfg.lr, vec![3 * total_steps / 4], 0.1),
        );
        fit_hard(&mut clf, &set.x, &labels, &fit_cfg, &mut opt, &mut rng);
        let train_accuracy = clf.accuracy(&set.x, &labels);
        PretrainedModel {
            kind,
            classifier: clf,
            class_concepts: concepts,
            train_accuracy,
        }
    }

    /// The pretrained model of the requested kind.
    pub fn get(&self, kind: BackboneKind) -> &PretrainedModel {
        match kind {
            BackboneKind::ResNet50ImageNet1k => &self.resnet,
            BackboneKind::BitImageNet21k => &self.bit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseConfig;
    use taglets_graph::SyntheticGraphConfig;

    fn small_zoo() -> (ConceptUniverse, AuxiliaryCorpus, ModelZoo) {
        let universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: 90,
                ..SyntheticGraphConfig::default()
            },
            ..UniverseConfig::default()
        })
        .expect("test universe builds");
        let corpus = universe.build_corpus(20, 0);
        let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())
            .expect("corpus is non-empty");
        (universe, corpus, zoo)
    }

    #[test]
    fn bit_is_fine_grained_resnet_is_coarse() {
        let (_, _, zoo) = small_zoo();
        let bit = zoo.get(BackboneKind::BitImageNet21k);
        let resnet = zoo.get(BackboneKind::ResNet50ImageNet1k);
        assert_eq!(bit.class_concepts().len(), 90);
        assert!(
            resnet.class_concepts().len() < 90,
            "coarse ancestors must merge concepts: {}",
            resnet.class_concepts().len()
        );
        assert!(resnet.class_concepts().len() > 5);
    }

    #[test]
    fn pretraining_beats_chance_by_a_wide_margin() {
        let (_, _, zoo) = small_zoo();
        let bit = zoo.get(BackboneKind::BitImageNet21k);
        assert!(
            bit.train_accuracy() > 0.2,
            "90-way train accuracy {} should beat chance 0.011",
            bit.train_accuracy()
        );
    }

    #[test]
    fn features_have_declared_dimension() {
        let (universe, _, zoo) = small_zoo();
        let x = Tensor::zeros(&[3, universe.image_dim()]);
        let f = zoo.get(BackboneKind::ResNet50ImageNet1k).features(&x);
        assert_eq!(f.shape(), &[3, 64]);
    }

    #[test]
    fn zslkg_targets_align_with_head_columns() {
        let (_, _, zoo) = small_zoo();
        let m = zoo.get(BackboneKind::ResNet50ImageNet1k);
        let targets = m.zslkg_targets();
        assert_eq!(targets.len(), m.class_concepts().len());
        assert_eq!(targets[0].1.len(), m.feature_dim());
        assert_eq!(targets[3].1, m.class_weight_vector(3));
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(
            BackboneKind::ResNet50ImageNet1k.display_name(),
            "ResNet-50 (ImageNet-1k)"
        );
        assert_eq!(
            BackboneKind::BitImageNet21k.display_name(),
            "BiT (ImageNet-21k)"
        );
    }
}
