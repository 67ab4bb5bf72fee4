//! The ZSL-KG module (Sec. 3.2.4): zero-shot classification from the
//! knowledge graph alone.
//!
//! A graph neural network pretrained to mimic the classifier-head weights of
//! a conventionally trained model (Appendix A.5, Eq. 9) generates a *class
//! representation* `z_c = Z(q, G)` for each target concept; the
//! representations become the weight matrix of a classification head over a
//! frozen off-the-shelf encoder. The module consumes no target labels at
//! all, which is why its accuracy is invariant to shots and pruning
//! (Fig. 4).

use rand::rngs::StdRng;
use rand::SeedableRng;

use taglets_data::{BackboneKind, Image, ModelZoo};
use taglets_graph::{normalized_adjacency, pretrain_encoder, GnnPretrainConfig, GraphEncoder};
use taglets_nn::{Classifier, Linear};
use taglets_scads::Scads;
use taglets_tensor::Tensor;

use crate::{ClassifierTaglet, CoreError, ModuleContext, TagletModule, TrainedTaglet, ZslKgConfig};

/// The ZSL-KG module, holding its pretrained graph encoder.
///
/// Pretraining happens once (per SCADS + zoo) via [`ZslKgModule::pretrain`];
/// the same instance is then reused across runs, shots, and pruning levels —
/// matching the paper, where ZSL-KG "is not re-trained".
#[derive(Debug, Clone)]
pub struct ZslKgModule {
    encoder: GraphEncoder,
}

impl ZslKgModule {
    /// Module display name.
    pub const NAME: &'static str = "zsl-kg";

    /// Pretrains the graph encoder on the base SCADS graph, regressing onto
    /// the head weights of the zoo's *fine-grained* classifier. The paper
    /// uses ResNet101/ILSVRC (a strong classifier with one fine class per
    /// concept) for the same role; the zoo's fine-grained model is its
    /// closest stand-in — the coarse ResNet-50 head has too few classes to
    /// train a per-concept regressor.
    ///
    /// # Panics
    ///
    /// Panics if the zoo's fine-grained model has no pretraining classes.
    pub fn pretrain(scads: &Scads<Image>, zoo: &ModelZoo, cfg: &ZslKgConfig, seed: u64) -> Self {
        let source = zoo.get(BackboneKind::BitImageNet21k);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x25e1);
        let mut encoder = GraphEncoder::with_aggregation(
            scads.embeddings().dim(),
            cfg.hidden,
            source.feature_dim(),
            cfg.aggregation,
            &mut rng,
        );
        let adj = normalized_adjacency(scads.graph());
        let targets = source.zslkg_targets();
        let pre_cfg = GnnPretrainConfig {
            epochs: cfg.pretrain_epochs,
            lr: cfg.lr,
            weight_decay: cfg.weight_decay,
            validation_fraction: cfg.validation_fraction,
            seed,
        };
        pretrain_encoder(
            &mut encoder,
            scads.embeddings().matrix(),
            &adj,
            &targets,
            &pre_cfg,
        );
        ZslKgModule { encoder }
    }

    /// The underlying graph encoder.
    pub fn encoder(&self) -> &GraphEncoder {
        &self.encoder
    }

    /// Builds the zero-shot classifier for a set of target concepts against
    /// a given SCADS state (which may include concepts added after
    /// pretraining — the encoder is inductive).
    pub fn zero_shot_classifier(
        &self,
        scads: &Scads<Image>,
        zoo: &ModelZoo,
        target_concepts: &[taglets_graph::ConceptId],
    ) -> Classifier {
        let source = zoo.get(BackboneKind::BitImageNet21k);
        let adj = normalized_adjacency(scads.graph());
        let z = self.encoder.encode(scads.embeddings().matrix(), &adj);
        let feat = source.feature_dim();
        // Head weight column c = class representation of target concept c.
        let mut w = Tensor::zeros(&[feat, target_concepts.len()]);
        for (c, &concept) in target_concepts.iter().enumerate() {
            for r in 0..feat {
                w.set(r, c, z.at(concept.0, r));
            }
        }
        let head = Linear::from_parts(w, Tensor::zeros(&[target_concepts.len()]));
        Classifier::from_parts(source.backbone(), head)
    }
}

impl TagletModule for ZslKgModule {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn train(
        &self,
        ctx: &ModuleContext<'_>,
        _rng: &mut StdRng,
    ) -> Result<TrainedTaglet, CoreError> {
        // Zero-shot: no labeled data used, no training performed here — the
        // report is empty by construction.
        let clf = self.zero_shot_classifier(ctx.scads, ctx.zoo, ctx.target_concepts);
        Ok(TrainedTaglet::untrained(Box::new(ClassifierTaglet::new(
            Self::NAME,
            clf,
        ))))
    }
}
