//! System configuration (paper Appendix A.5).
//!
//! One fixed set of hyperparameters is used for every task — the paper
//! stresses that TAGLETS needs no per-task tuning. Learning rates, optimizer
//! choices, schedule shapes, and the loss structure follow Appendix A.5;
//! epoch and batch counts are scaled down uniformly for a CPU-scale
//! simulator (the scaling applies identically to every method, keeping
//! comparisons fair). Each deviation is noted on the field it affects.

use taglets_data::BackboneKind;

/// How the auxiliary set `R` is chosen from SCADS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Graph-based semantic similarity (the paper's method, Sec. 3.1).
    #[default]
    GraphRelated,
    /// Uniformly random concepts with the same data volume — the ablation
    /// control isolating the value of relatedness.
    RandomConcepts,
}

/// Hyperparameters of the Transfer module (Sec. 3.2.1, Eq. 1–2).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferConfig {
    /// Epochs of the intermediate phase on selected auxiliary data `R`
    /// (paper: 5 epochs for ResNet-50).
    pub aux_epochs: usize,
    /// Epochs of the target phase on labeled data `X` (paper: 40).
    pub target_epochs: usize,
    /// Learning rate (paper: 0.003, SGD momentum 0.9).
    pub lr: f32,
    /// Mini-batch size (paper: 256; scaled down).
    pub batch_size: usize,
    /// Milestones (as epoch indices) for ×0.1 decay in the target phase
    /// (paper: epochs 20 and 30).
    pub target_milestones: Vec<usize>,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            aux_epochs: 20,
            target_epochs: 15,
            lr: 0.003,
            batch_size: 32,
            target_milestones: vec![8, 12],
        }
    }
}

/// Hyperparameters of the Multi-task module (Sec. 3.2.2, Eq. 3–5).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTaskConfig {
    /// Joint-training epochs measured over the auxiliary set (paper: 8).
    pub epochs: usize,
    /// Learning rate (paper: 0.003, SGD momentum 0.9).
    pub lr: f32,
    /// Mini-batch size (paper: 128; scaled down).
    pub batch_size: usize,
    /// Weight `λ` of the auxiliary loss in `L_target + λ·L_aux`.
    pub lambda: f32,
    /// Milestones (epoch indices) for ×0.1 decay (paper: epochs 4 and 6).
    pub milestones: Vec<usize>,
}

impl Default for MultiTaskConfig {
    fn default() -> Self {
        MultiTaskConfig {
            epochs: 16,
            lr: 0.003,
            batch_size: 64,
            lambda: 1.0,
            milestones: vec![8, 12],
        }
    }
}

/// Hyperparameters of the FixMatch module (Sec. 3.2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct FixMatchConfig {
    /// Epochs of SCADS pretraining on `R` (paper: 5).
    pub pretrain_epochs: usize,
    /// FixMatch epochs over the unlabeled pool (paper: 30 for ResNet-50;
    /// scaled down — the pool is orders of magnitude smaller here).
    pub epochs: usize,
    /// Learning rate of the FixMatch phase (paper: 0.0005, Nesterov SGD,
    /// cosine `η·cos(7πk/16K)` decay).
    pub lr: f32,
    /// Learning rate of the pretraining phase (paper: 0.003).
    pub pretrain_lr: f32,
    /// Mini-batch size (paper: 128; scaled down).
    pub batch_size: usize,
    /// Confidence threshold `τ` for accepting a pseudo label
    /// (paper/FixMatch default: 0.95; lowered — a 32-dimensional simulator
    /// produces flatter confidences than a 224×224 CNN).
    pub tau: f32,
    /// Weight of the unlabeled consistency loss relative to the labeled
    /// loss (FixMatch's `λ_u`, 1.0 in the original).
    pub lambda_u: f32,
}

impl Default for FixMatchConfig {
    fn default() -> Self {
        FixMatchConfig {
            pretrain_epochs: 5,
            epochs: 30,
            lr: 0.003,
            pretrain_lr: 0.003,
            batch_size: 64,
            tau: 0.70,
            lambda_u: 1.0,
        }
    }
}

/// Hyperparameters of the ZSL-KG module (Sec. 3.2.4, Appendix A.5).
#[derive(Debug, Clone, PartialEq)]
pub struct ZslKgConfig {
    /// GNN hidden width.
    pub hidden: usize,
    /// Neighbourhood aggregation: uniform mean (fast default) or the
    /// original ZSL-KG's transformer-style attention (TrGCN).
    pub aggregation: taglets_graph::Aggregation,
    /// GNN pretraining epochs (paper: 1000). Each epoch is one full-graph
    /// forward plus one backward; the SCADS graph has 350 nodes at smoke
    /// scale and 600 at paper scale, so full-batch epochs are cheap.
    pub pretrain_epochs: usize,
    /// Adam learning rate for pretraining (paper: 1e-3; raised ×3 — the
    /// regression targets are small-magnitude head columns and the paper's
    /// rate leaves the fit at the mean predictor at this scale).
    pub lr: f32,
    /// Adam weight decay (paper: 5e-4; lowered — at the paper's value decay
    /// dominates the small target magnitudes and the GNN collapses to zero).
    pub weight_decay: f32,
    /// Held-out class fraction for checkpoint selection (paper: 50/1000).
    pub validation_fraction: f32,
}

impl Default for ZslKgConfig {
    fn default() -> Self {
        ZslKgConfig {
            hidden: 128,
            aggregation: taglets_graph::Aggregation::Mean,
            pretrain_epochs: 500,
            lr: 3e-3,
            weight_decay: 1e-5,
            validation_fraction: 0.05,
        }
    }
}

/// Hyperparameters of the distillation stage's end model (Sec. 3.3, Eq. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct EndModelConfig {
    /// Training epochs (paper: 30 with ResNet-50; slightly raised — the
    /// soft pseudo labels of a 4-module average are flat, and the smaller
    /// batches here need more passes to fit them).
    pub epochs: usize,
    /// Adam learning rate (paper: 5e-4; raised ×4 to compensate for the
    /// ×4-smaller batch — at the paper's rate the end model underfits its
    /// pseudo labels at this scale).
    pub lr: f32,
    /// Adam weight decay (paper: 1e-4).
    pub weight_decay: f32,
    /// Mini-batch size (paper: 256; scaled down).
    pub batch_size: usize,
    /// Milestones (epoch indices) for ×0.1 decay (paper: epoch 20 of 30).
    pub milestones: Vec<usize>,
}

impl Default for EndModelConfig {
    fn default() -> Self {
        EndModelConfig {
            epochs: 40,
            lr: 2e-3,
            weight_decay: 1e-4,
            batch_size: 64,
            milestones: vec![30],
        }
    }
}

/// Top-level TAGLETS configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TagletsConfig {
    /// Pretrained encoder used by the trainable modules and the end model.
    pub backbone: BackboneKind,
    /// `N`: related concepts retrieved per target class (Sec. 3.1).
    pub related_concepts_per_class: usize,
    /// `K`: auxiliary images taken per related concept (Sec. 3.1).
    pub images_per_concept: usize,
    /// Uniform cap on the unlabeled pool consumed per run (compute budget;
    /// applied identically to every method — `None` disables the cap).
    pub max_unlabeled: Option<usize>,
    /// Auxiliary-data selection strategy (graph-based vs random ablation).
    pub selection: SelectionStrategy,
    /// Transfer module settings.
    pub transfer: TransferConfig,
    /// Multi-task module settings.
    pub multitask: MultiTaskConfig,
    /// FixMatch module settings.
    pub fixmatch: FixMatchConfig,
    /// ZSL-KG module settings.
    pub zslkg: ZslKgConfig,
    /// End-model settings.
    pub end_model: EndModelConfig,
}

impl TagletsConfig {
    /// The paper's fixed configuration for a given backbone.
    pub fn for_backbone(backbone: BackboneKind) -> Self {
        TagletsConfig {
            backbone,
            related_concepts_per_class: 3,
            images_per_concept: 15,
            max_unlabeled: Some(600),
            selection: SelectionStrategy::default(),
            transfer: TransferConfig::default(),
            multitask: MultiTaskConfig::default(),
            fixmatch: FixMatchConfig::default(),
            zslkg: ZslKgConfig::default(),
            end_model: EndModelConfig::default(),
        }
    }
}

impl Default for TagletsConfig {
    fn default() -> Self {
        TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_appendix_a5_rates() {
        let c = TagletsConfig::default();
        assert_eq!(c.transfer.lr, 0.003);
        assert_eq!(c.multitask.lr, 0.003);
        assert_eq!(c.fixmatch.lr, 0.003);
        assert_eq!(c.end_model.lr, 2e-3);
        assert_eq!(c.zslkg.lr, 3e-3);
        assert_eq!(c.zslkg.weight_decay, 1e-5);
    }

    #[test]
    fn backbone_selection_is_preserved() {
        let c = TagletsConfig::for_backbone(BackboneKind::BitImageNet21k);
        assert_eq!(c.backbone, BackboneKind::BitImageNet21k);
    }
}
