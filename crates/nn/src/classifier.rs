//! A classifier = pretrained backbone + task-specific head.
//!
//! Every method in the TAGLETS evaluation — the four modules, the end model,
//! and all baselines — is an instance of this shape: an encoder `φ` producing
//! features and one (or more) linear classification heads on top.

use rand::Rng;

use taglets_tensor::{softmax_rows, Tape, Tensor, Var};

use crate::{InferScratch, Linear, Mlp, Module};

/// A backbone feature extractor with a linear classification head.
///
/// Training runs [`Classifier::forward_logits`] on an autograd tape;
/// inference ([`Classifier::logits`], `predict_proba`, `predict`,
/// `accuracy`) runs the crate's one tape-free forward, which computes the
/// same bits as the tape with `training = false`.
///
/// # Examples
///
/// ```
/// use taglets_nn::Classifier;
/// use taglets_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let clf = Classifier::from_dims(&[8, 16, 4], 3, 0.0, &mut rng);
/// let x = Tensor::zeros(&[2, 8]);
/// let probs = clf.predict_proba(&x);
/// assert_eq!(probs.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Classifier {
    backbone: Mlp,
    head: Linear,
}

impl Classifier {
    /// Assembles a classifier from an existing (typically pretrained)
    /// backbone and a fresh zero-initialised head for `num_classes`
    /// (zero head weights start training at the uniform prediction, the
    /// BigTransfer fine-tuning recipe; `rng` is kept for API stability and
    /// future initialisers).
    pub fn new<R: Rng + ?Sized>(backbone: Mlp, num_classes: usize, rng: &mut R) -> Self {
        let _ = rng;
        let head = Linear::from_parts(
            taglets_tensor::Init::Zeros.weight(backbone.output_dim(), num_classes, rng),
            taglets_tensor::Init::Zeros.bias(num_classes),
        );
        Classifier { backbone, head }
    }

    /// Builds both backbone and head from scratch.
    pub fn from_dims<R: Rng + ?Sized>(
        backbone_dims: &[usize],
        num_classes: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        let backbone = Mlp::new(backbone_dims, dropout, rng);
        Classifier::new(backbone, num_classes, rng)
    }

    /// Assembles a classifier from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if the head's input width differs from the backbone's output.
    pub fn from_parts(backbone: Mlp, head: Linear) -> Self {
        assert_eq!(
            backbone.output_dim(),
            head.fan_in(),
            "head input must match backbone output"
        );
        Classifier { backbone, head }
    }

    /// The feature extractor.
    pub fn backbone(&self) -> &Mlp {
        &self.backbone
    }

    /// The classification head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> usize {
        self.head.fan_out()
    }

    /// Input (raw image) dimensionality.
    pub fn input_dim(&self) -> usize {
        self.backbone.input_dim()
    }

    /// Replaces the head with a fresh zero-initialised one of a new width,
    /// keeping the backbone — the paper's "fine-tune sequentially on
    /// auxiliary then target data" recipe between phases.
    pub fn reset_head<R: Rng + ?Sized>(&mut self, num_classes: usize, rng: &mut R) {
        let _ = rng;
        self.head = Linear::from_parts(
            taglets_tensor::Init::Zeros.weight(self.backbone.output_dim(), num_classes, rng),
            taglets_tensor::Init::Zeros.bias(num_classes),
        );
    }

    /// Forward pass to logits on an existing tape.
    ///
    /// `vars` must come from `bind`/`bind_frozen` of this classifier
    /// (backbone vars first, then head vars).
    pub fn forward_logits<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        x: Var,
        training: bool,
        rng: &mut R,
    ) -> Var {
        let split = 2 * self.backbone.depth();
        let feats = self
            .backbone
            .forward(tape, &vars[..split], x, training, rng);
        self.head.forward(tape, &vars[split..], feats)
    }

    /// Inference: class probabilities for a batch of inputs.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        softmax_rows(&self.logits(x))
    }

    /// Inference: raw logits for a batch of inputs, via the tape-free
    /// forward in `infer.rs` (dropout off).
    pub fn logits(&self, x: &Tensor) -> Tensor {
        let head = Some(&self.head);
        crate::infer::inference_forward(&self.backbone, head, x, None, &mut InferScratch::new())
    }

    /// Classification accuracy on `(x, labels)` in `[0, 1]`.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f32 {
        accuracy(&self.predict(x), labels)
    }
}

impl Module for Classifier {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p = self.backbone.parameters();
        p.extend(self.head.parameters());
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p: Vec<&mut Tensor> = Vec::new();
        // Split borrows: backbone and head are distinct fields.
        let Classifier { backbone, head } = self;
        p.extend(backbone.parameters_mut());
        p.extend(head.parameters_mut());
        p
    }
}

/// Fraction of predictions equal to labels (0 for empty inputs).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "prediction/label count mismatch"
    );
    if labels.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, y)| p == y)
        .count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn predict_proba_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(0);
        let clf = Classifier::from_dims(&[6, 8, 4], 5, 0.0, &mut rng);
        let x = Tensor::randn(&[7, 6], 1.0, &mut rng);
        let p = clf.predict_proba(&x);
        assert_eq!(p.shape(), &[7, 5]);
        for row in p.rows_iter() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn reset_head_changes_class_count_but_not_backbone() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut clf = Classifier::from_dims(&[6, 8, 4], 5, 0.0, &mut rng);
        let backbone_before = clf.backbone().clone();
        clf.reset_head(9, &mut rng);
        assert_eq!(clf.num_classes(), 9);
        assert_eq!(clf.backbone(), &backbone_before);
    }

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn parameter_order_is_backbone_then_head() {
        let mut rng = StdRng::seed_from_u64(2);
        let clf = Classifier::from_dims(&[3, 4], 2, 0.0, &mut rng);
        let params = clf.parameters();
        assert_eq!(params.len(), 4); // backbone w,b + head w,b
        assert_eq!(params[0].shape(), &[3, 4]);
        assert_eq!(params[2].shape(), &[4, 2]);
    }

    #[test]
    fn from_parts_validates_widths() {
        let mut rng = StdRng::seed_from_u64(3);
        let backbone = Mlp::new(&[3, 4], 0.0, &mut rng);
        let bad_head = Linear::new(5, 2, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Classifier::from_parts(backbone, bad_head)
        }));
        assert!(result.is_err());
    }
}
