//! The servable end model (design principle 3: "automatically distill to a
//! servable model").
//!
//! A [`ServableModel`] is a single backbone + head with a fixed-work predict
//! path — unlike the taglet ensemble, whose inference cost grows with the
//! number of modules. That gap is not measured yet: the end-model vs
//! ensemble row is an open item of ROADMAP.md (item 1), and the
//! `serving_latency` bench times the end model alone.

use taglets_nn::{Classifier, InferScratch, Module, PackedWeights};
use taglets_tensor::Tensor;

/// A production-ready classifier produced by the distillation stage.
///
/// Wrapping packs every weight matrix into GEMM panel layout once
/// ([`taglets_nn::PackedWeights`]), so the serving hot path never repacks
/// weights per batch. The classifier is immutable behind this wrapper,
/// which is what keeps the packed panels valid for its lifetime.
#[derive(Debug, Clone)]
pub struct ServableModel {
    classifier: Classifier,
    packed: PackedWeights,
}

impl ServableModel {
    /// Wraps a trained classifier for serving, pre-packing its weights.
    pub fn new(classifier: Classifier) -> Self {
        let packed = classifier.pack_weights();
        ServableModel { classifier, packed }
    }

    /// Class probabilities for a batch.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        self.classifier.predict_proba(x)
    }

    /// Class probabilities via the tape-free fast path, reusing the
    /// caller's scratch buffers and this model's pre-packed weight panels —
    /// bitwise identical to [`ServableModel::predict_proba`] (packing is a
    /// pure copy, so cached panels feed the kernel the exact bytes a
    /// per-batch repack would). This is the serving hot path used by
    /// [`crate::serve::ServingEngine`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2 or its width differs from
    /// [`ServableModel::input_dim`].
    // lint: root(hot)
    pub fn predict_proba_batched(&self, x: &Tensor, scratch: &mut InferScratch) -> Tensor {
        self.classifier
            .predict_proba_packed(x, &self.packed, scratch)
    }

    /// Predicted class per row.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.classifier.predict(x)
    }

    /// Accuracy on labeled data.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f32 {
        self.classifier.accuracy(x, labels)
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> usize {
        self.classifier.num_classes()
    }

    /// Expected input width.
    pub fn input_dim(&self) -> usize {
        self.classifier.input_dim()
    }

    /// Total scalar parameters — the model's serving footprint.
    pub fn num_parameters(&self) -> usize {
        self.classifier.num_scalars()
    }

    /// Borrows the underlying classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Unwraps into the underlying classifier.
    pub fn into_classifier(self) -> Classifier {
        self.classifier
    }

    /// Persists the model to a writer in the workspace's binary format.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn save<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        taglets_nn::save_classifier(&self.classifier, w)
    }

    /// Loads a model previously written by [`ServableModel::save`].
    ///
    /// Beyond the format checks in [`taglets_nn::load_classifier`], this
    /// rejects classifiers that deserialize cleanly but cannot serve —
    /// a zero input width or zero classes would make every subsequent
    /// `predict` call panic deep inside the forward pass.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input or a degenerate
    /// (`input_dim == 0` / `num_classes == 0`) model, and propagates reader
    /// I/O errors.
    pub fn load<R: std::io::Read>(r: R) -> std::io::Result<Self> {
        let classifier = taglets_nn::load_classifier(r)?;
        if classifier.input_dim() == 0 || classifier.num_classes() == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "degenerate model: zero input width or zero classes",
            ));
        }
        Ok(ServableModel::new(classifier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(3);
        let clf = Classifier::from_dims(&[6, 8], 4, 0.0, &mut rng);
        let m = ServableModel::new(clf);
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        let loaded = ServableModel::load(buf.as_slice()).unwrap();
        let x = Tensor::randn(&[3, 6], 1.0, &mut rng);
        assert_eq!(m.predict(&x), loaded.predict(&x));
        assert_eq!(m.num_parameters(), loaded.num_parameters());
    }

    #[test]
    fn seeded_byte_mutations_error_or_load_finite_models() {
        // A few thousand bit flips, truncations and appended bytes of one
        // saved model: each mutant must load as a clean `Err` or as a model
        // whose parameters are all finite — never a panic, never a model
        // that serves NaN.
        let mut rng = StdRng::seed_from_u64(7);
        let clf = Classifier::from_dims(&[5, 6], 3, 0.0, &mut rng);
        let mut buf = Vec::new();
        ServableModel::new(clf).save(&mut buf).unwrap();

        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut rejected, mut loaded) = (0, 0);
        for i in 0..3000 {
            let mut bad = buf.clone();
            // 0: bit flips, 1: truncation, 2: appended bytes.
            let kind = rng.gen_range(0..3);
            match kind {
                0 => {
                    for _ in 0..rng.gen_range(1..4) {
                        let at = rng.gen_range(0..bad.len());
                        bad[at] ^= 1u8 << rng.gen_range(0..8u32);
                    }
                }
                1 => bad.truncate(rng.gen_range(0..bad.len())),
                _ => {
                    for _ in 0..rng.gen_range(1..16) {
                        bad.push(rng.gen_range(0..=u8::MAX));
                    }
                }
            }
            let result = std::panic::catch_unwind(|| ServableModel::load(bad.as_slice()));
            match result {
                Err(_) => panic!("mutant {i}: load panicked"),
                Ok(Err(_)) => rejected += 1,
                Ok(Ok(_)) if kind == 1 => panic!("mutant {i}: a truncated file loaded"),
                Ok(Ok(m)) => {
                    loaded += 1;
                    assert!(
                        m.classifier()
                            .parameters()
                            .iter()
                            .all(|p| p.data().iter().all(|v| v.is_finite())),
                        "mutant {i}: loaded a non-finite parameter"
                    );
                }
            }
        }
        assert!(
            rejected > 0 && loaded > 0,
            "{rejected} rejected, {loaded} loaded"
        );
    }

    #[test]
    fn batched_fast_path_matches_tape_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let clf = Classifier::from_dims(&[6, 12, 8], 4, 0.0, &mut rng);
        let m = ServableModel::new(clf);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let mut scratch = InferScratch::new();
        assert_eq!(
            m.predict_proba_batched(&x, &mut scratch).data(),
            m.predict_proba(&x).data()
        );
    }

    #[test]
    fn servable_model_reports_shape_and_footprint() {
        let mut rng = StdRng::seed_from_u64(0);
        let clf = Classifier::from_dims(&[8, 16, 4], 3, 0.0, &mut rng);
        let m = ServableModel::new(clf);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.input_dim(), 8);
        assert_eq!(m.num_parameters(), 8 * 16 + 16 + 16 * 4 + 4 + 4 * 3 + 3);
        let x = Tensor::zeros(&[2, 8]);
        assert_eq!(m.predict(&x).len(), 2);
        assert_eq!(m.predict_proba(&x).shape(), &[2, 3]);
    }
}
