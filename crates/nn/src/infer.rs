//! The one inference forward.
//!
//! Every inference in this crate runs one private forward loop,
//! `forward_into`, on two ping-pong activation buffers ([`InferScratch`]).
//! `inference_forward` wraps it and allocates nothing but the output
//! tensor: [`Classifier::logits`] — and through it `predict_proba` — runs
//! it over the backbone and the head, packing each weight matrix as it
//! goes; [`Mlp::features`] runs it over the backbone alone; and
//! [`Classifier::logits_packed`], the serving hot path, runs it on weight
//! panels packed once per model ([`PackedWeights`]).
//! [`Classifier::predict`] (and so `accuracy`) packs once too, then runs
//! the loop over fixed blocks of rows and keeps each row's argmax, so it
//! never holds more than one block's activations however many rows it
//! scores. No inference builds an autograd [`Tape`]: the tape is for
//! training.
//!
//! **Bitwise contract:** `inference_forward` computes the bits of the tape
//! forward with `training = false` (`bind_frozen` +
//! [`Classifier::forward_logits`] or [`Mlp::forward`]). It runs the *same*
//! blocked GEMM kernel as the tape ([`kernels::gemm_packed_into`] is
//! exactly the second half of the tape's `gemm_into`, including its `Nn`
//! choice between the dense and the exact-zero-skipping micro-kernel) with
//! the bias add — and, for ReLU backbones, the activation — fused into the
//! kernel epilogue ([`kernels::Epilogue`]). Fusion never changes bits: the
//! epilogue applies the same per-element f32 ops (`(acc + bias).max(0.0)`)
//! in the same order the tape's `add_row` + activation sequence would, and
//! an f32 stored then re-read is the identical value. Tanh runs
//! [`math::tanh_slice`] as a separate pass (bitwise equal to the tape's
//! per-element [`math::tanh`]), and dropout is the identity at inference,
//! as the tape's is with `training = false`. Because every op is
//! row-independent, each output row is also bitwise identical no matter
//! which batch (of any size) the input row rides in; `core::serve` leans on
//! this to make micro-batched serving, which runs each batch on the calling
//! thread, indistinguishable from single-request serving. The `fused_*`
//! tests below pin both claims against a tape forward built in the tests.
//!
//! [`Tape`]: taglets_tensor::Tape

use taglets_tensor::kernels::{self, GemmKind};
use taglets_tensor::math;
use taglets_tensor::{argmax_slice, softmax_rows, Tensor};

use crate::{Activation, Classifier, Linear, Mlp};

/// Rows per forward block in [`Classifier::predict`]: enough to amortise
/// each block's GEMM set-up, few enough that a block's activations stay
/// small whatever the input's row count.
const PREDICT_BLOCK_ROWS: usize = 256;

/// Reusable buffers for the inference forward.
///
/// Holds two flat `f32` activation buffers that ping-pong between layers,
/// and one weight-panel buffer used only when the weights are not
/// pre-packed. They grow to the largest size seen and are never shrunk, so
/// a serving loop that reuses one scratch performs zero steady-state
/// allocations besides the returned tensor.
#[derive(Debug, Default, Clone)]
pub struct InferScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    panel: Vec<f32>,
}

impl InferScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// Weight matrices of one [`Classifier`] pre-packed into the GEMM panel
/// layout, backbone layers first, head last.
///
/// [`kernels::gemm_into`] packs its B operand into [`kernels::NR`]-wide
/// panels on every call — pure overhead when B is a weight matrix that
/// never changes between batches. Packing is an element copy, so a panel
/// packed once per model and fed to [`kernels::gemm_packed_into`] produces
/// bits identical to repacking per batch; `core`'s `ServableModel` caches
/// one of these next to its classifier so the serving hot path skips the
/// pack entirely.
///
/// A `PackedWeights` is only meaningful for the classifier it was packed
/// from ([`Classifier::pack_weights`]). Layer shapes are checked at use;
/// panel *contents* are trusted, so repacking after any weight update is
/// the caller's responsibility.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    /// One packed panel per linear layer, in forward order.
    panels: Vec<Vec<f32>>,
    /// `(fan_in, fan_out)` of each packed layer, for shape checks at use.
    dims: Vec<(usize, usize)>,
}

impl Classifier {
    /// Packs every weight matrix of this classifier (backbone layers then
    /// head) into the GEMM panel layout for [`Classifier::logits_packed`].
    pub fn pack_weights(&self) -> PackedWeights {
        let mut panels = Vec::new();
        let mut dims = Vec::new();
        let head = std::iter::once(self.head());
        for layer in self.backbone().layers().iter().chain(head) {
            let (k, n) = (layer.fan_in(), layer.fan_out());
            let mut panel = Vec::new();
            kernels::pack_b(GemmKind::Nn, k, n, layer.weight().data(), &mut panel);
            panels.push(panel);
            dims.push((k, n));
        }
        PackedWeights { panels, dims }
    }

    /// Class probabilities for a batch on pre-packed weight panels and
    /// reusable scratch buffers — bitwise identical to
    /// [`Classifier::predict_proba`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2, its width differs from
    /// [`Classifier::input_dim`], or `packed` was built for a classifier of
    /// different layer shapes.
    pub fn predict_proba_packed(
        &self,
        x: &Tensor,
        packed: &PackedWeights,
        scratch: &mut InferScratch,
    ) -> Tensor {
        softmax_rows(&self.logits_packed(x, packed, scratch))
    }

    /// Raw logits for a batch on pre-packed weight panels — bitwise
    /// identical to [`Classifier::logits`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Classifier::predict_proba_packed`].
    pub fn logits_packed(
        &self,
        x: &Tensor,
        packed: &PackedWeights,
        scratch: &mut InferScratch,
    ) -> Tensor {
        let backbone = self.backbone();
        let layers = backbone.layers().iter().chain(std::iter::once(self.head()));
        assert!(
            layers
                .map(|l| (l.fan_in(), l.fan_out()))
                .eq(packed.dims.iter().copied()),
            "packed weights were built for a different classifier shape"
        );
        inference_forward(backbone, Some(self.head()), x, Some(packed), scratch)
    }

    /// Inference: predicted class index per row — the argmax of each row of
    /// [`Classifier::logits`] (first maximum on ties).
    ///
    /// Packs the weights once, then runs the forward over blocks of 256
    /// rows on one scratch, so it never builds the whole `[rows, classes]`
    /// logits matrix. Every output row is bitwise identical whatever block
    /// it rides in, so the answer is that of one whole-batch forward.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2 or its width differs from
    /// [`Classifier::input_dim`].
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        let backbone = self.backbone();
        check_input(backbone, x);
        let packed = self.pack_weights();
        let mut scratch = InferScratch::new();
        let (rows, k, n) = (x.rows(), x.cols(), self.num_classes());
        let mut out = Vec::with_capacity(rows);
        for start in (0..rows).step_by(PREDICT_BLOCK_ROWS) {
            let end = rows.min(start + PREDICT_BLOCK_ROWS);
            let block = &x.data()[start * k..end * k];
            let logits = forward_into(
                backbone,
                Some(self.head()),
                block,
                end - start,
                Some(&packed),
                &mut scratch,
            );
            out.extend((0..end - start).map(|r| argmax_slice(&logits[r * n..(r + 1) * n])));
        }
        out
    }
}

/// Asserts that `x` is a batch of `backbone`'s inputs.
fn check_input(backbone: &Mlp, x: &Tensor) {
    assert_eq!(x.rank(), 2, "batched inference expects a rank-2 input");
    assert_eq!(
        x.cols(),
        backbone.input_dim(),
        "input width must match the classifier"
    );
}

/// The one inference forward: `backbone` then, if given, `head`, on `x`,
/// returned as a new `[rows, out_dim]` tensor (see `forward_into`).
///
/// # Panics
///
/// Panics if `x` is not rank 2 or its width differs from the backbone's
/// input width.
pub(crate) fn inference_forward(
    backbone: &Mlp,
    head: Option<&Linear>,
    x: &Tensor,
    packed: Option<&PackedWeights>,
    scratch: &mut InferScratch,
) -> Tensor {
    check_input(backbone, x);
    let rows = x.rows();
    let out_dim = head.map_or(backbone.output_dim(), Linear::fan_out);
    let out = forward_into(backbone, head, x.data(), rows, packed, scratch);
    // lint: alloc(the output tensor owns its rows; the scratch keeps its buffers for the next call)
    Tensor::from_vec(out.to_vec()).reshaped(&[rows, out_dim])
}

/// The forward loop behind [`inference_forward`] and
/// [`Classifier::predict`], over `rows` input rows stored row-major in `x`,
/// on two ping-pong activation buffers. With `packed`, each layer reads its
/// cached panel; without, each layer's weight is packed into the scratch's
/// panel buffer — the pack the tape's `gemm_into` performs per call.
///
/// Every hidden layer's bias add (and, for ReLU backbones, the activation)
/// runs in the GEMM epilogue; tanh keeps a separate [`math::tanh_slice`]
/// pass, and dropout is the identity at inference. The head gets a bias add
/// only. Returns the `rows × out_dim` output, which lives in `scratch`
/// until its next use.
fn forward_into<'s>(
    backbone: &Mlp,
    head: Option<&Linear>,
    x: &[f32],
    rows: usize,
    packed: Option<&PackedWeights>,
    scratch: &'s mut InferScratch,
) -> &'s [f32] {
    let hidden = backbone.depth();
    let tanh = backbone.activation() == Activation::Tanh;

    // Ping-pong: after each layer the freshly written buffer becomes the
    // next layer's source. The first layer reads the input tensor
    // directly, so the scratch never holds a copy of `x`.
    let mut src_vec = std::mem::take(&mut scratch.a);
    let mut dst_vec = std::mem::take(&mut scratch.b);
    for (i, layer) in backbone.layers().iter().chain(head).enumerate() {
        let (k, n) = (layer.fan_in(), layer.fan_out());
        let bias = layer.bias().data();
        let epi = if i < hidden && !tanh {
            kernels::Epilogue::BiasRelu(bias)
        } else {
            kernels::Epilogue::BiasAdd(bias)
        };
        let panel: &[f32] = match packed {
            Some(p) => &p.panels[i], // lint: panicfree(callers assert one panel per layer, head last)
            None => {
                let w = layer.weight().data();
                kernels::pack_b(GemmKind::Nn, k, n, w, &mut scratch.panel);
                &scratch.panel
            }
        };
        let src: &[f32] = if i == 0 { x } else { &src_vec };
        // The kernel overwrites every element, so a dirty resize (no
        // re-zeroing of the kept prefix) is safe.
        dst_vec.resize(rows * n, 0.0);
        kernels::gemm_packed_into(GemmKind::Nn, rows, k, n, src, panel, epi, &mut dst_vec);
        if i < hidden && tanh {
            math::tanh_slice(&mut dst_vec);
        }
        std::mem::swap(&mut src_vec, &mut dst_vec);
    }
    scratch.a = src_vec;
    scratch.b = dst_vec;
    &scratch.a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Module;
    use rand::rngs::{mock::StepRng, StdRng};
    use rand::SeedableRng;
    use taglets_tensor::Tape;

    /// The oracle: the tape forward with `training = false`.
    fn tape_logits(clf: &Classifier, x: &Tensor) -> Tensor {
        let mut tape = Tape::new();
        let vars = clf.bind_frozen(&mut tape);
        let xv = tape.constant(x.clone());
        let out = clf.forward_logits(&mut tape, &vars, xv, false, &mut StepRng::new(0, 1));
        tape.value(out).clone()
    }

    /// The oracle for backbone features.
    fn tape_features(mlp: &Mlp, x: &Tensor) -> Tensor {
        let mut tape = Tape::new();
        let vars = mlp.bind_frozen(&mut tape);
        let xv = tape.constant(x.clone());
        let out = mlp.forward(&mut tape, &vars, xv, false, &mut StepRng::new(0, 1));
        tape.value(out).clone()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A classifier with a random (not zero) head, so the head's GEMM is
    /// exercised too.
    fn classifier(dims: &[usize], dropout: f32, act: Activation, rng: &mut StdRng) -> Classifier {
        let backbone = Mlp::with_activation(dims, dropout, act, rng);
        let head = Linear::new(backbone.output_dim(), 4, rng);
        Classifier::from_parts(backbone, head)
    }

    #[test]
    fn fused_forward_is_bitwise_identical_to_tape_path() {
        let mut rng = StdRng::seed_from_u64(11);
        for act in [Activation::Relu, Activation::Tanh] {
            for dropout in [0.0, 0.3] {
                for dims in [&[6, 8, 5][..], &[4, 4][..], &[9, 16, 16, 3][..]] {
                    let clf = classifier(dims, dropout, act, &mut rng);
                    let packed = clf.pack_weights();
                    let mut scratch = InferScratch::new();
                    for batch in [16, 1] {
                        let case = format!("{act:?} dropout {dropout} dims {dims:?} batch {batch}");
                        let x = Tensor::randn(&[batch, dims[0]], 1.3, &mut rng);
                        let oracle = tape_logits(&clf, &x);
                        let proba = bits(&softmax_rows(&oracle));
                        let logits = clf.logits(&x);
                        assert_eq!(logits.shape(), oracle.shape(), "{case}");
                        assert_eq!(bits(&logits), bits(&oracle), "{case}");
                        assert_eq!(bits(&clf.predict_proba(&x)), proba, "{case}");
                        assert_eq!(clf.predict(&x), oracle.argmax_rows(), "{case}");
                        let fast = clf.logits_packed(&x, &packed, &mut scratch);
                        assert_eq!(fast.shape(), oracle.shape(), "{case}");
                        assert_eq!(bits(&fast), bits(&oracle), "{case}");
                        let fast_proba = clf.predict_proba_packed(&x, &packed, &mut scratch);
                        assert_eq!(bits(&fast_proba), proba, "{case}");
                        let feats = clf.backbone().features(&x);
                        let oracle_feats = tape_features(clf.backbone(), &x);
                        assert_eq!(feats.shape(), oracle_feats.shape(), "{case}");
                        assert_eq!(bits(&feats), bits(&oracle_feats), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn predict_is_the_argmax_of_the_logits_on_both_sides_of_a_block_edge() {
        let mut rng = StdRng::seed_from_u64(17);
        let clf = classifier(&[6, 8, 5], 0.0, Activation::Relu, &mut rng);
        let b = PREDICT_BLOCK_ROWS;
        for rows in [0, 1, b - 1, b, b + 1, 2 * b + 88] {
            let x = Tensor::randn(&[rows, 6], 1.3, &mut rng);
            assert_eq!(clf.predict(&x), clf.logits(&x).argmax_rows(), "{rows} rows");
        }
    }

    #[test]
    fn fused_packed_forward_rows_are_independent_of_batch_composition() {
        let mut rng = StdRng::seed_from_u64(12);
        let clf = Classifier::from_dims(&[5, 12, 6], 3, 0.0, &mut rng);
        let packed = clf.pack_weights();
        let batch = Tensor::randn(&[9, 5], 1.0, &mut rng);
        let mut scratch = InferScratch::new();
        let together = clf.predict_proba_packed(&batch, &packed, &mut scratch);
        for i in 0..batch.rows() {
            let single = batch.gather_rows(&[i]);
            let alone = clf.predict_proba_packed(&single, &packed, &mut scratch);
            assert_eq!(alone.row(0), together.row(i), "row {i}");
        }
    }

    #[test]
    fn fused_packed_forward_scratch_reuse_does_not_leak_previous_batches() {
        let mut rng = StdRng::seed_from_u64(13);
        let clf = Classifier::from_dims(&[4, 8], 2, 0.0, &mut rng);
        let packed = clf.pack_weights();
        let mut scratch = InferScratch::new();
        let poison = Tensor::from_vec(vec![f32::NAN; 16 * 4]).reshaped(&[16, 4]);
        let _ = clf.predict_proba_packed(&poison, &packed, &mut scratch);
        let small = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let fast = clf.predict_proba_packed(&small, &packed, &mut scratch);
        assert_eq!(bits(&fast), bits(&softmax_rows(&tape_logits(&clf, &small))));
        assert_eq!(fast.shape(), &[2, 2]);
    }

    #[test]
    fn packed_weights_from_another_shape_are_rejected() {
        let mut rng = StdRng::seed_from_u64(16);
        let clf = Classifier::from_dims(&[4, 8], 2, 0.0, &mut rng);
        for other in [
            Classifier::from_dims(&[4, 6], 2, 0.0, &mut rng),
            Classifier::from_dims(&[4, 8, 8], 2, 0.0, &mut rng),
        ] {
            let packed = other.pack_weights();
            let x = Tensor::zeros(&[2, 4]);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                clf.predict_proba_packed(&x, &packed, &mut InferScratch::new())
            }));
            assert!(result.is_err());
        }
    }

    #[test]
    fn width_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(14);
        let clf = Classifier::from_dims(&[4, 8], 2, 0.0, &mut rng);
        let packed = clf.pack_weights();
        let x = Tensor::zeros(&[2, 5]);
        for run in [
            Box::new(|| clf.predict_proba_packed(&x, &packed, &mut InferScratch::new()))
                as Box<dyn Fn() -> Tensor>,
            Box::new(|| clf.logits(&x)),
            Box::new(|| clf.backbone().features(&x)),
        ] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            assert!(result.is_err());
        }
    }
}
