//! Tape-free batched inference fast path.
//!
//! [`Classifier::predict_proba`] builds an autograd [`Tape`], clones every
//! parameter tensor onto it, and allocates a node per op — fine for
//! training-time evaluation, wasteful on a serving hot path that answers the
//! same-shaped batch thousands of times. [`Classifier::predict_proba_packed`]
//! runs the identical arithmetic directly on two caller-owned ping-pong
//! activation buffers ([`InferScratch`]), allocating nothing but the output
//! tensor, against weight panels packed once per model ([`PackedWeights`]).
//!
//! **Bitwise contract:** the fast path runs the *same* blocked GEMM kernel
//! as the tape ([`taglets_tensor::kernels::gemm_packed_into`] is exactly
//! the second half of the tape's `gemm_into`, including its `Nn` choice
//! between the dense and the exact-zero-skipping micro-kernel) with the
//! bias add — and, for ReLU backbones, the
//! activation — fused into the kernel epilogue ([`kernels::Epilogue`]).
//! Fusion never changes bits: the epilogue applies the same per-element f32
//! ops (`(acc + bias).max(0.0)`) in the same order the tape's `add_row` +
//! activation sequence would, and an f32 stored then re-read is the
//! identical value, so output is bitwise identical to `predict_proba` row by
//! row (final probabilities via the same [`softmax_rows`]). Because every op
//! is row-independent, each output row is also bitwise identical no matter
//! which batch (of any size) the input row rides in; `core::serve` leans on
//! this to make micro-batched serving, which runs each batch on the calling
//! thread, indistinguishable from single-request serving. The
//! `fused_packed_forward_*` tests below pin both claims.
//!
//! [`Tape`]: taglets_tensor::Tape
//! [`softmax_rows`]: taglets_tensor::softmax_rows

use taglets_tensor::kernels::{self, GemmKind};
use taglets_tensor::math;
use taglets_tensor::{softmax_rows, Tensor};

use crate::{Activation, Classifier, Linear};

/// Reusable activation buffers for [`Classifier::predict_proba_packed`].
///
/// Holds two flat `f32` activation buffers that ping-pong between layers;
/// they grow to the largest `batch × width` seen and are never shrunk, so a
/// serving loop that reuses one scratch performs zero steady-state
/// allocations besides the returned tensor.
#[derive(Debug, Default, Clone)]
pub struct InferScratch {
    a: Vec<f32>,
    b: Vec<f32>,
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

impl PackedWeights {
    /// Total `f32` elements held across all panels — the cache footprint.
    pub fn num_elements(&self) -> usize {
        self.panels.iter().map(Vec::len).sum()
    }
}

/// `out = epi(x · w)` over flat row-major buffers, `w` pre-packed: the
/// matmul is the shared blocked kernel ([`kernels::gemm_packed_into`],
/// `Nn` variant — the kernel the tape's `matmul` runs after its pack) with
/// the layer epilogue (bias add, or bias+ReLU) applied while each output
/// block is register-hot. The fused epilogue replicates `Tape::add_row`'s
/// per-element op order exactly, so results stay bitwise identical to the
/// tape path.
fn linear_forward(
    x: &[f32],
    rows: usize,
    layer: &Linear,
    epi: kernels::Epilogue,
    panel: &[f32],
    out: &mut Vec<f32>,
) {
    let (k, n) = (layer.fan_in(), layer.fan_out());
    debug_assert_eq!(x.len(), rows * k, "input buffer shape mismatch");
    // The kernel overwrites every element, so a dirty resize (no re-zeroing
    // of the kept prefix) is safe.
    out.resize(rows * n, 0.0);
    kernels::gemm_packed_into(GemmKind::Nn, rows, k, n, x, panel, epi, out);
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

    /// Class probabilities for a batch, computed without a tape on
    /// pre-packed weight panels and reusable scratch buffers — bitwise
    /// identical to [`Classifier::predict_proba`].
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

    /// Raw logits for a batch via the tape-free fast path — bitwise
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
        assert_eq!(x.rank(), 2, "batched inference expects a rank-2 input");
        assert_eq!(
            x.cols(),
            self.input_dim(),
            "input width must match the classifier"
        );
        let rows = x.rows();

        // Ping-pong: after each layer the freshly written buffer becomes the
        // next layer's source. The first layer reads the input tensor
        // directly, so the scratch never holds a copy of `x`.
        let mut src_vec = std::mem::take(&mut scratch.a);
        let mut dst_vec = std::mem::take(&mut scratch.b);
        let mut first = true;
        for (layer, panel) in backbone.layers().iter().zip(&packed.panels) {
            let src: &[f32] = if first { x.data() } else { &src_vec };
            // ReLU fuses into the kernel epilogue; tanh has no fused form,
            // so it keeps the separate pass below.
            let epi = match backbone.activation() {
                Activation::Relu => kernels::Epilogue::BiasRelu(layer.bias().data()),
                Activation::Tanh => kernels::Epilogue::BiasAdd(layer.bias().data()),
            };
            linear_forward(src, rows, layer, epi, panel, &mut dst_vec);
            first = false;
            if backbone.activation() == Activation::Tanh {
                math::tanh_slice(&mut dst_vec);
            }
            // Dropout is inactive at inference (the tape op is the identity
            // when `training == false`), so nothing to replicate here.
            std::mem::swap(&mut src_vec, &mut dst_vec);
        }

        let src: &[f32] = if first { x.data() } else { &src_vec };
        linear_forward(
            src,
            rows,
            self.head(),
            kernels::Epilogue::BiasAdd(self.head().bias().data()),
            &packed.panels[backbone.layers().len()], // lint: panicfree(dims asserted equal to the layer list; panels holds layers + 1 entries, the head last)
            &mut dst_vec,
        );
        // lint: alloc(the logits tensor owns its rows; scratch.b keeps its capacity for the next call)
        let logits = Tensor::from_vec(dst_vec.clone()).reshaped(&[rows, self.num_classes()]);
        scratch.a = src_vec;
        scratch.b = dst_vec;
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn fused_packed_forward_is_bitwise_identical_to_tape_path() {
        let mut rng = StdRng::seed_from_u64(11);
        for dims in [&[6, 8, 5][..], &[4, 4][..], &[9, 16, 16, 3][..]] {
            let clf = Classifier::from_dims(dims, 4, 0.0, &mut rng);
            let packed = clf.pack_weights();
            assert!(packed.num_elements() > 0);
            let x = Tensor::randn(&[7, dims[0]], 1.3, &mut rng);
            let mut scratch = InferScratch::new();
            let fast = clf.predict_proba_packed(&x, &packed, &mut scratch);
            let slow = clf.predict_proba(&x);
            assert_eq!(fast.shape(), slow.shape());
            assert_eq!(fast.data(), slow.data(), "dims {dims:?}");
            assert_eq!(
                clf.logits_packed(&x, &packed, &mut scratch).data(),
                clf.logits(&x).data()
            );
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
        assert_eq!(fast.data(), clf.predict_proba(&small).data());
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
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clf.predict_proba_packed(&x, &packed, &mut InferScratch::new())
        }));
        assert!(result.is_err());
    }
}
