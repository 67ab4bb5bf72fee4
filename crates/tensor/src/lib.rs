//! # taglets-tensor
//!
//! The deep-learning substrate of the TAGLETS reproduction: dense `f32`
//! tensors, a reverse-mode autograd [`Tape`], first-order optimizers, and the
//! learning-rate schedules the paper's training recipes use.
//!
//! The original system runs on PyTorch; this crate replaces it with a small,
//! fully-tested engine sufficient for every model in the pipeline (MLP
//! backbones, classifier heads, graph neural networks, contrastive encoders).
//! Graph aggregation multiplies by a [`SparseMatrix`], bitwise equal to the
//! dense product but paying only for stored entries.
//! Gradients of every op are validated against finite differences (see
//! [`check_gradients`]), and the optional `strict-numerics` cargo feature
//! adds runtime guards that validate gradient shape and finiteness on every
//! backward step and optimizer update (see the [`checks`](crate::validate_shape)
//! helpers).
//!
//! ## Example: one SGD step on a linear classifier
//!
//! ```
//! use taglets_tensor::{Init, LrSchedule, Optimizer, Sgd, SgdConfig, Tape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut w = Init::KaimingNormal.weight(4, 3, &mut rng);
//! let mut b = Init::KaimingNormal.bias(3);
//! let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
//! let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//!
//! let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.9, ..SgdConfig::default() });
//! let schedule = LrSchedule::constant(0.1);
//!
//! let mut tape = Tape::new();
//! let xv = tape.constant(x);
//! let wv = tape.leaf(w.clone());
//! let bv = tape.leaf(b.clone());
//! let logits = tape.matmul(xv, wv);
//! let logits = tape.add_row(logits, bv);
//! let loss = tape.softmax_cross_entropy(logits, &labels);
//!
//! let mut grads = tape.backward(loss);
//! opt.set_lr(schedule.lr_at(0));
//! opt.step(&mut [&mut w, &mut b], &[grads.take(wv), grads.take(bv)]);
//! ```

mod autograd;
mod checks;
pub mod exec;
mod gradcheck;
mod init;
pub mod kernels;
pub mod math;
mod optim;
mod schedule;
mod sparse;
mod tensor;

#[cfg(feature = "strict-numerics")]
pub use autograd::BackwardFault;
pub use autograd::{confidence_rows, softmax_rows, GradScratch, Gradients, Tape, Var};
pub use checks::validate_shape;
pub use gradcheck::{check_gradients, GradCheckReport};
pub use init::Init;
pub use optim::{Adam, AdamConfig, Optimizer, Sgd, SgdConfig};
pub use schedule::LrSchedule;
pub use sparse::SparseMatrix;
pub use tensor::{argmax_slice, cosine_from_parts, cosine_similarity, Tensor};

use std::error::Error;
use std::fmt;

/// Errors produced by fallible tensor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The provided buffer length does not match the requested shape.
    ShapeMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "shape expects {expected} elements but buffer has {actual}"
                )
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_type_is_send_sync_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<TensorError>();
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<Tensor>();
        assert_ss::<LrSchedule>();
        assert_ss::<Sgd>();
        assert_ss::<Adam>();
        assert_ss::<SparseMatrix>();
    }
}
