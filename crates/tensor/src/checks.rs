//! Runtime numeric-invariant guards.
//!
//! Training bugs in this substrate surface in two ways: a gradient (or
//! parameter) goes NaN/infinite, or a backward rule produces a tensor of the
//! wrong shape and silently corrupts an unrelated buffer downstream. The
//! guards here turn both into immediate, diagnosable panics.
//!
//! [`Tensor::assert_finite`] and [`validate_shape`] are always available for
//! callers that want explicit checkpoints. With the `strict-numerics` cargo
//! feature enabled, the crate additionally enforces these invariants
//! automatically: every [`Tape`](crate::Tape) forward push and backward step
//! validates the produced tensor per op, and [`Sgd`](crate::Sgd) /
//! [`Adam`](crate::Adam) validate each gradient against its parameter before
//! applying an update.

use crate::Tensor;

impl Tensor {
    /// Panics if any element is NaN or infinite, naming `context`, the first
    /// offending value, and its flat index.
    ///
    /// # Panics
    ///
    /// Panics when a non-finite element is found.
    #[expect(
        clippy::panic,
        reason = "an explicit numeric checkpoint: panicking with a diagnostic is its contract"
    )]
    pub fn assert_finite(&self, context: &str) {
        if let Some((i, v)) = self.data().iter().enumerate().find(|(_, v)| !v.is_finite()) {
            panic!(
                "{context}: non-finite value {v} at flat index {i} of shape {:?}",
                self.shape()
            );
        }
    }
}

/// Panics if `actual` differs from `expected`, naming `context` and both
/// shapes.
///
/// # Panics
///
/// Panics when the shapes differ.
#[expect(
    clippy::panic,
    reason = "an explicit shape checkpoint: panicking with a diagnostic is its contract"
)]
pub fn validate_shape(context: &str, expected: &[usize], actual: &[usize]) {
    if expected != actual {
        panic!("{context}: shape mismatch: expected {expected:?}, got {actual:?}");
    }
}

/// Forward-pass guard: the value a tape op just produced must be finite.
#[cfg(feature = "strict-numerics")]
pub(crate) fn enforce_forward_finite(op: &str, value: &Tensor) {
    // lint: alloc(diagnostic label; compiled only under strict-numerics)
    value.assert_finite(&format!("strict-numerics: forward op `{op}` output"));
}

/// Backward-pass guard: the gradient flowing into a node must be finite and
/// shaped exactly like that node's forward value.
#[cfg(feature = "strict-numerics")]
pub(crate) fn enforce_backward_invariants(
    op: &str,
    node: usize,
    grad: &Tensor,
    value_shape: &[usize],
) {
    let ctx = format!("strict-numerics: backward through op `{op}` (node {node}): gradient");
    validate_shape(&ctx, value_shape, grad.shape());
    grad.assert_finite(&ctx);
}

/// Optimizer guard: the gradient handed to a step must be finite and match
/// its parameter's shape, and the parameter itself must still be finite.
#[cfg(feature = "strict-numerics")]
pub(crate) fn enforce_optimizer_invariants(
    optimizer: &str,
    slot: usize,
    param: &Tensor,
    grad: &Tensor,
) {
    let ctx = format!("strict-numerics: {optimizer} step, parameter slot {slot}: gradient");
    validate_shape(&ctx, param.shape(), grad.shape());
    grad.assert_finite(&ctx);
    param.assert_finite(&format!(
        "strict-numerics: {optimizer} step, parameter slot {slot}: parameter"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_finite_accepts_finite_tensors() {
        Tensor::from_vec(vec![1.0, -2.0, 0.0]).assert_finite("test");
    }

    #[test]
    fn assert_finite_names_context_and_index() {
        let t = Tensor::from_vec(vec![1.0, f32::NAN, 3.0]);
        let err =
            std::panic::catch_unwind(|| t.assert_finite("grad of w")).expect_err("NaN must panic");
        let msg = panic_message(err);
        assert!(msg.contains("grad of w"), "{msg}");
        assert!(msg.contains("index 1"), "{msg}");
    }

    #[test]
    fn validate_shape_accepts_equal_and_rejects_different() {
        validate_shape("ok", &[2, 3], &[2, 3]);
        let err = std::panic::catch_unwind(|| validate_shape("bias", &[4], &[4, 1]))
            .expect_err("mismatch must panic");
        let msg = panic_message(err);
        assert!(msg.contains("bias"), "{msg}");
        assert!(msg.contains("[4]") && msg.contains("[4, 1]"), "{msg}");
    }

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "<non-string panic>".to_string())
    }
}
