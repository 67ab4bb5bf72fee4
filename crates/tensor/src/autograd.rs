//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records a computation as a sequence of nodes; [`Tape::backward`]
//! walks the tape in reverse and accumulates gradients for every node that
//! requires them. Training loops build a fresh tape per step:
//!
//! ```
//! use taglets_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::from_rows(&[&[1.0, 2.0]]));
//! let w = tape.leaf(Tensor::from_rows(&[&[0.5], &[-0.5]]));
//! let y = tape.matmul(x, w);
//! let loss = tape.mean(y);
//! let grads = tape.backward(loss);
//! let gw = grads.get(w).expect("w requires grad");
//! assert_eq!(gw.data(), &[1.0, 2.0]);
//! ```

use crate::kernels::{self, GemmKind};
use crate::math;
use crate::tensor::gemm_tensors;
use crate::{argmax_slice, SparseMatrix, Tensor};

/// Handle to a node on a [`Tape`].
///
/// A `Var` is only meaningful for the tape that produced it; using it with a
/// different tape is a logic error (caught by index checks in debug builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The node's index on its tape.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Declares [`Op`] and, from the same variant list, its stable diagnostic
/// name and the public op catalog. Because all three are generated from one
/// list, adding an op automatically extends [`Tape::op_catalog`] — which the
/// gradient-audit sweep (`tests/grad_audit.rs`) cross-checks, so a new
/// differentiable op without a finite-difference entry fails that test.
macro_rules! declare_ops {
    ($( $(#[$meta:meta])* $name:ident $(($($payload:ty),+ $(,)?))? ,)+) => {
        #[derive(Debug)]
        enum Op {
            $( $(#[$meta])* $name $(($($payload),+))? ,)+
        }

        impl Op {
            /// Stable per-variant name used in invariant diagnostics.
            fn name(&self) -> &'static str {
                match self {
                    $( Op::$name { .. } => stringify!($name), )+
                }
            }
        }

        /// Every op variant name, in declaration order.
        const OP_CATALOG: &[&str] = &[ $( stringify!($name), )+ ];
    };
}

declare_ops! {
    /// Trainable input; receives a gradient.
    Leaf,
    /// Non-trainable input; never receives a gradient.
    Constant,
    MatMul(Var, Var),
    /// `a × bᵀ` where `b` is stored untransposed.
    MatMulNt(Var, Var),
    /// Constant sparse matrix times a dense node; the matrix's entry
    /// arrays are shared with the caller, not copied.
    SparseMatMul(SparseMatrix, Var),
    Add(Var, Var),
    /// Broadcasting add of a rank-1 bias to every row of a rank-2 input.
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Tanh(Var),
    /// Row-wise log-softmax.
    LogSoftmax(Var),
    /// Inverted dropout; mask already includes the `1/(1-p)` factor.
    Dropout(Var, Vec<f32>),
    /// Row-wise L2 normalisation.
    RowNormalize(Var),
    Mean(Var),
    Sum(Var),
    /// Mean negative log-likelihood of hard labels given row log-probabilities.
    NllHard(Var, Vec<usize>),
    /// Mean soft cross-entropy `-(1/m) Σ p·log q` given row log-probabilities.
    NllSoft(Var, Tensor),
    /// Per-example-weighted NLL (FixMatch confidence masking).
    NllWeighted(Var, Vec<usize>, Vec<f32>),
    /// Mean squared error against a constant target.
    Mse(Var, Tensor),
    /// Row selection (with repetition); backward scatter-adds.
    GatherRows(Var, Vec<usize>),
    /// Elementwise exponential.
    Exp(Var),
}

/// A deliberate corruption of the next backward pass, used by tests to prove
/// the `strict-numerics` invariant layer fails fast (see
/// [`Tape::inject_backward_fault`]).
#[cfg(feature = "strict-numerics")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardFault {
    /// Replace the seed gradient with NaN.
    NanGradient,
    /// Replace the seed gradient with a wrong-shaped tensor.
    ShapeMismatch,
}

struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// A gradient tape for reverse-mode differentiation.
///
/// Matmul nodes (forward and backward) run through the blocked kernel
/// layer ([`crate::kernels`]). See the [crate documentation](crate) for a
/// usage example.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Packed-panel scratch reused by every forward matmul on this tape.
    panel: Vec<f32>,
    #[cfg(feature = "strict-numerics")]
    fault: Option<BackwardFault>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape[{} nodes]", self.nodes.len())
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `var`, if one was computed.
    ///
    /// Returns `None` for constants and for nodes the loss does not depend on.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Removes and returns the gradient for `var`.
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.0).and_then(|g| g.take())
    }
}

/// A pool of reusable gradient buffers for [`Tape::backward_with`].
///
/// Every tensor the backward pass produces, the loss's seed gradient
/// included, draws its `Vec<f32>` from this pool instead of the allocator;
/// [`GradScratch::recycle`] (and [`GradScratch::recycle_tensor`]) return
/// buffers after the optimizer step consumed the gradients. Because every
/// buffer a caller recycles was first drawn from the pool, a training loop
/// that keeps one `GradScratch` across steps holds the same number of
/// buffers after every step ([`GradScratch::pooled`]), none larger than the
/// largest gradient it has produced, and soon stops allocating. The
/// pool-balance tests (`tests/grad_audit.rs` for every op, and
/// `train_step`'s own) pin that count. Recycling a tensor the pool did not
/// hand out grows the pool for good.
///
/// Reuse is bitwise safe by construction: every `take_*` helper either
/// overwrites the whole buffer or hands it to a kernel that assigns each
/// element exactly once (see [`crate::kernels`]); the scratch-reuse
/// property tests pin `backward_with(dirty scratch) == backward(fresh)`.
#[derive(Debug, Default)]
pub struct GradScratch {
    pool: Vec<Vec<f32>>,
    /// Packed-panel scratch for the backward gemm calls.
    panel: Vec<f32>,
}

impl GradScratch {
    /// An empty pool; buffers are created on demand and retained on recycle.
    pub fn new() -> Self {
        GradScratch::default()
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Returns every gradient buffer still held by `grads` to the pool.
    pub fn recycle(&mut self, grads: Gradients) {
        for g in grads.grads.into_iter().flatten() {
            self.recycle_tensor(g);
        }
    }

    /// Returns one tensor's buffer to the pool.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        let buf = t.into_vec();
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// A pooled buffer with whatever stale length/contents it last had.
    fn buf(&mut self) -> Vec<f32> {
        self.pool.pop().unwrap_or_default()
    }

    /// A rank-1 tensor wrapping a pooled buffer as-is (dirty); callers hand
    /// it to a kernel that resizes and fully overwrites it.
    fn take_any(&mut self) -> Tensor {
        let buf = self.buf();
        Tensor::from_raw(vec![buf.len()], buf)
    }

    /// A pooled tensor of `shape` filled with `value`.
    fn take_full(&mut self, shape: &[usize], value: f32) -> Tensor {
        let mut buf = self.buf();
        buf.clear();
        buf.resize(shape.iter().product(), value);
        Tensor::from_raw(shape.to_vec(), buf)
    }

    /// A pooled tensor of `shape` filled with zeros.
    fn take_zeroed(&mut self, shape: &[usize]) -> Tensor {
        self.take_full(shape, 0.0)
    }

    /// A pooled bitwise copy of `src` (no arithmetic).
    fn take_copy(&mut self, src: &Tensor) -> Tensor {
        let mut buf = self.buf();
        buf.clear();
        buf.extend_from_slice(src.data());
        Tensor::from_raw(src.shape().to_vec(), buf)
    }

    /// Pooled equivalent of [`Tensor::map`]: `f` applied elementwise.
    fn take_map(&mut self, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
        let mut buf = self.buf();
        buf.clear();
        buf.extend(src.data().iter().map(|&v| f(v)));
        Tensor::from_raw(src.shape().to_vec(), buf)
    }

    /// Pooled equivalent of [`Tensor::zip_map`] over same-shaped tensors.
    fn take_zip(&mut self, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(a.shape(), b.shape(), "shape mismatch in elementwise op");
        let mut buf = self.buf();
        buf.clear();
        buf.extend(a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)));
        Tensor::from_raw(a.shape().to_vec(), buf)
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Names of every op the tape can record, in declaration order.
    ///
    /// The gradient-audit sweep uses this to guarantee each differentiable
    /// op has a finite-difference check; it grows automatically when a new
    /// op variant is declared.
    pub fn op_catalog() -> &'static [&'static str] {
        OP_CATALOG
    }

    /// Corrupts the seed gradient of the next [`Tape::backward`] call.
    ///
    /// Test-only hook for the `strict-numerics` invariant layer: the first
    /// backward step then trips the per-op gradient validation, proving the
    /// guards fire inside a realistic training step.
    #[cfg(feature = "strict-numerics")]
    pub fn inject_backward_fault(&mut self, fault: BackwardFault) {
        self.fault = Some(fault);
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `var`.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value // lint: panicfree(Vars are only minted by this tape's push)
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        #[cfg(feature = "strict-numerics")]
        crate::checks::enforce_forward_finite(op.name(), &value);
        debug_assert!(
            !value.has_non_finite(),
            "non-finite value from op `{}`",
            op.name()
        );
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad // lint: panicfree(Vars are only minted by this tape's push)
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Records a trainable input (receives a gradient on backward).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Records a non-trainable input (never receives a gradient).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Constant, false)
    }

    // ------------------------------------------------------------------
    // Ops
    // ------------------------------------------------------------------

    /// Runs a kernel-layer gemm, reusing the tape's packed-panel scratch
    /// across ops.
    fn forward_gemm(&mut self, kind: GemmKind, a: Var, b: Var) -> Tensor {
        let mut panel = std::mem::take(&mut self.panel);
        let mut value = Tensor::default();
        gemm_tensors(kind, self.value(a), self.value(b), &mut panel, &mut value);
        self.panel = panel;
        value
    }

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.forward_gemm(GemmKind::Nn, a, b);
        let rg = self.needs(a) || self.needs(b);
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// Matrix product with transposed rhs, `a × bᵀ`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = self.forward_gemm(GemmKind::Nt, a, b);
        let rg = self.needs(a) || self.needs(b);
        self.push(value, Op::MatMulNt(a, b), rg)
    }

    /// Product `a × b` of a constant sparse matrix and a dense node — the
    /// neighbour aggregation of a graph layer. Bitwise equal to
    /// [`Tape::matmul`] with `a.to_dense()` as a constant, forward and
    /// backward, while touching only the stored entries; recording it
    /// shares `a`'s entries instead of copying them.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank 2 with `a.cols()` rows.
    pub fn sparse_matmul(&mut self, a: &SparseMatrix, b: Var) -> Var {
        let value = a.matmul(self.value(b));
        let rg = self.needs(b);
        self.push(value, Op::SparseMatMul(a.clone(), b), rg)
    }

    /// Elementwise sum of same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.needs(a) || self.needs(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// Adds a rank-1 bias `b` to every row of rank-2 `x`.
    ///
    /// The forward value routes through [`kernels::Epilogue::apply_rows`] —
    /// the same per-element implementation the fused inference kernels
    /// apply in-register — so the training tape and the serving fast path
    /// share one bias epilogue (pinned bitwise-equal by the `taglets-nn`
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if `b.numel() != x.cols()`.
    pub fn add_row(&mut self, x: Var, b: Var) -> Var {
        let xs = self.value(x);
        let bs = self.value(b);
        assert_eq!(xs.cols(), bs.numel(), "bias length must match columns");
        let cols = xs.cols();
        let mut value = xs.clone();
        kernels::Epilogue::BiasAdd(bs.data()).apply_rows(value.data_mut(), cols);
        let rg = self.needs(x) || self.needs(b);
        self.push(value, Op::AddRow(x, b), rg)
    }

    /// Elementwise difference of same-shaped tensors.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let rg = self.needs(a) || self.needs(b);
        self.push(value, Op::Sub(a, b), rg)
    }

    /// Elementwise (Hadamard) product of same-shaped tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let rg = self.needs(a) || self.needs(b);
        self.push(value, Op::Mul(a, b), rg)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        let rg = self.needs(a);
        self.push(value, Op::Scale(a, s), rg)
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v.max(0.0));
        let rg = self.needs(a);
        self.push(value, Op::Relu(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(math::tanh);
        let rg = self.needs(a);
        self.push(value, Op::Tanh(a), rg)
    }

    /// Elementwise exponential (inputs are clamped at 30 to keep the
    /// forward value finite; combine with [`Tape::log_softmax`] for a
    /// numerically safe softmax).
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| math::exp(v.min(30.0)));
        let rg = self.needs(a);
        self.push(value, Op::Exp(a), rg)
    }

    /// Row-wise log-softmax of a rank-2 tensor (numerically stabilised).
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let x = self.value(a);
        assert_eq!(x.rank(), 2, "log_softmax expects a rank-2 tensor");
        let cols = x.cols();
        let mut value = x.clone();
        // A row's exponentials go through the vector kernel into `exps`;
        // their sum keeps the sequential order.
        let mut exps = vec![0.0; cols];
        for row in value.data_mut().chunks_mut(cols) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for (e, &v) in exps.iter_mut().zip(row.iter()) {
                *e = v - max;
            }
            math::exp_slice(&mut exps);
            let log_z = math::ln(exps.iter().sum::<f32>()) + max;
            for v in row.iter_mut() {
                *v -= log_z;
            }
        }
        let rg = self.needs(a);
        self.push(value, Op::LogSoftmax(a), rg)
    }

    /// Inverted dropout with keep-probability `1 - p`.
    ///
    /// When `training` is `false` this is the identity. The mask is sampled
    /// from `rng`, so results are reproducible under a seeded generator.
    pub fn dropout<R: rand::Rng + ?Sized>(
        &mut self,
        a: Var,
        p: f32,
        training: bool,
        rng: &mut R,
    ) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        // Exact-zero probability means "dropout disabled" — a configuration
        // sentinel, and the fast path must only fire for it.
        // lint: allow(TL004)
        if !training || p == 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let x = self.value(a);
        let mask: Vec<f32> = (0..x.numel())
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mut value = x.clone();
        for (v, &m) in value.data_mut().iter_mut().zip(mask.iter()) {
            *v *= m;
        }
        let rg = self.needs(a);
        self.push(value, Op::Dropout(a, mask), rg)
    }

    /// L2-normalises every row of a rank-2 tensor (zero rows pass through).
    pub fn row_normalize(&mut self, a: Var) -> Var {
        let x = self.value(a);
        assert_eq!(x.rank(), 2, "row_normalize expects a rank-2 tensor");
        let cols = x.cols();
        let mut value = x.clone();
        for row in value.data_mut().chunks_mut(cols) {
            let n = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if n > 1e-12 {
                for v in row.iter_mut() {
                    *v /= n;
                }
            }
        }
        let rg = self.needs(a);
        self.push(value, Op::RowNormalize(a), rg)
    }

    /// Mean of all elements, as a scalar node.
    pub fn mean(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).mean());
        let rg = self.needs(a);
        self.push(value, Op::Mean(a), rg)
    }

    /// Sum of all elements, as a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).sum());
        let rg = self.needs(a);
        self.push(value, Op::Sum(a), rg)
    }

    /// Mean negative log-likelihood of `labels` under row log-probabilities.
    ///
    /// # Panics
    ///
    /// Panics if a label is out of range or counts disagree.
    pub fn nll_hard(&mut self, log_probs: Var, labels: &[usize]) -> Var {
        let lp = self.value(log_probs);
        assert_eq!(lp.rows(), labels.len(), "one label per row required");
        let c = lp.cols();
        let mut total = 0.0;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            total -= lp.at(i, y);
        }
        let value = Tensor::scalar(total / labels.len().max(1) as f32);
        let rg = self.needs(log_probs);
        self.push(value, Op::NllHard(log_probs, labels.to_vec()), rg)
    }

    /// Mean soft cross-entropy `-(1/m) Σ_i Σ_c p_ic · log q_ic` where
    /// `log q` is `log_probs` and `p` is the constant `targets` distribution.
    pub fn nll_soft(&mut self, log_probs: Var, targets: &Tensor) -> Var {
        let lp = self.value(log_probs);
        assert_eq!(
            lp.shape(),
            targets.shape(),
            "targets must match log-probs shape"
        );
        let m = lp.rows().max(1) as f32;
        let total: f32 = lp
            .data()
            .iter()
            .zip(targets.data())
            .map(|(&lq, &p)| -p * lq)
            .sum();
        let value = Tensor::scalar(total / m);
        let rg = self.needs(log_probs);
        self.push(value, Op::NllSoft(log_probs, targets.clone()), rg)
    }

    /// Per-example-weighted mean NLL: `(1/m) Σ_i w_i · (-log q_i[y_i])`.
    ///
    /// Used for FixMatch-style confidence masking where `w_i ∈ {0, 1}`.
    pub fn nll_weighted(&mut self, log_probs: Var, labels: &[usize], weights: &[f32]) -> Var {
        let lp = self.value(log_probs);
        assert_eq!(lp.rows(), labels.len());
        assert_eq!(labels.len(), weights.len());
        let m = labels.len().max(1) as f32;
        let mut total = 0.0;
        for (i, (&y, &w)) in labels.iter().zip(weights.iter()).enumerate() {
            total -= w * lp.at(i, y);
        }
        let value = Tensor::scalar(total / m);
        let rg = self.needs(log_probs);
        self.push(
            value,
            Op::NllWeighted(log_probs, labels.to_vec(), weights.to_vec()),
            rg,
        )
    }

    /// Mean squared error against a constant `target` of the same shape.
    pub fn mse(&mut self, pred: Var, target: &Tensor) -> Var {
        let p = self.value(pred);
        assert_eq!(p.shape(), target.shape(), "mse target shape mismatch");
        let n = p.numel().max(1) as f32;
        let total: f32 = p
            .data()
            .iter()
            .zip(target.data())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        let value = Tensor::scalar(total / n);
        let rg = self.needs(pred);
        self.push(value, Op::Mse(pred, target.clone()), rg)
    }

    /// Selects rows of a rank-2 tensor (repetition allowed); the gradient is
    /// scatter-added back to the source rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let x = self.value(a);
        assert!(
            indices.iter().all(|&i| i < x.rows()),
            "gather index out of range"
        );
        let value = x.gather_rows(indices);
        let rg = self.needs(a);
        self.push(value, Op::GatherRows(a, indices.to_vec()), rg)
    }

    // ------------------------------------------------------------------
    // Composite helpers
    // ------------------------------------------------------------------

    /// Softmax cross-entropy with hard labels: `log_softmax` + [`Tape::nll_hard`].
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lp = self.log_softmax(logits);
        self.nll_hard(lp, labels)
    }

    /// Softmax cross-entropy against soft targets: `log_softmax` + [`Tape::nll_soft`].
    pub fn soft_cross_entropy(&mut self, logits: Var, targets: &Tensor) -> Var {
        let lp = self.log_softmax(logits);
        self.nll_soft(lp, targets)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// Equivalent to [`Tape::backward_with`] on a throwaway
    /// [`GradScratch`]; training loops should hold one scratch across steps
    /// to eliminate backward allocations.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar node.
    pub fn backward(&self, loss: Var) -> Gradients {
        self.backward_with(loss, &mut GradScratch::new())
    }

    /// Backward gemm through the kernel layer, output and panel drawn from
    /// the scratch pool.
    fn grad_gemm(
        &self,
        kind: GemmKind,
        a: &Tensor,
        b: &Tensor,
        scratch: &mut GradScratch,
    ) -> Tensor {
        let mut out = scratch.take_any();
        gemm_tensors(kind, a, b, &mut scratch.panel, &mut out);
        out
    }

    /// [`Tape::backward`] drawing every gradient buffer from `scratch`.
    ///
    /// The scratch may be fresh, or dirty from any previous backward pass
    /// (same or different tape/shapes) — the result is bitwise identical
    /// either way, because every pooled buffer is fully overwritten before
    /// use. Recycle the returned [`Gradients`] (and any tensors taken out of
    /// them) back into the scratch once the optimizer has consumed them.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar node.
    pub fn backward_with(&self, loss: Var, scratch: &mut GradScratch) -> Gradients {
        assert!(
            self.value(loss).is_scalar(),
            "backward must start from a scalar loss node"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        // The seed comes from the pool like every other gradient buffer: a
        // caller recycles it with the rest, so a buffer made here would grow
        // the pool by one per pass.
        grads[loss.0] = Some(scratch.take_full(&[1], 1.0));

        #[cfg(feature = "strict-numerics")]
        if let Some(fault) = self.fault {
            grads[loss.0] = Some(match fault {
                BackwardFault::NanGradient => Tensor::scalar(f32::NAN),
                BackwardFault::ShapeMismatch => Tensor::ones(&[3, 3]),
            });
        }

        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            #[cfg(feature = "strict-numerics")]
            crate::checks::enforce_backward_invariants(node.op.name(), idx, &g, node.value.shape());
            if !node.requires_grad {
                // Still re-store for Leaf retrieval semantics below.
                if matches!(node.op, Op::Leaf) {
                    grads[idx] = Some(g);
                } else {
                    scratch.recycle_tensor(g);
                }
                continue;
            }
            // Every arm below computes the same arithmetic, in the same
            // order, as the pre-kernel backward pass — pooled buffers and
            // in-place reuse of `g` change allocation, never bits. Arms
            // that do not move `g` into a gradient slot recycle it.
            match &node.op {
                Op::Leaf | Op::Constant => {
                    grads[idx] = Some(g);
                }
                Op::MatMul(a, b) => {
                    if self.needs(*a) {
                        let da = self.grad_gemm(GemmKind::Nt, &g, self.value(*b), scratch);
                        accumulate(&mut grads, a.0, da, scratch);
                    }
                    if self.needs(*b) {
                        let db = self.grad_gemm(GemmKind::Tn, self.value(*a), &g, scratch);
                        accumulate(&mut grads, b.0, db, scratch);
                    }
                    scratch.recycle_tensor(g);
                }
                Op::MatMulNt(a, b) => {
                    // y = a bᵀ ⇒ da = g b ; db = gᵀ a
                    if self.needs(*a) {
                        let da = self.grad_gemm(GemmKind::Nn, &g, self.value(*b), scratch);
                        accumulate(&mut grads, a.0, da, scratch);
                    }
                    if self.needs(*b) {
                        let db = self.grad_gemm(GemmKind::Tn, &g, self.value(*a), scratch);
                        accumulate(&mut grads, b.0, db, scratch);
                    }
                    scratch.recycle_tensor(g);
                }
                Op::SparseMatMul(a, b) => {
                    // y = A b ⇒ db = Aᵀ g (A is constant).
                    let db = a.multiply(true, &g, scratch.buf());
                    accumulate(&mut grads, b.0, db, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::Add(a, b) => {
                    if self.needs(*a) {
                        let da = scratch.take_copy(&g);
                        accumulate(&mut grads, a.0, da, scratch);
                    }
                    if self.needs(*b) {
                        accumulate(&mut grads, b.0, g, scratch);
                    } else {
                        scratch.recycle_tensor(g);
                    }
                }
                Op::AddRow(x, b) => {
                    if self.needs(*b) {
                        let cols = self.value(*b).numel();
                        let mut db = scratch.take_zeroed(&[cols]);
                        for row in g.data().chunks(cols) {
                            for (d, &gv) in db.data_mut().iter_mut().zip(row) {
                                *d += gv;
                            }
                        }
                        accumulate(&mut grads, b.0, db, scratch);
                    }
                    if self.needs(*x) {
                        accumulate(&mut grads, x.0, g, scratch);
                    } else {
                        scratch.recycle_tensor(g);
                    }
                }
                Op::Sub(a, b) => {
                    if self.needs(*a) {
                        let da = scratch.take_copy(&g);
                        accumulate(&mut grads, a.0, da, scratch);
                    }
                    if self.needs(*b) {
                        #[expect(
                            clippy::neg_multiply,
                            reason = "the gradient arithmetic the bit pins were recorded with"
                        )]
                        let db = scratch.take_map(&g, |v| v * -1.0);
                        accumulate(&mut grads, b.0, db, scratch);
                    }
                    scratch.recycle_tensor(g);
                }
                Op::Mul(a, b) => {
                    if self.needs(*a) {
                        let da = scratch.take_zip(&g, self.value(*b), |x, y| x * y);
                        accumulate(&mut grads, a.0, da, scratch);
                    }
                    if self.needs(*b) {
                        let db = scratch.take_zip(&g, self.value(*a), |x, y| x * y);
                        accumulate(&mut grads, b.0, db, scratch);
                    }
                    scratch.recycle_tensor(g);
                }
                Op::Scale(a, s) => {
                    let s = *s;
                    let da = scratch.take_map(&g, |v| v * s);
                    accumulate(&mut grads, a.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::Relu(a) => {
                    let da = scratch.take_zip(
                        &g,
                        self.value(*a),
                        |gv, x| if x > 0.0 { gv } else { 0.0 },
                    );
                    accumulate(&mut grads, a.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::Tanh(a) => {
                    let da = scratch.take_zip(&g, &node.value, |gv, y| gv * (1.0 - y * y));
                    accumulate(&mut grads, a.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::Exp(a) => {
                    // y = exp(x) ⇒ dx = g · y
                    let da = scratch.take_zip(&g, &node.value, |gv, y| gv * y);
                    accumulate(&mut grads, a.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::LogSoftmax(a) => {
                    // dL/dx = g - softmax(x) * rowsum(g); `g` is mutated in
                    // place (each row reads its own pre-update sum first).
                    let cols = node.value.cols();
                    let mut da = g;
                    for (g_row, y_row) in da
                        .data_mut()
                        .chunks_mut(cols)
                        .zip(node.value.data().chunks(cols))
                    {
                        let row_sum: f32 = g_row.iter().sum();
                        for (gv, &ly) in g_row.iter_mut().zip(y_row) {
                            *gv -= math::exp(ly) * row_sum;
                        }
                    }
                    accumulate(&mut grads, a.0, da, scratch);
                }
                Op::Dropout(a, mask) => {
                    let mut da = g;
                    for (v, &m) in da.data_mut().iter_mut().zip(mask.iter()) {
                        *v *= m;
                    }
                    accumulate(&mut grads, a.0, da, scratch);
                }
                Op::RowNormalize(a) => {
                    // y = x / ||x|| ⇒ dx = (g - y (g·y)) / ||x||, per row;
                    // `g` is mutated in place (g·y is read out per row before
                    // that row is rewritten).
                    let x = self.value(*a);
                    let cols = x.cols();
                    let mut da = g;
                    for ((g_row, y_row), x_row) in da
                        .data_mut()
                        .chunks_mut(cols)
                        .zip(node.value.data().chunks(cols))
                        .zip(x.data().chunks(cols))
                    {
                        let n = x_row.iter().map(|v| v * v).sum::<f32>().sqrt();
                        if n <= 1e-12 {
                            g_row.iter_mut().for_each(|v| *v = 0.0);
                            continue;
                        }
                        let gy: f32 = g_row.iter().zip(y_row.iter()).map(|(a, b)| a * b).sum();
                        for (gv, &yv) in g_row.iter_mut().zip(y_row) {
                            *gv = (*gv - yv * gy) / n;
                        }
                    }
                    accumulate(&mut grads, a.0, da, scratch);
                }
                Op::Mean(a) => {
                    let x = self.value(*a);
                    let s = g.item() / x.numel().max(1) as f32;
                    let da = scratch.take_full(x.shape(), s);
                    accumulate(&mut grads, a.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::Sum(a) => {
                    let x = self.value(*a);
                    let da = scratch.take_full(x.shape(), g.item());
                    accumulate(&mut grads, a.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::NllHard(lp, labels) => {
                    let x = self.value(*lp);
                    let m = labels.len().max(1) as f32;
                    let mut da = scratch.take_zeroed(x.shape());
                    let gv = g.item();
                    for (i, &y) in labels.iter().enumerate() {
                        da.set(i, y, -gv / m);
                    }
                    accumulate(&mut grads, lp.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::NllSoft(lp, targets) => {
                    let m = self.value(*lp).rows().max(1) as f32;
                    let gv = g.item();
                    let s = -gv / m;
                    let da = scratch.take_map(targets, |p| p * s);
                    accumulate(&mut grads, lp.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::NllWeighted(lp, labels, weights) => {
                    let x = self.value(*lp);
                    let m = labels.len().max(1) as f32;
                    let gv = g.item();
                    let mut da = scratch.take_zeroed(x.shape());
                    for (i, (&y, &w)) in labels.iter().zip(weights.iter()).enumerate() {
                        da.set(i, y, -w * gv / m);
                    }
                    accumulate(&mut grads, lp.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::GatherRows(a, indices) => {
                    let x = self.value(*a);
                    let cols = x.cols();
                    let mut da = scratch.take_zeroed(x.shape());
                    for (out_row, &src) in indices.iter().enumerate() {
                        let g_row = &g.data()[out_row * cols..(out_row + 1) * cols];
                        let d_row = &mut da.data_mut()[src * cols..(src + 1) * cols];
                        for (d, &gv) in d_row.iter_mut().zip(g_row) {
                            *d += gv;
                        }
                    }
                    accumulate(&mut grads, a.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
                Op::Mse(pred, target) => {
                    let p = self.value(*pred);
                    let n = p.numel().max(1) as f32;
                    let gv = g.item();
                    let da = scratch.take_zip(p, target, |a, b| 2.0 * (a - b) * gv / n);
                    accumulate(&mut grads, pred.0, da, scratch);
                    scratch.recycle_tensor(g);
                }
            }
        }
        Gradients { grads }
    }
}

/// Adds `g` into the slot for `idx`, or installs it if the slot is empty;
/// an added-in tensor's buffer goes straight back to the pool.
fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: Tensor, scratch: &mut GradScratch) {
    match &mut grads[idx] {
        Some(existing) => {
            existing.add_assign(&g);
            scratch.recycle_tensor(g);
        }
        slot => *slot = Some(g),
    }
}

/// Row-wise softmax of a rank-2 tensor (pure function, no tape).
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "softmax_rows expects a rank-2 tensor");
    let cols = logits.cols();
    let mut out = logits.clone(); // lint: alloc(softmax returns a fresh tensor; logits stay intact)
    for row in out.data_mut().chunks_mut(cols) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= max;
        }
        math::exp_slice(row);
        let z: f32 = row.iter().sum();
        for v in row.iter_mut() {
            *v /= z; // lint: panicfree(float division; exp sums make z > 0)
        }
    }
    out
}

/// Per-row `(argmax, max_probability)` pairs of a probability matrix.
pub fn confidence_rows(probs: &Tensor) -> Vec<(usize, f32)> {
    probs
        .rows_iter()
        .map(|row| {
            let i = argmax_slice(row);
            (i, row[i])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn linear_layer_gradients_match_hand_derivation() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let w = tape.leaf(Tensor::from_rows(&[&[1.0], &[1.0]]));
        let b = tape.leaf(Tensor::from_vec(vec![0.5]));
        let h = tape.matmul(x, w);
        let y = tape.add_row(h, b);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        // d(sum)/dw = xᵀ 1 = [4, 6]; d/db = 2 rows
        assert_eq!(grads.get(w).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[2.0]);
    }

    #[test]
    fn softmax_rows_is_a_probability_distribution() {
        let t = Tensor::from_rows(&[&[1000.0, 999.0, 998.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&t);
        for row in p.rows_iter() {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_near_zero() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_rows(&[&[100.0, 0.0], &[0.0, 100.0]]));
        let loss = tape.softmax_cross_entropy(logits, &[0, 1]);
        assert!(tape.value(loss).item() < 1e-4);
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_c() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::zeros(&[4, 3]));
        let loss = tape.softmax_cross_entropy(logits, &[0, 1, 2, 0]);
        assert!((tape.value(loss).item() - 3.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn soft_targets_reduce_to_hard_when_one_hot() {
        let mut rng = StdRng::seed_from_u64(7);
        let logits_t = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let labels = [0usize, 3, 2, 1, 0];
        let mut one_hot = Tensor::zeros(&[5, 4]);
        for (i, &y) in labels.iter().enumerate() {
            one_hot.set(i, y, 1.0);
        }

        let mut t1 = Tape::new();
        let l1 = t1.leaf(logits_t.clone());
        let hard = t1.softmax_cross_entropy(l1, &labels);

        let mut t2 = Tape::new();
        let l2 = t2.leaf(logits_t);
        let soft = t2.soft_cross_entropy(l2, &one_hot);

        assert!((t1.value(hard).item() - t2.value(soft).item()).abs() < 1e-5);
        let g1 = t1.backward(hard);
        let g2 = t2.backward(soft);
        for (a, b) in g1
            .get(l1)
            .unwrap()
            .data()
            .iter()
            .zip(g2.get(l2).unwrap().data())
        {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn weighted_nll_with_zero_weights_has_zero_gradient() {
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(8);
        let logits = tape.leaf(Tensor::randn(&[3, 4], 1.0, &mut rng));
        let lp = tape.log_softmax(logits);
        let loss = tape.nll_weighted(lp, &[0, 1, 2], &[0.0, 0.0, 0.0]);
        assert_eq!(tape.value(loss).item(), 0.0);
        let grads = tape.backward(loss);
        assert!(grads.get(logits).unwrap().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(9);
        let x = tape.leaf(Tensor::randn(&[2, 8], 1.0, &mut rng));
        let y = tape.dropout(x, 0.5, false, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_training_preserves_expected_scale() {
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(10);
        let x = tape.constant(Tensor::ones(&[50, 50]));
        let y = tape.dropout(x, 0.3, true, &mut rng);
        let mean = tape.value(y).mean();
        assert!(
            (mean - 1.0).abs() < 0.08,
            "inverted dropout keeps E[x]: {mean}"
        );
    }

    #[test]
    fn row_normalize_produces_unit_rows() {
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(11);
        let x = tape.leaf(Tensor::randn(&[4, 6], 3.0, &mut rng));
        let y = tape.row_normalize(x);
        for row in tape.value(y).rows_iter() {
            let n: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn grad_accumulates_over_reused_nodes() {
        // loss = sum(x + x) → dx = 2
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 2]));
        let y = tape.add(x, x);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        assert!(grads.get(x).unwrap().data().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn exp_of_log_softmax_is_softmax() {
        let mut tape = Tape::new();
        let logits_t = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        let x = tape.leaf(logits_t.clone());
        let lp = tape.log_softmax(x);
        let p = tape.exp(lp);
        let direct = softmax_rows(&logits_t);
        for (a, b) in tape.value(p).data().iter().zip(direct.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gather_rows_backward_scatter_adds_repeats() {
        // loss = sum(gather(x, [0, 0, 2])) ⇒ dx row0 = 2, row2 = 1, row1 = 0
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[3, 2]));
        let g = tape.gather_rows(x, &[0, 0, 2]);
        let loss = tape.sum(g);
        let grads = tape.backward(loss);
        let dx = grads.get(x).unwrap();
        assert_eq!(dx.row(0), &[2.0, 2.0]);
        assert_eq!(dx.row(1), &[0.0, 0.0]);
        assert_eq!(dx.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 2]));
        let w = tape.leaf(Tensor::ones(&[2, 2]));
        let y = tape.mul(x, w);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_none());
        assert!(grads.get(w).is_some());
    }
}
