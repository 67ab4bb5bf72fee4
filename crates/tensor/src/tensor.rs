//! Dense, row-major `f32` tensors.
//!
//! [`Tensor`] is the storage type underneath everything in this workspace:
//! autograd nodes, network parameters, images, embeddings, and prediction
//! matrices. It is deliberately simple — a shape plus a flat `Vec<f32>` —
//! because every model in the TAGLETS pipeline reduces to dense 1-D/2-D
//! linear algebra at reproduction scale.

use std::fmt;

use rand::Rng;

use crate::kernels::{self, GemmKind};
use crate::math;
use crate::TensorError;

/// A dense, row-major tensor of `f32` values.
///
/// Most operations in this crate are defined for rank-1 and rank-2 tensors;
/// scalars are represented as rank-1 tensors with a single element (see
/// [`Tensor::scalar`]).
///
/// # Examples
///
/// ```
/// use taglets_tensor::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 16 {
            write!(f, "Tensor{:?} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{:?} [{:.4}, {:.4}, .. ; {} values]",
                self.shape,
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor with zero elements.
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a flat buffer and an explicit shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the number of elements
    /// implied by `shape` does not equal `data.len()`.
    ///
    /// ```
    /// # use taglets_tensor::Tensor;
    /// # fn main() -> Result<(), taglets_tensor::TensorError> {
    /// let t = Tensor::from_shape(vec![2, 3], vec![0.0; 6])?;
    /// assert_eq!(t.rows(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_shape(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let numel: usize = shape.iter().product();
        if numel != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: numel,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor owning `data`.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Tensor {
            shape: vec![data.len()], // lint: alloc(one-element shape Vec; construction owns its metadata)
            data,
        }
    }

    /// Creates a rank-1 tensor copied from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(data.to_vec())
    }

    /// Creates a rank-2 tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Tensor {
            shape: vec![r, c],
            data,
        }
    }

    /// A rank-1 tensor holding a single scalar value.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: vec![1], // lint: alloc(one-element shape Vec; construction owns its metadata)
            data: vec![v],  // lint: alloc(a scalar tensor owns its single-element buffer)
        }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),  // lint: alloc(construction owns its shape)
            data: vec![0.0; numel], // lint: alloc(a fresh tensor owns its zeroed buffer)
        }
    }

    /// A tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![1.0; numel],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// The `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor with entries drawn i.i.d. from `N(0, std^2)` using the
    /// Box–Muller transform (so only `rand::Rng` is required).
    ///
    /// Each pair of entries consumes one `(u1, u2)` draw, in that order,
    /// stored in place; a second pass turns each pair into `r·cos θ, r·sin θ`
    /// with `r = sqrt(−2 ln u1)` and `θ = 2π·u2`, a loop that vectorizes.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let pairs = numel.div_ceil(2);
        let mut data = Vec::with_capacity(2 * pairs); // lint: alloc(weight init, not the steady-state serve path)
        for _ in 0..pairs {
            data.push(rng.gen_range(f32::EPSILON..1.0));
            data.push(rng.gen_range(0.0..1.0));
        }
        for pair in data.chunks_exact_mut(2) {
            if let [u1, u2] = pair {
                let r = (-2.0 * math::ln(*u1)).sqrt();
                let (sin, cos) = math::sin_cos_pi(2.0 * *u2);
                *u1 = r * cos * std;
                *u2 = r * sin * std;
            }
        }
        data.truncate(numel);
        Tensor {
            shape: shape.to_vec(), // lint: alloc(construction owns its shape)
            data,
        }
    }

    /// A tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(lo..hi)).collect(); // lint: alloc(weight init, not the steady-state serve path)
        Tensor {
            shape: shape.to_vec(), // lint: alloc(construction owns its shape)
            data,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// `true` when the tensor holds exactly one element.
    pub fn is_scalar(&self) -> bool {
        self.data.len() == 1
    }

    /// The single element of a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not hold exactly one element.
    pub fn item(&self) -> f32 {
        assert!(
            self.is_scalar(),
            "item() on non-scalar tensor {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Number of rows of a rank-2 tensor (or the length of a rank-1 tensor).
    pub fn rows(&self) -> usize {
        self.shape[0] // lint: panicfree(every tensor has rank >= 1)
    }

    /// Number of columns of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() on rank-{} tensor", self.rank());
        self.shape[1] // lint: panicfree(rank asserted 2 above)
    }

    /// A view of the underlying flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)` of a rank-2 tensor.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.shape[1] + c] // lint: panicfree(the elementwise accessor's documented bounds contract)
    }

    /// Sets element `(r, c)` of a rank-2 tensor.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert_eq!(self.rank(), 2);
        let cols = self.shape[1]; // lint: panicfree(rank-2 debug-asserted; shape has two dims)
        self.data[r * cols + c] = v; // lint: panicfree(the elementwise accessor's documented bounds contract)
    }

    /// Row `r` of a rank-2 tensor as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert_eq!(self.rank(), 2);
        let c = self.shape[1]; // lint: panicfree(rank-2 debug-asserted; shape has two dims)
        &self.data[r * c..(r + 1) * c] // lint: panicfree(the row accessor's documented bounds contract)
    }

    /// Iterator over the rows of a rank-2 tensor.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        let c = if self.rank() == 2 {
            self.shape[1]
        } else {
            self.data.len()
        };
        self.data.chunks(c.max(1))
    }

    /// Builds a rank-2 tensor by stacking the given row vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows have differing lengths.
    pub fn stack_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "stack_rows needs at least one row");
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Tensor::from_rows(&refs)
    }

    /// Vertically concatenates rank-2 tensors with equal column counts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vstack(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "vstack needs at least one tensor");
        let cols = parts[0].cols();
        let rows: usize = parts.iter().map(|t| t.rows()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for t in parts {
            assert_eq!(t.cols(), cols, "vstack column mismatch");
            data.extend_from_slice(t.data());
        }
        Tensor {
            shape: vec![rows, cols],
            data,
        }
    }

    /// Selects a subset of rows (with repetition allowed) into a new tensor.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        debug_assert_eq!(self.rank(), 2);
        let c = self.shape[1];
        let mut data = Vec::with_capacity(indices.len() * c);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Tensor {
            shape: vec![indices.len(), c],
            data,
        }
    }

    /// Reinterprets the tensor with a new shape (same number of elements).
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "reshape must preserve element count"
        );
        self.shape = shape.to_vec(); // lint: alloc(reshape replaces the shape Vec; numel asserted unchanged)
        self
    }

    // ------------------------------------------------------------------
    // Elementwise math (allocating and in-place)
    // ------------------------------------------------------------------

    /// Elementwise sum; shapes must match.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference; shapes must match.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; shapes must match.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` to every element, producing a new tensor.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(), // lint: alloc(the mapped tensor owns its shape)
            data: self.data.iter().map(|&v| f(v)).collect(), // lint: alloc(the mapped tensor owns its buffer)
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in elementwise op");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += s * other` (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, s: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
    }

    /// In-place multiply by scalar.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Makes `self` an exact copy of `src`, reusing `self`'s allocations
    /// (the scratch-buffer analogue of `clone()`): no arithmetic, so the
    /// copy is bitwise identical to the source.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self [m,k] × other [k,n] → [m,n]`.
    ///
    /// Routed through the blocked kernel layer ([`crate::kernels`]); bitwise
    /// identical to the seed naive loop, which is kept as
    /// `Tensor::matmul_reference` under `test`/`reference-kernels`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or either operand is not rank 2.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] into a caller-owned output tensor, reshaping it
    /// as needed. `out` may be dirty (any old shape or contents): every
    /// element is overwritten, and reuse is bitwise identical to a fresh
    /// allocation.
    // lint: root(hot)
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        // lint: alloc(convenience path repacks B per call; the packed API reuses a caller panel)
        let mut panel = Vec::new();
        gemm_tensors(GemmKind::Nn, self, other, &mut panel, out);
    }

    /// Matrix product with transposed rhs: `self [m,k] × otherᵀ [n,k] → [m,n]`.
    ///
    /// Routed through the blocked kernel layer; bitwise identical to the
    /// seed loop kept as `Tensor::matmul_nt_reference`.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] into a caller-owned (possibly dirty) output.
    // lint: root(hot)
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        // lint: alloc(convenience path repacks B per call; the packed API reuses a caller panel)
        let mut panel = Vec::new();
        gemm_tensors(GemmKind::Nt, self, other, &mut panel, out);
    }

    /// Matrix product with transposed lhs: `selfᵀ [k,m] × other [k,n] → [m,n]`.
    ///
    /// Routed through the blocked kernel layer; bitwise identical to the
    /// seed loop kept as `Tensor::matmul_tn_reference`.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] into a caller-owned (possibly dirty) output.
    // lint: root(hot)
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        // lint: alloc(convenience path repacks B per call; the packed API reuses a caller panel)
        let mut panel = Vec::new();
        gemm_tensors(GemmKind::Tn, self, other, &mut panel, out);
    }

    /// Transposed copy of a rank-2 tensor.
    ///
    /// Blocked `TRANSPOSE_BLOCK`²-tile walk: both the source reads and the
    /// destination writes stay within a tile that fits in L1, instead of the
    /// seed's column-strided writes that touched `m` distinct cache lines
    /// per source row. Pure data movement, so blocking cannot change any
    /// bit (pinned against `Tensor::transposed_reference` in the tests).
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        const TB: usize = TRANSPOSE_BLOCK;
        let mut i0 = 0;
        while i0 < m {
            let ib = (m - i0).min(TB);
            let mut j0 = 0;
            while j0 < n {
                let jb = (n - j0).min(TB);
                for i in i0..i0 + ib {
                    let src = &self.data[i * n + j0..i * n + j0 + jb];
                    for (dj, &v) in src.iter().enumerate() {
                        data[(j0 + dj) * m + i] = v;
                    }
                }
                j0 += TB;
            }
            i0 += TB;
        }
        Tensor {
            shape: vec![n, m],
            data,
        }
    }

    /// Inner product of two same-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "dot shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius / L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum element of a rank-1 tensor or row slice helper.
    pub fn argmax(&self) -> usize {
        argmax_slice(&self.data)
    }

    /// Per-row argmax of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        debug_assert_eq!(self.rank(), 2);
        (0..self.rows())
            .map(|r| argmax_slice(self.row(r)))
            .collect()
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Infallible internal constructor for buffers whose length is correct
    /// by construction (e.g. kernel outputs sized from the gemm dims).
    pub(crate) fn from_raw(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        Tensor { shape, data }
    }
}

/// Square tile edge for the blocked [`Tensor::transposed`]: a 16×16 `f32`
/// tile is 1 KiB on each side of the copy, comfortably inside L1.
pub(crate) const TRANSPOSE_BLOCK: usize = 16;

/// Shape-checks a tensor-level gemm and runs it through the kernel layer
/// into `out`, reusing `out`'s and `panel`'s allocations.
///
/// This is the one funnel between [`Tensor`] operands and the flat-slice
/// [`kernels::gemm_into`]; the autograd tape calls it directly so its
/// backward pass can reuse pooled buffers for both the output and the
/// packed panel.
pub(crate) fn gemm_tensors(
    kind: GemmKind,
    a: &Tensor,
    b: &Tensor,
    panel: &mut Vec<f32>,
    out: &mut Tensor,
) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k, n) = match kind {
        GemmKind::Nn => {
            let (m, k) = (a.shape[0], a.shape[1]); // lint: panicfree(rank-2 asserted above)
            let (k2, n) = (b.shape[0], b.shape[1]); // lint: panicfree(rank-2 asserted above)
            assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
            (m, k, n)
        }
        GemmKind::Nt => {
            let (m, k) = (a.shape[0], a.shape[1]); // lint: panicfree(rank-2 asserted above)
            let (n, k2) = (b.shape[0], b.shape[1]); // lint: panicfree(rank-2 asserted above)
            assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
            (m, k, n)
        }
        GemmKind::Tn => {
            let (k, m) = (a.shape[0], a.shape[1]); // lint: panicfree(rank-2 asserted above)
            let (k2, n) = (b.shape[0], b.shape[1]); // lint: panicfree(rank-2 asserted above)
            assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
            (m, k, n)
        }
    };
    out.shape.clear();
    out.shape.extend_from_slice(&[m, n]);
    // Old contents (whatever their values) are never read by the kernel:
    // resize only adjusts the length.
    out.data.resize(m * n, 0.0);
    kernels::gemm_into(
        kind,
        m,
        k,
        n,
        &a.data,
        &b.data,
        kernels::Epilogue::None,
        panel,
        &mut out.data,
    );
}

/// The seed naive loops, kept verbatim as bitwise references for the
/// blocked kernels. Compiled only for tests and the `reference-kernels`
/// feature (the bench crate enables it to measure blocked vs naive).
#[cfg(any(test, feature = "reference-kernels"))]
impl Tensor {
    /// Seed `ikj` matmul loop — the bitwise reference for [`Tensor::matmul`].
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        // ikj loop order: streams over contiguous rows of `other`.
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                // Exact-zero skip: `0.0 * b` contributes nothing, so only a
                // bitwise zero may take the shortcut. lint: allow(TL004)
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Seed dot-product loop — the bitwise reference for
    /// [`Tensor::matmul_nt`] (note: no exact-zero skip).
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul_nt_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(other.rank(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a_row[p] * b_row[p];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Seed `p`-outer loop — the bitwise reference for
    /// [`Tensor::matmul_tn`].
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul_tn_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(other.rank(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &other.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                // Exact-zero skip: `0.0 * b` contributes nothing, so only a
                // bitwise zero may take the shortcut. lint: allow(TL004)
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Seed column-strided transpose — the bitwise reference for the
    /// blocked [`Tensor::transposed`].
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn transposed_reference(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data,
        }
    }
}

/// Index of the maximum value in a slice (first index on ties).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax_slice(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        // lint: panicfree(best only ever holds a previously visited index)
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Cosine similarity between two equal-length vectors; 0 if either is zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    cosine_from_parts(dot, na, nb)
}

/// Cosine similarity from a dot product and the two squared norms:
/// `dot / (√na · √nb)`, or 0 when either norm is exactly zero.
///
/// [`cosine_similarity`] ends in this, so a caller that batches the dot
/// products (one GEMM) and the norms gets the same bits per pair.
pub fn cosine_from_parts(dot: f32, na: f32, nb: f32) -> f32 {
    // Guards division by an exactly-zero norm; near-zero vectors still get a
    // meaningful similarity. lint: allow(TL004)
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn from_shape_validates_element_count() {
        assert!(Tensor::from_shape(vec![2, 3], vec![0.0; 6]).is_ok());
        assert!(Tensor::from_shape(vec![2, 3], vec![0.0; 5]).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_of_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transposed());
        for (x, y) in via_nt.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transposed().matmul(&b);
        for (x, y) in via_tn.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(&[3, 7], 1.0, &mut rng);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor::randn(&[100, 100], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let v = Tensor::vstack(&[&a, &b]);
        assert_eq!(v.shape(), &[3, 2]);
        assert_eq!(v.row(2), &[5.0, 6.0]);
        let r = std::panic::catch_unwind(|| {
            Tensor::vstack(&[&Tensor::zeros(&[1, 2]), &Tensor::zeros(&[1, 3])])
        });
        assert!(r.is_err());
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let a = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 1.0]);
        assert_eq!(g.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max_on_tie() {
        let a = Tensor::from_rows(&[&[1.0, 3.0, 3.0], &[5.0, 0.0, 2.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn cosine_similarity_bounds_and_zero_vector() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![10.0, 20.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn item_panics_on_matrix() {
        let a = Tensor::zeros(&[2, 2]);
        let result = std::panic::catch_unwind(|| a.item());
        assert!(result.is_err());
    }

    #[test]
    fn eye_matmul_is_identity_map() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let i = Tensor::eye(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }
}
