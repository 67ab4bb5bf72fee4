//! Compressed sparse rows: the neighbour-aggregation operand of the graph
//! encoder.
//!
//! A row-normalised graph adjacency is almost all zeros — the smoke-scale
//! SCADS graph stores 2098 entries out of 350² — yet a dense `[n, n]`
//! matrix makes every aggregation pay for all `n²`. [`SparseMatrix`]
//! stores only the entries, once per row in ascending column order and
//! once per column in ascending row order (the transpose, built at
//! construction), so both `Â·h` and `Âᵀ·g` walk exactly the stored terms.
//!
//! # Why this is bitwise identical to the dense product
//!
//! The seed `Nn` and `Tn` loops, whose bits the blocked GEMM kernels
//! reproduce (see [`crate::kernels`]), accumulate each output element from
//! `0.0` over ascending `p`, skipping every term whose A scalar is an exact
//! zero. The terms that survive that skip
//! are precisely the stored entries here — exact zeros are never stored —
//! and [`SparseMatrix::matmul`] / [`SparseMatrix::matmul_tn`] add them
//! from `0.0` in the same ascending order. Rust never contracts `a*b + c`
//! into a fused multiply-add, so every output bit matches
//! `to_dense().matmul(h)` / `to_dense().matmul_tn(g)`.
//!
//! The entry arrays sit behind an [`Arc`]: cloning a matrix (as the tape
//! does each time it records a product) shares them instead of copying.

use std::sync::Arc;

use crate::Tensor;

/// An immutable sparse `f32` matrix with row- and column-compressed
/// storage; see the [module documentation](self).
///
/// Cloning is cheap (a reference-count bump).
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    inner: Arc<Storage>,
}

#[derive(Debug)]
struct Storage {
    rows: usize,
    cols: usize,
    /// Row `i`'s entries, in ascending column order.
    by_row: Compressed,
    /// Column `j`'s entries (row `j` of the transpose), in ascending row
    /// order.
    by_col: Compressed,
}

/// One compressed orientation: line `l` holds entries
/// `ptr[l]..ptr[l + 1]` of `idx`/`val`, with `idx` ascending within a line.
#[derive(Debug)]
struct Compressed {
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f32>,
}

impl Compressed {
    /// The entries of line `l`.
    fn line(&self, l: usize) -> (&[usize], &[f32]) {
        // lint: panicfree(callers pass l < number of lines; ptr has one more element)
        let (lo, hi) = (self.ptr[l], self.ptr[l + 1]);
        // lint: panicfree(ptr offsets are bounded by idx.len() == val.len() by construction)
        (&self.idx[lo..hi], &self.val[lo..hi])
    }

    /// The same entries compressed along the other axis (`lines` is the
    /// number of lines of the result). Walking the source lines in order
    /// leaves each result line's indices ascending.
    fn transposed(&self, lines: usize) -> Compressed {
        let mut ptr = vec![0usize; lines + 1];
        for &j in &self.idx {
            ptr[j + 1] += 1; // lint: panicfree(every index is < lines, asserted at construction)
        }
        for l in 0..lines {
            ptr[l + 1] += ptr[l]; // lint: panicfree(l + 1 <= lines < ptr.len())
        }
        let mut next = ptr.clone();
        let mut idx = vec![0usize; self.idx.len()];
        let mut val = vec![0.0f32; self.val.len()];
        for src in 0..self.ptr.len() - 1 {
            let (cols, vals) = self.line(src);
            for (&j, &v) in cols.iter().zip(vals) {
                // lint: panicfree(next[j] < ptr[j + 1] <= nnz: each slot is claimed once)
                let slot = next[j];
                idx[slot] = src; // lint: panicfree(slot < nnz, see above)
                val[slot] = v; // lint: panicfree(slot < nnz, see above)
                next[j] += 1; // lint: panicfree(j < lines, asserted at construction)
            }
        }
        Compressed { ptr, idx, val }
    }

    /// `out += M·rhs` for the matrix whose lines these are, where `rhs` is
    /// row-major with `width` columns and `out` arrives zeroed. Each output
    /// row is accumulated from `0.0` over the line's entries in ascending
    /// index order — the term order of the dense reference loops after
    /// their exact-zero skip.
    fn accumulate_product(&self, rhs: &[f32], width: usize, out: &mut [f32]) {
        if width == 0 {
            return;
        }
        for (l, out_row) in out.chunks_mut(width).enumerate() {
            let (idx, val) = self.line(l);
            for (&j, &a) in idx.iter().zip(val) {
                // lint: panicfree(j < rhs rows, asserted by the public entry points)
                let src = &rhs[j * width..(j + 1) * width];
                for (o, &h) in out_row.iter_mut().zip(src) {
                    *o += a * h;
                }
            }
        }
    }
}

impl SparseMatrix {
    /// Builds a `rows.len() × cols` matrix from each row's `(column, value)`
    /// entries, given in any order. Exact zeros (either sign) are dropped,
    /// so they never enter a product — matching the dense reference loops,
    /// which skip them.
    ///
    /// # Panics
    ///
    /// Panics if a column is `>= cols` or appears twice in one row.
    pub fn from_rows(cols: usize, rows: Vec<Vec<(usize, f32)>>) -> Self {
        let n_rows = rows.len();
        let mut ptr = Vec::with_capacity(n_rows + 1);
        ptr.push(0);
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for mut row in rows {
            row.sort_by_key(|&(j, _)| j);
            for (k, &(j, v)) in row.iter().enumerate() {
                assert!(
                    j < cols,
                    "sparse column {j} out of range for {cols} columns"
                );
                assert!(
                    k == 0 || row[k - 1].0 != j,
                    "sparse column {j} appears twice in one row"
                );
                // lint: allow(TL004)
                if v != 0.0 {
                    idx.push(j);
                    val.push(v);
                }
            }
            ptr.push(idx.len());
        }
        let by_row = Compressed { ptr, idx, val };
        let by_col = by_row.transposed(cols);
        SparseMatrix {
            inner: Arc::new(Storage {
                rows: n_rows,
                cols,
                by_row,
                by_col,
            }),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.inner.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.inner.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.inner.by_row.val.len()
    }

    /// Row `i`'s stored `(column, value)` entries, in ascending column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(i < self.rows(), "sparse row {i} out of range");
        let (idx, val) = self.inner.by_row.line(i);
        idx.iter().copied().zip(val.iter().copied())
    }

    /// The dense `[rows, cols]` equivalent — a test oracle; products never
    /// build it.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows(), self.cols()]);
        for i in 0..self.rows() {
            for (j, v) in self.row(i) {
                out.set(i, j, v);
            }
        }
        out
    }

    /// `self · rhs` for a rank-2 `rhs` with `self.cols()` rows; bitwise
    /// equal to `self.to_dense().matmul(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics on a rank or inner-dimension mismatch.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.multiply(false, rhs, Vec::new())
    }

    /// `selfᵀ · rhs` for a rank-2 `rhs` with `self.rows()` rows; bitwise
    /// equal to `self.to_dense().matmul_tn(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics on a rank or inner-dimension mismatch.
    #[must_use = "this op returns a new tensor and does not modify self"]
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        self.multiply(true, rhs, Vec::new())
    }

    /// [`SparseMatrix::matmul`] (or, with `transpose`, `matmul_tn`) into a
    /// reused buffer; `buf`'s old contents are never read.
    pub(crate) fn multiply(&self, transpose: bool, rhs: &Tensor, mut buf: Vec<f32>) -> Tensor {
        assert_eq!(rhs.rank(), 2, "sparse product rhs must be rank 2");
        let s = &self.inner;
        let (lines, inner, entries) = if transpose {
            (s.cols, s.rows, &s.by_col)
        } else {
            (s.rows, s.cols, &s.by_row)
        };
        assert_eq!(
            rhs.rows(),
            inner,
            "sparse product inner dims {inner} vs {}",
            rhs.rows()
        );
        let width = rhs.cols();
        buf.clear();
        buf.resize(lines * width, 0.0);
        entries.accumulate_product(rhs.data(), width, &mut buf);
        Tensor::from_raw(vec![lines, width], buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random `rows × cols` matrix with about `density` of its entries
    /// stored, each row's entries listed in shuffled order.
    fn random(rows: usize, cols: usize, density: f32, rng: &mut StdRng) -> SparseMatrix {
        let entries = (0..rows)
            .map(|_| {
                let mut row = Vec::new();
                for j in 0..cols {
                    if rng.gen::<f32>() < density {
                        row.push((j, rng.gen_range(-2.0f32..2.0)));
                    }
                }
                for k in (1..row.len()).rev() {
                    row.swap(k, rng.gen_range(0..=k));
                }
                row
            })
            .collect();
        SparseMatrix::from_rows(cols, entries)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn products_match_the_dense_kernels_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(rows, cols, width, density) in &[
            (1usize, 1usize, 1usize, 1.0f32),
            (7, 5, 3, 0.4),
            (33, 33, 40, 0.1),
            (64, 17, 9, 0.0),
            (9, 40, 33, 1.0),
        ] {
            let a = random(rows, cols, density, &mut rng);
            let dense = a.to_dense();
            let h = Tensor::randn(&[cols, width], 1.0, &mut rng);
            let g = Tensor::randn(&[rows, width], 1.0, &mut rng);
            assert_eq!(bits(&a.matmul(&h)), bits(&dense.matmul(&h)));
            assert_eq!(bits(&a.matmul_tn(&g)), bits(&dense.matmul_tn(&g)));
            assert_eq!(a.matmul(&h).shape(), &[rows, width]);
            assert_eq!(a.matmul_tn(&g).shape(), &[cols, width]);
        }
    }

    #[test]
    fn rows_are_sorted_and_zeros_dropped() {
        let a = SparseMatrix::from_rows(
            4,
            vec![vec![(3, 1.0), (0, 2.0), (1, 0.0)], vec![], vec![(2, -0.0)]],
        );
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 4);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.row(0).collect::<Vec<_>>(), vec![(0, 2.0), (3, 1.0)]);
        assert_eq!(a.row(1).count(), 0);
        assert_eq!(a.row(2).count(), 0);
        // The transpose holds each column's entries in ascending row order.
        let t = a.matmul_tn(&Tensor::eye(3));
        assert_eq!(t, a.to_dense().transposed());
    }

    #[test]
    fn reused_buffers_do_not_leak_into_products() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random(12, 12, 0.3, &mut rng);
        let h = Tensor::randn(&[12, 5], 1.0, &mut rng);
        let dirty = vec![f32::NAN; 200];
        assert_eq!(a.multiply(false, &h, dirty), a.matmul(&h));
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_columns_are_rejected() {
        let _ = SparseMatrix::from_rows(2, vec![vec![(1, 1.0), (1, 2.0)]]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn inner_dimension_mismatch_panics() {
        let a = SparseMatrix::from_rows(3, vec![vec![(0, 1.0)]]);
        let _ = a.matmul(&Tensor::zeros(&[2, 2]));
    }
}
