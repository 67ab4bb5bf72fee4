//! Blocked, register-tiled matmul kernels shared by every dense product in
//! the workspace.
//!
//! One micro-kernel ([`MR`]×[`NR`] accumulator tile over packed B panels)
//! backs all three matmul variants — `A·B` ([`GemmKind::Nn`]), `A·Bᵀ`
//! ([`GemmKind::Nt`]) and `Aᵀ·B` ([`GemmKind::Tn`]) — replacing the naive
//! triple loops the crate shipped with (which are kept as `*_reference`
//! methods on `Tensor` behind `#[cfg(any(test, feature =
//! "reference-kernels"))]` and pinned bitwise-equal by the test suite).
//!
//! # Why this is fast
//!
//! The seed `ikj` loop re-streams the entire B matrix from memory once per
//! output row (`m·k·n` reads of B for `2·m·k·n` flops). Here B is packed
//! once into zero-padded, [`NR`]-wide column panels laid out in the exact
//! order the micro-kernel reads them, and each micro-kernel invocation keeps
//! an [`MR`]×[`NR`] tile of outputs in registers across the whole `k`
//! reduction — every loaded A scalar and B panel row is reused [`NR`] and
//! [`MR`] times respectively before leaving registers.
//!
//! # Why this is bitwise identical to the reference loops
//!
//! Floating-point addition is not associative, so "fast" must not mean
//! "reordered". Three properties make the blocked kernels produce the exact
//! bits of the seed loops:
//!
//! 1. **Per-element accumulation order is unchanged.** Each output element
//!    `out[i][j]` is the sum over `p` of `a·b` terms; the micro-kernel runs
//!    the full `k` reduction for a tile in ascending `p` from a `0.0`
//!    register, exactly like the reference loops. Tiling changes *which*
//!    elements are computed together, never the order of adds *within* an
//!    element, and there is no k-splitting (no partial writebacks that
//!    would, e.g., turn `-0.0` into `+0.0` via `acc + 0.0`).
//! 2. **The exact-zero skip is kept only where it is observable.** The
//!    seed `Nn` and `Tn` loops skip terms whose A scalar is bitwise zero,
//!    while the seed `Nt` dot-product loop does not. Every accumulator
//!    starts at `+0.0`, and under round-to-nearest a sum that starts there
//!    never becomes `-0.0`: `+0 + -0` is `+0`, and two nonzero floats that
//!    cancel exactly sum to `+0`. So when `b` is finite the skipped term
//!    `±0·b` is `±0`, and `acc + ±0` equals `acc` bit for bit (a NaN or
//!    infinite `acc` included). Skipping changes a result only through
//!    `0·±inf` and `0·NaN`, which are NaN. The `Nn`/`Tn` kernels therefore
//!    take the skipping micro-kernel (a const-generic `SKIP`) only for row
//!    tiles that hold a zero *and* whose B operand holds a non-finite
//!    value; every other tile runs the branch-free kernel, which
//!    vectorizes. B's finiteness is scanned at most once per call, and only
//!    when a tile holding a zero asks for it. `Nt` never skips.
//! 3. **Every output element is assigned exactly once** (a register store,
//!    not a read-modify-write), so the kernels never read `out` — calling
//!    them with a dirty reused buffer gives the same bits as a fresh
//!    allocation. The `*_into` scratch-reuse property tests pin this.
//!
//! # One serial path
//!
//! Every product runs serially on the calling thread. Parallelism lives a
//! level up, where jobs are independent (modules dispatched through
//! [`crate::exec::Executor`]): the system's GEMMs are
//! ~1 Mflop or less, far below the size at which a row-block fan-out
//! repays its thread-scope overhead.
//!
//! # Fused epilogues
//!
//! Every inference linear layer used to follow the GEMM with one or two
//! more full passes over the `m×n` output (bias add, then ReLU). The
//! [`Epilogue`] parameter applies those per-element ops to the accumulator
//! tile while it is still in registers, before the single store. This is
//! bitwise identical to the store-then-rewalk sequence because an f32
//! store/load round-trip preserves bits and the fused form performs the
//! exact same scalar ops in the exact same per-element order
//! (`(acc + bias[j]).max(0.0)`); the only thing removed is memory traffic.
//! [`Epilogue::apply_rows`] is that same epilogue over a flat buffer — the
//! unfused form — so the tape's `add_row` and any pre-fusion comparison
//! path share one implementation (and the fused-vs-unfused identity is
//! pinned by tests, not argued).

/// Rows of the register accumulator tile. 6- and 8-row tiles both
/// measured slower here: they spill accumulators to the stack.
pub const MR: usize = 4;

/// Columns of the register accumulator tile (and the packed panel width).
///
/// The 4×32 tile holds 8 512-bit (or 16 256-bit) accumulator registers —
/// without FMA contraction each `acc += a*b` is a dependent add chain per
/// register, and ~8 independent chains are what it takes to hide the
/// 4-cycle FP-add latency on both vector ports. Measured at 256³: 4×32
/// ≈ 71 GFLOP/s vs 4×16 ≈ 41 (the 256-bit two-port ceiling).
pub const NR: usize = 32;

/// Which dense product a [`gemm_into`] call computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKind {
    /// `out[m,n] = A[m,k] · B[k,n]` (both operands row-major as stored).
    Nn,
    /// `out[m,n] = A[m,k] · Bᵀ` where B is stored `[n,k]`.
    Nt,
    /// `out[m,n] = Aᵀ · B[k,n]` where A is stored `[k,m]`.
    Tn,
}

/// Per-element epilogue applied to each output block while the
/// accumulator tile is still in registers.
///
/// The variants mirror the exact op sequence the unfused inference path
/// performed after its GEMM — bias add (`v + bias[j]`), then for ReLU
/// layers `.max(0.0)` — in the same per-element order, so fusing them into
/// the micro-kernel store changes memory traffic but not one output bit.
/// The borrowed bias slice must have length `n` (asserted at the gemm
/// entry points).
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw accumulator — the pre-fusion kernel behaviour.
    None,
    /// `out[i][j] = acc + bias[j]` (a linear layer with no activation,
    /// e.g. the logits head).
    BiasAdd(&'a [f32]),
    /// `out[i][j] = (acc + bias[j]).max(0.0)` — bias then ReLU, the hidden
    /// layers of every served classifier.
    BiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// Applies the epilogue to one row segment covering logical output
    /// columns `j0 .. j0 + seg.len()`.
    #[inline]
    fn apply_segment(&self, seg: &mut [f32], j0: usize) {
        match self {
            Epilogue::None => {}
            Epilogue::BiasAdd(bias) => {
                // lint: panicfree(bias length n is asserted at the gemm entry; j0 + seg.len() <= n)
                for (v, &bv) in seg.iter_mut().zip(&bias[j0..]) {
                    *v += bv;
                }
            }
            Epilogue::BiasRelu(bias) => {
                // lint: panicfree(bias length n is asserted at the gemm entry; j0 + seg.len() <= n)
                for (v, &bv) in seg.iter_mut().zip(&bias[j0..]) {
                    *v = (*v + bv).max(0.0);
                }
            }
        }
    }

    /// Applies the epilogue to a flat row-major `[rows, n]` buffer — the
    /// *unfused* form, one full pass over memory.
    ///
    /// This is the single shared implementation of the bias/activation
    /// walk: the autograd tape's `add_row` forward value routes through it,
    /// and the fused kernels are pinned bitwise against it by the test
    /// suite. `out.len()` must be a multiple of `n`.
    pub fn apply_rows(&self, out: &mut [f32], n: usize) {
        if matches!(self, Epilogue::None) || n == 0 {
            return;
        }
        self.assert_bias_len(n);
        assert_eq!(out.len() % n, 0, "epilogue buffer is not whole rows");
        for row in out.chunks_mut(n) {
            self.apply_segment(row, 0);
        }
    }

    /// Asserts the borrowed bias covers all `n` output columns.
    fn assert_bias_len(&self, n: usize) {
        if let Epilogue::BiasAdd(bias) | Epilogue::BiasRelu(bias) = self {
            assert_eq!(bias.len(), n, "epilogue bias length");
        }
    }
}

/// Computes a dense product into a caller-owned output buffer.
///
/// `a`, `b` and `out` are flat row-major buffers; `m`/`k`/`n` are the
/// *logical* GEMM dimensions (`out` is always `m×n`, the reduction length
/// is always `k`; see [`GemmKind`] for each variant's storage layout).
/// `panel` is a reusable scratch buffer for the packed B panels — it is
/// cleared and refilled on every call, grows to `k × n.next_multiple_of(NR)`
/// elements, and may be shared (dirty) across calls of any shape.
///
/// `out` is write-only: every element is assigned exactly once and never
/// read, so a dirty reused buffer produces bits identical to a fresh
/// zeroed allocation.
///
/// `epi` is applied to every output element while its accumulator tile is
/// still hot — pass [`Epilogue::None`] for a plain product.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `m`/`k`/`n` (including the
/// epilogue bias, which must have length `n`).
// lint: root(hot)
pub fn gemm_into(
    kind: GemmKind,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    epi: Epilogue,
    panel: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(b.len(), k * n, "gemm rhs buffer length");
    pack_b(kind, k, n, b, panel);
    gemm_packed_into(kind, m, k, n, a, panel, epi, out);
}

/// Like [`gemm_into`], but consumes an already-packed B panel instead of
/// packing on every call.
///
/// `panel` must be exactly what [`pack_b`] produces for this `kind`/`k`/`n`
/// (length [`packed_panel_len`]`(k, n)`); [`gemm_into`] is precisely
/// `pack_b` followed by this function. Packing is a pure element copy, so a
/// panel packed once and reused gives bits identical to repacking per call
/// — which is why weight matrices that never change between calls (the
/// serving fast path in `taglets-nn`) can be packed once per model instead
/// of once per batch. All other contracts (write-only `out`, the fused
/// epilogue) are those of [`gemm_into`].
///
/// # Panics
///
/// Panics if `a`, `panel` or `out` length disagrees with `m`/`k`/`n`.
// lint: root(hot)
pub fn gemm_packed_into(
    kind: GemmKind,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    panel: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm lhs buffer length");
    assert_eq!(
        panel.len(),
        packed_panel_len(k, n),
        "gemm packed panel length"
    );
    assert_eq!(out.len(), m * n, "gemm output buffer length");
    epi.assert_bias_len(n);
    if m == 0 || n == 0 {
        return;
    }

    gemm_rows(kind, a, m, k, n, panel, epi, out);
}

/// The serial kernel over all `rows` output rows.
///
/// The output is walked in [`MR`]-row tiles and [`NR`]-column panels with
/// the micro-kernel doing the full-`k` reduction per tile.
fn gemm_rows(
    kind: GemmKind,
    a: &[f32],
    rows: usize,
    k: usize,
    n: usize,
    panel: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    // A addressing per variant: Nn/Nt read A rows (stride k between rows),
    // Tn reads A columns of a [k,m] buffer (stride m between p steps).
    let a_stride = match kind {
        GemmKind::Nn | GemmKind::Nt => k,
        GemmKind::Tn => a.len() / k.max(1), // lint: panicfree(max(1) keeps the divisor nonzero)
    };
    // Tn transposes each A tile into `apack` (row-major: element `(r, p)`
    // at `r*k + p`) so every variant runs the one row-major micro-kernel.
    // The [k, m] storage layout touches one cache line per `p` step; that
    // strided walk is paid once per row tile here (O(mr·k), amortized over
    // the O(mr·k·n) tile flops) instead of on every column panel in the
    // micro-kernel. Copies preserve bits, and the micro-kernel still
    // consumes each output element's terms in ascending-`p` order, so the
    // result is bitwise unchanged.
    // lint: alloc(lazy Tn-only transpose scratch; sized once, reused per row tile)
    let mut apack: Vec<f32> = Vec::new();
    // Whether every packed B value is finite; unknown until a tile asks.
    let mut b_finite: Option<bool> = None;
    let mut it = 0;
    while it < rows {
        let mr = (rows - it).min(MR);
        let (ta, ts, tr) = if matches!(kind, GemmKind::Tn) {
            apack.clear();
            apack.resize(mr * k, 0.0);
            for p in 0..k {
                // lint: panicfree(caller asserts a.len() = k*m; it+mr <= m)
                let src = &a[p * a_stride + it..p * a_stride + it + mr];
                for (r, &v) in src.iter().enumerate() {
                    apack[r * k + p] = v; // lint: panicfree(apack resized to mr*k; r < mr, p < k)
                }
            }
            (apack.as_slice(), k, 0)
        } else {
            (a, a_stride, it)
        };
        // The Nn/Tn reference loops skip a term whose A scalar is ±0, which
        // is observable only against a non-finite B value (module docs,
        // point 2). So tiles holding no zero, and every tile once B is
        // known finite, take the branch-free kernel, which vectorizes. B's
        // finiteness is scanned at most once per call, on the first tile
        // holding a zero, so calls whose A holds no zero never pay for it.
        let skip = match kind {
            GemmKind::Nt => false,
            GemmKind::Nn | GemmKind::Tn => {
                b_finite != Some(true)
                    && tile_has_zero(ta, ts, tr, mr, k)
                    && !*b_finite.get_or_insert_with(|| all_finite(panel))
            }
        };
        let mut jp = 0;
        let mut j0 = 0;
        while j0 < n {
            let nr = (n - j0).min(NR);
            // lint: panicfree(panel length is asserted packed_panel_len(k, n); jp < n.div_ceil(NR))
            let bpanel = &panel[jp * k * NR..(jp + 1) * k * NR];
            match (skip, mr) {
                (true, 4) => micro::<4, true>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
                (true, 3) => micro::<3, true>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
                (true, 2) => micro::<2, true>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
                (true, _) => micro::<1, true>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
                (false, 4) => micro::<4, false>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
                (false, 3) => micro::<3, false>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
                (false, 2) => micro::<2, false>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
                (false, _) => micro::<1, false>(ta, ts, tr, k, bpanel, epi, out, it, n, j0, nr),
            }
            jp += 1;
            j0 += NR;
        }
        it += mr;
    }
}

/// `true` when any A scalar feeding this `mr`-row (row-major) tile is
/// bitwise zero — i.e. when the reference loops' exact-zero skip could
/// fire. The tile reads `mr` length-`k` rows starting at `arow0`.
fn tile_has_zero(a: &[f32], a_stride: usize, arow0: usize, mr: usize, k: usize) -> bool {
    if k == 0 {
        return false;
    }
    // lint: panicfree(tile rows live inside a by the gemm entry asserts)
    a[arow0 * a_stride..(arow0 + mr - 1) * a_stride + k]
        .chunks(a_stride)
        .any(|row| row[..k].iter().any(|v| v.to_bits() << 1 == 0)) // lint: panicfree(chunk width a_stride >= k)
}

/// `true` when no value of the packed B panel is ±inf or NaN. The panel's
/// zero padding is finite, so it never changes the answer. The integer max
/// over the magnitude bits has no early exit, so the scan vectorizes.
fn all_finite(panel: &[f32]) -> bool {
    let max_magnitude = panel
        .iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7fff_ffff));
    max_magnitude < f32::INFINITY.to_bits()
}

/// The register micro-kernel: an `MRR`×[`NR`] output tile accumulated in
/// registers over the full `k` reduction, then stored (assignment, not
/// read-modify-write).
///
/// * `MRR` — live tile rows (`1..=MR`, ragged m-tails use smaller tiles).
/// * `SKIP` — replicate the seed loops' exact-zero skip on the A scalar.
///   `gemm_rows` sets it only for `Nn`/`Tn` tiles that hold a zero against
///   a B operand holding ±inf or NaN, the one case where skipping changes
///   a bit (module docs, point 2).
///
/// A is always row-major here — `Tn` tiles arrive pre-transposed by
/// `gemm_rows`, so all three variants share this one code path (and its
/// codegen). Accumulation for every output element is ascending-`p` from
/// `0.0`, matching the reference loops term for term; the epilogue runs on
/// the finished accumulator tile before the one store, in the same
/// per-element op order as the unfused store-then-rewalk sequence.
fn micro<const MRR: usize, const SKIP: bool>(
    a: &[f32],
    a_stride: usize,
    arow0: usize,
    k: usize,
    bpanel: &[f32],
    epi: Epilogue,
    out: &mut [f32],
    orow0: usize,
    n: usize,
    j0: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MRR];
    let mut ar: [&[f32]; MRR] = [&[]; MRR];
    for (r, slot) in ar.iter_mut().enumerate() {
        *slot = &a[(arow0 + r) * a_stride..(arow0 + r) * a_stride + k];
    }
    for p in 0..k {
        let bp = &bpanel[p * NR..(p + 1) * NR];
        for r in 0..MRR {
            let av = ar[r][p];
            // Exact-zero skip, mirroring the reference Nn/Tn loops;
            // compiled out for Nt, whose reference loop has no skip.
            // lint: allow(TL004)
            if SKIP && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc[r].iter_mut().zip(bp) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter_mut().enumerate() {
        epi.apply_segment(&mut acc_row[..nr], j0);
        let dst = &mut out[(orow0 + r) * n + j0..(orow0 + r) * n + j0 + nr];
        dst.copy_from_slice(&acc_row[..nr]);
    }
}

/// Length in `f32` elements of the packed panel [`pack_b`] produces for a
/// logical `k × n` B operand: `n` rounded up to whole [`NR`]-wide panels,
/// times `k` rows. This is the exact length [`gemm_packed_into`] expects.
pub fn packed_panel_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs B into [`NR`]-wide column panels, zero-padded to full width.
///
/// Panel `jp` holds logical B columns `jp*NR .. jp*NR+NR` in `p`-major
/// order: element `(p, j)` of the panel sits at `jp*k*NR + p*NR + j`, the
/// exact order the micro-kernel streams. Padding columns are zero, so tail
/// accumulators compute `0.0` lanes that are simply never stored.
///
/// `panel` is cleared and resized to [`packed_panel_len`]`(k, n)`; a dirty
/// reused buffer of any prior shape is fine. The pack is a pure element
/// copy — no arithmetic — so a panel packed once and handed to
/// [`gemm_packed_into`] repeatedly yields bitwise-identical products to
/// repacking before every call.
pub fn pack_b(kind: GemmKind, k: usize, n: usize, b: &[f32], panel: &mut Vec<f32>) {
    let np = (n + NR - 1) / NR; // lint: panicfree(NR is a nonzero const)
    panel.clear();
    panel.resize(np * k * NR, 0.0);
    match kind {
        // B stored [k,n]: copy NR-wide slices of each B row.
        GemmKind::Nn | GemmKind::Tn => {
            for jp in 0..np {
                let j0 = jp * NR;
                let nr = (n - j0).min(NR);
                // lint: panicfree(panel resized to np*k*NR above; jp < np)
                let dst = &mut panel[jp * k * NR..(jp + 1) * k * NR];
                for p in 0..k {
                    // lint: panicfree(nr <= NR and j0 + nr <= n keep both slices length nr)
                    dst[p * NR..p * NR + nr].copy_from_slice(&b[p * n + j0..p * n + j0 + nr]);
                }
            }
        }
        // B stored [n,k]: logical column j is storage row j; scatter each
        // storage row across the panel's p-major layout.
        GemmKind::Nt => {
            for jp in 0..np {
                let j0 = jp * NR;
                let nr = (n - j0).min(NR);
                // lint: panicfree(panel resized to np*k*NR above; jp < np)
                let dst = &mut panel[jp * k * NR..(jp + 1) * k * NR];
                for jj in 0..nr {
                    // lint: panicfree(j0 + jj < n and b.len() = n*k for the Nt layout)
                    let brow = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (p, &v) in brow.iter().enumerate() {
                        dst[p * NR + jj] = v; // lint: panicfree(p < k and jj < NR index inside dst)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn reference(kind: GemmKind, a: &Tensor, b: &Tensor) -> Tensor {
        match kind {
            GemmKind::Nn => a.matmul_reference(b),
            GemmKind::Nt => a.matmul_nt_reference(b),
            GemmKind::Tn => a.matmul_tn_reference(b),
        }
    }

    fn logical_dims(kind: GemmKind, a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
        match kind {
            GemmKind::Nn => (a.rows(), a.cols(), b.cols()),
            GemmKind::Nt => (a.rows(), a.cols(), b.rows()),
            GemmKind::Tn => (a.cols(), a.rows(), b.cols()),
        }
    }

    fn assert_kernel_matches(kind: GemmKind, a: &Tensor, b: &Tensor) {
        let (m, k, n) = logical_dims(kind, a, b);
        let expect = reference(kind, a, b);
        // Dirty scratch on purpose: out must be write-only.
        let mut out = vec![f32::NAN; m * n];
        let mut panel = vec![7.5f32; 3];
        gemm_into(
            kind,
            m,
            k,
            n,
            a.data(),
            b.data(),
            Epilogue::None,
            &mut panel,
            &mut out,
        );
        assert_eq!(out.as_slice(), expect.data(), "{kind:?} m={m} k={k} n={n}");
    }

    #[test]
    fn blocked_matches_reference_on_ragged_shapes() {
        let mut rng = StdRng::seed_from_u64(50);
        let shapes = [
            (1, 1, 1),
            (4, 8, 8),
            (5, 3, 9),
            (7, 13, 11),
            (33, 17, 25),
            (64, 1, 8),
            (3, 40, 1),
            (97, 256, 200),
        ];
        for &(m, k, n) in &shapes {
            for kind in [GemmKind::Nn, GemmKind::Nt, GemmKind::Tn] {
                let (a_shape, b_shape) = match kind {
                    GemmKind::Nn => ([m, k], [k, n]),
                    GemmKind::Nt => ([m, k], [n, k]),
                    GemmKind::Tn => ([k, m], [k, n]),
                };
                let a = Tensor::randn(&a_shape, 1.0, &mut rng);
                let b = Tensor::randn(&b_shape, 1.0, &mut rng);
                assert_kernel_matches(kind, &a, &b);
            }
        }
    }

    #[test]
    fn sparse_inputs_exercise_the_zero_skip() {
        let mut rng = StdRng::seed_from_u64(52);
        let mut a = Tensor::randn(&[9, 14], 1.0, &mut rng);
        let mut b = Tensor::randn(&[14, 6], 1.0, &mut rng);
        for v in a.data_mut().iter_mut() {
            if rng.gen_bool(0.5) {
                *v = 0.0;
            }
        }
        for v in b.data_mut().iter_mut() {
            if rng.gen_bool(0.3) {
                *v = 0.0;
            }
        }
        assert_kernel_matches(GemmKind::Nn, &a, &b);
        let bt = b.transposed();
        assert_kernel_matches(GemmKind::Nt, &a, &bt);
        let at = a.transposed();
        assert_kernel_matches(GemmKind::Tn, &at, &b);
    }

    #[test]
    fn zero_skip_semantics_preserve_nan_propagation() {
        // 0.0 * inf = NaN: the Nt reference has no zero skip, so a zero row
        // against an infinite column must still produce NaN — while Nn's
        // skip swallows it. The kernels must reproduce both behaviours.
        let a = Tensor::from_rows(&[&[0.0, 0.0]]);
        let inf = Tensor::from_rows(&[&[f32::INFINITY, 1.0], &[1.0, 1.0]]);
        let nn = a.matmul(&inf);
        assert_eq!(nn.data(), &[0.0, 0.0], "Nn skip swallows 0*inf");
        let nt = a.matmul_nt(&inf.transposed());
        assert!(nt.data()[0].is_nan(), "Nt keeps 0*inf = NaN");
        assert_eq!(nn.data(), a.matmul_reference(&inf).data());
        let nt_ref = a.matmul_nt_reference(&inf.transposed());
        assert!(nt_ref.data()[0].is_nan());
        // Tn skips like Nn: A stored [k, m] = [[0], [0]] against the same B.
        let at = a.transposed();
        let tn = at.matmul_tn(&inf);
        assert_eq!(tn.data(), &[0.0, 0.0], "Tn skip swallows 0*inf");
        assert_eq!(tn.data(), at.matmul_tn_reference(&inf).data());
        // A NaN in B is swallowed the same way, while an output row whose
        // A column holds no zero still meets it: row 0 skips the NaN term,
        // row 1 propagates it.
        let nan = Tensor::from_rows(&[&[f32::NAN, 1.0], &[1.0, 1.0]]);
        let mixed = Tensor::from_rows(&[&[-0.0, 2.0], &[1.0, 2.0]]); // [k, m]
        let tn = mixed.matmul_tn(&nan);
        assert_eq!(&tn.data()[..2], &[1.0, 1.0]);
        assert!(tn.data()[2].is_nan(), "Tn keeps 2*NaN = NaN");
        let tn_ref = mixed.matmul_tn_reference(&nan);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tn), bits(&tn_ref));
    }

    #[test]
    fn degenerate_dims_are_handled() {
        // k = 0: reduction over nothing must leave exact +0.0 everywhere,
        // even in a dirty output buffer.
        let mut out = vec![f32::NAN; 6];
        let mut panel = Vec::new();
        gemm_into(
            GemmKind::Nn,
            2,
            0,
            3,
            &[],
            &[],
            Epilogue::None,
            &mut panel,
            &mut out,
        );
        assert_eq!(out, vec![0.0; 6]);
        assert!(out.iter().all(|v| v.to_bits() == 0), "exact +0.0");
        // k = 0 with a fused epilogue: the empty reduction leaves +0.0, so
        // the output is exactly the bias rows (ReLU'd where negative).
        let bias = [1.5f32, -2.0, 0.25];
        let mut biased = vec![f32::NAN; 6];
        gemm_into(
            GemmKind::Nn,
            2,
            0,
            3,
            &[],
            &[],
            Epilogue::BiasRelu(&bias),
            &mut panel,
            &mut biased,
        );
        assert_eq!(biased, vec![1.5, 0.0, 0.25, 1.5, 0.0, 0.25]);
        // m = 0 / n = 0: nothing to write.
        let mut empty: Vec<f32> = Vec::new();
        gemm_into(
            GemmKind::Nn,
            0,
            4,
            3,
            &[],
            &[0.0; 12],
            Epilogue::None,
            &mut panel,
            &mut empty,
        );
        gemm_into(
            GemmKind::Nn,
            3,
            4,
            0,
            &[0.0; 12],
            &[],
            Epilogue::None,
            &mut panel,
            &mut empty,
        );
    }

    #[test]
    fn prepacked_panels_match_per_call_packing_bitwise() {
        // The serving fast path packs each weight matrix once per model and
        // reuses the panel for every batch; that must be indistinguishable
        // (bit for bit) from gemm_into's pack-on-every-call, for every
        // variant.
        let mut rng = StdRng::seed_from_u64(54);
        for &(m, k, n) in &[(7usize, 13usize, 11usize), (33, 17, 25), (97, 64, 50)] {
            for kind in [GemmKind::Nn, GemmKind::Nt, GemmKind::Tn] {
                let (a_rows, a_cols, b_rows, b_cols) = match kind {
                    GemmKind::Nn => (m, k, k, n),
                    GemmKind::Nt => (m, k, n, k),
                    GemmKind::Tn => (k, m, k, n),
                };
                let a = Tensor::randn(&[a_rows, a_cols], 1.0, &mut rng);
                let b = Tensor::randn(&[b_rows, b_cols], 1.0, &mut rng);
                let mut packed = vec![3.25f32; 5]; // dirty on purpose
                pack_b(kind, k, n, b.data(), &mut packed);
                assert_eq!(packed.len(), packed_panel_len(k, n));
                let mut repack = vec![f32::NAN; m * n];
                let mut panel = Vec::new();
                gemm_into(
                    kind,
                    m,
                    k,
                    n,
                    a.data(),
                    b.data(),
                    Epilogue::None,
                    &mut panel,
                    &mut repack,
                );
                let mut pre = vec![f32::NAN; m * n];
                // Two calls against the same panel: reuse must not perturb it.
                for _ in 0..2 {
                    gemm_packed_into(kind, m, k, n, a.data(), &packed, Epilogue::None, &mut pre);
                }
                assert_eq!(pre, repack, "{kind:?} m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn panel_reuse_across_shapes_is_safe() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut panel = Vec::new();
        for &(m, k, n) in &[(10usize, 20usize, 30usize), (3, 2, 1), (17, 5, 9)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let mut out = vec![f32::NAN; m * n];
            gemm_into(
                GemmKind::Nn,
                m,
                k,
                n,
                a.data(),
                b.data(),
                Epilogue::None,
                &mut panel,
                &mut out,
            );
            assert_eq!(out.as_slice(), a.matmul_reference(&b).data());
        }
    }

    /// Reference for the fused epilogue: the exact pre-fusion sequence —
    /// plain GEMM, then the shared flat-buffer epilogue walk.
    fn unfused(
        kind: GemmKind,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        epi: Epilogue,
    ) -> Vec<f32> {
        let mut out = vec![f32::NAN; m * n];
        let mut panel = Vec::new();
        gemm_into(kind, m, k, n, a, b, Epilogue::None, &mut panel, &mut out);
        epi.apply_rows(&mut out, n);
        out
    }

    #[test]
    fn fused_epilogue_is_bitwise_identical_to_unfused_on_ragged_shapes() {
        // The tentpole claim: BiasAdd / BiasRelu fused into the hot
        // accumulator tile produce the exact bits of gemm-then-rewalk, on
        // ragged tile tails, at every variant, into NaN-poisoned dirty
        // outputs.
        let mut rng = StdRng::seed_from_u64(60);
        let shapes = [
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 3, 9),
            (7, 13, 11),
            (8, 64, 33),
            (33, 17, 25),
            (97, 256, 200),
        ];
        for &(m, k, n) in &shapes {
            for kind in [GemmKind::Nn, GemmKind::Nt, GemmKind::Tn] {
                let (a_shape, b_shape) = match kind {
                    GemmKind::Nn => ([m, k], [k, n]),
                    GemmKind::Nt => ([m, k], [n, k]),
                    GemmKind::Tn => ([k, m], [k, n]),
                };
                let a = Tensor::randn(&a_shape, 1.0, &mut rng);
                let b = Tensor::randn(&b_shape, 1.0, &mut rng);
                let bias = Tensor::randn(&[1, n], 1.0, &mut rng);
                for epi in [
                    Epilogue::BiasAdd(bias.data()),
                    Epilogue::BiasRelu(bias.data()),
                ] {
                    let expect = unfused(kind, m, k, n, a.data(), b.data(), epi);
                    let mut out = vec![f32::NAN; m * n];
                    let mut panel = vec![7.5f32; 3];
                    gemm_into(kind, m, k, n, a.data(), b.data(), epi, &mut panel, &mut out);
                    let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(ob, eb, "{kind:?} {epi:?} m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn apply_rows_rejects_partial_rows_and_handles_empty() {
        let mut buf = vec![1.0f32; 6];
        Epilogue::None.apply_rows(&mut buf, 4); // None never validates
        let bias = [1.0f32, 2.0];
        Epilogue::BiasAdd(&bias).apply_rows(&mut buf, 2);
        assert_eq!(buf, vec![2.0, 3.0, 2.0, 3.0, 2.0, 3.0]);
        let result = std::panic::catch_unwind(move || {
            let mut buf = vec![1.0f32; 5];
            Epilogue::BiasAdd(&[1.0, 2.0]).apply_rows(&mut buf, 2);
        });
        assert!(result.is_err(), "partial rows must be rejected");
    }
}
