//! Kernel-layer equivalence suite (enabled by the `reference-kernels`
//! feature, which keeps the seed's naive loops compiled in as oracles).
//!
//! Two claims are pinned here, each load-bearing for the rest of the
//! system:
//!
//! 1. **Blocked == reference, bitwise.** The register-tiled, cache-blocked
//!    kernels produce bit-for-bit the floats the seed's naive loops did,
//!    across randomized shapes including ragged tails, for all three GEMM
//!    variants and the blocked transpose.
//! 2. **Scratch reuse is invisible.** `*_into` with a dirty, reused output
//!    buffer and a reused packing panel — and `backward_with` with a dirty
//!    recycled [`GradScratch`] — equal fresh allocation bitwise, because
//!    every kernel output element is stored exactly once.
//! 3. **The exact-zero skip is decided by B's finiteness.** Post-ReLU A
//!    operands (±0.0, subnormals, products that underflow to ±0) give the
//!    reference loops' bits both when B is all finite (every tile runs the
//!    dense kernel) and when B holds ±inf or NaN (tiles holding a zero run
//!    the skipping kernel).

#![cfg(feature = "reference-kernels")]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taglets_tensor::kernels::{self, Epilogue, GemmKind};
use taglets_tensor::{check_gradients, GradScratch, Tape, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Randomized shapes: small, ragged (every combination of tail sizes around
/// the MR/NR tile edges), and a few larger ones spanning many row tiles.
fn random_shapes(rng: &mut StdRng) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 17),
        (33, 13, 9),
        (64, 64, 64),
        (97, 33, 41),
    ];
    for _ in 0..8 {
        shapes.push((
            rng.gen_range(1..40),
            rng.gen_range(1..40),
            rng.gen_range(1..40),
        ));
    }
    shapes.push((96, 80, 70));
    shapes.push((130, 64, 64));
    shapes.push((61, 35, 29));
    shapes
}

#[test]
fn blocked_gemm_is_bitwise_identical_to_reference() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for (m, k, n) in random_shapes(&mut rng) {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bt = b.transposed_reference(); // [n, k]
        let at = a.transposed_reference(); // [k, m]

        let nn_ref = bits(&a.matmul_reference(&b));
        let nt_ref = bits(&a.matmul_nt_reference(&bt));
        let tn_ref = bits(&at.matmul_tn_reference(&b));
        assert_eq!(bits(&a.matmul(&b)), nn_ref, "Nn {m}x{k}x{n}");
        assert_eq!(bits(&a.matmul_nt(&bt)), nt_ref, "Nt {m}x{k}x{n}");
        assert_eq!(bits(&at.matmul_tn(&b)), tn_ref, "Tn {m}x{k}x{n}");
    }
}

#[test]
fn into_variants_with_dirty_reused_scratch_equal_fresh_allocation() {
    let mut rng = StdRng::seed_from_u64(42);
    // One output tensor reused across every shape, poisoned with NaN before
    // first use and never cleared between uses: results must still be
    // bitwise identical to the freshly allocated path.
    let mut out = Tensor::from_vec(vec![f32::NAN; 64]);
    for _ in 0..12 {
        let m = rng.gen_range(1..30);
        let k = rng.gen_range(1..30);
        let n = rng.gen_range(1..30);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bt = b.transposed();
        let at = a.transposed();

        a.matmul_into(&b, &mut out);
        assert_eq!(bits(&out), bits(&a.matmul(&b)), "Nn {m}x{k}x{n}");
        a.matmul_nt_into(&bt, &mut out);
        assert_eq!(bits(&out), bits(&a.matmul_nt(&bt)), "Nt {m}x{k}x{n}");
        at.matmul_tn_into(&b, &mut out);
        assert_eq!(bits(&out), bits(&at.matmul_tn(&b)), "Tn {m}x{k}x{n}");
    }
}

#[test]
fn blocked_transpose_matches_reference() {
    let mut rng = StdRng::seed_from_u64(9);
    for (r, c) in [(1, 1), (3, 17), (16, 16), (15, 33), (64, 48), (70, 5)] {
        let t = Tensor::randn(&[r, c], 1.0, &mut rng);
        assert_eq!(
            bits(&t.transposed()),
            bits(&t.transposed_reference()),
            "{r}x{c}"
        );
    }
}

#[test]
fn backward_with_recycled_scratch_is_bitwise_identical_to_fresh() {
    let mut rng = StdRng::seed_from_u64(0xD1F7);
    let w0 = Tensor::randn(&[11, 7], 0.8, &mut rng);
    let xs: Vec<Tensor> = (0..6)
        .map(|_| Tensor::randn(&[9, 11], 1.0, &mut rng))
        .collect();

    let run = |x: &Tensor, scratch: &mut GradScratch| -> (Vec<u32>, Vec<u32>) {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let wv = tape.leaf(w0.clone());
        let h = tape.matmul(xv, wv); // [9, 7]
        let r = tape.relu(h);
        let s = tape.matmul_nt(r, wv); // [9, 11] — exercises the Nt grads
        let loss = tape.mean(s);
        let mut grads = tape.backward_with(loss, scratch);
        let gx = grads.take(xv).expect("x grad");
        let gw = grads.take(wv).expect("w grad");
        let out = (bits(&gx), bits(&gw));
        scratch.recycle_tensor(gx);
        scratch.recycle_tensor(gw);
        scratch.recycle(grads);
        out
    };

    // The dirty scratch is recycled across all six backward passes; each
    // must match a one-shot fresh-scratch run bitwise.
    let mut reused = GradScratch::new();
    for x in &xs {
        let with_reuse = run(x, &mut reused);
        let fresh = run(x, &mut GradScratch::new());
        assert_eq!(with_reuse, fresh);
    }
}

#[test]
fn gradcheck_matmul_variants_through_tape_with_scratch_reuse() {
    // Finite differences against the new kernel paths: each matmul variant
    // flows through `forward_gemm` (packed panels, register tiling) and its
    // backward through `grad_gemm` with pooled buffers.
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
    let w = Tensor::randn(&[5, 4], 1.0, &mut rng);

    // Nn: loss = mean(x · w), checking w.
    let report = check_gradients(&w, 1e-2, |value| {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.leaf(value.clone());
        let y = tape.matmul(xv, wv);
        let loss = tape.mean(y);
        (tape, wv, loss)
    });
    assert!(report.passes(2e-2), "Nn: {report:?}");

    // Nt: loss = mean(x · wᵀ), checking w — backward runs the Tn kernel.
    let wt = Tensor::randn(&[4, 5], 1.0, &mut rng);
    let report = check_gradients(&wt, 1e-2, |value| {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.leaf(value.clone());
        let y = tape.matmul_nt(xv, wv);
        let loss = tape.mean(y);
        (tape, wv, loss)
    });
    assert!(report.passes(2e-2), "Nt: {report:?}");

    // Checking the data side too: grad of x runs the Nt (for Nn) kernel.
    let report = check_gradients(&x, 1e-2, |value| {
        let mut tape = Tape::new();
        let xv = tape.leaf(value.clone());
        let wv = tape.constant(w.clone());
        let y = tape.matmul(xv, wv);
        let loss = tape.mean(y);
        (tape, xv, loss)
    });
    assert!(report.passes(2e-2), "Nn data side: {report:?}");
}

#[test]
fn tape_forward_values_match_reference_kernels() {
    // The tape's forward matmuls route through the same blocked kernels;
    // pin them against the seed loops end to end.
    let mut rng = StdRng::seed_from_u64(3);
    let x = Tensor::randn(&[21, 13], 1.0, &mut rng);
    let w = Tensor::randn(&[13, 10], 1.0, &mut rng);
    let mut tape = Tape::new();
    let xv = tape.constant(x.clone());
    let wv = tape.constant(w.clone());
    let y = tape.matmul(xv, wv);
    assert_eq!(bits(tape.value(y)), bits(&x.matmul_reference(&w)));
}

/// A `[rows, cols]` operand shaped like a post-ReLU activation: about half
/// exact zeros of either sign, some subnormals, some values near 1e-30
/// (whose products with [`b_operand`]'s 1e-20 values underflow to ±0), and
/// the rest normal.
fn post_relu_operand(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::randn(&[rows, cols], 1.0, rng);
    for v in t.data_mut() {
        *v = match rng.gen_range(0..10) {
            0..=3 => 0.0,
            4 => -0.0,
            5 => f32::from_bits(rng.gen_range(1..0x0080_0000)) * v.signum(),
            6 => 1e-30 * v.signum(),
            _ => *v,
        };
    }
    t
}

/// A `[rows, cols]` B operand: normal values, ±0.0, subnormals and ±1e-20,
/// plus `specials` placed at random positions (pass none for an
/// all-finite B).
fn b_operand(rows: usize, cols: usize, specials: &[f32], rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::randn(&[rows, cols], 1.0, rng);
    for v in t.data_mut() {
        *v = match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(rng.gen_range(1..0x0080_0000)) * v.signum(),
            3 => 1e-20 * v.signum(),
            _ => *v,
        };
    }
    let len = rows * cols;
    for &s in specials {
        t.data_mut()[rng.gen_range(0..len)] = s;
    }
    t
}

/// Checks `Nn` and `Tn` (through `Tensor` and through a prepacked panel)
/// against the reference loops, bit for bit, on post-ReLU A operands.
fn assert_skip_dispatch_matches_reference(specials: &[f32], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shapes = vec![
        (1, 1, 1),
        (1, 48, 64),
        (5, 9, 17),
        (33, 13, 9),
        (64, 64, 64),
        (128, 96, 64),
    ];
    for _ in 0..6 {
        shapes.push((
            rng.gen_range(1..40),
            rng.gen_range(1..40),
            rng.gen_range(1..40),
        ));
    }
    for (m, k, n) in shapes {
        let a = post_relu_operand(m, k, &mut rng); // Nn: A stored [m, k]
        let at = post_relu_operand(k, m, &mut rng); // Tn: A stored [k, m]
        let b = b_operand(k, n, specials, &mut rng);
        let nn_ref = bits(&a.matmul_reference(&b));
        let tn_ref = bits(&at.matmul_tn_reference(&b));
        assert_eq!(bits(&a.matmul(&b)), nn_ref, "Nn {m}x{k}x{n} {specials:?}");
        assert_eq!(
            bits(&at.matmul_tn(&b)),
            tn_ref,
            "Tn {m}x{k}x{n} {specials:?}"
        );

        let mut panel = Vec::new();
        for (kind, lhs, expect) in [(GemmKind::Nn, &a, &nn_ref), (GemmKind::Tn, &at, &tn_ref)] {
            kernels::pack_b(kind, k, n, b.data(), &mut panel);
            let mut out = vec![f32::NAN; m * n];
            kernels::gemm_packed_into(kind, m, k, n, lhs.data(), &panel, Epilogue::None, &mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(&got, expect, "prepacked {kind:?} {m}x{k}x{n} {specials:?}");
        }
    }
}

#[test]
fn post_relu_operands_with_finite_b_match_reference_bitwise() {
    assert_skip_dispatch_matches_reference(&[], 0x5E10);
}

#[test]
fn post_relu_operands_with_non_finite_b_match_reference_bitwise() {
    for (i, specials) in [
        &[f32::INFINITY][..],
        &[f32::NEG_INFINITY, f32::INFINITY],
        &[f32::NAN],
        &[f32::NAN, f32::NEG_INFINITY],
    ]
    .into_iter()
    .enumerate()
    {
        assert_skip_dispatch_matches_reference(specials, 0x1AF + i as u64);
    }
}
