//! Accuracy of `taglets_tensor::math` against an `f64` reference.
//!
//! Each kernel is checked against its documented ulp bound: in tier-1 on a
//! strided sample of all 2^32 inputs plus the special values, and over
//! every input by the `#[ignore]`d exhaustive tests, which
//! `scripts/check.sh` runs in release mode:
//!
//! ```text
//! cargo test --release --offline -p taglets-tensor --test math -- --ignored
//! ```
//!
//! The `f64` functions of the standard library are the reference; this is
//! test code, and their error (under 1 ulp of `f64`) is ~2^29 times finer
//! than the `f32` bounds checked here.

use std::f64::consts::PI;
use std::hint::black_box;

use taglets_tensor::exec::Executor;
use taglets_tensor::math;

/// One kernel under test: its name, the kernel, the `f64` reference and
/// the documented bound in ulp.
struct Kernel {
    name: &'static str,
    f: fn(f32) -> f32,
    reference: fn(f64) -> f64,
    max_ulp: f64,
}

/// `(sin(π·x), cos(π·x))` in `f64`. The reduction to `k/2 + r`,
/// `|r| ≤ 1/4`, is exact in `f64`, so integers and half-integers give
/// exact zeros and ones, and the product with π stays accurate at every
/// magnitude.
fn sin_cos_pi_ref(x: f64) -> (f64, f64) {
    let x2 = x % 2.0;
    let k = (x2 * 2.0).round();
    let r = x2 - k * 0.5;
    let (s, c) = ((PI * r).sin(), (PI * r).cos());
    match (k as i64).rem_euclid(4) {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

fn sin_pi_ref(x: f64) -> f64 {
    sin_cos_pi_ref(x).0
}

fn cos_pi_ref(x: f64) -> f64 {
    sin_cos_pi_ref(x).1
}

const KERNELS: [Kernel; 5] = [
    Kernel {
        name: "exp",
        f: math::exp,
        reference: f64::exp,
        max_ulp: 1.0,
    },
    Kernel {
        name: "ln",
        f: math::ln,
        reference: f64::ln,
        max_ulp: 1.0,
    },
    Kernel {
        name: "tanh",
        f: math::tanh,
        reference: f64::tanh,
        max_ulp: 1.5,
    },
    Kernel {
        name: "sin_pi",
        f: math::sin_pi,
        reference: sin_pi_ref,
        max_ulp: 1.3,
    },
    Kernel {
        name: "cos_pi",
        f: math::cos_pi,
        reference: cos_pi_ref,
        max_ulp: 1.3,
    },
];

/// The ulp of the `f32` nearest `y`: `2^(e−23)` for `|y| ∈ [2^e, 2^(e+1))`,
/// and the smallest subnormal below the normal range.
fn ulp_of(y: f64) -> f64 {
    let a = y.abs();
    if a < f64::from(f32::MIN_POSITIVE) {
        return f64::from(f32::from_bits(1));
    }
    let e = ((a.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    2f64.powi(e - 23)
}

/// Error of `got` against the exact value `want`, in ulp. Infinite and NaN
/// results must match the correctly rounded result's class exactly.
fn ulp_error(got: f32, want: f64) -> f64 {
    let rounded = want as f32;
    if want.is_nan() {
        return if got.is_nan() { 0.0 } else { f64::INFINITY };
    }
    if got.is_nan() || got.is_infinite() || rounded.is_infinite() {
        return if got == rounded { 0.0 } else { f64::INFINITY };
    }
    (f64::from(got) - want).abs() / ulp_of(want)
}

/// The worst input of `kernel` among `bits`, with its error in ulp.
fn worst(kernel: &Kernel, bits: impl Iterator<Item = u32>) -> (f64, u32) {
    let mut worst = (0.0, 0);
    for b in bits {
        let x = f32::from_bits(b);
        let err = ulp_error((kernel.f)(x), (kernel.reference)(f64::from(x)));
        if err > worst.0 || err.is_nan() {
            worst = (err, b);
        }
    }
    worst
}

fn assert_within_bound(kernel: &Kernel, (err, b): (f64, u32)) {
    let x = f32::from_bits(b);
    assert!(
        err <= kernel.max_ulp,
        "{}({x:e}) [bits {b:#010x}] = {:e}, reference {:e}: {err} ulp > {} ulp",
        kernel.name,
        (kernel.f)(x),
        (kernel.reference)(f64::from(x)),
        kernel.max_ulp
    );
}

/// Every 65 521st bit pattern (a prime stride, so the sample walks through
/// every exponent and mantissa pattern), about 65k inputs per kernel.
#[test]
fn strided_sample_is_within_each_bound() {
    for kernel in &KERNELS {
        let bits = (0..=u32::MAX / 65_521).map(|i| i * 65_521);
        assert_within_bound(kernel, worst(kernel, bits));
    }
}

/// The region each call site uses most, sampled densely: `exp` of
/// log-softmax shifts in [−30, 0], `ln` of uniforms in (0, 1) and of
/// softmax sums in [1, 350], `tanh` of pre-activations in [−8, 8], and the
/// Box–Muller and schedule angles in [0, 2].
#[test]
fn call_site_ranges_are_within_each_bound() {
    let range = |lo: f32, hi: f32| {
        let n = 200_000u32;
        (0..=n).map(move |i| (lo + (hi - lo) * (i as f32 / n as f32)).to_bits())
    };
    let [exp, ln, tanh, sin_pi, cos_pi] = &KERNELS;
    assert_within_bound(exp, worst(exp, range(-30.0, 0.0)));
    assert_within_bound(ln, worst(ln, range(f32::EPSILON, 1.0)));
    assert_within_bound(ln, worst(ln, range(1.0, 350.0)));
    assert_within_bound(tanh, worst(tanh, range(-8.0, 8.0)));
    assert_within_bound(sin_pi, worst(sin_pi, range(0.0, 2.0)));
    assert_within_bound(cos_pi, worst(cos_pi, range(0.0, 2.0)));
}

#[test]
fn special_values_follow_the_documented_table() {
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let tiny = f32::from_bits(1);
    let bits = |v: f32| v.to_bits();

    assert_eq!(math::exp(0.0), 1.0);
    assert_eq!(math::exp(-0.0), 1.0);
    assert_eq!(math::exp(inf), inf);
    assert_eq!(bits(math::exp(-inf)), bits(0.0));
    assert!(math::exp(nan).is_nan());
    assert_eq!(math::exp(tiny), 1.0);
    assert_eq!(math::exp(89.0), inf);
    assert_eq!(bits(math::exp(-104.0)), bits(0.0));
    // The subnormal range: e^-100 ≈ 3.7e-44 is representable.
    assert!(math::exp(-100.0) > 0.0 && math::exp(-100.0) < f32::MIN_POSITIVE);

    assert_eq!(math::ln(0.0), -inf);
    assert_eq!(math::ln(-0.0), -inf);
    assert_eq!(math::ln(inf), inf);
    assert!(math::ln(-inf).is_nan());
    assert!(math::ln(-1.0).is_nan());
    assert!(math::ln(nan).is_nan());
    assert_eq!(bits(math::ln(1.0)), bits(0.0));
    assert!(math::ln(f32::MAX).is_finite());

    assert_eq!(bits(math::tanh(0.0)), bits(0.0));
    assert_eq!(bits(math::tanh(-0.0)), bits(-0.0));
    assert_eq!(math::tanh(inf), 1.0);
    assert_eq!(math::tanh(-inf), -1.0);
    assert!(math::tanh(nan).is_nan());
    assert_eq!(bits(math::tanh(tiny)), bits(tiny));
    assert_eq!(bits(math::tanh(-tiny)), bits(-tiny));
    assert_eq!(math::tanh(9.1), 1.0);

    for x in [0.0f32, -0.0] {
        assert_eq!(bits(math::sin_pi(x)), bits(x));
        assert_eq!(math::cos_pi(x), 1.0);
    }
    for x in [inf, -inf, nan] {
        assert!(math::sin_pi(x).is_nan() && math::cos_pi(x).is_nan());
    }
    assert_eq!(math::cos_pi(tiny), 1.0);
    assert!(math::sin_pi(tiny) > 0.0);
    for k in -8i32..=8 {
        let x = k as f32;
        assert_eq!(math::sin_pi(x), 0.0, "sin_pi({x})");
        assert_eq!(math::cos_pi(x), if k % 2 == 0 { 1.0 } else { -1.0 });
        assert_eq!(math::sin_pi(x + 0.5), if k % 2 == 0 { 1.0 } else { -1.0 });
        assert_eq!(math::cos_pi(x + 0.5), 0.0, "cos_pi({x} + 0.5)");
    }
    // Exact reduction: the largest odd integer and values beyond 2^24.
    assert_eq!(math::cos_pi(16_777_215.0), -1.0);
    assert_eq!(math::cos_pi(f32::MAX), 1.0);
    assert_eq!(math::sin_pi(-f32::MAX), 0.0);
    let (s, c) = math::sin_cos_pi(0.3);
    assert_eq!(
        (bits(s), bits(c)),
        (bits(math::sin_pi(0.3)), bits(math::cos_pi(0.3)))
    );
}

/// The slice kernels vectorize; calling the scalar kernel once per element
/// behind `black_box` cannot. Both must give the same bits.
#[test]
fn slice_kernels_match_scalar_calls_bitwise() {
    let inputs: Vec<f32> = (0..=u32::MAX / 7_919)
        .map(|i| f32::from_bits(i * 7_919))
        .collect();
    let mut e = inputs.clone();
    math::exp_slice(&mut e);
    let mut t = inputs.clone();
    math::tanh_slice(&mut t);
    for ((&x, &ev), &tv) in inputs.iter().zip(&e).zip(&t) {
        let es = black_box(math::exp(black_box(x)));
        let ts = black_box(math::tanh(black_box(x)));
        assert!(
            es.to_bits() == ev.to_bits() || (es.is_nan() && ev.is_nan()),
            "exp({x:e})"
        );
        assert!(
            ts.to_bits() == tv.to_bits() || (ts.is_nan() && tv.is_nan()),
            "tanh({x:e})"
        );
    }
}

/// All 2^32 inputs of one kernel, split into chunks over the host's cores.
fn exhaustive(kernel: &Kernel) {
    const CHUNKS: usize = 256;
    let span = (1u64 << 32) / CHUNKS as u64;
    let worst_per_chunk = Executor::new()
        .run(CHUNKS, |c| {
            let lo = c as u64 * span;
            let bits = (lo..lo + span).map(|b| b as u32);
            Ok::<_, ()>(worst(kernel, bits))
        })
        .expect("jobs are infallible");
    let (err, b) = worst_per_chunk
        .into_iter()
        .fold((0.0, 0), |w, c| if c.0 > w.0 { c } else { w });
    eprintln!("{}: max error {err:.4} ulp at bits {b:#010x}", kernel.name);
    assert_within_bound(kernel, (err, b));
}

#[test]
#[ignore = "all 2^32 inputs; run in release by scripts/check.sh"]
fn exp_is_within_its_bound_on_every_input() {
    exhaustive(&KERNELS[0]);
}

#[test]
#[ignore = "all 2^32 inputs; run in release by scripts/check.sh"]
fn ln_is_within_its_bound_on_every_input() {
    exhaustive(&KERNELS[1]);
}

#[test]
#[ignore = "all 2^32 inputs; run in release by scripts/check.sh"]
fn tanh_is_within_its_bound_on_every_input() {
    exhaustive(&KERNELS[2]);
}

#[test]
#[ignore = "all 2^32 inputs; run in release by scripts/check.sh"]
fn sin_pi_is_within_its_bound_on_every_input() {
    exhaustive(&KERNELS[3]);
}

#[test]
#[ignore = "all 2^32 inputs; run in release by scripts/check.sh"]
fn cos_pi_is_within_its_bound_on_every_input() {
    exhaustive(&KERNELS[4]);
}
