//! The workspace's own `exp`, `ln`, `tanh`, `sin_pi` and `cos_pi`.
//!
//! Every transcendental function the system evaluates goes through this
//! module: the tape's `tanh`, `exp` and `log_softmax` (forward and
//! backward), [`crate::softmax_rows`], the packed serving forward, the
//! Box–Muller transform of [`crate::Tensor::randn`] and of image
//! augmentation, and the cosine learning-rate schedules. The host's libm
//! (`f32::exp` and friends) is never called, so every pinned bit depends on
//! this source alone, not on the platform's glibc, musl or libSystem.
//!
//! Each kernel is a branch-free polynomial evaluation built only from IEEE
//! basic operations (`+ - * /`, each correctly rounded), bit manipulation
//! and selects. There is no `mul_add` and no call into libm, so a kernel
//! returns the same bits on every host, and whether or not the compiler
//! vectorizes the loop that calls it: rustc never contracts `a * b + c`
//! into an FMA, and a vector lane performs exactly the scalar operations.
//! The slice forms ([`exp_slice`], [`tanh_slice`]) exist so callers get
//! the vectorized loop without writing it.
//!
//! # Accuracy
//!
//! Bounds are in units in the last place (ulp) of the exact result, with
//! the ulp of a subnormal result being the smallest subnormal. They are
//! the maxima over all 2^32 inputs, measured against an `f64` reference
//! (`crates/tensor/tests/math.rs`; `scripts/check.sh` step `math` runs the
//! exhaustive sweep, tier-1 a strided sample plus the special values).
//!
//! | function   | max error | ±0     | +inf  | −inf  | NaN | subnormal input |
//! |------------|-----------|--------|-------|-------|-----|-----------------|
//! | [`exp`]    | 1 ulp     | 1      | +inf  | +0    | NaN | 1               |
//! | [`ln`]     | 1 ulp     | −inf   | +inf  | NaN   | NaN | finite, exact exponent |
//! | [`tanh`]   | 1.5 ulp   | ±0     | 1     | −1    | NaN | returned unchanged |
//! | [`sin_pi`] | 1.3 ulp   | ±0     | NaN   | NaN   | NaN | `π·x`, rounded  |
//! | [`cos_pi`] | 1.3 ulp   | 1      | NaN   | NaN   | NaN | 1               |
//!
//! `exp` overflows to +inf above about 88.72 and underflows through the
//! subnormals to +0 below about −103.97. `ln` of a negative number is NaN.
//! `sin_pi` and `cos_pi` reduce their argument exactly, so they are as
//! accurate at 10^6 as at 0.1; at integers `sin_pi` returns a zero of
//! unspecified sign, and at half-integers `cos_pi` does.

#![expect(
    clippy::excessive_precision,
    reason = "the coefficients are the kernels' definition: every pinned bit follows from the literals as written"
)]

/// `1 / ln 2`.
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so that `n · LN2_HI` is exact for `|n| < 2^15`.
const LN2_HI: f32 = 0.693_359_375;
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2^23`: adding it rounds any `|v| < 2^22` to an integer (ties to
/// even) and leaves that integer in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `2^23`, the magnitude from which every `f32` is an integer.
const TWO_POW_23: f32 = 8_388_608.0;
const SIGN: u32 = 0x8000_0000;
/// Bit pattern of `+inf`.
const INF_BITS: u32 = 0x7f80_0000;
/// Bit pattern of `sqrt(1/2)`: `ln` splits `x = m · 2^e` with
/// `m ∈ [sqrt(1/2), sqrt(2))`.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;

/// `e^x`.
///
/// Cody–Waite reduction `x = n·ln 2 + r` with `|r| ≤ ln 2 / 2`, a degree-7
/// polynomial for `e^r`, and a scale by `2^n` split into two factors so
/// subnormal results round once. Error at most 1 ulp (0.990 measured).
#[inline]
pub fn exp(x: f32) -> f32 {
    // Clamp to where the result is already ±0 or +inf; NaN compares false
    // and passes through.
    let x = if x > 89.0 { 89.0 } else { x };
    let x = if x < -104.0 { -104.0 } else { x };
    let t = x * LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let k = (t.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = 1.987_569_2e-4;
    let p = p * r + 1.398_2e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 5.000_000_1e-1;
    let y = p * (r * r) + r + 1.0;
    // 2^k for k in [-150, 128] as two normal factors: `y · s1` is exact,
    // and `· s2` rounds once, also into the subnormals or to +inf.
    let k1 = k >> 1;
    let s1 = f32::from_bits((k1.wrapping_add(127) as u32) << 23);
    let s2 = f32::from_bits((k.wrapping_sub(k1).wrapping_add(127) as u32) << 23);
    y * s1 * s2
}

/// `ln x`.
///
/// Splits `x = m · 2^e` with `m ∈ [sqrt(1/2), sqrt(2))` by bit arithmetic
/// (subnormals are first scaled by `2^23`), then evaluates
/// `ln(1 + f) = f − f²/2 + f³·P(f)` with `f = m − 1` exact and adds
/// `e · ln 2` in two parts. Error at most 1 ulp (0.827 measured).
#[inline]
pub fn ln(x: f32) -> f32 {
    let subnormal = x < f32::MIN_POSITIVE;
    let xs = if subnormal { x * TWO_POW_23 } else { x };
    let ix = xs.to_bits().wrapping_sub(SQRT_HALF_BITS);
    let e = ((ix as i32) >> 23) - if subnormal { 23 } else { 0 };
    let m = f32::from_bits((ix & 0x007f_ffff).wrapping_add(SQRT_HALF_BITS));
    let f = m - 1.0;
    let z = f * f;
    let p = 7.037_683_6e-2;
    let p = p * f - 1.151_461e-1;
    let p = p * f + 1.167_699_9e-1;
    let p = p * f - 1.242_014_1e-1;
    let p = p * f + 1.424_932_3e-1;
    let p = p * f - 1.666_805_8e-1;
    let p = p * f + 2.000_071_5e-1;
    let p = p * f - 2.499_999_4e-1;
    let p = p * f + 3.333_333_1e-1;
    let fe = e as f32;
    let y = p * f * z + fe * LN2_LO - 0.5 * z;
    let r = f + y + fe * LN2_HI;
    let r = if x.to_bits() == INF_BITS { x } else { r };
    let r = if x.to_bits() & !SIGN == 0 {
        f32::NEG_INFINITY
    } else {
        r
    };
    // Negative inputs and NaN.
    if x >= 0.0 {
        r
    } else {
        f32::NAN
    }
}

/// Hyperbolic tangent.
///
/// `|x| < 0.625`: `x + x³·P(x²)`. Otherwise `1 − 2 / (e^{2|x|} + 1)` with
/// `|x|` clamped at 10, where the result has long rounded to 1. The sign
/// is copied from `x`, so `tanh(−0) = −0`. Error at most 1.5 ulp (1.330
/// measured).
#[inline]
pub fn tanh(x: f32) -> f32 {
    let ax = f32::from_bits(x.to_bits() & !SIGN);
    let z = ax * ax;
    let p = -5.704_988_7e-3;
    let p = p * z + 2.063_908_9e-2;
    let p = p * z - 5.373_971_6e-2;
    let p = p * z + 1.333_144_2e-1;
    let p = p * z - 3.333_328_2e-1;
    let small = p * z * ax + ax;
    let c = if ax > 10.0 { 10.0 } else { ax };
    let large = 1.0 - 2.0 / (exp(c + c) + 1.0);
    let r = if ax < 0.625 { small } else { large };
    f32::from_bits(r.to_bits() | (x.to_bits() & SIGN))
}

/// `sin(π·x)`. See [`sin_cos_pi`].
#[inline]
pub fn sin_pi(x: f32) -> f32 {
    sin_cos_pi(x).0
}

/// `cos(π·x)`. See [`sin_cos_pi`].
#[inline]
pub fn cos_pi(x: f32) -> f32 {
    sin_cos_pi(x).1
}

/// `(sin(π·x), cos(π·x))`, sharing one argument reduction.
///
/// The reduction is exact for every finite `x`: `x` is taken modulo 2 and
/// then split as `k/2 + r` with `|r| ≤ 1/4`, all without rounding. Two
/// polynomials give `sin(π·r)` and `cos(π·r)`, and the quadrant `k mod 4`
/// swaps and negates them. Error at most 1.3 ulp each (1.272 measured).
#[inline]
pub fn sin_cos_pi(x: f32) -> (f32, f32) {
    let h = round_ties_even(x * 0.5);
    let x2 = x - (h + h);
    let t = (x2 + x2) + ROUND_MAGIC;
    let k = t - ROUND_MAGIC;
    let q = t.to_bits().wrapping_sub(ROUND_MAGIC.to_bits());
    let r = x2 - k * 0.5;
    let r2 = r * r;
    let s = 8.214_589e-2;
    let s = s * r2 - 5.992_645_3e-1;
    let s = s * r2 + 2.550_164;
    let s = s * r2 - 5.167_713;
    // r·π as an exact product of 12-bit halves plus small corrections, so
    // the one rounding that matters is the final sum's.
    let r_hi = f32::from_bits(r.to_bits() & 0xffff_f000);
    let r_lo = r - r_hi;
    let sin = r_hi * PI_HI + (r_lo * PI_HI + r * PI_LO + r * (r2 * s));
    // The sum loses the sign of r = −0; sin(−0·π) is −0.
    let sin = if r.to_bits() & !SIGN == 0 { r } else { sin };
    let c = -2.580_689_1e-2;
    let c = c * r2 + 2.353_306_3e-1;
    let c = c * r2 - 1.335_262_8;
    let c = c * r2 + 4.058_712;
    let c = c * r2 - 4.934_802;
    let cos = c * r2 + 1.0;
    let (sin, cos) = if q & 1 == 0 { (sin, cos) } else { (cos, sin) };
    let sin = f32::from_bits(sin.to_bits() ^ ((q & 2) << 30));
    let cos = f32::from_bits(cos.to_bits() ^ ((q.wrapping_add(1) & 2) << 30));
    (sin, cos)
}

/// π to 8 significant bits, so `r_hi · PI_HI` is exact for a 12-bit `r_hi`.
const PI_HI: f32 = 3.140_625;
/// `π − PI_HI`.
const PI_LO: f32 = 9.676_536e-4;

/// `v` rounded to the nearest integer, ties to even; exact for every `f32`
/// (from `2^23` on, `v` already is one). NaN and ±inf pass through.
#[inline]
fn round_ties_even(v: f32) -> f32 {
    let m = f32::from_bits(TWO_POW_23.to_bits() | (v.to_bits() & SIGN));
    let r = (v + m) - m;
    if v.abs() < TWO_POW_23 {
        r
    } else {
        v
    }
}

/// [`exp`] of every element, in place.
pub fn exp_slice(xs: &mut [f32]) {
    for v in xs {
        *v = exp(*v);
    }
}

/// [`tanh`] of every element, in place.
pub fn tanh_slice(xs: &mut [f32]) {
    for v in xs {
        *v = tanh(*v);
    }
}
