//! Arbitrary-precision transcendental functions for [`BigFloat`].
//!
//! FPVM's alternative arithmetic interface includes the libm entry points
//! (sin, cos, pow, …) because FPVM interposes on the math library (§4.1
//! Fig. 8, §4.3): when an application calls `sin` on a shadowed value, the
//! math wrapper routes the call to the arithmetic system instead of letting
//! libm bit-pick the NaN-box apart.
//!
//! # Evaluation scheme
//!
//! Each function reduces its argument with exact or correctly rounded
//! [`BigFloat`] operations, sums a short power series in fixed point (see
//! [`fixed`](super::fixed): rectangular splitting, machine-integer
//! coefficients), and rounds once more to the target:
//!
//! - **sin/cos/tan**: `r = a − k·π/2` with `k` nearest `a·(2/π)`, then
//!   `sin r = r·S(r²)` and `cos r = C(r²)`, the Taylor series in `r²`.
//! - **atan**: `|x| > 1` folds to `π/2 − atan(1/x)`; then
//!   `atan x = atan(j/64) + atan(d)` with `d = (x − j/64)/(1 + x·j/64)`,
//!   `|d| ≤ 2^-7`, from a per-thread table of `atan(j/64)`. asin, acos and
//!   atan2 are built on the same evaluation, not on the public `atan`.
//! - **log**: `a = m·2^e` with `m ∈ [3/4, 3/2]`; `m·k/128 = 1 + δ` exactly
//!   for the integer `k` nearest `128/m`, and `ln m = 2·atanh(δ/(2+δ)) −
//!   ln(k/128)` from a per-thread table. log10 and pow reuse it.
//! - **exp**: `r = a − n·ln 2` with `n` nearest `a·(1/ln 2)`, the Taylor
//!   series at `r/2^10`, ten squarings.
//!
//! # Precision policy
//!
//! A function evaluates once at one working precision `wp`: `prec + 48 +
//! 32` bits for most, `prec + 48 + 10 + max(exp a, 0)` for exp, and `prec
//! + 48 + 32 + max(exp a, 0)` for the sin/cos reduction (tan reduces at
//! the `+ 80` further bits its sine and cosine used to). Compound
//! functions call the internal `*_at(x, wp)` helpers at their own `wp`
//! instead of re-entering the public functions, which used to add 80 bits
//! per level. Fixed-point sums carry `wp + 40` fractional bits.
//!
//! The series of sin, cos and exp keep exactly the terms the former
//! term-by-term loops kept: every term down to the first whose `wp`-bit
//! value lies below `2^-wp` (absolute). That cutoff is what makes
//! `sin x = x` and `cos x = 1` for tiny `x` before the final directed
//! rounding. The term count comes from an `f64` estimate of each term's
//! magnitude, with the exact term computed as those loops did when the
//! estimate is too close to call, and series of at most three terms are
//! still summed term by term. The atan and atanh series stop at a
//! relative `2^-wp` instead.
//!
//! # Results
//!
//! Results are **faithfully rounded** (error < 1 ulp); unlike MPFR we do
//! not run Ziv's correct-rounding loop, a documented substitution
//! (DESIGN.md) that does not affect any experiment shape. The paper's
//! precision-sweep experiment (Fig. 11) measures only add/sub/mul/div,
//! which *are* correctly rounded.
//!
//! Before the final rounding a result is within about `2^-270` (relative,
//! at 200 bits) of the true value, in this scheme and in the former
//! sqrt-halving one alike. Both therefore round to the same 200 bits
//! unless the true value lies within about `2^-270` of a rounding
//! boundary, or in the tiny-argument ranges where the former scheme's
//! cutoffs, not its accuracy, decided the last bits. The two schemes also
//! differ where the former one was off by more than an ulp: atan of
//! arguments between about 2^-140 and 2^-89 (its halvings dropped part of
//! the cubic term) and ln a for a within about 2^-95 of 1 (its square
//! roots lost the low bits of a − 1). `bigfloat_pin` and the
//! `paper-bf200` output digests pin the results.

use super::fixed::{self, Fixed};
use super::{
    add, cmp_quiet, div, div_u64, floor, mul, mul_u64, round_to, sqrt, sub, BigFloat, Kind,
    MIN_PREC,
};
use crate::flags::{FpFlags, Round};
use crate::softfp::CmpResult;
use std::cell::RefCell;

/// Guard bits added to the working precision.
const GUARD: u32 = 48;

const RNE: Round = Round::NearestEven;

fn wpz(prec: u32) -> u32 {
    prec.max(MIN_PREC) + GUARD
}

fn bfu(x: u64, wp: u32) -> BigFloat {
    debug_assert!(x < (1 << 53));
    BigFloat::from_f64(x as f64, wp, RNE).0
}

fn inexact_result(v: BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let (r, _) = round_to(&v, prec.max(MIN_PREC), rm);
    (r, FpFlags::INEXACT)
}

/// Constants and tables are cached per 64-bit step of working precision.
fn quantize(wp: u32) -> u32 {
    wp.div_ceil(64) * 64
}

thread_local! {
    /// Per-thread cache of ln 2, π, ln 10, 2/π and 1/ln 2, keyed by quantized working
    /// precision. Thread-local so fleet workers never contend on a lock;
    /// each thread computes the same deterministic values.
    static CONSTS: RefCell<[Vec<(u32, BigFloat)>; 5]> =
        const { RefCell::new([Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()]) };

    /// Per-thread tables of `atan(j/64)` and `ln(k/128)`, keyed like
    /// [`CONSTS`].
    static TABLES: RefCell<[Vec<Table>; 2]> =
        const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// A table and the quantized working precision it was built for.
type Table = (u32, Vec<BigFloat>);

fn cached_const(idx: usize, wp: u32, compute: impl FnOnce(u32) -> BigFloat) -> BigFloat {
    let wp = quantize(wp);
    let hit = CONSTS.with(|c| {
        c.borrow()[idx]
            .iter()
            .find(|(w, _)| *w == wp)
            .map(|(_, v)| v.clone())
    });
    if let Some(v) = hit {
        return v;
    }
    // Computed outside the borrow: ln 10 is built from ln 2.
    let v = compute(wp);
    CONSTS.with(|c| c.borrow_mut()[idx].push((wp, v.clone())));
    v
}

const ATAN_TABLE: usize = 0;
const LN_TABLE: usize = 1;

/// Entry `i` of table `idx` at `wp` bits (or a few more), building the
/// table on first use.
fn table_entry(idx: usize, wp: u32, i: usize, build: fn(u32) -> Vec<BigFloat>) -> BigFloat {
    let wp = quantize(wp);
    let find =
        |t: &[(u32, Vec<BigFloat>)]| t.iter().find(|(w, _)| *w == wp).map(|(_, v)| v[i].clone());
    if let Some(v) = TABLES.with(|t| find(&t.borrow()[idx])) {
        return v;
    }
    let table = build(wp);
    let v = table[i].clone();
    TABLES.with(|t| t.borrow_mut()[idx].push((wp, table)));
    v
}

/// ln 2 to `wp` bits: 2·atanh(1/3) = 2·Σ (1/3)^(2k+1) / (2k+1).
pub fn const_ln2(wp: u32) -> BigFloat {
    cached_const(0, wp, |wp| {
        let w = wp + 32;
        let third = div_u64(&bfu(1, w), 3, w, RNE).0;
        let t2 = mul(&third, &third, w, RNE).0;
        let mut term = third.clone();
        let mut sum = third;
        let mut k = 1u64;
        loop {
            term = mul(&term, &t2, w, RNE).0;
            let contrib = div_u64(&term, 2 * k + 1, w, RNE).0;
            if contrib.is_zero() || contrib.exp() < -i64::from(w) {
                break;
            }
            sum = add(&sum, &contrib, w, RNE).0;
            k += 1;
        }
        round_to(&mul_u64(&sum, 2, w, RNE).0, wp, RNE).0
    })
}

/// π to `wp` bits via Machin's formula: 16·atan(1/5) − 4·atan(1/239).
pub fn const_pi(wp: u32) -> BigFloat {
    cached_const(1, wp, |wp| {
        let w = wp + 32;
        let atan_inv = |x: u64| -> BigFloat {
            // atan(1/x) = Σ (−1)^k / ((2k+1) x^(2k+1))
            let inv = div_u64(&bfu(1, w), x, w, RNE).0;
            let inv2 = mul(&inv, &inv, w, RNE).0;
            let mut term = inv.clone();
            let mut sum = inv;
            let mut k = 1u64;
            loop {
                term = mul(&term, &inv2, w, RNE).0;
                let contrib = div_u64(&term, 2 * k + 1, w, RNE).0;
                if contrib.is_zero() || contrib.exp() < -i64::from(w) {
                    break;
                }
                sum = if k % 2 == 1 {
                    sub(&sum, &contrib, w, RNE).0
                } else {
                    add(&sum, &contrib, w, RNE).0
                };
                k += 1;
            }
            sum
        };
        let a5 = mul_u64(&atan_inv(5), 16, w, RNE).0;
        let a239 = mul_u64(&atan_inv(239), 4, w, RNE).0;
        round_to(&sub(&a5, &a239, w, RNE).0, wp, RNE).0
    })
}

/// ln 10 to `wp` bits: 3·ln 2 + ln(5/4), with ln(5/4) = 2·atanh(1/9).
pub fn const_ln10(wp: u32) -> BigFloat {
    cached_const(2, wp, |wp| {
        let w = wp + 32;
        let ln54 = two_atanh_inv(9, w).to_bf(false, w);
        let ln8 = mul_u64(&const_ln2(w), 3, w, RNE).0;
        round_to(&add(&ln54, &ln8, w, RNE).0, wp, RNE).0
    })
}

/// 2/π to `wp` bits, for reduction quotients.
fn const_two_over_pi(wp: u32) -> BigFloat {
    cached_const(3, wp, |wp| div(&bfu(2, wp), &const_pi(wp + 32), wp, RNE).0)
}

/// 1/ln 2 to `wp` bits, for reduction quotients.
fn const_inv_ln2(wp: u32) -> BigFloat {
    cached_const(4, wp, |wp| div(&bfu(1, wp), &const_ln2(wp + 32), wp, RNE).0)
}

/// 2·atanh(1/q) = ln((q+1)/(q−1)) for an integer `q ≥ 3`, in fixed point
/// good to `2^-w`.
fn two_atanh_inv(q: u64, w: u32) -> Fixed {
    let n = fixed::limbs_for(w);
    let u = Fixed::one(n).div_u64(q);
    let terms = odd_terms(square(split_f64(1.0 / q as f64)), w);
    u.mul(&fixed::odd_reciprocal_series(&u.mul(&u), false, terms))
        .shl(1)
}

// ---------------------------------------------------------------------------
// Series lengths
// ---------------------------------------------------------------------------

/// `|x| = f·2^e` with `f ∈ [1/2, 1)` to 53 bits; `f = 0` for zero.
fn split(x: &BigFloat) -> (f64, i64) {
    if x.kind != Kind::Finite {
        return (0.0, 0);
    }
    let top = super::top_window(&x.mant, x.prec, 0);
    (top as f64 * 2f64.powi(-64), x.exp)
}

/// [`split`] for a positive normal `f64`.
fn split_f64(x: f64) -> (f64, i64) {
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7FF) as i64 - 1022;
    (f64::from_bits(bits & !(0x7FF << 52) | 1022 << 52), e)
}

/// Margin on the estimate of a term's ratio to the cutoff: far above its
/// rounding error (≲ 1e-13 for a few hundred terms).
const SLACK: f64 = 1e-9;

/// Terms a series keeps: `t_0` always, then `t_1, t_2, …` while
/// `|t_k| ≥ 2^-(wp+1)`, where `|t_0| = first` (as from [`split`]) and
/// `|t_k / t_{k−1}| = ratio(k) · 2^ey` (terms must decrease from `t_1`
/// on). The magnitudes are tracked as an `f64` fraction and an exponent.
///
/// Where the estimate lies within [`SLACK`] of the cutoff, `exact(k)`
/// (when given) decides whether `t_k` is below it.
fn count_terms(
    first: (f64, i64),
    ratio: impl Fn(u64) -> f64,
    ey: i64,
    wp: u32,
    exact: Option<&dyn Fn(u64) -> bool>,
) -> usize {
    let (mut f, mut e) = first;
    // t_k ≥ 2^-(wp+1) ⇔ f·2^(e − c) ≥ 1 with f ∈ [1/2, 1).
    let c = -i64::from(wp) - 1;
    let mut k = 1u64;
    loop {
        f *= ratio(k);
        if f == 0.0 {
            return k as usize;
        }
        let (fr, er) = split_f64(f);
        f = fr;
        e += ey + er;
        let (below, close) = match e - c {
            1 => (false, 2.0 * f - 1.0 < SLACK),
            0 => (true, 1.0 - f < SLACK),
            s => (s < 0, false),
        };
        let below = match exact {
            Some(exact) if close => exact(k),
            _ => below,
        };
        if below {
            return k as usize;
        }
        k += 1;
    }
}

/// [`count_terms`] for `t_k = t_{k−1}·y/d(k)` and a relative cutoff:
/// `t_0 = 1`.
fn ratio_terms(y: (f64, i64), d: impl Fn(u64) -> u64, wp: u32) -> usize {
    count_terms((0.5, 1), |k| y.0 / d(k) as f64, y.1, wp, None)
}

/// [`count_terms`] for `t_k = y^k/(2k+1)` and a relative cutoff.
fn odd_terms(y: (f64, i64), wp: u32) -> usize {
    let ratio = |k: u64| y.0 * (2 * k - 1) as f64 / (2 * k + 1) as f64;
    count_terms((0.5, 1), ratio, y.1, wp, None)
}

/// `split(x²)` from `split(x)`.
fn square(x: (f64, i64)) -> (f64, i64) {
    (x.0 * x.0, 2 * x.1)
}

/// Terms the former term-by-term loop kept for `t_0 = first`,
/// `t_k = t_{k−1}·y/d(k)` at `wp` bits: all until the first `t_k` whose
/// rounded value has exponent below `−wp`.
fn kept_terms(first: &BigFloat, y: &BigFloat, d: impl Fn(u64) -> u64, wp: u32) -> usize {
    let (fy, ey) = split(y);
    let exact = |k: u64| {
        let t = loop_terms(first, y, &d, k as usize, wp).1;
        t.is_zero() || t.exp() < -i64::from(wp)
    };
    count_terms(split(first), |k| fy / d(k) as f64, ey, wp, Some(&exact))
}

/// The former loop: `(Σ_{k<terms} t_k, t_terms)` for `t_0 = first`,
/// `t_k = t_{k−1}·(−y)/d(k)` when `alternating` and `t_{k−1}·y/d(k)`
/// otherwise, every operation rounded to nearest at `wp` bits. Used for
/// series of at most [`SHORT`] terms, where it is as fast as the fixed-point
/// sum and bit-identical to the former scheme.
fn loop_terms(
    first: &BigFloat,
    y: &BigFloat,
    d: impl Fn(u64) -> u64,
    terms: usize,
    wp: u32,
) -> (BigFloat, BigFloat) {
    let mut sum = first.clone();
    let mut term = first.clone();
    for k in 1..=terms as u64 {
        term = div_u64(&mul(&term, y, wp, RNE).0, d(k), wp, RNE).0;
        if k < terms as u64 {
            sum = add(&sum, &term, wp, RNE).0;
        }
    }
    (sum, term)
}

/// Series up to this many terms are summed term by term.
const SHORT: usize = 3;

// ---------------------------------------------------------------------------
// Reduced-argument kernels
// ---------------------------------------------------------------------------

/// Where a series stops.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cutoff {
    /// At an absolute 2^-wp, keeping the terms the former loops kept.
    Absolute,
    /// At 2^-wp relative to the leading term.
    Relative,
}

fn sin_d(k: u64) -> u64 {
    (2 * k) * (2 * k + 1)
}

fn cos_d(k: u64) -> u64 {
    (2 * k - 1) * (2 * k)
}

/// sin r for `|r| ≲ π/4`, rounded to `wp` bits.
fn sin_reduced(r: &BigFloat, wp: u32, cutoff: Cutoff) -> BigFloat {
    if r.is_zero() {
        return r.clone();
    }
    match cutoff {
        Cutoff::Absolute => {
            let r2 = mul(r, r, wp, RNE).0;
            let terms = kept_terms(r, &r2, sin_d, wp);
            if terms <= SHORT {
                return loop_terms(r, &r2.neg(), sin_d, terms, wp).0;
            }
            let n = fixed::limbs_for(wp);
            let s = fixed::ratio_series(&Fixed::from_bf(&r2, n), true, terms, sin_d);
            mul(r, &s.to_bf(false, 64 * n as u32), wp, RNE).0
        }
        Cutoff::Relative => {
            let terms = ratio_terms(square(split(r)), sin_d, wp);
            if terms == 1 {
                return round_to(r, wp, RNE).0;
            }
            let n = fixed::limbs_for(wp);
            let rf = Fixed::from_bf(r, n);
            let s = fixed::ratio_series(&rf.mul(&rf), true, terms, sin_d);
            mul(r, &s.to_bf(false, 64 * n as u32), wp, RNE).0
        }
    }
}

/// cos r for `|r| ≲ π/4`, rounded to `wp` bits.
fn cos_reduced(r: &BigFloat, wp: u32, cutoff: Cutoff) -> BigFloat {
    let one = bfu(1, wp);
    let n = fixed::limbs_for(wp);
    match cutoff {
        Cutoff::Absolute => {
            let r2 = mul(r, r, wp, RNE).0;
            let terms = kept_terms(&one, &r2, cos_d, wp);
            if terms <= SHORT {
                return loop_terms(&one, &r2.neg(), cos_d, terms, wp).0;
            }
            let c = fixed::ratio_series(&Fixed::from_bf(&r2, n), true, terms, cos_d);
            c.to_bf(false, wp)
        }
        Cutoff::Relative => {
            let terms = ratio_terms(square(split(r)), cos_d, wp);
            if terms == 1 {
                return one;
            }
            let rf = Fixed::from_bf(r, n);
            fixed::ratio_series(&rf.mul(&rf), true, terms, cos_d).to_bf(false, wp)
        }
    }
}

/// `(k mod 4, a − k·π/2)` for `k` an integer nearest `a/(π/2)`, at `wp`
/// bits.
fn reduce_half_pi(a: &BigFloat, wp: u32) -> (u8, BigFloat) {
    let half_pi = scale2(&const_pi(wp), -1);
    let k = nearest_integer(&mul(a, &const_two_over_pi(wp), wp, RNE).0, wp);
    let r = sub(a, &times_integer(&half_pi, &k, wp), wp, RNE).0;
    (integer_mod4(&k), r)
}

/// An integer nearest `q`, as an exact `BigFloat`. A reduction only needs
/// some nearest integer: its remainder `a − k·c` is formed exactly as
/// before either way.
fn nearest_integer(q: &BigFloat, wp: u32) -> BigFloat {
    if q.exp() < 62 {
        if let Some((neg, twice, _)) = scale2(q, 1).to_integer_parts() {
            let k = (twice as u64).div_ceil(2);
            return BigFloat::from_int(neg, 0, &[k], false, 64, RNE).0;
        }
    }
    round_nearest_int(q, wp)
}

/// `x · k` for an integral `k`, rounded to nearest at `wp` bits.
fn times_integer(x: &BigFloat, k: &BigFloat, wp: u32) -> BigFloat {
    match k.to_integer_parts() {
        Some((neg, mag, false)) if mag <= u128::from(u64::MAX) => {
            let p = mul_u64(x, mag as u64, wp, RNE).0;
            if neg {
                p.neg()
            } else {
                p
            }
        }
        _ => mul(k, x, wp, RNE).0,
    }
}

/// `x · e` for a machine integer `e`, rounded to nearest at `wp` bits.
fn times_i64(x: &BigFloat, e: i64, wp: u32) -> BigFloat {
    let p = mul_u64(x, e.unsigned_abs(), wp, RNE).0;
    if e < 0 {
        p.neg()
    } else {
        p
    }
}

/// atan d for `|d| ≤ 2^-7`, rounded to `wp` bits: `d · Σ (−d²)^k/(2k+1)`.
fn atan_series(d: &BigFloat, wp: u32) -> BigFloat {
    let terms = odd_terms(square(split(d)), wp);
    if terms == 1 {
        return round_to(d, wp, RNE).0;
    }
    let n = fixed::limbs_for(wp);
    let df = Fixed::from_bf(d, n);
    let t = fixed::odd_reciprocal_series(&df.mul(&df), true, terms);
    mul(d, &t.to_bf(false, 64 * n as u32), wp, RNE).0
}

/// `atan(j/64)` for `j = 0..=64` at `wq` bits, summed outward from 0:
/// `atan(j/64) − atan((j−1)/64) = atan(64 / (4096 + j(j−1)))`.
fn atan_table(wq: u32) -> Vec<BigFloat> {
    let w = wq + 16;
    let n = fixed::limbs_for(w);
    let mut acc = Fixed::zero(n);
    let mut out = vec![BigFloat::zero(false, wq)];
    for j in 1..=64u64 {
        let q = 4096 + j * (j - 1);
        let u = Fixed::one(n).shl(6).div_u64(q);
        let terms = odd_terms(square(split_f64(64.0 / q as f64)), w);
        acc.add_assign(&u.mul(&fixed::odd_reciprocal_series(&u.mul(&u), true, terms)));
        out.push(acc.to_bf(false, wq));
    }
    out
}

/// atan x for `|x| ≤ 1`, rounded to `wp` bits.
fn atan_unit(x: &BigFloat, wp: u32) -> BigFloat {
    let ax = x.abs();
    let j = (ax.to_f64(Round::Zero).0 * 64.0 + 0.5) as u64;
    if j == 0 {
        return atan_series(x, wp);
    }
    let c = BigFloat::from_f64(j as f64 / 64.0, 64, RNE).0;
    let num = sub(&ax, &c, wp, RNE).0;
    let den = add(
        &bfu(1, wp),
        &scale2(&mul_u64(&ax, j, wp, RNE).0, -6),
        wp,
        RNE,
    )
    .0;
    let d = div(&num, &den, wp, RNE).0;
    let base = table_entry(ATAN_TABLE, wp, j as usize, atan_table);
    let r = if d.is_zero() {
        round_to(&base, wp, RNE).0
    } else {
        add(&base, &atan_series(&d, wp), wp, RNE).0
    };
    if x.sign() {
        r.neg()
    } else {
        r
    }
}

/// atan x for finite nonzero `x`, rounded to `wp` bits.
fn atan_at(x: &BigFloat, wp: u32) -> BigFloat {
    let one = bfu(1, wp);
    // |x| > 1: atan x = sign·π/2 − atan(1/x).
    if x.exp() > 0 && cmp_quiet(&x.abs(), &one).0 == CmpResult::Greater {
        let inv = div(&one, x, wp, RNE).0;
        let mut h = scale2(&const_pi(wp), -1);
        if x.sign() {
            h = h.neg();
        }
        return sub(&h, &atan_unit(&inv, wp), wp, RNE).0;
    }
    atan_unit(&round_to(x, wp, RNE).0, wp)
}

/// `ln(k/128)` for `k = 85..=171` at `wq` bits, summed outward from
/// `k = 128`: `ln((i+1)/i) = 2·atanh(1/(2i+1))`.
fn ln_table(wq: u32) -> Vec<BigFloat> {
    let w = wq + 16;
    let n = fixed::limbs_for(w);
    let mut out = vec![BigFloat::zero(false, wq); (LN_K_MAX - LN_K_MIN + 1) as usize];
    let mut up = Fixed::zero(n);
    for k in 129..=LN_K_MAX {
        up.add_assign(&two_atanh_inv(2 * (k - 1) + 1, w));
        out[(k - LN_K_MIN) as usize] = up.to_bf(false, wq);
    }
    let mut down = Fixed::zero(n);
    for k in (LN_K_MIN..128).rev() {
        down.add_assign(&two_atanh_inv(2 * k + 1, w));
        out[(k - LN_K_MIN) as usize] = down.to_bf(true, wq);
    }
    out
}

const LN_K_MIN: u64 = 85;
const LN_K_MAX: u64 = 171;

/// ln a for finite `a > 0`, rounded to `wp` bits.
fn log_at(a: &BigFloat, wp: u32) -> BigFloat {
    // a = m·2^e with m ∈ [3/4, 3/2].
    let mut e = a.exp() - 1;
    let mut m = scale2(a, -e);
    let mut f = m.to_f64(Round::Zero).0;
    if f > 1.5 {
        m = scale2(&m, -1);
        e += 1;
        f /= 2.0;
    }
    // m·k/128 = 1 + δ exactly, |δ| ≤ 3/512.
    let k = (128.0 / f).round() as u64;
    debug_assert!((LN_K_MIN..=LN_K_MAX).contains(&k));
    let mk = scale2(&mul_u64(&m, k, m.prec() + 64, RNE).0, -7);
    let one = bfu(1, 2);
    let delta = sub(&mk, &one, mk.prec(), RNE).0;
    let mut sum = if delta.is_zero() {
        BigFloat::zero(false, wp)
    } else {
        // ln(1 + δ) = 2·atanh(z), z = δ/(2 + δ).
        let two_plus = add(&bfu(2, 2), &delta, mk.prec() + 2, RNE).0;
        let z = div(&delta, &two_plus, wp, RNE).0;
        let terms = odd_terms(square(split(&z)), wp);
        let z2 = scale2(&z, 1);
        if terms == 1 {
            z2
        } else {
            let n = fixed::limbs_for(wp);
            let zf = Fixed::from_bf(&z, n);
            let t = fixed::odd_reciprocal_series(&zf.mul(&zf), false, terms);
            mul(&z2, &t.to_bf(false, 64 * n as u32), wp, RNE).0
        }
    };
    if k != 128 {
        let ln_k = table_entry(LN_TABLE, wp, (k - LN_K_MIN) as usize, ln_table);
        sum = sub(&sum, &ln_k, wp, RNE).0;
    }
    if e != 0 {
        sum = add(&sum, &times_i64(&const_ln2(wp), e, wp), wp, RNE).0;
    }
    sum
}

/// Squarings after the exp series.
const HALVINGS: u32 = 10;

/// e^a for finite `a` with `exp a ≤ 62`, rounded to
/// `wp + 10 + max(exp a, 0)` bits.
fn exp_at(a: &BigFloat, wp: u32) -> BigFloat {
    let we = wp + HALVINGS + a.exp().max(0) as u32;
    let ln2 = const_ln2(we);
    // n = round(a / ln2); r = a − n·ln2 with |r| ≲ ln2/2.
    let n_bf = nearest_integer(&mul(a, &const_inv_ln2(we), we, RNE).0, we);
    let n = bigfloat_to_i64(&n_bf);
    let r = sub(a, &times_integer(&ln2, &n_bf, we), we, RNE).0;
    // e^t for t = r / 2^HALVINGS, then square back up.
    let t = scale2(&r, -i64::from(HALVINGS));
    let one = bfu(1, we);
    let terms = kept_terms(&one, &t, |k| k, we);
    let sum = if terms <= SHORT {
        // Tiny t: the sum sits next to 1, so keep the former rounding of
        // every step.
        let mut sum = loop_terms(&one, &t, |k| k, terms, we).0;
        for _ in 0..HALVINGS {
            sum = mul(&sum, &sum, we, RNE).0;
        }
        sum
    } else {
        let n = fixed::limbs_for(we);
        let mut sum = fixed::ratio_series(&Fixed::from_bf(&t, n), t.sign(), terms, |k| k);
        for _ in 0..HALVINGS {
            sum = sum.mul(&sum);
        }
        sum.to_bf(false, we)
    };
    scale2(&sum, n)
}

// ---------------------------------------------------------------------------
// Public functions
// ---------------------------------------------------------------------------

/// exp's special and out-of-range arguments.
fn exp_special(a: &BigFloat, prec: u32) -> Option<(BigFloat, FpFlags)> {
    match a.kind() {
        Kind::Nan => Some((BigFloat::nan(prec), FpFlags::NONE)),
        Kind::Inf if a.sign() => Some((BigFloat::zero(false, prec), FpFlags::NONE)),
        Kind::Inf => Some((BigFloat::inf(false, prec), FpFlags::NONE)),
        Kind::Zero => Some((bfu(1, prec), FpFlags::NONE)),
        // |x| > 2^62 would need a reduction count that cannot fit the
        // exponent anyway.
        Kind::Finite if a.exp() > 62 && a.sign() => Some((
            BigFloat::zero(false, prec),
            FpFlags::UNDERFLOW | FpFlags::INEXACT,
        )),
        Kind::Finite if a.exp() > 62 => Some((
            BigFloat::inf(false, prec),
            FpFlags::OVERFLOW | FpFlags::INEXACT,
        )),
        Kind::Finite => None,
    }
}

/// e^a, faithfully rounded to `prec` bits.
pub fn exp(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if let Some(r) = exp_special(a, prec) {
        return r;
    }
    inexact_result(exp_at(a, wpz(prec)), prec, rm)
}

/// log's special arguments, and ln 1 = +0 exactly.
fn log_special(a: &BigFloat, prec: u32) -> Option<(BigFloat, FpFlags)> {
    match a.kind() {
        Kind::Nan => Some((BigFloat::nan(prec), FpFlags::NONE)),
        Kind::Zero => Some((BigFloat::inf(true, prec), FpFlags::DIVZERO)),
        Kind::Inf if a.sign() => Some((BigFloat::nan(prec), FpFlags::INVALID)),
        Kind::Inf => Some((BigFloat::inf(false, prec), FpFlags::NONE)),
        Kind::Finite if a.sign() => Some((BigFloat::nan(prec), FpFlags::INVALID)),
        Kind::Finite if cmp_quiet(a, &bfu(1, 2)).0 == CmpResult::Equal => {
            Some((BigFloat::zero(false, prec), FpFlags::NONE))
        }
        Kind::Finite => None,
    }
}

/// ln a, faithfully rounded.
pub fn log(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if let Some(r) = log_special(a, prec) {
        return r;
    }
    inexact_result(log_at(a, wpz(prec) + 32), prec, rm)
}

/// log₁₀ a.
pub fn log10(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if let Some(r) = log_special(a, prec) {
        return r;
    }
    let wp = wpz(prec) + 32;
    let r = div(&log_at(a, wp), &const_ln10(wp), wp, RNE).0;
    inexact_result(r, prec, rm)
}

/// a^b with IEEE `pow` special cases.
pub fn pow(a: &BigFloat, b: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if b.is_zero() {
        return (BigFloat::from_f64(1.0, prec, rm).0, FpFlags::NONE);
    }
    if a.is_nan() || b.is_nan() {
        return (BigFloat::nan(prec), FpFlags::NONE);
    }
    let b_int = is_integer(b);
    let b_odd = b_int && integer_is_odd(b);
    if a.is_zero() {
        let neg = a.sign() && b_odd;
        return if b.sign() {
            (BigFloat::inf(neg, prec), FpFlags::DIVZERO)
        } else {
            (BigFloat::zero(neg, prec), FpFlags::NONE)
        };
    }
    if a.is_inf() {
        let neg = a.sign() && b_odd;
        return if b.sign() {
            (BigFloat::zero(neg, prec), FpFlags::NONE)
        } else {
            (BigFloat::inf(neg, prec), FpFlags::NONE)
        };
    }
    if a.sign() && !b_int {
        return (BigFloat::nan(prec), FpFlags::INVALID);
    }
    // Small integer exponents: exact binary powering (keeps pow(x, 2) etc.
    // exactly rounded and fast — the common case in scientific codes).
    if b_int && b.exp() <= 20 {
        let n = bigfloat_to_i64(b);
        let wp = wpz(prec) + 2 * (64 - n.unsigned_abs().leading_zeros());
        let mut base = round_to(a, wp, RNE).0;
        let mut e = n.unsigned_abs();
        let mut acc = bfu(1, wp);
        let mut inexact = false;
        while e > 0 {
            if e & 1 == 1 {
                let (v, f) = mul(&acc, &base, wp, RNE);
                acc = v;
                inexact |= f.contains(FpFlags::INEXACT);
            }
            e >>= 1;
            if e > 0 {
                let (v, f) = mul(&base, &base, wp, RNE);
                base = v;
                inexact |= f.contains(FpFlags::INEXACT);
            }
        }
        if n < 0 {
            let (v, f) = div(&bfu(1, wp), &acc, wp, RNE);
            acc = v;
            inexact |= f.contains(FpFlags::INEXACT);
        }
        let (r, ix2) = round_to(&acc, prec, rm);
        let flags = if inexact || ix2 {
            FpFlags::INEXACT
        } else {
            FpFlags::NONE
        };
        return (r, flags);
    }
    // General case: exp(b · ln a) (a > 0 here).
    let wp = wpz(prec) + 32;
    let abs = a.abs();
    let l = log_special(&abs, wp).map_or_else(|| log_at(&abs, wp), |(l, _)| l);
    let t = mul(b, &l, wp, RNE).0;
    let (mut r, mut f) =
        exp_special(&t, wp).unwrap_or_else(|| inexact_result(exp_at(&t, wp), wp, RNE));
    if a.sign() && b_odd {
        r = r.neg();
    }
    let (r, _) = round_to(&r, prec, rm);
    f |= FpFlags::INEXACT;
    (r, f)
}

/// sin a, faithfully rounded.
pub fn sin(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    sincos_impl(a, prec, rm, false)
}

/// cos a, faithfully rounded.
pub fn cos(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    sincos_impl(a, prec, rm, true)
}

fn sincos_impl(a: &BigFloat, prec: u32, rm: Round, want_cos: bool) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    match a.kind() {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Inf => return (BigFloat::nan(prec), FpFlags::INVALID),
        Kind::Zero => {
            return if want_cos {
                (BigFloat::from_f64(1.0, prec, rm).0, FpFlags::NONE)
            } else {
                (BigFloat::zero(a.sign(), prec), FpFlags::NONE)
            }
        }
        Kind::Finite => {}
    }
    // Argument reduction loses ~a.exp bits to cancellation.
    let wp = wpz(prec) + 32 + a.exp().max(0) as u32;
    let (k_mod4, r) = reduce_half_pi(a, wp);
    // sin(x + k·π/2): k≡0 → sin r; 1 → cos r; 2 → −sin r; 3 → −cos r.
    // cos(x + k·π/2): k≡0 → cos r; 1 → −sin r; 2 → −cos r; 3 → sin r.
    let (use_cos, negate) = if want_cos {
        match k_mod4 {
            0 => (true, false),
            1 => (false, true),
            2 => (true, true),
            _ => (false, false),
        }
    } else {
        match k_mod4 {
            0 => (false, false),
            1 => (true, false),
            2 => (false, true),
            _ => (true, true),
        }
    };
    let sum = if use_cos {
        cos_reduced(&r, wp, Cutoff::Absolute)
    } else {
        sin_reduced(&r, wp, Cutoff::Absolute)
    };
    inexact_result(if negate { sum.neg() } else { sum }, prec, rm)
}

/// tan a = sin a / cos a.
pub fn tan(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    match a.kind() {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Inf => return (BigFloat::nan(prec), FpFlags::INVALID),
        Kind::Zero => return (BigFloat::zero(a.sign(), prec), FpFlags::NONE),
        Kind::Finite => {}
    }
    let wp = wpz(prec) + 32;
    // Near a pole the quotient magnifies the reduction's error, so reduce
    // with the bits a wp-bit sine and cosine would use.
    let (k_mod4, r) = reduce_half_pi(a, wpz(wp) + 32 + a.exp().max(0) as u32);
    let s = sin_reduced(&r, wp, Cutoff::Relative);
    let c = cos_reduced(&r, wp, Cutoff::Relative);
    // tan(r + k·π/2) = tan r for even k, −cot r for odd k.
    let q = if k_mod4 % 2 == 0 {
        div(&s, &c, wp, RNE).0
    } else {
        div(&c, &s, wp, RNE).0.neg()
    };
    inexact_result(q, prec, rm)
}

/// ±π/2 as the public `atan(±∞)` returns it at `prec` bits.
fn atan_inf(neg: bool, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let h = scale2(&const_pi(wpz(prec)), -1);
    inexact_result(if neg { h.neg() } else { h }, prec, rm)
}

/// atan a, faithfully rounded.
pub fn atan(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    match a.kind() {
        Kind::Nan => (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Inf => atan_inf(a.sign(), prec, rm),
        Kind::Zero => (BigFloat::zero(a.sign(), prec), FpFlags::NONE),
        Kind::Finite => inexact_result(atan_at(a, wpz(prec) + 32), prec, rm),
    }
}

/// asin a = atan(a / √(1−a²)); IE outside [−1, 1].
pub fn asin(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if a.is_nan() {
        return (BigFloat::nan(prec), FpFlags::NONE);
    }
    if a.is_zero() {
        return (BigFloat::zero(a.sign(), prec), FpFlags::NONE);
    }
    let wp = wpz(prec) + 32;
    let one = bfu(1, wp);
    match cmp_quiet(&a.abs(), &one).0 {
        CmpResult::Greater | CmpResult::Unordered => {
            return (BigFloat::nan(prec), FpFlags::INVALID)
        }
        CmpResult::Equal => {
            let h = scale2(&const_pi(wp), -1);
            return inexact_result(if a.sign() { h.neg() } else { h }, prec, rm);
        }
        CmpResult::Less => {}
    }
    let a2 = mul(a, a, wp, RNE).0;
    let denom = sqrt(&sub(&one, &a2, wp, RNE).0, wp, RNE).0;
    let t = div(a, &denom, wp, RNE).0;
    inexact_result(atan_at(&t, wp), prec, rm)
}

/// acos a = atan(√((1−a)(1+a)) / a), folded into (0, π); IE outside
/// [−1, 1].
pub fn acos(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if a.is_nan() {
        return (BigFloat::nan(prec), FpFlags::NONE);
    }
    let wp = wpz(prec) + 32;
    let one = bfu(1, wp);
    if cmp_quiet(&a.abs(), &one).0 == CmpResult::Greater {
        return (BigFloat::nan(prec), FpFlags::INVALID);
    }
    if cmp_quiet(a, &one).0 == CmpResult::Equal {
        return (BigFloat::zero(false, prec), FpFlags::NONE);
    }
    let pi = const_pi(wp);
    if a.is_zero() {
        return inexact_result(round_to(&scale2(&pi, -1), wp, RNE).0, prec, rm);
    }
    // 1 − a and 1 + a are exact where they cancel, so √(1 − a²) keeps its
    // relative accuracy up to a = ±1.
    let w = mul(&sub(&one, a, wp, RNE).0, &add(&one, a, wp, RNE).0, wp, RNE).0;
    let s = sqrt(&w, wp, RNE).0;
    let theta = if s.is_zero() {
        s
    } else {
        atan_at(&div(&s, &a.abs(), wp, RNE).0, wp)
    };
    let r = if a.sign() {
        sub(&pi, &theta, wp, RNE).0
    } else {
        theta
    };
    inexact_result(r, prec, rm)
}

/// atan2(y, x) with full quadrant handling.
pub fn atan2(y: &BigFloat, x: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if y.is_nan() || x.is_nan() {
        return (BigFloat::nan(prec), FpFlags::NONE);
    }
    let wp = wpz(prec) + 32;
    let pi = const_pi(wp);
    if x.is_zero() && y.is_zero() {
        // IEEE atan2(±0, ±0) is defined (0 or ±π); follow libm.
        let r = if x.sign() {
            if y.sign() {
                pi.neg()
            } else {
                pi.clone()
            }
        } else {
            return (BigFloat::zero(y.sign(), prec), FpFlags::NONE);
        };
        return inexact_result(r, prec, rm);
    }
    if y.is_zero() {
        return if x.sign() {
            let r = if y.sign() { pi.neg() } else { pi.clone() };
            inexact_result(r, prec, rm)
        } else {
            (BigFloat::zero(y.sign(), prec), FpFlags::NONE)
        };
    }
    if x.is_zero() {
        let mut h = scale2(&pi, -1);
        if y.sign() {
            h = h.neg();
        }
        return inexact_result(h, prec, rm);
    }
    if y.is_inf() && x.is_inf() {
        // atan2(±∞, +∞) = ±π/4 and atan2(±∞, −∞) = ±3π/4, as in libm.
        let quarter = scale2(&pi, -2);
        let r = if x.sign() {
            sub(&pi, &quarter, wp, RNE).0
        } else {
            quarter
        };
        return inexact_result(if y.sign() { r.neg() } else { r }, prec, rm);
    }
    let q = div(y, x, wp, RNE).0;
    let base = match q.kind() {
        Kind::Finite => atan_at(&q, wp),
        Kind::Inf => atan_inf(q.sign(), wp, RNE).0,
        Kind::Zero => BigFloat::zero(q.sign(), wp),
        Kind::Nan => unreachable!("only ∞/∞ divides to NaN here"),
    };
    let r = if x.sign() {
        if y.sign() {
            sub(&base, &pi, wp, RNE).0
        } else {
            add(&base, &pi, wp, RNE).0
        }
    } else {
        base
    };
    inexact_result(r, prec, rm)
}

// ---------------------------------------------------------------------------
// Integer helpers on BigFloat
// ---------------------------------------------------------------------------

/// Multiply by 2^k exactly.
pub fn scale2(a: &BigFloat, k: i64) -> BigFloat {
    let mut r = a.clone();
    if r.kind == Kind::Finite {
        r.exp += k;
    }
    r
}

/// Nearest integer as `floor(x + 1/2)`, with `x + 1/2` rounded to nearest
/// at `wp` bits: ties go toward +∞, which is harmless for argument
/// reduction.
pub fn round_nearest_int(a: &BigFloat, wp: u32) -> BigFloat {
    let rmn = Round::NearestEven;
    let half = BigFloat::from_f64(0.5, wp, rmn).0;
    let shifted = add(a, &half, wp, rmn).0;
    floor(&shifted, wp).0
}

/// True if the value is an integer.
pub fn is_integer(a: &BigFloat) -> bool {
    match a.kind {
        Kind::Zero => true,
        Kind::Finite => {
            let frac_bits = i64::from(a.prec) - a.exp;
            if frac_bits <= 0 {
                return true;
            }
            if a.exp <= 0 {
                return false;
            }
            !super::any_bits_below(&a.mant, frac_bits as usize)
        }
        _ => false,
    }
}

/// Low `i` bit of an integral BigFloat (bit 0 of the integer value).
fn integer_bit(a: &BigFloat, i: u32) -> bool {
    if a.kind != Kind::Finite {
        return false;
    }
    // value = mant × 2^(exp − prec); integer bit j is mantissa bit
    // j + prec − exp.
    let pos = i64::from(i) + i64::from(a.prec) - a.exp;
    if pos < 0 {
        false // scaled up: low bits are zero
    } else {
        super::bit_at(&a.mant, pos as usize)
    }
}

/// True if an integral BigFloat is odd.
pub fn integer_is_odd(a: &BigFloat) -> bool {
    integer_bit(a, 0)
}

/// Low two bits of an integral BigFloat, as 0..=3, sign-adjusted so the
/// result equals `((k % 4) + 4) % 4` for the signed integer k.
pub fn integer_mod4(a: &BigFloat) -> u8 {
    let low = u8::from(integer_bit(a, 0)) | (u8::from(integer_bit(a, 1)) << 1);
    if a.sign && low != 0 {
        4 - low
    } else {
        low
    }
}

/// Integral BigFloat to i64 (saturating; used for bounded reductions only).
pub fn bigfloat_to_i64(a: &BigFloat) -> i64 {
    let (f, _) = a.to_f64(Round::Zero);
    if f >= 9.2e18 {
        i64::MAX
    } else if f <= -9.2e18 {
        i64::MIN
    } else {
        f as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(x: f64) -> BigFloat {
        BigFloat::from_f64(x, 120, Round::NearestEven).0
    }

    fn close(a: &BigFloat, expect: f64, what: &str) {
        let (got, _) = a.to_f64(Round::NearestEven);
        let err = (got - expect).abs();
        let tol = expect.abs().max(1e-300) * 1e-14;
        assert!(err <= tol, "{what}: got {got}, expected {expect}");
    }

    #[test]
    fn constants() {
        close(&const_pi(120), std::f64::consts::PI, "pi");
        close(&const_ln2(120), std::f64::consts::LN_2, "ln2");
        close(&const_ln10(120), std::f64::consts::LN_10, "ln10");
        // Constants at different precisions agree on the shared prefix.
        let p1 = const_pi(256);
        let (d1, _) = p1.to_f64(Round::NearestEven);
        assert_eq!(d1.to_bits(), std::f64::consts::PI.to_bits());
    }

    #[test]
    fn exp_log_roundtrip() {
        for x in [0.5, 1.0, -1.0, 3.25, -7.5, 0.001, 20.0] {
            let (e, f) = exp(&bf(x), 120, Round::NearestEven);
            close(&e, x.exp(), &format!("exp({x})"));
            assert!(f.contains(FpFlags::INEXACT));
            let (l, _) = log(&e, 120, Round::NearestEven);
            close(&l, x, &format!("log(exp({x}))"));
        }
        // Specials.
        assert!(exp(&BigFloat::nan(64), 64, Round::NearestEven).0.is_nan());
        assert!(log(&bf(-1.0), 64, Round::NearestEven)
            .1
            .contains(FpFlags::INVALID));
        assert!(log(&BigFloat::zero(false, 64), 64, Round::NearestEven)
            .0
            .is_inf());
        let (one, f) = exp(&BigFloat::zero(false, 64), 64, Round::NearestEven);
        close(&one, 1.0, "exp(0)");
        assert!(f.is_empty());
    }

    #[test]
    fn trig_matches_host() {
        for x in [0.1, 0.5, 1.0, -1.0, 3.0, 10.0, -25.5, 100.0] {
            close(
                &sin(&bf(x), 120, Round::NearestEven).0,
                x.sin(),
                &format!("sin({x})"),
            );
            close(
                &cos(&bf(x), 120, Round::NearestEven).0,
                x.cos(),
                &format!("cos({x})"),
            );
            close(
                &tan(&bf(x), 120, Round::NearestEven).0,
                x.tan(),
                &format!("tan({x})"),
            );
        }
    }

    #[test]
    fn inverse_trig_matches_host() {
        for x in [0.0f64, 0.1, 0.5, -0.5, 0.99, -0.99, 1.0, -1.0] {
            close(
                &asin(&bf(x), 120, Round::NearestEven).0,
                x.asin(),
                &format!("asin({x})"),
            );
            close(
                &acos(&bf(x), 120, Round::NearestEven).0,
                x.acos(),
                &format!("acos({x})"),
            );
        }
        for x in [0.0f64, 0.3, -2.0, 50.0, -1000.0] {
            close(
                &atan(&bf(x), 120, Round::NearestEven).0,
                x.atan(),
                &format!("atan({x})"),
            );
        }
        assert!(asin(&bf(1.5), 64, Round::NearestEven)
            .1
            .contains(FpFlags::INVALID));
        for (y, x) in [
            (1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
            (-1.0, 1.0),
            (2.0, 0.5),
        ] {
            close(
                &atan2(&bf(y), &bf(x), 120, Round::NearestEven).0,
                y.atan2(x),
                &format!("atan2({y},{x})"),
            );
        }
    }

    #[test]
    fn atan2_of_infinities_matches_host() {
        let inf = f64::INFINITY;
        for (y, x) in [(inf, inf), (-inf, inf), (inf, -inf), (-inf, -inf)] {
            let (r, f) = atan2(&bf(y), &bf(x), 200, Round::NearestEven);
            let (got, _) = r.to_f64(Round::NearestEven);
            assert_eq!(got.to_bits(), y.atan2(x).to_bits(), "atan2({y}, {x})");
            assert_eq!(f, FpFlags::INEXACT, "atan2({y}, {x})");
        }
    }

    #[test]
    fn pow_cases() {
        close(
            &pow(&bf(2.0), &bf(10.0), 120, Round::NearestEven).0,
            1024.0,
            "2^10",
        );
        close(
            &pow(&bf(2.0), &bf(0.5), 120, Round::NearestEven).0,
            2f64.sqrt(),
            "2^0.5",
        );
        close(
            &pow(&bf(-2.0), &bf(3.0), 120, Round::NearestEven).0,
            -8.0,
            "(-2)^3",
        );
        close(
            &pow(&bf(10.0), &bf(-3.0), 120, Round::NearestEven).0,
            1e-3,
            "10^-3",
        );
        assert!(pow(&bf(-2.0), &bf(0.5), 64, Round::NearestEven)
            .1
            .contains(FpFlags::INVALID));
        let (one, f) = pow(&bf(5.0), &BigFloat::zero(false, 64), 64, Round::NearestEven);
        close(&one, 1.0, "5^0");
        assert!(f.is_empty());
        // Integer powering is exact when the result is representable.
        let (v, f) = pow(&bf(3.0), &bf(4.0), 120, Round::NearestEven);
        close(&v, 81.0, "3^4");
        assert!(f.is_empty(), "3^4 should be exact, got {f}");
    }

    #[test]
    fn integer_helpers() {
        assert!(is_integer(&bf(5.0)));
        assert!(is_integer(&bf(-12.0)));
        assert!(is_integer(&bf(0.0)));
        assert!(!is_integer(&bf(0.5)));
        assert!(!is_integer(&bf(-3.25)));
        assert!(is_integer(&bf(1e20)));
        assert!(integer_is_odd(&bf(3.0)));
        assert!(!integer_is_odd(&bf(4.0)));
        assert_eq!(integer_mod4(&bf(0.0)), 0);
        assert_eq!(integer_mod4(&bf(5.0)), 1);
        assert_eq!(integer_mod4(&bf(6.0)), 2);
        assert_eq!(integer_mod4(&bf(7.0)), 3);
        assert_eq!(integer_mod4(&bf(-1.0)), 3);
        assert_eq!(integer_mod4(&bf(-6.0)), 2);
        assert_eq!(bigfloat_to_i64(&bf(42.0)), 42);
        assert_eq!(bigfloat_to_i64(&bf(-42.0)), -42);
    }

    #[test]
    fn high_precision_sin_is_consistent() {
        // sin at 400 bits rounded to 53 must equal sin at 120 bits rounded
        // to 53 (both faithful; the value is not near a rounding boundary).
        let x = bf(1.2345);
        let (a, _) = sin(&x, 400, Round::NearestEven);
        let (b, _) = sin(&x, 120, Round::NearestEven);
        assert_eq!(
            a.to_f64(Round::NearestEven).0.to_bits(),
            b.to_f64(Round::NearestEven).0.to_bits()
        );
    }
}
