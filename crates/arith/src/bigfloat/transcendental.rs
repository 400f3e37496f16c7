//! Arbitrary-precision transcendental functions for [`BigFloat`].
//!
//! FPVM's alternative arithmetic interface includes the libm entry points
//! (sin, cos, pow, …) because FPVM interposes on the math library (§4.1
//! Fig. 8, §4.3): when an application calls `sin` on a shadowed value, the
//! math wrapper routes the call to the arithmetic system instead of letting
//! libm bit-pick the NaN-box apart.
//!
//! Implementations use argument reduction plus Taylor/atanh series evaluated
//! with `wp = prec + guard` working bits. Results are **faithfully rounded**
//! (error < 1 ulp); unlike MPFR we do not run Ziv's correct-rounding loop —
//! a documented substitution (DESIGN.md) that does not affect any experiment
//! shape. The paper's precision-sweep experiment (Fig. 11) measures only
//! add/sub/mul/div, which *are* correctly rounded.

use super::{add, cmp_quiet, div, floor, mul, round_to, sqrt, BigFloat, Kind, MIN_PREC};
use crate::flags::{FpFlags, Round};
use crate::softfp::CmpResult;
use std::cell::RefCell;

/// Guard bits added to the working precision.
const GUARD: u32 = 48;

fn wpz(prec: u32) -> u32 {
    prec.max(MIN_PREC) + GUARD
}

fn bfu(x: u64, wp: u32) -> BigFloat {
    debug_assert!(x < (1 << 53));
    BigFloat::from_f64(x as f64, wp, Round::NearestEven).0
}

fn inexact_result(v: BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let (r, _) = round_to(&v, prec.max(MIN_PREC), rm);
    (r, FpFlags::INEXACT)
}

thread_local! {
    /// Per-thread cache of ln 2, π and ln 10, keyed by quantized working
    /// precision. Thread-local so fleet workers never contend on a lock;
    /// each thread computes the same deterministic values.
    static CONSTS: RefCell<[Vec<(u32, BigFloat)>; 3]> =
        const { RefCell::new([Vec::new(), Vec::new(), Vec::new()]) };
}

fn cached_const(idx: usize, wp: u32, compute: impl FnOnce(u32) -> BigFloat) -> BigFloat {
    // Quantize wp to 64-bit steps so the cache stays small.
    let wp = wp.div_ceil(64) * 64;
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

/// ln 2 to `wp` bits: 2·atanh(1/3) = 2·Σ (1/3)^(2k+1) / (2k+1).
pub fn const_ln2(wp: u32) -> BigFloat {
    cached_const(0, wp, |wp| {
        let w = wp + 32;
        let rm = Round::NearestEven;
        let third = div(&bfu(1, w), &bfu(3, w), w, rm).0;
        let t2 = mul(&third, &third, w, rm).0;
        let mut term = third.clone();
        let mut sum = third;
        let mut k = 1u64;
        loop {
            term = mul(&term, &t2, w, rm).0;
            let contrib = div(&term, &bfu(2 * k + 1, w), w, rm).0;
            if contrib.is_zero() || contrib.exp() < -i64::from(w) {
                break;
            }
            sum = add(&sum, &contrib, w, rm).0;
            k += 1;
        }
        let two = bfu(2, w);
        round_to(&mul(&sum, &two, w, rm).0, wp, rm).0
    })
}

/// π to `wp` bits via Machin's formula: 16·atan(1/5) − 4·atan(1/239).
pub fn const_pi(wp: u32) -> BigFloat {
    cached_const(1, wp, |wp| {
        let w = wp + 32;
        let rm = Round::NearestEven;
        let atan_inv = |x: u64| -> BigFloat {
            // atan(1/x) = Σ (−1)^k / ((2k+1) x^(2k+1))
            let inv = div(&bfu(1, w), &bfu(x, w), w, rm).0;
            let inv2 = mul(&inv, &inv, w, rm).0;
            let mut term = inv.clone();
            let mut sum = inv;
            let mut k = 1u64;
            loop {
                term = mul(&term, &inv2, w, rm).0;
                let contrib = div(&term, &bfu(2 * k + 1, w), w, rm).0;
                if contrib.is_zero() || contrib.exp() < -i64::from(w) {
                    break;
                }
                sum = if k % 2 == 1 {
                    add(&sum, &contrib.neg(), w, rm).0
                } else {
                    add(&sum, &contrib, w, rm).0
                };
                k += 1;
            }
            sum
        };
        let a5 = atan_inv(5);
        let a239 = atan_inv(239);
        let p = add(
            &mul(&a5, &bfu(16, w), w, rm).0,
            &mul(&a239, &bfu(4, w), w, rm).0.neg(),
            w,
            rm,
        )
        .0;
        round_to(&p, wp, rm).0
    })
}

/// ln 10 to `wp` bits.
pub fn const_ln10(wp: u32) -> BigFloat {
    cached_const(2, wp, |wp| {
        // ln 10 = ln(10/8) + 3 ln 2; 10/8 = 1.25 keeps the atanh series fast.
        let w = wp + 32;
        let rm = Round::NearestEven;
        let m = div(&bfu(5, w), &bfu(4, w), w, rm).0;
        let lnm = ln_near_one(&m, w);
        let l2 = const_ln2(w);
        let r = add(&lnm, &mul(&l2, &bfu(3, w), w, rm).0, w, rm).0;
        round_to(&r, wp, rm).0
    })
}

/// ln(m) for m in roughly [2/3, 2] via 2·atanh((m−1)/(m+1)), with 4 rounds
/// of square-root reduction for fast series convergence.
fn ln_near_one(m: &BigFloat, wp: u32) -> BigFloat {
    let rm = Round::NearestEven;
    let w = wp + 32;
    const K: u32 = 4;
    let mut v = m.clone();
    for _ in 0..K {
        v = sqrt(&v, w, rm).0;
    }
    // z = (v-1)/(v+1), |z| small after the reductions.
    let one = bfu(1, w);
    let z = div(
        &add(&v, &one.neg(), w, rm).0,
        &add(&v, &one, w, rm).0,
        w,
        rm,
    )
    .0;
    let z2 = mul(&z, &z, w, rm).0;
    let mut term = z.clone();
    let mut sum = z;
    let mut k = 1u64;
    loop {
        term = mul(&term, &z2, w, rm).0;
        let contrib = div(&term, &bfu(2 * k + 1, w), w, rm).0;
        if contrib.is_zero() || contrib.exp() < -i64::from(w) {
            break;
        }
        sum = add(&sum, &contrib, w, rm).0;
        k += 1;
    }
    // ln m = 2^(K+1) · atanh(z)
    mul(&sum, &bfu(1 << (K + 1), w), w, rm).0
}

/// e^a, faithfully rounded to `prec` bits.
pub fn exp(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    match a.kind() {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Inf => {
            return if a.sign() {
                (BigFloat::zero(false, prec), FpFlags::NONE)
            } else {
                (BigFloat::inf(false, prec), FpFlags::NONE)
            }
        }
        Kind::Zero => return (BigFloat::from_f64(1.0, prec, rm).0, FpFlags::NONE),
        Kind::Finite => {}
    }
    // Guard against absurd exponents (|x| > 2^62 would need a reduction
    // count that cannot fit the exponent anyway).
    if a.exp() > 62 {
        return if a.sign() {
            (
                BigFloat::zero(false, prec),
                FpFlags::UNDERFLOW | FpFlags::INEXACT,
            )
        } else {
            (
                BigFloat::inf(false, prec),
                FpFlags::OVERFLOW | FpFlags::INEXACT,
            )
        };
    }
    const HALVINGS: u32 = 10;
    let wp = wpz(prec) + HALVINGS + a.exp().max(0) as u32;
    let rmn = Round::NearestEven;
    let ln2 = const_ln2(wp);
    // n = round(a / ln2); r = a − n·ln2 with |r| ≤ ln2/2.
    let q = div(a, &ln2, wp, rmn).0;
    let n_bf = round_nearest_int(&q, wp);
    let n = bigfloat_to_i64(&n_bf);
    let r = add(a, &mul(&n_bf, &ln2, wp, rmn).0.neg(), wp, rmn).0;
    // t = r / 2^HALVINGS.
    let mut t = r;
    t = scale2(&t, -i64::from(HALVINGS));
    // Taylor e^t = Σ t^k / k!.
    let mut term = bfu(1, wp);
    let mut sum = bfu(1, wp);
    let mut k = 1u64;
    loop {
        term = div(&mul(&term, &t, wp, rmn).0, &bfu(k, wp), wp, rmn).0;
        if term.is_zero() || term.exp() < -i64::from(wp) {
            break;
        }
        sum = add(&sum, &term, wp, rmn).0;
        k += 1;
    }
    // Square back up.
    for _ in 0..HALVINGS {
        sum = mul(&sum, &sum, wp, rmn).0;
    }
    // × 2^n.
    let sum = scale2(&sum, n);
    inexact_result(sum, prec, rm)
}

/// ln a, faithfully rounded.
pub fn log(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    match a.kind() {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Zero => return (BigFloat::inf(true, prec), FpFlags::DIVZERO),
        Kind::Inf => {
            return if a.sign() {
                (BigFloat::nan(prec), FpFlags::INVALID)
            } else {
                (BigFloat::inf(false, prec), FpFlags::NONE)
            }
        }
        Kind::Finite => {
            if a.sign() {
                return (BigFloat::nan(prec), FpFlags::INVALID);
            }
        }
    }
    // a = m × 2^e with m in [1, 2).
    let wp = wpz(prec) + 32;
    let rmn = Round::NearestEven;
    let e = a.exp() - 1;
    let m = scale2(a, -e);
    // Exact one?
    if e == 0 {
        if let (CmpResult::Equal, _) = cmp_quiet(&m, &bfu(1, wp)) {
            return (BigFloat::zero(false, prec), FpFlags::NONE);
        }
    }
    let lnm = ln_near_one(&m, wp);
    let ln2 = const_ln2(wp);
    let ebf = BigFloat::from_f64(e as f64, wp, rmn).0;
    let r = add(&lnm, &mul(&ebf, &ln2, wp, rmn).0, wp, rmn).0;
    inexact_result(r, prec, rm)
}

/// log₁₀ a.
pub fn log10(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let wp = wpz(prec) + 32;
    let (l, f) = log(a, wp, Round::NearestEven);
    if l.is_nan() || l.is_inf() || l.is_zero() {
        let (r, _) = round_to(&l, prec.max(MIN_PREC), rm);
        return (r, f);
    }
    let r = div(&l, &const_ln10(wp), wp, Round::NearestEven).0;
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
        let rmn = Round::NearestEven;
        let mut base = round_to(a, wp, rmn).0;
        let mut e = n.unsigned_abs();
        let mut acc = bfu(1, wp);
        let mut inexact = false;
        while e > 0 {
            if e & 1 == 1 {
                let (v, f) = mul(&acc, &base, wp, rmn);
                acc = v;
                inexact |= f.contains(FpFlags::INEXACT);
            }
            e >>= 1;
            if e > 0 {
                let (v, f) = mul(&base, &base, wp, rmn);
                base = v;
                inexact |= f.contains(FpFlags::INEXACT);
            }
        }
        if n < 0 {
            let (v, f) = div(&bfu(1, wp), &acc, wp, rmn);
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
    let rmn = Round::NearestEven;
    let (l, _) = log(&a.abs(), wp, rmn);
    let t = mul(b, &l, wp, rmn).0;
    let (mut r, mut f) = exp(&t, wp, rmn);
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
    let rmn = Round::NearestEven;
    let pi = const_pi(wp);
    let half_pi = scale2(&pi, -1);
    // k = round(a / (π/2)), r = a − k·(π/2).
    let q = div(a, &half_pi, wp, rmn).0;
    let k_bf = round_nearest_int(&q, wp);
    let k_mod4 = integer_mod4(&k_bf);
    let r = add(a, &mul(&k_bf, &half_pi, wp, rmn).0.neg(), wp, rmn).0;
    // Choose which series to evaluate: sin(a) = ±sin(r) or ±cos(r).
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
    let r2 = mul(&r, &r, wp, rmn).0;
    let mut sum;
    let mut term;
    let mut k;
    if use_cos {
        sum = bfu(1, wp);
        term = bfu(1, wp);
        k = 0u64;
        loop {
            // term *= -r² / ((2k+1)(2k+2))
            term = div(
                &mul(&term, &r2, wp, rmn).0,
                &bfu((2 * k + 1) * (2 * k + 2), wp),
                wp,
                rmn,
            )
            .0
            .neg();
            if term.is_zero() || term.exp() < -i64::from(wp) {
                break;
            }
            sum = add(&sum, &term, wp, rmn).0;
            k += 1;
        }
    } else {
        sum = r.clone();
        term = r.clone();
        k = 0u64;
        loop {
            term = div(
                &mul(&term, &r2, wp, rmn).0,
                &bfu((2 * k + 2) * (2 * k + 3), wp),
                wp,
                rmn,
            )
            .0
            .neg();
            if term.is_zero() || term.exp() < -i64::from(wp) {
                break;
            }
            sum = add(&sum, &term, wp, rmn).0;
            k += 1;
        }
    }
    if negate {
        sum = sum.neg();
    }
    inexact_result(sum, prec, rm)
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
    let (s, _) = sin(a, wp, Round::NearestEven);
    let (c, _) = cos(a, wp, Round::NearestEven);
    let r = div(&s, &c, wp, Round::NearestEven).0;
    inexact_result(r, prec, rm)
}

/// atan a, faithfully rounded.
pub fn atan(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    match a.kind() {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Inf => {
            let pi = const_pi(wpz(prec));
            let mut h = scale2(&pi, -1);
            if a.sign() {
                h = h.neg();
            }
            return inexact_result(h, prec, rm);
        }
        Kind::Zero => return (BigFloat::zero(a.sign(), prec), FpFlags::NONE),
        Kind::Finite => {}
    }
    let wp = wpz(prec) + 32;
    let rmn = Round::NearestEven;
    let one = bfu(1, wp);
    // |a| > 1: atan a = sign·π/2 − atan(1/a).
    if a.exp() > 0 && cmp_quiet(&a.abs(), &one).0 == CmpResult::Greater {
        let inv = div(&one, a, wp, rmn).0;
        let (inner, _) = atan(&inv, wp, rmn);
        let mut h = scale2(&const_pi(wp), -1);
        if a.sign() {
            h = h.neg();
        }
        let r = add(&h, &inner.neg(), wp, rmn).0;
        return inexact_result(r, prec, rm);
    }
    // Halving: atan x = 2·atan(x / (1 + √(1+x²))), applied 4 times.
    const HALVINGS: u32 = 4;
    let mut x = round_to(a, wp, rmn).0;
    for _ in 0..HALVINGS {
        let x2 = mul(&x, &x, wp, rmn).0;
        let s = sqrt(&add(&one, &x2, wp, rmn).0, wp, rmn).0;
        x = div(&x, &add(&one, &s, wp, rmn).0, wp, rmn).0;
    }
    // Series Σ (−1)^k x^(2k+1) / (2k+1).
    let x2 = mul(&x, &x, wp, rmn).0;
    let mut term = x.clone();
    let mut sum = x;
    let mut k = 1u64;
    loop {
        term = mul(&term, &x2, wp, rmn).0;
        let contrib = div(&term, &bfu(2 * k + 1, wp), wp, rmn).0;
        if contrib.is_zero() || contrib.exp() < -i64::from(wp) {
            break;
        }
        sum = if k % 2 == 1 {
            add(&sum, &contrib.neg(), wp, rmn).0
        } else {
            add(&sum, &contrib, wp, rmn).0
        };
        k += 1;
    }
    let r = scale2(&sum, i64::from(HALVINGS));
    inexact_result(r, prec, rm)
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
    let rmn = Round::NearestEven;
    let one = bfu(1, wp);
    match cmp_quiet(&a.abs(), &one).0 {
        CmpResult::Greater | CmpResult::Unordered => {
            return (BigFloat::nan(prec), FpFlags::INVALID)
        }
        CmpResult::Equal => {
            let mut h = scale2(&const_pi(wp), -1);
            if a.sign() {
                h = h.neg();
            }
            return inexact_result(h, prec, rm);
        }
        CmpResult::Less => {}
    }
    let a2 = mul(a, a, wp, rmn).0;
    let denom = sqrt(&add(&one, &a2.neg(), wp, rmn).0, wp, rmn).0;
    let t = div(a, &denom, wp, rmn).0;
    let (r, _) = atan(&t, wp, rmn);
    inexact_result(r, prec, rm)
}

/// acos a = π/2 − asin a; IE outside [−1, 1].
pub fn acos(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if a.is_nan() {
        return (BigFloat::nan(prec), FpFlags::NONE);
    }
    let wp = wpz(prec) + 32;
    let rmn = Round::NearestEven;
    let one = bfu(1, wp);
    if cmp_quiet(&a.abs(), &one).0 == CmpResult::Greater {
        return (BigFloat::nan(prec), FpFlags::INVALID);
    }
    if cmp_quiet(a, &one).0 == CmpResult::Equal {
        return (BigFloat::zero(false, prec), FpFlags::NONE);
    }
    let (s, _) = asin(a, wp, rmn);
    let h = scale2(&const_pi(wp), -1);
    let r = add(&h, &s.neg(), wp, rmn).0;
    inexact_result(r, prec, rm)
}

/// atan2(y, x) with full quadrant handling.
pub fn atan2(y: &BigFloat, x: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    let prec = prec.max(MIN_PREC);
    if y.is_nan() || x.is_nan() {
        return (BigFloat::nan(prec), FpFlags::NONE);
    }
    let wp = wpz(prec) + 32;
    let rmn = Round::NearestEven;
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
    let q = div(y, x, wp, rmn).0;
    let (base, _) = atan(&q, wp, rmn);
    let r = if x.sign() {
        if y.sign() {
            add(&base, &pi.neg(), wp, rmn).0
        } else {
            add(&base, &pi, wp, rmn).0
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

/// Nearest integer (ties away handled via floor(x + 1/2) — adequate for
/// argument reduction, where a one-ulp tie preference is harmless).
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
