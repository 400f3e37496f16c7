//! Fixed-point power series for the transcendental functions.
//!
//! A [`Fixed`] is a nonnegative number `X / 2^F` held as an `n`-limb
//! integer `X` with `F = 64·(n − 1)`: the top limb is the integer part,
//! the rest the fraction. Series sums of bounded magnitude need no
//! exponents, normalization or rounding modes, so a product is one limb
//! multiplication and a truncating shift, and scaling by a machine integer
//! is one pass over the limbs. Every operation truncates, so an evaluation
//! of `N` terms is good to a few `N·2^-F` absolute.
//!
//! The two series shapes the transcendentals need are summed by
//! rectangular splitting (Smith 1989; Paterson & Stockmeyer 1973): with
//! the powers `y, y², …, y^m` at hand, a block of up to `m` consecutive
//! terms is a sum of those powers times machine-integer coefficients over
//! one common denominator, and the blocks are chained by Horner's rule in
//! `y^m`. A series of `N` terms then costs about `N/m + m` full products
//! and `N` scalar products instead of `N` full products and `N`
//! divisions.

use super::limb::{self, LimbBuf};
use super::{BigFloat, Kind};
use crate::flags::Round;

/// Limbs a fixed-point value keeps inline: enough for the 200-bit
/// configuration's working precisions and the 400-bit reference.
const FIXED_INLINE: usize = 12;

/// Longest block of the rectangular splitting.
const MAX_BLOCK: usize = 8;

type Limbs = LimbBuf<FIXED_INLINE>;

/// A nonnegative fixed-point number `X / 2^(64·(n − 1))`.
#[derive(Clone, Debug)]
pub(super) struct Fixed(Limbs);

/// Limbs for a series whose result must be good to `2^-wp`: 40 guard bits
/// cover the truncation errors of a few hundred terms.
pub(super) fn limbs_for(wp: u32) -> usize {
    (wp as usize + 40).div_ceil(64) + 1
}

impl Fixed {
    /// Zero with `n` limbs.
    pub(super) fn zero(n: usize) -> Self {
        Fixed(Limbs::zeroed(n))
    }

    /// One with `n` limbs.
    pub(super) fn one(n: usize) -> Self {
        let mut x = Fixed::zero(n);
        x.0[n - 1] = 1;
        x
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// `|x|` truncated to `n` limbs; `|x|` must be below 2^64.
    pub(super) fn from_bf(x: &BigFloat, n: usize) -> Self {
        if x.kind != Kind::Finite {
            debug_assert!(x.kind == Kind::Zero);
            return Fixed::zero(n);
        }
        debug_assert!(x.exp <= 64);
        let shift = x.exp - i64::from(x.prec) + 64 * (n as i64 - 1);
        Fixed(if shift >= 0 {
            limb::shift_left_into(&x.mant, shift as usize, n)
        } else if (-shift) as usize >= x.mant.len() * 64 {
            Limbs::zeroed(n)
        } else {
            limb::shift_right_into(&x.mant, (-shift) as usize, n)
        })
    }

    /// The value with the given sign, rounded to nearest at `prec` bits
    /// (exact when `prec` covers every limb).
    pub(super) fn to_bf(&self, sign: bool, prec: u32) -> BigFloat {
        let unit = -64 * (self.len() as i64 - 1);
        BigFloat::from_int(sign, unit, &self.0, false, prec, Round::NearestEven).0
    }

    /// `self · other`, truncated: a short product that forms only the
    /// columns from `n − 2` up, so it is low by less than `n` units of the
    /// last limb.
    pub(super) fn mul(&self, other: &Fixed) -> Fixed {
        let n = self.len();
        let mut out = Limbs::zeroed(n);
        let (a, b, o): (&[u64], &[u64], &mut [u64]) = (&self.0, &other.0, &mut out);
        // Fixed lengths let the compiler unroll the column loops.
        macro_rules! by_len {
            ($($len:literal)*) => {
                match n {
                    $($len => short_product(&a[..$len], &b[..$len], &mut o[..$len]),)*
                    _ => short_product(a, b, o),
                }
            };
        }
        by_len!(2 3 4 5 6 7 8 9 10 11 12);
        Fixed(out)
    }

    /// `self / d`, truncated.
    pub(super) fn div_u64(&self, d: u64) -> Fixed {
        let mut q = self.clone();
        limb::div_limb_in_place(&mut q.0, d);
        q
    }

    /// `self · 2^k` for a small `k`, truncated.
    pub(super) fn shl(&self, k: u32) -> Fixed {
        let mut x = self.clone();
        let out = limb::shl_small(&mut x.0, k);
        debug_assert!(out == 0, "fixed-point overflow");
        x
    }

    /// `self += other`.
    pub(super) fn add_assign(&mut self, other: &Fixed) {
        let carry = limb::add_assign(&mut self.0, &other.0);
        debug_assert!(!carry, "fixed-point overflow");
    }

    /// `self −= other`; requires `self ≥ other`.
    pub(super) fn sub_assign(&mut self, other: &Fixed) {
        let borrow = limb::sub_assign(&mut self.0, &other.0);
        debug_assert!(!borrow, "fixed-point underflow");
    }
}

/// The top `n` limbs of `a·b / 2^(64·(n−1))` for `n`-limb `a`, `b`, from
/// the product's columns `n − 2` and up.
#[inline(always)]
fn short_product(a: &[u64], b: &[u64], o: &mut [u64]) {
    let n = a.len();
    // Column sums of a[i]·b[c−i], carried as a u128 plus overflow count.
    let mut carry = 0u128;
    for c in n.saturating_sub(2)..2 * n - 1 {
        let (mut lo, mut hi) = (carry, 0u64);
        for i in c.saturating_sub(n - 1)..=c.min(n - 1) {
            let (sum, over) = lo.overflowing_add(u128::from(a[i]) * u128::from(b[c - i]));
            lo = sum;
            hi += u64::from(over);
        }
        if c >= n - 1 {
            o[c + 1 - n] = lo as u64;
        }
        carry = lo >> 64 | u128::from(hi) << 64;
    }
    debug_assert!(carry == 0, "fixed-point overflow");
}

/// Block numerators: a fixed-point value with one more limb of integer
/// part, for sums of powers times 64-bit coefficients.
struct Wide(Limbs);

impl Wide {
    fn zero(n: usize) -> Self {
        Wide(Limbs::zeroed(n + 1))
    }

    /// `self += x · k`.
    fn add_scaled(&mut self, x: &Fixed, k: u64) {
        let carry = limb::mul_limb_add(&mut self.0, &x.0, k);
        debug_assert!(!carry, "block numerator overflow");
    }

    /// `(self − minus) / d`, truncated; the difference must be
    /// nonnegative and the quotient below 2^64.
    fn sub_div(mut self, minus: &Wide, d: u64) -> Fixed {
        let borrow = limb::sub_assign(&mut self.0, &minus.0);
        debug_assert!(!borrow, "block numerator underflow");
        limb::div_limb_in_place(&mut self.0, d);
        let n = self.0.len() - 1;
        debug_assert!(self.0[n] == 0, "block quotient overflow");
        Fixed(Limbs::from_slice(&self.0[..n]))
    }
}

/// `1, y, y², …, y^m` for the block length `m` that balances `terms`.
fn powers(y: &Fixed, terms: usize) -> (usize, [Fixed; MAX_BLOCK + 1]) {
    let m = ((terms as f64).sqrt().ceil() as usize).clamp(1, MAX_BLOCK);
    let n = y.len();
    let mut pw: [Fixed; MAX_BLOCK + 1] = std::array::from_fn(|_| Fixed::zero(n));
    pw[0] = Fixed::one(n);
    pw[1] = y.clone();
    for j in 2..=m {
        pw[j] = pw[j - 1].mul(y);
    }
    (m, pw)
}

/// `Σ_{k<terms} t_k` with `t_0 = 1` and `t_k = t_{k−1} · (∓y) / d(k)`,
/// the sign alternating when `alternating`: the shape of the sine, cosine
/// and exponential series. Every partial tail must be positive, which
/// holds for `0 ≤ y < d(k)`.
///
/// A block of terms `k0 … k0+len−1` divided by its first is
/// `Σ_j (∓y)^j / (d(k0+1)⋯d(k0+j))`. Over the common denominator
/// `D = d(k0+1)⋯d(k0+len)` the coefficients `e_j = d(k0+j+1)⋯d(k0+len)`
/// are integers, and the next block enters as `(∓y)^len / D` times its own
/// normalized sum, so a block costs `len` scalar products, one full
/// product and one division. Blocks are formed from the tail while `D`
/// fits in a machine word.
pub(super) fn ratio_series(
    y: &Fixed,
    alternating: bool,
    terms: usize,
    d: impl Fn(u64) -> u64,
) -> Fixed {
    let n = y.len();
    let (m, pw) = powers(y, terms);
    let mut tail: Option<Fixed> = None;
    let mut hi = terms as u64; // the block is [lo, hi)
    while hi > 0 {
        let mut lo = hi - 1;
        let mut den = d(hi);
        while hi - lo < m as u64 && lo > 0 {
            match den.checked_mul(d(lo)) {
                Some(p) => {
                    den = p;
                    lo -= 1;
                }
                None => break,
            }
        }
        let len = (hi - lo) as usize;
        let (mut plus, mut minus) = (Wide::zero(n), Wide::zero(n));
        let mut e = den;
        for (j, p) in pw.iter().enumerate().take(len) {
            if alternating && j % 2 == 1 {
                minus.add_scaled(p, e);
            } else {
                plus.add_scaled(p, e);
            }
            if j + 1 < len {
                e /= d(lo + j as u64 + 1);
            }
        }
        if let Some(t) = tail {
            let next = pw[len].mul(&t);
            // Fold the next block in as a coefficient-one power: its
            // numerator share is (∓y)^len · tail.
            let target = if alternating && len % 2 == 1 {
                &mut minus
            } else {
                &mut plus
            };
            target.add_scaled(&next, 1);
        }
        tail = Some(plus.sub_div(&minus, den));
        hi = lo;
    }
    tail.unwrap_or_else(|| Fixed::zero(n))
}

/// `Σ_{k<terms} (∓y)^k / (2k+1)`, the sign alternating when
/// `alternating`: the shape of the arctangent and inverse hyperbolic
/// tangent series. Needs `0 ≤ y < 1`.
///
/// A block of terms `k0 … k0+len−1` divided by `y^k0` is
/// `Σ_j (∓y)^j / (2(k0+j)+1)`: over the common denominator
/// `L = Π_j (2(k0+j)+1)` the coefficients `L / (2(k0+j)+1)` are integers.
pub(super) fn odd_reciprocal_series(y: &Fixed, alternating: bool, terms: usize) -> Fixed {
    let n = y.len();
    let (m, pw) = powers(y, terms);
    let odd = |k: u64| 2 * k + 1;
    let mut tail: Option<Fixed> = None;
    let mut hi = terms as u64;
    while hi > 0 {
        let mut lo = hi - 1;
        let mut den = odd(lo);
        while hi - lo < m as u64 && lo > 0 {
            match den.checked_mul(odd(lo - 1)) {
                Some(p) => {
                    den = p;
                    lo -= 1;
                }
                None => break,
            }
        }
        let len = (hi - lo) as usize;
        let (mut plus, mut minus) = (Wide::zero(n), Wide::zero(n));
        for (j, p) in pw.iter().enumerate().take(len) {
            let e = den / odd(lo + j as u64);
            if alternating && j % 2 == 1 {
                minus.add_scaled(p, e);
            } else {
                plus.add_scaled(p, e);
            }
        }
        let mut block = plus.sub_div(&minus, den);
        if let Some(t) = tail {
            let next = pw[len].mul(&t);
            if alternating && len % 2 == 1 {
                block.sub_assign(&next);
            } else {
                block.add_assign(&next);
            }
        }
        tail = Some(block);
        hi = lo;
    }
    tail.unwrap_or_else(|| Fixed::zero(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_of(x: &Fixed) -> f64 {
        x.to_bf(false, 53).to_f64(Round::NearestEven).0
    }

    fn fixed(v: f64, n: usize) -> Fixed {
        Fixed::from_bf(&BigFloat::from_f64(v, 53, Round::NearestEven).0, n)
    }

    #[test]
    fn ratio_series_sums_sine_and_exponential() {
        let n = limbs_for(200);
        for x in [0.0f64, 1e-9, 0.1, 0.5, 0.785] {
            let y = fixed(x * x, n);
            for terms in [1, 2, 3, 7, 30, 31] {
                let s = ratio_series(&y, true, terms, |k| (2 * k) * (2 * k + 1));
                // Reference: the same truncated series in f64.
                let (mut t, mut want) = (1.0f64, 1.0f64);
                for k in 1..terms as u64 {
                    t *= -x * x / ((2 * k) * (2 * k + 1)) as f64;
                    want += t;
                }
                assert!(
                    (f64_of(&s) - want).abs() < 1e-15,
                    "x = {x}, terms = {terms}"
                );
            }
            let e = ratio_series(&fixed(x, n), false, 40, |k| k);
            assert!((f64_of(&e) - x.exp()).abs() < 1e-15, "exp {x}");
        }
    }

    #[test]
    fn odd_reciprocal_series_sums_atan_and_atanh() {
        let n = limbs_for(200);
        for x in [0.0f64, 1e-5, 0.01, 0.1, 0.3] {
            let y = fixed(x * x, n);
            let (at, ah) = (x.atan(), x.atanh());
            let got_at = x * f64_of(&odd_reciprocal_series(&y, true, 60));
            let got_ah = x * f64_of(&odd_reciprocal_series(&y, false, 60));
            assert!((got_at - at).abs() < 1e-16, "atan {x}");
            assert!((got_ah - ah).abs() < 1e-16, "atanh {x}");
        }
    }
}
