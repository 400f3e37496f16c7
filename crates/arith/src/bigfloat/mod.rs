//! **BigFloat**: arbitrary-precision binary floating point with correct
//! rounding — the reproduction's stand-in for GNU MPFR (§4.3 "MPFR").
//!
//! Like MPFR, BigFloat "essentially implements the IEEE floating point
//! standard in software, but with dynamic runtime selectable precision. The
//! fraction can be an arbitrary number of bits long, while the exponent is a
//! 64 bit … number." Precision is a per-operation target; every operation
//! returns the correctly-rounded result for the requested [`Round`] mode
//! plus exact [`FpFlags`].
//!
//! Representation: `value = (-1)^sign × mant × 2^(exp − prec)` with
//! `2^(prec−1) ≤ mant < 2^prec` (the mantissa is an LSB-aligned integer of
//! exactly `prec` significant bits, stored little-endian in `u64` limbs).
//! Equivalently, `value = 0.m₁m₂… × 2^exp` with the leading mantissa bit
//! set — MPFR's convention.
//!
//! The exponent is unbounded in practice (`i64`, like MPFR's 64-bit
//! exponent), so overflow/underflow arise only when demoting to `f64`.
//!
//! Asymptotics match MPFR's basecase paths — addition is `O(n)`,
//! multiplication schoolbook `O(n²)` (with a Karatsuba layer), division and
//! square root are built on the same primitives — which is what the Fig. 11
//! precision-sweep experiment characterizes.
//!
//! Mantissas up to 512 bits live inline in the value and every kernel works
//! in stack buffers (see [`limb`]), so at the paper's 200 bits no operation
//! or conversion allocates.

mod fixed;
pub mod limb;
mod transcendental;

pub use transcendental::*;

use crate::flags::{FpFlags, Round};
use crate::softfp::CmpResult;
use limb::{shift_left_into, shift_right_into, LimbBuf, Scratch, MANT_INLINE};
use std::cmp::Ordering;

mod ctx;
pub use ctx::BigFloatCtx;

/// Value class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ±0.
    Zero,
    /// Finite nonzero.
    Finite,
    /// ±∞.
    Inf,
    /// Not a number.
    Nan,
}

/// Mantissa storage: inline up to [`MANT_INLINE`] limbs.
type Mant = LimbBuf<MANT_INLINE>;

/// An arbitrary-precision binary floating point number.
#[derive(Debug, Clone)]
pub struct BigFloat {
    sign: bool,
    kind: Kind,
    exp: i64,
    mant: Mant,
    prec: u32,
}

/// Minimum supported precision in bits.
pub const MIN_PREC: u32 = 2;

impl BigFloat {
    /// ±0 at the given precision.
    pub fn zero(sign: bool, prec: u32) -> Self {
        BigFloat {
            sign,
            kind: Kind::Zero,
            exp: 0,
            mant: Mant::zeroed(1),
            prec,
        }
    }

    /// ±∞.
    pub fn inf(sign: bool, prec: u32) -> Self {
        BigFloat {
            sign,
            kind: Kind::Inf,
            exp: 0,
            mant: Mant::zeroed(1),
            prec,
        }
    }

    /// NaN.
    pub fn nan(prec: u32) -> Self {
        BigFloat {
            sign: false,
            kind: Kind::Nan,
            exp: 0,
            mant: Mant::zeroed(1),
            prec,
        }
    }

    /// Construct from an integer mantissa with unit weight `2^unit_exp`,
    /// rounding to `prec` bits: `value = (-1)^sign × (mant + ε) × 2^unit_exp`
    /// where `0 ≤ ε < 1` and `sticky` says whether `ε > 0`.
    ///
    /// Returns the value and whether rounding was inexact.
    pub fn from_int(
        sign: bool,
        unit_exp: i64,
        mant: &[u64],
        sticky: bool,
        prec: u32,
        rm: Round,
    ) -> (Self, bool) {
        let prec = prec.max(MIN_PREC);
        let lz = limb::leading_zeros(mant);
        let total_bits = mant.len() as u64 * 64;
        if lz as u64 == total_bits {
            // Zero mantissa: value is ε — either exact zero or a tiny
            // sticky residue (rounds to 0 or 1 ulp depending on mode).
            if !sticky {
                return (BigFloat::zero(sign, prec), false);
            }
            let up = match rm {
                Round::Up => !sign,
                Round::Down => sign,
                _ => false,
            };
            if up {
                // Smallest representable magnitude above 0 at this unit:
                // 1 × 2^unit_exp scaled down to prec bits.
                let mut m = Mant::zeroed((prec as usize).div_ceil(64));
                let top = (prec - 1) as usize;
                m[top / 64] = 1 << (top % 64);
                let v = BigFloat {
                    sign,
                    kind: Kind::Finite,
                    exp: unit_exp + 1,
                    mant: m,
                    prec,
                };
                return (v, true);
            }
            return (BigFloat::zero(sign, prec), true);
        }
        let bitlen = total_bits - u64::from(lz); // number of significant bits
        let nlimbs = (prec as usize).div_ceil(64);
        let exp = unit_exp + bitlen as i64; // value in [2^(exp-1), 2^exp)
        let mut m: Mant;
        let mut inexact = sticky;
        let mut round_up = false;
        if bitlen as i64 > i64::from(prec) {
            // Cut bits below the precision: capture round + sticky.
            let cut = (bitlen - u64::from(prec)) as usize;
            let round_bit = bit_at(mant, cut - 1);
            let mut low_sticky = sticky;
            if !low_sticky {
                low_sticky = any_bits_below(mant, cut - 1);
            }
            m = shift_right_into(mant, cut, nlimbs);
            inexact = round_bit || low_sticky;
            round_up = match rm {
                Round::NearestEven => round_bit && (low_sticky || m[0] & 1 == 1),
                Round::Up => inexact && !sign,
                Round::Down => inexact && sign,
                Round::Zero => false,
            };
        } else {
            // Widen to exactly prec bits.
            let shift = (i64::from(prec) - bitlen as i64) as usize;
            m = shift_left_into(mant, shift, nlimbs);
            if sticky {
                round_up = match rm {
                    Round::Up => !sign,
                    Round::Down => sign,
                    _ => false, // ε < half an ulp here only if shift > 0;
                                // for shift == 0 ε < 1 ulp: RNE rounds down
                                // unless ε ≥ 1/2, which sticky alone cannot
                                // attest — callers providing sticky guarantee
                                // ε below the rounding boundary (guard bits).
                };
            }
        }
        let mut exp = exp;
        if round_up {
            let carry = limb::add_assign(&mut m, &[1]);
            let top_bit = (prec - 1) as usize;
            if carry || m[top_bit / 64] >> (top_bit % 64) > 1 || bit_at(&m, prec as usize) {
                // Mantissa overflowed to 2^prec: renormalize.
                limb::shr_small(&mut m, 1);
                let top = &mut m[top_bit / 64];
                *top |= 1 << (top_bit % 64);
                exp += 1;
            }
        }
        (
            BigFloat {
                sign,
                kind: Kind::Finite,
                exp,
                mant: m,
                prec,
            },
            inexact,
        )
    }

    /// Exact conversion from `f64` at the given precision (inexact only if
    /// `prec < 53` requires rounding).
    pub fn from_f64(x: f64, prec: u32, rm: Round) -> (Self, FpFlags) {
        if x.is_nan() {
            return (BigFloat::nan(prec), FpFlags::NONE);
        }
        if x.is_infinite() {
            return (BigFloat::inf(x < 0.0, prec), FpFlags::NONE);
        }
        if x == 0.0 {
            return (BigFloat::zero(x.is_sign_negative(), prec), FpFlags::NONE);
        }
        let bits = x.to_bits();
        let sign = bits >> 63 == 1;
        let biased = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & 0x000F_FFFF_FFFF_FFFF;
        let (mant, unit) = if biased == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1 << 52), biased - 1075)
        };
        let (v, inexact) = BigFloat::from_int(sign, unit, &[mant], false, prec, rm);
        let flags = if inexact {
            FpFlags::INEXACT
        } else {
            FpFlags::NONE
        };
        (v, flags)
    }

    /// Round (demote) to `f64`, with overflow/underflow/inexact flags.
    pub fn to_f64(&self, rm: Round) -> (f64, FpFlags) {
        match self.kind {
            Kind::Nan => (f64::NAN, FpFlags::NONE),
            Kind::Inf => (
                if self.sign {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                FpFlags::NONE,
            ),
            Kind::Zero => (if self.sign { -0.0 } else { 0.0 }, FpFlags::NONE),
            Kind::Finite => {
                // Normal range: exp in [-1021, 1024].
                if self.exp > 1024 {
                    let v = match rm {
                        Round::Zero => f64::MAX,
                        Round::Down if !self.sign => f64::MAX,
                        Round::Up if self.sign => f64::MIN,
                        _ => f64::INFINITY,
                    };
                    let v = if self.sign && v.is_infinite() {
                        f64::NEG_INFINITY
                    } else if self.sign && v == f64::MAX {
                        f64::MIN
                    } else {
                        v
                    };
                    return (v, FpFlags::OVERFLOW | FpFlags::INEXACT);
                }
                // Round once to 53 bits with the exponent unbounded: x64
                // masked-mode tininess is judged on THIS result (IEEE
                // "after rounding"), and whenever the result is not tiny
                // it is also exactly the value to deliver.
                let (r53, ix53) = BigFloat::from_int(
                    self.sign,
                    self.exp - i64::from(self.prec),
                    &self.mant,
                    false,
                    53,
                    rm,
                );
                // Rounding can carry past the overflow boundary.
                if r53.exp > 1024 {
                    return (
                        if self.sign {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        },
                        FpFlags::OVERFLOW | FpFlags::INEXACT,
                    );
                }
                // Tiny ⇔ |r53| < 2^-1021-1 (min normal); |r53| ∈
                // [2^(exp−1), 2^exp) makes that an exponent test.
                let tiny = r53.exp <= -1022;
                if !tiny {
                    // Normal result: r53 is the delivered value, and the
                    // bounded rounding agrees with the unbounded one.
                    let m53 = widen_to_53(&r53);
                    let e = r53.exp - 1; // unbiased IEEE exponent
                    let bits = ((e + 1023) as u64) << 52 | (m53 & 0x000F_FFFF_FFFF_FFFF);
                    let value = f64::from_bits(bits);
                    let flags = if ix53 {
                        FpFlags::INEXACT
                    } else {
                        FpFlags::NONE
                    };
                    return (if self.sign { -value } else { value }, flags);
                }
                // Tiny result: round the ORIGINAL mantissa directly onto
                // the subnormal grid, m = round(|x| / 2^-1074). Going back
                // through `from_int` would re-round r53 (double rounding)
                // and its MIN_PREC floor can't express the 1-bit precision
                // of the lowest binades. Raise UNDERFLOW iff the delivery
                // is inexact — tiny *and* inexact, the masked-x64 rule.
                // `|x| = mant × 2^(exp − prec)`, so `m_exact = mant × 2^k`.
                let k = self.exp - i64::from(self.prec) + 1074;
                let mut m: u64;
                let inexact;
                if k >= 0 {
                    // Exact left shift: tininess bounds the result under
                    // 2^53, so only the low limb can be populated.
                    debug_assert!(self.mant.iter().skip(1).all(|&l| l == 0));
                    m = self.mant[0] << k;
                    inexact = false;
                } else {
                    let cut = (-k) as usize;
                    let round_bit = bit_at(&self.mant, cut - 1);
                    let sticky = any_bits_below(&self.mant, cut - 1);
                    m = shift_right_into::<1>(&self.mant, cut, 1)[0];
                    inexact = round_bit || sticky;
                    let up = match rm {
                        Round::NearestEven => round_bit && (sticky || m & 1 == 1),
                        Round::Up => inexact && !self.sign,
                        Round::Down => inexact && self.sign,
                        Round::Zero => false,
                    };
                    if up {
                        m += 1;
                    }
                }
                let flags = if inexact {
                    // Tininess was judged on the unbounded rounding above,
                    // so UNDERFLOW applies even if the grid rounding
                    // carries up to the min-normal boundary.
                    FpFlags::UNDERFLOW | FpFlags::INEXACT
                } else {
                    FpFlags::NONE
                };
                // m ∈ [0, 2^52]: the subnormal encodings, with m = 2^52
                // landing exactly on the min-normal bit pattern.
                debug_assert!(m <= 1 << 52);
                let value = f64::from_bits(m);
                (if self.sign { -value } else { value }, flags)
            }
        }
    }

    /// Truncate toward zero and return `(sign, |integer part|, inexact)`
    /// exactly, for values with `|x| < 2^127`. `None` for NaN, ±∞, or
    /// out-of-range magnitudes.
    pub fn to_integer_parts(&self) -> Option<(bool, u128, bool)> {
        match self.kind {
            Kind::Zero => return Some((self.sign, 0, false)),
            Kind::Finite => {}
            _ => return None,
        }
        if self.exp <= 0 {
            return Some((self.sign, 0, true)); // |x| < 1, nonzero
        }
        if self.exp > 127 {
            return None;
        }
        // integer = mant × 2^(exp − prec), truncated.
        let frac_bits = i64::from(self.prec) - self.exp;
        if frac_bits <= 0 {
            // Pure left shift; exp ≤ 127 bounds the result.
            let mut mag = 0u128;
            for (i, &l) in self.mant.iter().enumerate() {
                if l != 0 {
                    let pos = i as i64 * 64 - frac_bits;
                    if pos >= 128 {
                        return None;
                    }
                    mag |= u128::from(l) << pos;
                }
            }
            return Some((self.sign, mag, false));
        }
        let inexact = any_bits_below(&self.mant, frac_bits as usize);
        let shifted: LimbBuf<2> = shift_right_into(&self.mant, frac_bits as usize, 2);
        let mag = u128::from(shifted[0]) | (u128::from(shifted[1]) << 64);
        Some((self.sign, mag, inexact))
    }

    /// Sign bit (true = negative). Meaningful for zero and infinity too.
    pub fn sign(&self) -> bool {
        self.sign
    }

    /// Value class.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Precision in bits.
    pub fn prec(&self) -> u32 {
        self.prec
    }

    /// Binary exponent: for finite nonzero values, `|x| ∈ [2^(exp−1), 2^exp)`.
    pub fn exp(&self) -> i64 {
        self.exp
    }

    /// True for NaN.
    pub fn is_nan(&self) -> bool {
        self.kind == Kind::Nan
    }

    /// True for ±0.
    pub fn is_zero(&self) -> bool {
        self.kind == Kind::Zero
    }

    /// True for ±∞.
    pub fn is_inf(&self) -> bool {
        self.kind == Kind::Inf
    }

    /// Negate (exact).
    pub fn neg(&self) -> Self {
        let mut r = self.clone();
        if r.kind != Kind::Nan {
            r.sign = !r.sign;
        }
        r
    }

    /// Absolute value (exact).
    pub fn abs(&self) -> Self {
        let mut r = self.clone();
        if r.kind != Kind::Nan {
            r.sign = false;
        }
        r
    }

    /// Compare magnitudes of two finite nonzero values.
    fn cmp_mag(&self, other: &Self) -> Ordering {
        debug_assert!(self.kind == Kind::Finite && other.kind == Kind::Finite);
        match self.exp.cmp(&other.exp) {
            Ordering::Equal => {}
            ord => return ord,
        }
        // Compare mantissas MSB-first (different precisions allowed).
        let na = self.mant.len();
        let nb = other.mant.len();
        let n = na.max(nb);
        for i in 0..n {
            // i-th limb from the top of each (mantissas are LSB-aligned with
            // MSB at prec-1; align by comparing top-aligned bit windows).
            let a = top_window(&self.mant, self.prec, i);
            let b = top_window(&other.mant, other.prec, i);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Total IEEE comparison (None = unordered).
    pub fn partial_cmp_ieee(&self, other: &Self) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            return None;
        }
        let a_zero = self.is_zero();
        let b_zero = other.is_zero();
        if a_zero && b_zero {
            return Some(Ordering::Equal);
        }
        // Order by sign first (-x < +y), with zero sign ignored vs nonzero.
        let sa = if a_zero { false } else { self.sign };
        let sb = if b_zero { false } else { other.sign };
        let a_neg = !a_zero && self.sign;
        let b_neg = !b_zero && other.sign;
        let _ = (sa, sb);
        if a_zero {
            return Some(if b_neg {
                Ordering::Greater
            } else {
                Ordering::Less
            });
        }
        if b_zero {
            return Some(if a_neg {
                Ordering::Less
            } else {
                Ordering::Greater
            });
        }
        match (a_neg, b_neg) {
            (true, false) => return Some(Ordering::Less),
            (false, true) => return Some(Ordering::Greater),
            _ => {}
        }
        let mag = match (self.kind, other.kind) {
            (Kind::Inf, Kind::Inf) => Ordering::Equal,
            (Kind::Inf, _) => Ordering::Greater,
            (_, Kind::Inf) => Ordering::Less,
            _ => self.cmp_mag(other),
        };
        Some(if a_neg { mag.reverse() } else { mag })
    }

    /// Render as a decimal string with `digits` significant digits
    /// (used by the output wrapper to show full shadow precision).
    pub fn to_decimal(&self, digits: usize) -> String {
        match self.kind {
            Kind::Nan => return "nan".to_string(),
            Kind::Inf => return if self.sign { "-inf" } else { "inf" }.to_string(),
            Kind::Zero => return if self.sign { "-0.0" } else { "0.0" }.to_string(),
            Kind::Finite => {}
        }
        // Scale to an integer with `digits` decimal digits:
        // |x| = m × 2^(exp - prec); d10 ≈ floor(exp × log10(2)).
        let exp10 = (self.exp as f64 * std::f64::consts::LOG10_2).floor() as i64;
        // n = |x| × 10^(digits - 1 - exp10), rounded.
        let shift10 = digits as i64 - 1 - exp10;
        let mut num = self.mant.to_vec();
        let mut bin_exp = self.exp - i64::from(self.prec); // unit exponent
                                                           // Multiply by 10^shift10 (or divide).
        let (p10, neg10) = (shift10.unsigned_abs(), shift10 < 0);
        let ten = pow10_limbs(p10);
        if !neg10 {
            num = limb::mul(&num, &ten);
        } else {
            // num / 10^p: scale numerator up to keep precision, divide.
            let extra = ten.len() + 2;
            let mut scaled = vec![0u64; extra];
            scaled.extend_from_slice(&num);
            num = scaled;
            bin_exp -= extra as i64 * 64;
            let mut den = ten.clone();
            let lz = limb::leading_zeros(&den) % 64;
            let mut n2 = num.clone();
            n2.push(0);
            limb::shl_small(&mut den, lz);
            limb::shl_small(&mut n2, lz);
            let (q, _) = limb::divrem(&n2, &den);
            num = q;
        }
        // Now apply the binary exponent.
        if bin_exp > 0 {
            let extra = (bin_exp as usize).div_ceil(64);
            num.resize(num.len() + extra, 0);
            let limb_shift = bin_exp as usize / 64;
            num.rotate_right(limb_shift);
            limb::shl_small(&mut num, (bin_exp % 64) as u32);
        } else if bin_exp < 0 {
            // Round-to-nearest: add half an ulp of the discarded range.
            let sh = (-bin_exp) as usize;
            let mut half = vec![0u64; sh / 64 + 1];
            half[(sh - 1) / 64] = 1u64 << ((sh - 1) % 64);
            num.resize(num.len().max(half.len()) + 1, 0);
            limb::add_assign(&mut num, &half);
            let len = num.len().saturating_sub(sh / 64).max(1);
            let shifted: Scratch = shift_right_into(&num, sh, len);
            num = shifted.to_vec();
        }
        let dec = limbs_to_decimal(&limb::trim(&num));
        let dec = if dec.len() > digits {
            // The log10 estimate was off by one: drop a digit (rounded).
            round_decimal_string(&dec, digits)
        } else {
            dec
        };
        // value = dec × 10^(exp10 + 1 − digits); as d.ddd… × 10^K the
        // decimal exponent is K = exp10 + (len − digits).
        let exp10_final = exp10 + (dec.len() as i64 - digits as i64);
        let sign = if self.sign { "-" } else { "" };
        if dec.len() == 1 {
            format!("{sign}{dec}e{exp10_final}")
        } else {
            format!("{sign}{}.{}e{}", &dec[..1], &dec[1..], exp10_final)
        }
    }
}

/// Bit `i` (from the LSB) of a limb slice.
fn bit_at(a: &[u64], i: usize) -> bool {
    a.get(i / 64).is_some_and(|&l| l >> (i % 64) & 1 == 1)
}

/// True if any bit strictly below position `i` is set.
fn any_bits_below(a: &[u64], i: usize) -> bool {
    let limb_i = i / 64;
    for (j, &l) in a.iter().enumerate() {
        if j < limb_i {
            if l != 0 {
                return true;
            }
        } else if j == limb_i {
            return l & ((1u64 << (i % 64)) - 1) != 0;
        }
    }
    false
}

/// The `i`-th 64-bit window from the top of a prec-bit mantissa, for
/// magnitude comparison between values of different precision.
fn top_window(mant: &[u64], prec: u32, i: usize) -> u64 {
    // Bit position of the top of window i (exclusive): prec - 64*i.
    let top = i64::from(prec) - 64 * i as i64;
    if top <= 0 {
        return 0;
    }
    // Bits [top-64, top): two limb shifts, or the bottom limb moved up
    // when the window hangs below bit 0.
    let lo_bit = top - 64;
    if lo_bit < 0 {
        return mant[0] << -lo_bit;
    }
    let (limb, off) = (lo_bit as usize / 64, lo_bit as u32 % 64);
    let lo = mant.get(limb).copied().unwrap_or(0) >> off;
    let hi = match off {
        0 => 0,
        _ => mant.get(limb + 1).copied().unwrap_or(0) << (64 - off),
    };
    lo | hi
}

/// Widen a ≤53-bit mantissa to exactly 53 bits as a u64.
fn widen_to_53(r: &BigFloat) -> u64 {
    debug_assert!(r.prec <= 64);
    let m = r.mant[0];
    if r.prec >= 53 {
        m >> (r.prec - 53)
    } else {
        m << (53 - r.prec)
    }
}

/// 10^p as limbs.
fn pow10_limbs(p: u64) -> Vec<u64> {
    let mut out = vec![1u64];
    for _ in 0..p {
        let mut carry = 0u128;
        for l in out.iter_mut() {
            let t = u128::from(*l) * 10 + carry;
            *l = t as u64;
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
    }
    out
}

/// Decimal string of a limb integer.
fn limbs_to_decimal(a: &[u64]) -> String {
    if limb::is_zero(a) {
        return "0".to_string();
    }
    let mut digits = Vec::new();
    let mut cur = a.to_vec();
    while !limb::is_zero(&cur) {
        // Divide by 10^19 (largest power of 10 in u64) for speed.
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut rem = 0u128;
        for i in (0..cur.len()).rev() {
            let t = (rem << 64) | u128::from(cur[i]);
            cur[i] = (t / u128::from(CHUNK)) as u64;
            rem = t % u128::from(CHUNK);
        }
        cur = limb::trim(&cur);
        if limb::is_zero(&cur) {
            digits.push(format!("{rem}"));
        } else {
            digits.push(format!("{rem:019}"));
        }
    }
    digits.reverse();
    digits.concat()
}

/// Round a decimal digit string to `n` digits (half-up).
fn round_decimal_string(s: &str, n: usize) -> String {
    if s.len() <= n {
        return s.to_string();
    }
    let keep: Vec<u8> = s.as_bytes()[..n].to_vec();
    let next = s.as_bytes()[n];
    let mut keep = keep;
    if next >= b'5' {
        let mut i = n;
        loop {
            if i == 0 {
                keep.insert(0, b'1');
                keep.pop();
                break;
            }
            i -= 1;
            if keep[i] == b'9' {
                keep[i] = b'0';
            } else {
                keep[i] += 1;
                break;
            }
        }
    }
    String::from_utf8(keep).unwrap()
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// NaN propagation + invalid detection for two-operand ops. Returns the
/// special-case result if either input is NaN.
fn check_nan2(a: &BigFloat, b: &BigFloat, prec: u32) -> Option<(BigFloat, FpFlags)> {
    if a.is_nan() || b.is_nan() {
        Some((BigFloat::nan(prec), FpFlags::NONE))
    } else {
        None
    }
}

fn inexact_flag(inexact: bool) -> FpFlags {
    if inexact {
        FpFlags::INEXACT
    } else {
        FpFlags::NONE
    }
}

/// Correctly-rounded addition to `prec` bits.
pub fn add(a: &BigFloat, b: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    add_signed(a, b, b.sign, prec, rm)
}

/// Correctly-rounded subtraction.
pub fn sub(a: &BigFloat, b: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    add_signed(a, b, !b.sign, prec, rm)
}

/// `a + b` with `b`'s sign read as `sb`, so subtraction needs no negated
/// copy of `b`.
fn add_signed(a: &BigFloat, b: &BigFloat, sb: bool, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    if let Some(r) = check_nan2(a, b, prec) {
        return r;
    }
    let sa = a.sign;
    match (a.kind, b.kind) {
        (Kind::Inf, Kind::Inf) => {
            if sa == sb {
                return (BigFloat::inf(sa, prec), FpFlags::NONE);
            }
            return (BigFloat::nan(prec), FpFlags::INVALID);
        }
        (Kind::Inf, _) => return (BigFloat::inf(sa, prec), FpFlags::NONE),
        (_, Kind::Inf) => return (BigFloat::inf(sb, prec), FpFlags::NONE),
        (Kind::Zero, Kind::Zero) => {
            let sign = if sa == sb { sa } else { rm == Round::Down };
            return (BigFloat::zero(sign, prec), FpFlags::NONE);
        }
        (Kind::Zero, _) => {
            let unit = b.exp - i64::from(b.prec);
            let (r, ix) = BigFloat::from_int(sb, unit, &b.mant, false, prec, rm);
            return (r, inexact_flag(ix));
        }
        (_, Kind::Zero) => {
            let (r, ix) = round_to(a, prec, rm);
            return (r, inexact_flag(ix));
        }
        _ => {}
    }
    // Both finite nonzero. Order by magnitude: x is the larger.
    let ord = a.cmp_mag(b);
    if sa != sb && ord == Ordering::Equal {
        let sign = rm == Round::Down;
        return (BigFloat::zero(sign, prec), FpFlags::NONE);
    }
    let ((x, sx), (y, sy)) = if ord == Ordering::Less {
        ((b, sb), (a, sa))
    } else {
        ((a, sa), (b, sb))
    };
    // Working window: target precision + one guard limb + headroom, aligned
    // to x's MSB — and always wide enough to hold ALL of x (whose own
    // precision may exceed the target, e.g. when re-rounding downward), so
    // no x bits are silently dropped without reaching the sticky path.
    let wl = (prec.max(x.prec) as usize).div_ceil(64) + 2;
    // Operands held inline fit a stack window.
    if wl <= ADD_INLINE {
        let (mut w, mut wy) = ([0u64; ADD_INLINE], [0u64; ADD_INLINE]);
        add_in_window(&mut w[..wl], &mut wy[..wl], (x, sx), (y, sy), prec, rm)
    } else {
        let (mut w, mut wy) = (Scratch::zeroed(wl), Scratch::zeroed(wl));
        add_in_window(&mut w, &mut wy, (x, sx), (y, sy), prec, rm)
    }
}

/// Limbs of the stack window `add` uses for inline operands.
const ADD_INLINE: usize = MANT_INLINE + 2;

/// `x + y` for finite nonzero `|x| > |y|` with signs `sx`, `sy`, in the
/// zeroed `wl`-limb windows `w` and `wy`.
fn add_in_window(
    w: &mut [u64],
    wy: &mut [u64],
    (x, sx): (&BigFloat, bool),
    (y, sy): (&BigFloat, bool),
    prec: u32,
    rm: Round,
) -> (BigFloat, FpFlags) {
    let ex = x.exp - i64::from(x.prec); // unit exponent of x's mantissa
    let wbits = w.len() as u64 * 64;
    // Place x's MSB at bit (wbits - 2): one headroom bit at the top.
    let msb_target = wbits as i64 - 2;
    let x_msb = i64::from(x.prec) - 1; // x's MSB position within its mantissa
    let x_cut = place(w, &x.mant, msb_target - x_msb);
    debug_assert!(!x_cut, "x must fit in the window exactly above guard");
    // y's MSB goes d bits lower (d = weighted exponent difference).
    let y_msb_target = msb_target - (x.exp - y.exp);
    let shift_y = y_msb_target - (i64::from(y.prec) - 1);
    let mut sticky = place(wy, &y.mant, shift_y);
    let unit = ex + x_msb - msb_target; // weight of window bit 0
    if sx == sy {
        let carry = limb::add_assign(w, wy);
        debug_assert!(!carry, "headroom bit absorbs the carry");
    } else {
        let borrow = limb::sub_assign(w, wy);
        debug_assert!(!borrow, "x has the larger magnitude");
        if sticky {
            // True value is (w - δ) with 0 < δ < 1: bracket as w-1 + ε.
            let borrow = limb::sub_assign(w, &[1]);
            debug_assert!(!borrow);
            if limb::is_zero(w) {
                // Cancellation down to below one window ulp can only happen
                // when d was huge and w was exactly 1; the result is then
                // dominated by the sticky residue.
                sticky = true;
            }
        }
    }
    let (r, ix) = BigFloat::from_int(sx, unit, w, sticky, prec, rm);
    (r, inexact_flag(ix))
}

/// Place a mantissa into the zeroed window `out` shifted by `shift` bits
/// (positive = left). Returns whether bits were shifted below the window
/// (the sticky bit).
fn place(out: &mut [u64], mant: &[u64], shift: i64) -> bool {
    if shift >= 0 {
        limb::shift_left_to(out, mant, shift as usize);
        return false;
    }
    let cut = (-shift) as usize;
    if cut >= mant.len() * 64 {
        !limb::is_zero(mant)
    } else {
        limb::shift_right_to(out, mant, cut);
        any_bits_below(mant, cut)
    }
}

/// Re-round an existing value to a (possibly smaller) precision.
pub fn round_to(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, bool) {
    match a.kind {
        Kind::Finite => {
            BigFloat::from_int(a.sign, a.exp - i64::from(a.prec), &a.mant, false, prec, rm)
        }
        _ => {
            let mut r = a.clone();
            r.prec = prec;
            (r, false)
        }
    }
}

/// Correctly-rounded multiplication to `prec` bits.
pub fn mul(a: &BigFloat, b: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    if let Some(r) = check_nan2(a, b, prec) {
        return r;
    }
    let sign = a.sign != b.sign;
    match (a.kind, b.kind) {
        (Kind::Zero, Kind::Inf) | (Kind::Inf, Kind::Zero) => {
            return (BigFloat::nan(prec), FpFlags::INVALID)
        }
        (Kind::Inf, _) | (_, Kind::Inf) => return (BigFloat::inf(sign, prec), FpFlags::NONE),
        (Kind::Zero, _) | (_, Kind::Zero) => return (BigFloat::zero(sign, prec), FpFlags::NONE),
        _ => {}
    }
    let product = limb::mul_buf(&a.mant, &b.mant);
    let unit = (a.exp - i64::from(a.prec)) + (b.exp - i64::from(b.prec));
    let (r, ix) = BigFloat::from_int(sign, unit, &product, false, prec, rm);
    (r, inexact_flag(ix))
}

/// Correctly-rounded division to `prec` bits.
pub fn div(a: &BigFloat, b: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    if let Some(r) = check_nan2(a, b, prec) {
        return r;
    }
    let sign = a.sign != b.sign;
    match (a.kind, b.kind) {
        (Kind::Inf, Kind::Inf) | (Kind::Zero, Kind::Zero) => {
            return (BigFloat::nan(prec), FpFlags::INVALID)
        }
        (Kind::Inf, _) => return (BigFloat::inf(sign, prec), FpFlags::NONE),
        (_, Kind::Inf) => return (BigFloat::zero(sign, prec), FpFlags::NONE),
        (Kind::Zero, _) => return (BigFloat::zero(sign, prec), FpFlags::NONE),
        (_, Kind::Zero) => return (BigFloat::inf(sign, prec), FpFlags::DIVZERO),
        _ => {}
    }
    // Extend the numerator so the integer quotient carries ≥ prec + 2 bits:
    // quotient bits ≈ 64·(nn − nd) − Δ with Δ ∈ {0, 1}.
    let nd = b.mant.len();
    let extra = (prec as usize + 2).div_ceil(64) + 1 + nd.saturating_sub(a.mant.len());
    let mut num = Scratch::zeroed(extra + a.mant.len());
    num[extra..].copy_from_slice(&a.mant);
    let (q, r) = limb::divrem_buf(&num, &b.mant);
    let sticky = !limb::is_zero(&r);
    // a / b = q × 2^(ua − ub − 64·extra) where ua, ub are unit exponents.
    let unit = (a.exp - i64::from(a.prec)) - (b.exp - i64::from(b.prec)) - 64 * extra as i64;
    let (res, ix) = BigFloat::from_int(sign, unit, &q, sticky, prec, rm);
    (res, inexact_flag(ix))
}

/// `a · k` for a machine integer `k`, correctly rounded to `prec` bits:
/// the same value and flags as [`mul`] by `k` converted to a `BigFloat`,
/// from one pass of limb-by-word products.
pub fn mul_u64(a: &BigFloat, k: u64, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    match a.kind {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Inf if k == 0 => return (BigFloat::nan(prec), FpFlags::INVALID),
        Kind::Inf => return (BigFloat::inf(a.sign, prec), FpFlags::NONE),
        Kind::Zero => return (BigFloat::zero(a.sign, prec), FpFlags::NONE),
        Kind::Finite if k == 0 => return (BigFloat::zero(a.sign, prec), FpFlags::NONE),
        Kind::Finite => {}
    }
    let mut product = Scratch::zeroed(a.mant.len() + 1);
    limb::mul_limb_add(&mut product, &a.mant, k);
    let unit = a.exp - i64::from(a.prec);
    let (r, ix) = BigFloat::from_int(a.sign, unit, &product, false, prec, rm);
    (r, inexact_flag(ix))
}

/// `a / k` for a nonzero machine integer `k`, correctly rounded to `prec`
/// bits: the same value and flags as [`div`] by `k` converted to a
/// `BigFloat`, from one pass of word divisions.
pub fn div_u64(a: &BigFloat, k: u64, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    assert!(k != 0, "division by zero");
    match a.kind {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Inf => return (BigFloat::inf(a.sign, prec), FpFlags::NONE),
        Kind::Zero => return (BigFloat::zero(a.sign, prec), FpFlags::NONE),
        Kind::Finite => {}
    }
    // As in `div`: extend the numerator so the quotient keeps ≥ prec + 2
    // bits after losing at most 64 to the divisor.
    let extra = (prec as usize + 2).div_ceil(64) + 1;
    let mut num = Scratch::zeroed(extra + a.mant.len());
    num[extra..].copy_from_slice(&a.mant);
    let rem = limb::div_limb_in_place(&mut num, k);
    let unit = a.exp - i64::from(a.prec) - 64 * extra as i64;
    let (r, ix) = BigFloat::from_int(a.sign, unit, &num, rem != 0, prec, rm);
    (r, inexact_flag(ix))
}

/// Correctly-rounded square root to `prec` bits.
pub fn sqrt(a: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    match a.kind {
        Kind::Nan => return (BigFloat::nan(prec), FpFlags::NONE),
        Kind::Zero => return (BigFloat::zero(a.sign, prec), FpFlags::NONE),
        Kind::Inf => {
            if a.sign {
                return (BigFloat::nan(prec), FpFlags::INVALID);
            }
            return (BigFloat::inf(false, prec), FpFlags::NONE);
        }
        Kind::Finite => {
            if a.sign {
                return (BigFloat::nan(prec), FpFlags::INVALID);
            }
        }
    }
    // value = m × 2^u. Shift m left so the total shift makes u even and m
    // carries ≥ 2·(prec + 2) bits; then sqrt(m·2^u) = isqrt(m) × 2^(u/2).
    let unit = a.exp - i64::from(a.prec);
    let want_bits = 2 * (prec as usize + 2) + 2;
    let have_bits = a.prec as usize; // significant bits, not storage bits
    let mut shift = want_bits.saturating_sub(have_bits) as i64;
    if (unit - shift) % 2 != 0 {
        shift += 1;
    }
    let nl = (have_bits + shift as usize).div_ceil(64);
    let m: Scratch = shift_left_into(&a.mant, shift as usize, nl);
    let (s, r) = limb::isqrt_buf(&m);
    let sticky = !limb::is_zero(&r);
    let (res, ix) = BigFloat::from_int(false, (unit - shift) / 2, &s, sticky, prec, rm);
    (res, inexact_flag(ix))
}

/// Fused multiply-add `a·b + c`, correctly rounded (single rounding).
pub fn fma(a: &BigFloat, b: &BigFloat, c: &BigFloat, prec: u32, rm: Round) -> (BigFloat, FpFlags) {
    if a.is_nan() || b.is_nan() || c.is_nan() {
        return (BigFloat::nan(prec), FpFlags::NONE);
    }
    // Compute the product exactly, then one rounded addition.
    let pa = a.prec + b.prec;
    let (p, pf) = mul(a, b, pa.max(MIN_PREC), Round::NearestEven);
    if pf.contains(FpFlags::INVALID) {
        return (BigFloat::nan(prec), FpFlags::INVALID);
    }
    debug_assert!(!pf.contains(FpFlags::INEXACT) || !p.kind.eq(&Kind::Finite));
    add(&p, c, prec, rm)
}

/// IEEE quiet comparison (`ucomisd` analogue). BigFloat has no signaling
/// NaNs of its own, so `IE` is raised only by [`cmp_signaling`].
pub fn cmp_quiet(a: &BigFloat, b: &BigFloat) -> (CmpResult, FpFlags) {
    match a.partial_cmp_ieee(b) {
        None => (CmpResult::Unordered, FpFlags::NONE),
        Some(Ordering::Less) => (CmpResult::Less, FpFlags::NONE),
        Some(Ordering::Equal) => (CmpResult::Equal, FpFlags::NONE),
        Some(Ordering::Greater) => (CmpResult::Greater, FpFlags::NONE),
    }
}

/// IEEE signaling comparison (`comisd` analogue): `IE` on unordered.
pub fn cmp_signaling(a: &BigFloat, b: &BigFloat) -> (CmpResult, FpFlags) {
    let (r, mut f) = cmp_quiet(a, b);
    if r == CmpResult::Unordered {
        f |= FpFlags::INVALID;
    }
    (r, f)
}

/// Round toward −∞ to an integral value (exact operation).
pub fn floor(a: &BigFloat, prec: u32) -> (BigFloat, FpFlags) {
    round_integral(a, prec, true)
}

/// Round toward +∞ to an integral value (exact operation).
pub fn ceil(a: &BigFloat, prec: u32) -> (BigFloat, FpFlags) {
    round_integral(a, prec, false)
}

#[allow(clippy::needless_range_loop)] // masks limbs around a bit boundary
fn round_integral(a: &BigFloat, prec: u32, is_floor: bool) -> (BigFloat, FpFlags) {
    match a.kind {
        Kind::Finite => {}
        _ => {
            let mut r = a.clone();
            r.prec = prec;
            return (r, FpFlags::NONE);
        }
    }
    if a.exp <= 0 {
        // |a| < 1.
        let down = a.sign == is_floor; // floor of negative / ceil of positive
        let r = if down {
            // Round away from zero to ±1.
            let (one, _) = BigFloat::from_f64(1.0, prec, Round::NearestEven);
            let mut one = one;
            one.sign = a.sign;
            one
        } else {
            BigFloat::zero(a.sign, prec)
        };
        return (r, FpFlags::NONE);
    }
    // Clear the fractional bits: bits below (prec - exp).
    let frac_bits = i64::from(a.prec) - a.exp;
    if frac_bits <= 0 {
        let (r, ix) = round_to(a, prec, Round::Zero);
        debug_assert!(!ix || prec < a.prec);
        return (r, inexact_flag(ix));
    }
    let mut m = a.mant.clone();
    let had_frac = any_bits_below(&m, frac_bits as usize);
    for i in 0..m.len() {
        let lo = frac_bits as usize;
        if (i + 1) * 64 <= lo {
            m[i] = 0;
        } else if i * 64 < lo {
            m[i] &= !((1u64 << (lo - i * 64)) - 1);
        }
    }
    let mut trunc = BigFloat {
        sign: a.sign,
        kind: Kind::Finite,
        exp: a.exp,
        mant: m,
        prec: a.prec,
    };
    if limb::is_zero(&trunc.mant) {
        trunc = BigFloat::zero(a.sign, a.prec);
    }
    if had_frac && a.sign == is_floor {
        // floor(neg) / ceil(pos): step away from zero by 1.
        let (one, _) = BigFloat::from_f64(if a.sign { -1.0 } else { 1.0 }, 64, Round::NearestEven);
        let (r, f) = add(&trunc, &one, prec, Round::NearestEven);
        debug_assert!(!f.contains(FpFlags::INEXACT) || prec < a.prec);
        return (r, f);
    }
    let (r, ix) = round_to(&trunc, prec, Round::Zero);
    (r, inexact_flag(ix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(x: f64, prec: u32) -> BigFloat {
        BigFloat::from_f64(x, prec, Round::NearestEven).0
    }

    fn to_f(v: &BigFloat) -> f64 {
        v.to_f64(Round::NearestEven).0
    }

    #[test]
    fn f64_roundtrip() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.5,
            std::f64::consts::PI,
            1e300,
            -1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            4.9e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let v = bf(x, 53);
            let (back, flags) = v.to_f64(Round::NearestEven);
            assert_eq!(back.to_bits(), x.to_bits(), "roundtrip of {x}");
            assert_eq!(flags, FpFlags::NONE, "roundtrip of {x} must be exact");
        }
        assert!(bf(f64::NAN, 53).is_nan());
    }

    #[test]
    fn add_matches_f64_at_53() {
        let xs = [1.0, 0.1, 0.2, -0.3, 1e20, -1e-20, 3.5, 1e-300];
        for &a in &xs {
            for &b in &xs {
                let (r, _) = add(&bf(a, 53), &bf(b, 53), 53, Round::NearestEven);
                assert_eq!(to_f(&r).to_bits(), (a + b).to_bits(), "{a} + {b}");
            }
        }
    }

    #[test]
    fn add_inexact_flag_matches() {
        let (_, f) = add(&bf(0.1, 53), &bf(0.2, 53), 53, Round::NearestEven);
        assert!(f.contains(FpFlags::INEXACT));
        let (_, f) = add(&bf(1.0, 53), &bf(2.0, 53), 53, Round::NearestEven);
        assert!(f.is_empty());
        // At higher precision 0.1+0.2 (the 53-bit values) is exact.
        let (_, f) = add(&bf(0.1, 53), &bf(0.2, 53), 120, Round::NearestEven);
        assert!(f.is_empty());
    }

    #[test]
    fn mul_matches_f64_at_53() {
        let xs = [1.0, 0.1, 0.2, -0.3, 1e20, -1e-20, 3.5, 7.0];
        for &a in &xs {
            for &b in &xs {
                let (r, _) = mul(&bf(a, 53), &bf(b, 53), 53, Round::NearestEven);
                assert_eq!(to_f(&r).to_bits(), (a * b).to_bits(), "{a} * {b}");
            }
        }
    }

    #[test]
    fn div_matches_f64_at_53() {
        let xs = [1.0, 0.1, 0.2, -0.3, 1e20, -1e-20, 3.5, 7.0];
        for &a in &xs {
            for &b in &xs {
                let (r, _) = div(&bf(a, 53), &bf(b, 53), 53, Round::NearestEven);
                assert_eq!(to_f(&r).to_bits(), (a / b).to_bits(), "{a} / {b}");
            }
        }
        let (r, f) = div(&bf(1.0, 53), &bf(0.0, 53), 53, Round::NearestEven);
        assert!(r.is_inf());
        assert!(f.contains(FpFlags::DIVZERO));
        let (r, f) = div(&bf(0.0, 53), &bf(0.0, 53), 53, Round::NearestEven);
        assert!(r.is_nan());
        assert!(f.contains(FpFlags::INVALID));
    }

    #[test]
    fn sqrt_matches_f64_at_53() {
        for x in [2.0, 3.0, 4.0, 0.25, 1e10, 1e-10, 123456.789] {
            let (r, _) = sqrt(&bf(x, 53), 53, Round::NearestEven);
            assert_eq!(to_f(&r).to_bits(), x.sqrt().to_bits(), "sqrt({x})");
        }
        let (r, f) = sqrt(&bf(-1.0, 53), 53, Round::NearestEven);
        assert!(r.is_nan());
        assert!(f.contains(FpFlags::INVALID));
        let (_, f) = sqrt(&bf(4.0, 53), 53, Round::NearestEven);
        assert!(f.is_empty(), "sqrt(4) exact");
        let (_, f) = sqrt(&bf(2.0, 53), 53, Round::NearestEven);
        assert!(f.contains(FpFlags::INEXACT));
    }

    #[test]
    fn higher_precision_is_more_accurate() {
        // 1/3 at 200 bits, times 3, re-rounded to 53 bits ≈ 1 much more
        // closely than the 53-bit computation.
        let one = bf(1.0, 200);
        let three = bf(3.0, 200);
        let (third, _) = div(&one, &three, 200, Round::NearestEven);
        let (recon, _) = mul(&third, &three, 200, Round::NearestEven);
        let (diff, _) = sub(&recon, &one, 200, Round::NearestEven);
        if !diff.is_zero() {
            // |diff| < 2^-198
            assert!(diff.exp() < -190, "exp = {}", diff.exp());
        }
    }

    #[test]
    fn cancellation_is_exact() {
        // Sterbenz: nearby values subtract exactly.
        let (r, f) = sub(
            &bf(1.0, 53),
            &bf(0.9999999999999999, 53),
            53,
            Round::NearestEven,
        );
        let expect = 1.0 - 0.9999999999999999;
        assert_eq!(to_f(&r), expect);
        assert!(f.is_empty());
    }

    #[test]
    fn directed_rounding() {
        let one = bf(1.0, 53);
        let three = bf(3.0, 53);
        let (down, _) = div(&one, &three, 53, Round::Down);
        let (up, _) = div(&one, &three, 53, Round::Up);
        let d = to_f(&down);
        let u = to_f(&up);
        assert!(d < u);
        assert_eq!(u, f64::from_bits(d.to_bits() + 1), "adjacent ulps");
        // The true 1/3 lies strictly between the two directed roundings.
        assert!(d <= 1.0 / 3.0 && u >= 1.0 / 3.0);
        // Round-to-zero on a negative quotient.
        let (z, _) = div(&bf(-1.0, 53), &three, 53, Round::Zero);
        assert_eq!(to_f(&z), -d);
    }

    #[test]
    fn comparisons() {
        assert_eq!(cmp_quiet(&bf(1.0, 53), &bf(2.0, 53)).0, CmpResult::Less);
        assert_eq!(cmp_quiet(&bf(2.0, 53), &bf(1.0, 53)).0, CmpResult::Greater);
        assert_eq!(cmp_quiet(&bf(1.0, 53), &bf(1.0, 53)).0, CmpResult::Equal);
        assert_eq!(cmp_quiet(&bf(0.0, 53), &bf(-0.0, 53)).0, CmpResult::Equal);
        assert_eq!(cmp_quiet(&bf(-1.0, 53), &bf(1.0, 53)).0, CmpResult::Less);
        let nan = BigFloat::nan(53);
        assert_eq!(cmp_quiet(&nan, &bf(1.0, 53)).0, CmpResult::Unordered);
        assert!(cmp_quiet(&nan, &bf(1.0, 53)).1.is_empty());
        assert!(cmp_signaling(&nan, &bf(1.0, 53))
            .1
            .contains(FpFlags::INVALID));
        // Cross-precision comparison.
        assert_eq!(cmp_quiet(&bf(1.5, 200), &bf(1.5, 53)).0, CmpResult::Equal);
    }

    #[test]
    fn floor_ceil() {
        for (x, fl, ce) in [
            (2.5, 2.0, 3.0),
            (-2.5, -3.0, -2.0),
            (2.0, 2.0, 2.0),
            (0.3, 0.0, 1.0),
            (-0.3, -1.0, 0.0),
            (0.0, 0.0, 0.0),
        ] {
            let v = bf(x, 53);
            assert_eq!(to_f(&floor(&v, 53).0), fl, "floor({x})");
            assert_eq!(to_f(&ceil(&v, 53).0), ce, "ceil({x})");
        }
    }

    #[test]
    fn fma_single_rounding() {
        // fma(x, y, -x*y_rounded) detects the rounding residual: with exact
        // fma the result equals the f64 residual computed by hardware fma.
        let x = 0.1f64;
        let y = 0.3f64;
        let p = x * y;
        let (r, _) = fma(&bf(x, 53), &bf(y, 53), &bf(-p, 53), 53, Round::NearestEven);
        assert_eq!(to_f(&r), x.mul_add(y, -p));
    }

    #[test]
    fn subnormal_demotion() {
        // A value in the f64 subnormal range demotes correctly.
        let huge = mul(&bf(1e300, 200), &bf(1e10, 200), 200, Round::NearestEven).0;
        let (v, _) = div(&bf(1.0, 200), &huge, 200, Round::NearestEven);
        // 1e-310 is subnormal.
        let (d, flags) = v.to_f64(Round::NearestEven);
        assert!(d > 0.0 && d.is_subnormal(), "demoted to {d}");
        assert!(flags.contains(FpFlags::INEXACT) || !flags.contains(FpFlags::UNDERFLOW));
        // Overflow on demotion.
        let big = mul(&bf(1e300, 200), &bf(1e300, 200), 200, Round::NearestEven).0;
        let (d, flags) = big.to_f64(Round::NearestEven);
        assert!(d.is_infinite());
        assert!(flags.contains(FpFlags::OVERFLOW));
    }

    #[test]
    fn underflow_judged_after_rounding() {
        // (1 − 2^-53)·2^-1022 is exact at 53 bits and tiny (just below the
        // min normal), but the 52-bit subnormal delivery rounds up to
        // exactly 2^-1022. x64 masked mode judges tininess after rounding
        // with unbounded exponent, so this is UNDERFLOW|INEXACT even
        // though the delivered value is normal.
        // Build (1 − 2^-53)·2^-1022 = (1.11…1₂ × 2^-1022) / 2 exactly —
        // the f64 literal 2^-1075 would underflow to zero.
        let a = bf((-1022f64).exp2(), 200);
        let num = bf(f64::from_bits(0x001F_FFFF_FFFF_FFFF), 200);
        let (v, vf) = div(&num, &bf(2.0, 200), 200, Round::NearestEven);
        assert!(vf.is_empty(), "construction must be exact");
        let (d, flags) = v.to_f64(Round::NearestEven);
        assert_eq!(d, f64::MIN_POSITIVE);
        assert_eq!(flags, FpFlags::UNDERFLOW | FpFlags::INEXACT);

        // Just above the boundary: 2^-1022 + 2^-1082 rounds (unbounded) to
        // exactly 2^-1022 — not tiny, so INEXACT only.
        let (eps, _) = div(&a, &bf(60f64.exp2(), 200), 200, Round::NearestEven);
        let (w, _) = add(&a, &eps, 200, Round::NearestEven);
        let (d, flags) = w.to_f64(Round::NearestEven);
        assert_eq!(d, f64::MIN_POSITIVE);
        assert_eq!(flags, FpFlags::INEXACT);

        // An exactly representable subnormal raises nothing.
        let (d, flags) = bf((-1073f64).exp2(), 200).to_f64(Round::NearestEven);
        assert!(d.is_subnormal());
        assert_eq!(flags, FpFlags::NONE);

        // Deep underflow still reports UNDERFLOW|INEXACT.
        let (q, _) = mul(
            &bf((-1000f64).exp2(), 200),
            &bf((-1000f64).exp2(), 200),
            200,
            Round::NearestEven,
        );
        let (d, flags) = q.to_f64(Round::NearestEven);
        assert_eq!(d, 0.0);
        assert_eq!(flags, FpFlags::UNDERFLOW | FpFlags::INEXACT);
    }

    #[test]
    fn decimal_rendering() {
        let v = bf(1.5, 53);
        let s = v.to_decimal(5);
        assert_eq!(s, "1.5000e0", "{s}");
        let v = bf(-0.125, 53);
        let s = v.to_decimal(3);
        assert_eq!(s, "-1.25e-1", "{s}");
        let v = bf(100.0, 53);
        assert_eq!(v.to_decimal(4), "1.000e2");
        let v = bf(1.0e10, 53);
        assert_eq!(v.to_decimal(3), "1.00e10");
        let v = bf(2.5e-7, 53);
        assert_eq!(v.to_decimal(2), "2.5e-7");
        assert_eq!(BigFloat::zero(false, 53).to_decimal(3), "0.0");
        assert_eq!(BigFloat::inf(true, 53).to_decimal(3), "-inf");
    }
}
