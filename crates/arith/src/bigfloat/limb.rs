//! Limb-level integer primitives for [`super::BigFloat`] mantissas.
//!
//! Mantissas are little-endian slices of `u64` limbs. Everything here is
//! plain integer arithmetic; the floating-point semantics (exponents,
//! rounding, flags) live in the parent module.
//!
//! Multiplication is schoolbook `O(n²)` with a Karatsuba layer above a
//! threshold; division is Knuth's Algorithm D, with a single-limb path for
//! divisors of at most 64 significant bits. These give the same asymptotic
//! profile as MPFR's basecase paths, which is what the Fig. 11
//! precision-scaling experiment measures.
//!
//! The public entry points return `Vec`s. The parent module uses the
//! `*_buf` variants, which work in [`LimbBuf`]s: limbs held on the stack up
//! to a fixed count, so the paper's 200-bit configuration never touches the
//! heap. Wider operands (Fig. 11, the conformance oracle's sweeps) spill
//! transparently.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Limbs per Karatsuba recursion threshold (empirically reasonable; also an
/// ablation knob for the bench suite).
pub const KARATSUBA_THRESHOLD: usize = 32;

/// Limbs a mantissa keeps inline: 512 bits. The transcendentals work at
/// 280–480 bits for a 200-bit target; only `acos` of |x| > 1/√2 and
/// trigonometric arguments above 2^150 go deeper and spill.
pub(crate) const MANT_INLINE: usize = 8;

/// Limbs a scratch buffer keeps inline: enough for the product of two
/// inline mantissas, a division numerator extended to the target precision,
/// and the square-root radicand of a 512-bit target.
pub(crate) const SCRATCH_INLINE: usize = 3 * MANT_INLINE;

/// Scratch buffer for intermediate results.
pub(crate) type Scratch = LimbBuf<SCRATCH_INLINE>;

/// A little-endian limb vector that keeps up to `N` limbs inline and
/// spills to the heap above that.
#[derive(Clone)]
pub(crate) enum LimbBuf<const N: usize> {
    Inline { len: u32, limbs: [u64; N] },
    Heap(Vec<u64>),
}

impl<const N: usize> LimbBuf<N> {
    /// `len` zero limbs.
    pub(crate) fn zeroed(len: usize) -> Self {
        if len <= N {
            LimbBuf::Inline {
                len: len as u32,
                limbs: [0; N],
            }
        } else {
            LimbBuf::Heap(vec![0; len])
        }
    }

    /// A copy of `a`.
    pub(crate) fn from_slice(a: &[u64]) -> Self {
        let mut b = Self::zeroed(a.len());
        b.copy_from_slice(a);
        b
    }

    /// Strip high zero limbs (keeping at least one limb).
    pub(crate) fn trim(&mut self) {
        let n = significant_len(self).max(1);
        match self {
            LimbBuf::Inline { len, .. } => *len = n as u32,
            LimbBuf::Heap(v) => v.truncate(n),
        }
    }
}

impl<const N: usize> Deref for LimbBuf<N> {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            LimbBuf::Inline { len, limbs } => &limbs[..*len as usize],
            LimbBuf::Heap(v) => v,
        }
    }
}

impl<const N: usize> DerefMut for LimbBuf<N> {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            LimbBuf::Inline { len, limbs } => &mut limbs[..*len as usize],
            LimbBuf::Heap(v) => v,
        }
    }
}

impl<const N: usize> fmt::Debug for LimbBuf<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Number of limbs up to and including the highest nonzero one.
fn significant_len(a: &[u64]) -> usize {
    a.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1)
}

/// Compare two little-endian limb slices as integers (lengths may differ).
pub fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    let n = a.len().max(b.len());
    for i in (0..n).rev() {
        let ai = a.get(i).copied().unwrap_or(0);
        let bi = b.get(i).copied().unwrap_or(0);
        match ai.cmp(&bi) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// `a += b` (in place, little-endian); returns the final carry.
pub fn add_assign(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert!(a.len() >= b.len());
    let mut carry = false;
    for i in 0..b.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        a[i] = s2;
        carry = c1 || c2;
    }
    let mut i = b.len();
    while carry && i < a.len() {
        let (s, c) = a[i].overflowing_add(1);
        a[i] = s;
        carry = c;
        i += 1;
    }
    carry
}

/// `a -= b` (in place); requires `a >= b`. Returns the final borrow, which
/// is always false when the precondition holds.
pub fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert!(a.len() >= b.len());
    let mut borrow = false;
    for i in 0..b.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        a[i] = d2;
        borrow = b1 || b2;
    }
    let mut i = b.len();
    while borrow && i < a.len() {
        let (d, bo) = a[i].overflowing_sub(1);
        a[i] = d;
        borrow = bo;
        i += 1;
    }
    borrow
}

/// Shift left by `bits < 64` in place; returns the bits shifted out of the
/// top limb.
pub fn shl_small(a: &mut [u64], bits: u32) -> u64 {
    debug_assert!(bits < 64);
    if bits == 0 {
        return 0;
    }
    let mut carry = 0u64;
    for limb in a.iter_mut() {
        let new_carry = *limb >> (64 - bits);
        *limb = (*limb << bits) | carry;
        carry = new_carry;
    }
    carry
}

/// Shift right by `bits < 64` in place; returns the bits shifted out of the
/// bottom limb (left-aligned in the returned u64).
pub fn shr_small(a: &mut [u64], bits: u32) -> u64 {
    debug_assert!(bits < 64);
    if bits == 0 {
        return 0;
    }
    let mut carry = 0u64;
    for limb in a.iter_mut().rev() {
        let new_carry = *limb << (64 - bits);
        *limb = (*limb >> bits) | carry;
        carry = new_carry;
    }
    carry
}

/// `a >> cut` into exactly `nlimbs` limbs (higher result bits are dropped).
pub(crate) fn shift_right_into<const N: usize>(a: &[u64], cut: usize, nlimbs: usize) -> LimbBuf<N> {
    let mut out = LimbBuf::zeroed(nlimbs);
    shift_right_to(&mut out, a, cut);
    out
}

/// `a >> cut` into the zeroed `out` (higher result bits are dropped).
pub(crate) fn shift_right_to(out: &mut [u64], a: &[u64], cut: usize) {
    let src = a.get(cut / 64..).unwrap_or(&[]);
    let bits = (cut % 64) as u32;
    let m = out.len().min(src.len());
    if bits == 0 {
        out[..m].copy_from_slice(&src[..m]);
        return;
    }
    for i in 0..m {
        let hi = src.get(i + 1).map_or(0, |&h| h << (64 - bits));
        out[i] = src[i] >> bits | hi;
    }
}

/// `a << shift` into exactly `nlimbs` limbs (higher result bits are dropped).
pub(crate) fn shift_left_into<const N: usize>(
    a: &[u64],
    shift: usize,
    nlimbs: usize,
) -> LimbBuf<N> {
    let mut out = LimbBuf::zeroed(nlimbs);
    shift_left_to(&mut out, a, shift);
    out
}

/// `a << shift` into the zeroed `out` (higher result bits are dropped).
pub(crate) fn shift_left_to(out: &mut [u64], a: &[u64], shift: usize) {
    let Some(dst) = out.get_mut(shift / 64..) else {
        return;
    };
    let bits = (shift % 64) as u32;
    let m = dst.len().min(a.len());
    if bits == 0 {
        dst[..m].copy_from_slice(&a[..m]);
        return;
    }
    for i in 0..m {
        dst[i] |= a[i] << bits;
        if let Some(d) = dst.get_mut(i + 1) {
            *d |= a[i] >> (64 - bits);
        }
    }
}

/// Number of leading zero bits of the slice viewed as an integer with
/// `a.len() * 64` bits. Returns the full width for zero.
pub fn leading_zeros(a: &[u64]) -> u32 {
    for (i, &limb) in a.iter().enumerate().rev() {
        if limb != 0 {
            return (a.len() - 1 - i) as u32 * 64 + limb.leading_zeros();
        }
    }
    a.len() as u32 * 64
}

/// True if all limbs are zero.
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&x| x == 0)
}

/// Schoolbook multiplication: `out = a * b`. `out` must have length
/// `a.len() + b.len()` and be zeroed by the caller.
fn mul_schoolbook(out: &mut [u64], a: &[u64], b: &[u64]) {
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = u128::from(ai) * u128::from(bj) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = u128::from(out[k]) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
}

/// `out = a * b` into a zeroed `out` of length `a.len() + b.len()`.
/// Dispatches to Karatsuba above [`KARATSUBA_THRESHOLD`].
fn mul_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        mul_schoolbook(out, a, b);
    } else {
        mul_karatsuba(out, a, b);
    }
}

/// Full multiplication: returns `a * b` as a fresh `a.len() + b.len()` limb
/// vector. Dispatches to Karatsuba above [`KARATSUBA_THRESHOLD`].
pub fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    mul_into(&mut out, a, b);
    out
}

/// [`mul`] into a scratch buffer.
pub(crate) fn mul_buf(a: &[u64], b: &[u64]) -> Scratch {
    let mut out = Scratch::zeroed(a.len() + b.len());
    mul_into(&mut out, a, b);
    out
}

/// Schoolbook-only multiplication (ablation entry point for the bench
/// suite's Karatsuba-vs-schoolbook comparison).
pub fn mul_basecase(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    mul_schoolbook(&mut out, a, b);
    out
}

/// Karatsuba multiplication into `out` (length `a.len() + b.len()`, zeroed).
fn mul_karatsuba(out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = a.len().min(b.len());
    if n < KARATSUBA_THRESHOLD {
        mul_schoolbook(out, a, b);
        return;
    }
    let half = n / 2;
    let (a0, a1) = a.split_at(half);
    let (b0, b1) = b.split_at(half);
    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)*(b0+b1) - z0 - z2
    let z0 = mul(a0, b0);
    let z2 = mul(a1, b1);
    let mut sa = vec![0u64; a1.len().max(a0.len()) + 1];
    sa[..a0.len()].copy_from_slice(a0);
    add_assign(&mut sa, a1);
    let mut sb = vec![0u64; b1.len().max(b0.len()) + 1];
    sb[..b0.len()].copy_from_slice(b0);
    add_assign(&mut sb, b1);
    let mut z1 = mul(&sa, &sb);
    // z1 -= z0 + z2 (never underflows).
    sub_assign(&mut z1, &z0);
    sub_assign(&mut z1, &z2);
    // out = z0 + (z1 << 64*half) + (z2 << 64*2*half)
    out[..z0.len()].copy_from_slice(&z0);
    let carry = add_assign(&mut out[half..], &z1);
    debug_assert!(!carry);
    let carry = add_assign(&mut out[2 * half..], &z2);
    debug_assert!(!carry);
}

/// Knuth Algorithm D: divide the `m + n` limb integer `num` by the `n` limb
/// integer `den` (with `den`'s top limb's MSB set — normalized). Returns
/// `(quotient, remainder)` with `num = quotient * den + remainder` and
/// `remainder < den`: `m + 1` quotient limbs and `n` remainder limbs.
pub fn divrem(num: &[u64], den: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = den.len();
    assert!(n > 0 && den[n - 1] >> 63 == 1, "divisor must be normalized");
    if cmp(num, den) == Ordering::Less {
        return (vec![0], num.to_vec());
    }
    let (q, r) = divrem_buf(num, den);
    // A normalized divisor bounds the quotient below 2^(64·m + 1).
    let m = num.len() - n;
    debug_assert!(is_zero(&q[m + 1..]));
    (q[..=m].to_vec(), r.to_vec())
}

/// `(⌊num / den⌋, num mod den)` for any nonzero `den`, in scratch buffers;
/// the remainder has as many limbs as `den` has significant ones.
///
/// After normalization the divisor's all-zero low limbs are dropped and
/// the numerator's matching limbs pass straight into the remainder, so a
/// divisor of at most 64 significant bits — a small integer, or an `f64`
/// widened to many limbs — takes the single-limb path instead of Knuth D.
pub(crate) fn divrem_buf(num: &[u64], den: &[u64]) -> (Scratch, Scratch) {
    let top = significant_len(den);
    assert!(top > 0, "division by zero");
    if num.len() + 1 < top {
        // num < den: nothing to divide.
        let mut r = Scratch::zeroed(top);
        r[..num.len()].copy_from_slice(num);
        return (Scratch::zeroed(1), r);
    }
    // Normalize: shift both so the divisor's top bit is set. `u` gets one
    // limb for the bits shifted out of `num` and Knuth D's extra high limb.
    let shift = den[top - 1].leading_zeros();
    let mut d = Scratch::from_slice(&den[..top]);
    shl_small(&mut d, shift);
    let mut u = Scratch::zeroed(num.len() + 2);
    u[..num.len()].copy_from_slice(num);
    shl_small(&mut u, shift);
    // u = hi·B^low + lo, so u mod d = (hi mod d')·B^low + lo with
    // d = d'·B^low: divide hi = u[low..] in place and leave lo alone.
    let low = d.iter().position(|&l| l != 0).expect("nonzero divisor");
    let d = &d[low..];
    let q = if d.len() == 1 {
        let mut q = Scratch::zeroed(u.len() - low);
        // d' is one limb, so the remainder is u[..low] and this limb.
        u[low] = divrem_by_limb(&mut q, &u[low..], d[0]);
        q
    } else {
        let mut q = Scratch::zeroed(u.len() - low - d.len());
        knuth_d(&mut q, &mut u[low..], d);
        q
    };
    let mut r = Scratch::from_slice(&u[..top]);
    shr_small(&mut r, shift);
    (q, r)
}

/// Knuth D's main loop. `u` is the numerator with one extra high limb
/// (`m + n + 1` limbs), `den` is normalized with `n ≥ 2` limbs and `q` has
/// `m + 1` limbs. On return `q` holds the quotient and `u[..n]` the
/// remainder.
fn knuth_d(q: &mut [u64], u: &mut [u64], den: &[u64]) {
    let n = den.len();
    let m = u.len() - n - 1;
    debug_assert!(n >= 2 && den[n - 1] >> 63 == 1 && q.len() == m + 1);
    let d1 = u128::from(den[n - 1]);
    let d0 = u128::from(den[n - 2]);
    let v = reciprocal(den[n - 1]);
    for j in (0..=m).rev() {
        // Estimate q̂ from the top three numerator limbs and top two divisor
        // limbs. The partial remainder keeps u[j+n] ≤ d1; at equality the
        // two-limb quotient would overflow, so q̂ is clamped to B − 1.
        let (mut qhat, mut rhat) = if u[j + n] < den[n - 1] {
            let (q, r) = div_2by1(u[j + n], u[j + n - 1], den[n - 1], v);
            (u128::from(q), u128::from(r))
        } else {
            let hi = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let q = u128::from(u64::MAX);
            (q, hi - q * d1)
        };
        while rhat <= u128::from(u64::MAX) && qhat * d0 > (rhat << 64 | u128::from(u[j + n - 2])) {
            qhat -= 1;
            rhat += d1;
        }
        // Multiply-subtract: u[j..j+n+1] -= qhat * den.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * u128::from(den[i]) + carry;
            carry = p >> 64;
            let t = i128::from(u[j + i]) - i128::from(p as u64) - borrow;
            u[j + i] = t as u64;
            borrow = i64::from(t < 0) as i128;
        }
        let t = i128::from(u[j + n]) - i128::from(carry as u64) - borrow;
        u[j + n] = t as u64;
        if t < 0 {
            // q̂ was one too large: add back.
            qhat -= 1;
            let mut c = false;
            for i in 0..n {
                let (s1, c1) = u[j + i].overflowing_add(den[i]);
                let (s2, c2) = s1.overflowing_add(u64::from(c));
                u[j + i] = s2;
                c = c1 || c2;
            }
            u[j + n] = u[j + n].wrapping_add(u64::from(c));
        }
        q[j] = qhat as u64;
    }
}

/// `⌊(B² − 1) / d⌋ − B` for a normalized `d` (B = 2^64): the reciprocal
/// [`div_2by1`] multiplies by instead of dividing.
fn reciprocal(d: u64) -> u64 {
    debug_assert!(d >> 63 == 1);
    ((u128::from(!d) << 64 | u128::from(u64::MAX)) / u128::from(d)) as u64
}

/// `(⌊(u1·B + u0) / d⌋, remainder)` for a normalized `d` with `u1 < d`,
/// given `v = reciprocal(d)`: two multiplications and at most two
/// corrections in place of a 128-by-64-bit division (Möller & Granlund,
/// "Improved division by invariant integers", 2011, Algorithm 4).
fn div_2by1(u1: u64, u0: u64, d: u64, v: u64) -> (u64, u64) {
    debug_assert!(d >> 63 == 1 && u1 < d);
    let p = (u128::from(v) * u128::from(u1)).wrapping_add(u128::from(u1) << 64 | u128::from(u0));
    let mut q = ((p >> 64) as u64).wrapping_add(1);
    let mut r = u0.wrapping_sub(q.wrapping_mul(d));
    if r > p as u64 {
        q = q.wrapping_sub(1);
        r = r.wrapping_add(d);
    }
    if r >= d {
        q += 1;
        r -= d;
    }
    (q, r)
}

/// Divide `num` by the normalized single limb `d` into `q` (`num.len()`
/// limbs); returns the remainder. Each limb costs a [`div_2by1`].
fn divrem_by_limb(q: &mut [u64], num: &[u64], d: u64) -> u64 {
    let v = reciprocal(d);
    let mut rem = 0;
    for i in (0..num.len()).rev() {
        let (qi, r) = div_2by1(rem, num[i], d, v);
        q[i] = qi;
        rem = r;
    }
    rem
}

/// `a ← ⌊a / d⌋` in place for any nonzero single-limb `d`; returns the
/// remainder. Dividing `a·2^s` by the normalized `d·2^s` gives the same
/// quotient, so the shift is applied on the fly while streaming the limbs.
pub(crate) fn div_limb_in_place(a: &mut [u64], d: u64) -> u64 {
    assert!(d != 0, "division by zero");
    let s = d.leading_zeros();
    let dn = d << s;
    let v = reciprocal(dn);
    let n = a.len();
    let mut rem = if s == 0 { 0 } else { a[n - 1] >> (64 - s) };
    for i in (0..n).rev() {
        let below = if s == 0 || i == 0 {
            0
        } else {
            a[i - 1] >> (64 - s)
        };
        let (q, r) = div_2by1(rem, a[i] << s | below, dn, v);
        a[i] = q;
        rem = r;
    }
    rem >> s
}

/// `acc += a · k`; returns the carry out of `acc`'s top limb.
pub(crate) fn mul_limb_add(acc: &mut [u64], a: &[u64], k: u64) -> bool {
    debug_assert!(acc.len() > a.len());
    let mut carry = 0u64;
    for (i, &ai) in a.iter().enumerate() {
        let t = u128::from(ai) * u128::from(k) + u128::from(acc[i]) + u128::from(carry);
        acc[i] = t as u64;
        carry = (t >> 64) as u64;
    }
    add_assign(&mut acc[a.len()..], &[carry])
}

/// Integer square root with remainder: returns `(s, r)` with `s² + r = a`
/// and `s² ≤ a < (s+1)²`.
///
/// Newton's method from above. The seed comes from the top ≤126 bits `t`
/// of `a` (`a` shifted down by an even `2k`): the `f64` square root of `t`,
/// nudged up, and one `u128` Newton step give `s ≥ ⌊√t⌋` good to ~63 bits,
/// and `(s + 1)·2^k > √a` starts the iteration. A 600-bit radicand then
/// converges in three or four divisions, the first by a single limb. The
/// integer root is unique, so the seed changes the cost, never the result.
pub fn isqrt(a: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let (s, r) = isqrt_buf(a);
    (s.to_vec(), r.to_vec())
}

/// [`isqrt`] into scratch buffers (both trimmed to at least one limb).
pub(crate) fn isqrt_buf(a: &[u64]) -> (Scratch, Scratch) {
    let a = &a[..significant_len(a)];
    if a.is_empty() {
        return (Scratch::zeroed(1), Scratch::zeroed(1));
    }
    let bits = a.len() * 64 - leading_zeros(a) as usize;
    let k = bits.saturating_sub(126).div_ceil(2);
    let top: LimbBuf<2> = shift_right_into(a, 2 * k, 2);
    let t = u128::from(top[0]) | (u128::from(top[1]) << 64);
    // √t < 2^63. The truncated f64 root is within 2^-52 relative and one
    // absolute of it; adding 2^-50 of itself plus one lifts it to (about)
    // the root or above. A Newton step never lands below ⌊√t⌋ (AM-GM), and
    // from this close it lands within one of it.
    let y = (t as f64).sqrt() as u128;
    let x0 = y + (y >> 50) + 1;
    let mut x1 = (x0 + t / x0) / 2;
    if k == 0 {
        // The whole radicand fits in u128: finish there.
        loop {
            let next = (x1 + t / x1) / 2;
            if next >= x1 {
                break;
            }
            x1 = next;
        }
        let r = t - x1 * x1;
        let mut r = Scratch::from_slice(&[r as u64, (r >> 64) as u64]);
        r.trim();
        return (Scratch::from_slice(&[x1 as u64]), r);
    }
    let seed = x1 + 1;
    let mut x: Scratch = shift_left_into(
        &[seed as u64, (seed >> 64) as u64],
        k,
        (k + 65).div_ceil(64),
    );
    x.trim();
    // Newton: x' = ⌊(x + ⌊a/x⌋) / 2⌋ decreases strictly while x > ⌊√a⌋
    // and stops moving down once x = ⌊√a⌋, i.e. when ⌊a/x⌋ ≥ x.
    loop {
        let (mut q, _) = divrem_buf(a, &x);
        q.trim();
        if cmp(&q, &x) != Ordering::Less {
            break;
        }
        let mut next = Scratch::zeroed(x.len() + 1);
        next[..x.len()].copy_from_slice(&x);
        add_assign(&mut next, &q);
        shr_small(&mut next, 1);
        next.trim();
        x = next;
    }
    // r = a − x².
    let mut sq = mul_buf(&x, &x);
    sq.trim();
    let mut r = Scratch::from_slice(a);
    let borrow = sub_assign(&mut r, &sq);
    debug_assert!(!borrow, "isqrt overshoot");
    r.trim();
    (x, r)
}

/// Strip high zero limbs (keeping at least one limb).
pub fn trim(a: &[u64]) -> Vec<u64> {
    let mut end = a.len();
    while end > 1 && a[end - 1] == 0 {
        end -= 1;
    }
    a[..end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let mut a = vec![u64::MAX, u64::MAX, 0];
        let b = vec![1];
        assert!(!add_assign(&mut a, &b));
        assert_eq!(a, vec![0, 0, 1]);
        assert!(!sub_assign(&mut a, &b));
        assert_eq!(a, vec![u64::MAX, u64::MAX, 0]);
    }

    #[test]
    fn add_carry_out() {
        let mut a = vec![u64::MAX];
        assert!(add_assign(&mut a, &[1]));
        assert_eq!(a, vec![0]);
    }

    #[test]
    fn shifts() {
        let mut a = vec![0x8000_0000_0000_0000, 1];
        let out = shl_small(&mut a, 1);
        assert_eq!(out, 0);
        assert_eq!(a, vec![0, 3]);
        let out = shr_small(&mut a, 1);
        assert_eq!(out, 0, "bottom limb was even — nothing shifted out");
        assert_eq!(a, vec![0x8000_0000_0000_0000, 1]);
        // Odd bottom limb loses its low bit on a right shift.
        let mut b = vec![3u64, 0];
        let out = shr_small(&mut b, 1);
        assert_eq!(out, 0x8000_0000_0000_0000);
        assert_eq!(b, vec![1, 0]);
    }

    #[test]
    fn lz() {
        assert_eq!(leading_zeros(&[0, 0]), 128);
        assert_eq!(leading_zeros(&[1, 0]), 127);
        assert_eq!(leading_zeros(&[0, 1]), 63);
        assert_eq!(leading_zeros(&[0, 1 << 63]), 0);
    }

    #[test]
    fn mul_small() {
        assert_eq!(mul(&[3], &[5]), vec![15, 0]);
        assert_eq!(mul(&[u64::MAX], &[u64::MAX]), vec![1, u64::MAX - 1]);
        // (2^64 + 1) * (2^64 + 1) = 2^128 + 2^65 + 1
        assert_eq!(mul(&[1, 1], &[1, 1]), vec![1, 2, 1, 0]);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Deterministic pseudo-random limbs, sizes straddling the threshold.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [
            KARATSUBA_THRESHOLD - 1,
            KARATSUBA_THRESHOLD,
            KARATSUBA_THRESHOLD * 2 + 3,
            KARATSUBA_THRESHOLD * 4,
        ] {
            let a: Vec<u64> = (0..n).map(|_| next()).collect();
            let b: Vec<u64> = (0..n + 7).map(|_| next()).collect();
            assert_eq!(mul(&a, &b), mul_basecase(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn divrem_reconstructs() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for nd in [1usize, 2, 3, 5] {
            for nn in [nd, nd + 1, nd + 4] {
                let mut den: Vec<u64> = (0..nd).map(|_| next()).collect();
                den[nd - 1] |= 1 << 63; // normalize
                let num: Vec<u64> = (0..nn).map(|_| next()).collect();
                let (q, r) = divrem(&num, &den);
                assert_eq!(cmp(&r, &den), Ordering::Less);
                // q*den + r == num
                let mut recon = mul(&q, &den);
                recon.resize(recon.len().max(r.len()) + 1, 0);
                add_assign(&mut recon, &r);
                assert_eq!(cmp(&recon, &num), Ordering::Equal);
            }
        }
    }

    #[test]
    fn divrem_buf_reconstructs_for_any_divisor() {
        let mut state = 0x0F1E_2D3C_4B5A_6978u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for nd in 1usize..=5 {
            for zeros in 0..nd {
                for nn in [nd - 1, nd, nd + 3] {
                    for shift in [0, 1, 17, 63] {
                        // Unnormalized: the top limb has `shift` leading zeros.
                        let mut den: Vec<u64> = (0..nd).map(|_| next()).collect();
                        den[..zeros].fill(0);
                        den[nd - 1] = (den[nd - 1] | 1 << 63) >> shift;
                        let num: Vec<u64> = (0..nn).map(|_| next()).collect();
                        let (q, r) = divrem_buf(&num, &den);
                        assert_eq!(r.len(), nd);
                        assert_eq!(cmp(&r, &den), Ordering::Less);
                        let mut recon = mul(&q, &den);
                        recon.resize(recon.len().max(nn) + 1, 0);
                        add_assign(&mut recon, &r);
                        assert_eq!(cmp(&recon, &num), Ordering::Equal);
                    }
                }
            }
        }
    }

    #[test]
    fn div_by_normalized_limb_matches_u128_division() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for k in 0..2000 {
            let d = match k % 3 {
                0 => next() | 1 << 63,
                1 => 1 << 63 | (k as u64 % 5),
                _ => u64::MAX - (k as u64 % 3),
            };
            let num = [next(), next(), next() >> (k % 64)];
            let mut q = [0u64; 3];
            let rem = divrem_by_limb(&mut q, &num, d);
            // Reference: schoolbook with u128 division.
            let mut r = 0u128;
            for i in (0..3).rev() {
                let cur = r << 64 | u128::from(num[i]);
                assert_eq!(u128::from(q[i]), cur / u128::from(d), "d = {d:#x}");
                r = cur % u128::from(d);
            }
            assert_eq!(u128::from(rem), r);
        }
    }

    #[test]
    fn single_limb_kernels_match_u128_arithmetic() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for k in 0..500 {
            let d = match k % 4 {
                0 => next(),
                1 => next() >> (k % 64),
                2 => 1 + k as u64,
                _ => 1 << (k % 64),
            }
            .max(1);
            let a = [next(), next() >> (k % 17), next()];
            let mut q = a;
            let rem = div_limb_in_place(&mut q, d);
            let mut r = 0u128;
            for i in (0..3).rev() {
                let cur = r << 64 | u128::from(a[i]);
                assert_eq!(u128::from(q[i]), cur / u128::from(d), "d = {d:#x}");
                r = cur % u128::from(d);
            }
            assert_eq!(u128::from(rem), r);
            // a·d + r rebuilds from the scalar multiply-add.
            let mut acc = [0u64; 4];
            acc[..1].copy_from_slice(&[rem]);
            assert!(!mul_limb_add(&mut acc, &q, d));
            assert_eq!(acc[..3], a);
            assert_eq!(acc[3], 0);
        }
    }

    #[test]
    fn isqrt_exact_and_inexact() {
        let (s, r) = isqrt(&[144]);
        assert_eq!(s, vec![12]);
        assert!(is_zero(&r));
        let (s, r) = isqrt(&[145]);
        assert_eq!(s, vec![12]);
        assert_eq!(r, vec![1]);
        // Large: (2^100)² = 2^200.
        let mut a = vec![0u64; 4];
        a[3] = 1 << (200 - 192);
        let (s, r) = isqrt(&a);
        let mut expect = vec![0u64; 2];
        expect[1] = 1 << (100 - 64);
        assert_eq!(trim(&s), expect);
        assert!(is_zero(&r));
    }
}
