//! Edge cases of the BigFloat limb kernels: the seeded Newton `isqrt` at
//! the widths where its seed and its u128 shortcut change shape, and
//! `divrem` on divisors whose low limbs are zero, which drops them and
//! divides by the rest (by a single limb when only one is left).

use fpvm_arith::bigfloat::limb;
use std::cmp::Ordering;

/// SplitMix64: tiny, deterministic, well-distributed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random integer of exactly `bits` significant bits.
    fn bits(&mut self, bits: usize) -> Vec<u64> {
        let mut a: Vec<u64> = (0..bits.div_ceil(64)).map(|_| self.next()).collect();
        let top = (bits - 1) % 64;
        let last = a.last_mut().unwrap();
        *last &= u64::MAX >> (63 - top);
        *last |= 1 << top;
        a
    }
}

fn sum(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = a.to_vec();
    out.resize(a.len().max(b.len()) + 1, 0);
    limb::add_assign(&mut out, b);
    out
}

/// `s² + r = a` and `r ≤ 2s`, i.e. `s² ≤ a < (s+1)²` with an exact
/// remainder.
fn check_isqrt(a: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let (s, r) = limb::isqrt(a);
    let recon = sum(&limb::mul(&s, &s), &r);
    assert_eq!(
        limb::cmp(&recon, a),
        Ordering::Equal,
        "s² + r ≠ a for {a:x?}"
    );
    let two_s = sum(&s, &s);
    assert_ne!(
        limb::cmp(&r, &two_s),
        Ordering::Greater,
        "a ≥ (s+1)² for {a:x?}"
    );
    (s, r)
}

#[test]
fn isqrt_matches_u128_isqrt() {
    let mut rng = Rng(1);
    let mut cases: Vec<u128> = vec![0, 1, 2, 3, 4, 5, 8, 9, 15, 16, 17, u128::MAX];
    for bits in 1..=128 {
        let v = rng.bits(bits);
        cases.push(u128::from(v[0]) | u128::from(v.get(1).copied().unwrap_or(0)) << 64);
    }
    for a in cases {
        let (s, r) = check_isqrt(&[a as u64, (a >> 64) as u64]);
        let s = u128::from(s[0]) | u128::from(s.get(1).copied().unwrap_or(0)) << 64;
        assert_eq!(s, a.isqrt(), "isqrt({a})");
        assert_eq!(
            limb::cmp(&r, &[(a - s * s) as u64, ((a - s * s) >> 64) as u64]),
            Ordering::Equal
        );
    }
}

#[test]
fn isqrt_at_seed_boundaries_and_multi_limb_widths() {
    let mut rng = Rng(2);
    let widths = [1, 125, 126, 127, 128, 129]
        .into_iter()
        .chain(252..=257)
        .chain([320, 383, 384, 385, 630, 1000, 2048, 4400]);
    for bits in widths {
        for _ in 0..8 {
            check_isqrt(&rng.bits(bits));
        }
        // All ones: the largest value of this width.
        let mut ones = vec![u64::MAX; bits.div_ceil(64)];
        *ones.last_mut().unwrap() >>= (64 - bits % 64) % 64;
        check_isqrt(&ones);
    }
}

#[test]
fn isqrt_of_squares_and_their_neighbours() {
    let mut rng = Rng(3);
    for bits in [1, 2, 31, 62, 63, 64, 65, 100, 127, 128, 129, 200, 315, 640] {
        for _ in 0..4 {
            let n = rng.bits(bits);
            let sq = limb::mul(&n, &n);
            // n² → (n, 0).
            let (s, r) = check_isqrt(&sq);
            assert_eq!(limb::cmp(&s, &n), Ordering::Equal);
            assert!(limb::is_zero(&r));
            // n² − 1 → (n − 1, 2n − 2).
            let mut below = sq.clone();
            limb::sub_assign(&mut below, &[1]);
            let (s, _) = check_isqrt(&below);
            let mut n_minus_1 = n.clone();
            limb::sub_assign(&mut n_minus_1, &[1]);
            assert_eq!(limb::cmp(&s, &n_minus_1), Ordering::Equal);
            // n² + 2n = (n+1)² − 1 → (n, 2n).
            let top = sum(&sq, &sum(&n, &n));
            let (s, r) = check_isqrt(&top);
            assert_eq!(limb::cmp(&s, &n), Ordering::Equal);
            assert_eq!(limb::cmp(&r, &sum(&n, &n)), Ordering::Equal);
        }
    }
}

/// `num = q·den + r` with `r < den`.
fn check_divrem(num: &[u64], den: &[u64]) {
    let (q, r) = limb::divrem(num, den);
    assert_eq!(limb::cmp(&r, den), Ordering::Less, "r ≥ den");
    let recon = sum(&limb::mul(&q, den), &r);
    assert_eq!(limb::cmp(&recon, num), Ordering::Equal, "q·den + r ≠ num");
}

#[test]
fn divrem_on_divisors_with_zero_low_limbs() {
    let mut rng = Rng(4);
    for nd in 2..=6 {
        for zeros in 1..nd {
            for nn in [nd - 1, nd, nd + 1, nd + 5] {
                for _ in 0..6 {
                    let mut den: Vec<u64> = (0..nd).map(|_| rng.next()).collect();
                    den[..zeros].fill(0);
                    den[nd - 1] |= 1 << 63;
                    let mut num: Vec<u64> = (0..nn).map(|_| rng.next()).collect();
                    check_divrem(&num, &den);
                    // Numerators sharing the divisor's zero low limbs, and
                    // exact multiples of the divisor.
                    num[..zeros.min(nn)].fill(0);
                    check_divrem(&num, &den);
                    let mul = limb::mul(&num, &den);
                    check_divrem(&mul, &den);
                }
            }
        }
    }
    // An f64 widened to 200 bits and normalized: one significant limb.
    let den = [0, 0, 0, 0xC000_0000_0000_0000];
    check_divrem(&[7, 0, 0, 0, 0, 0, 0, 1 << 40], &den);
}
