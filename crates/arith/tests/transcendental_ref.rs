//! Correct-rounding reference for the BigFloat transcendentals at the
//! paper's 200 bits.
//!
//! For every function and all four rounding modes, the 200-bit result must
//! equal the same function evaluated at 400 bits and rounded to 200 bits.
//! A 200-bit result is only faithful by construction (no Ziv loop), so this
//! checks that the evaluation error stays far below the rounding boundaries
//! on the argument shapes the workloads produce: FBench's ray angles and
//! refracted sines, NAS EP's uniform deviates, and the operand classes of
//! `bigfloat_pin` (full-width values, `f64`-converted values, small
//! integers).
//!
//! Excluded: tiny arguments (below about 2^-60), where sin, cos and exp
//! stop their series at an absolute 2^-wp cutoff. There `sin x = x` before
//! the final rounding, so a directed rounding of the 200-bit result can
//! differ from the 400-bit one by design.

use fpvm_arith::bigfloat::{self, BigFloat};
use fpvm_arith::{FpFlags, Round};

const P: u32 = 200;
const REF: u32 = 400;
const RMS: [Round; 4] = [Round::NearestEven, Round::Down, Round::Up, Round::Zero];

type Unary = fn(&BigFloat, u32, Round) -> (BigFloat, FpFlags);
type Binary = fn(&BigFloat, &BigFloat, u32, Round) -> (BigFloat, FpFlags);

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn sign(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// `x` widened to a full 200-bit value: the low bits a BigFloat guest's
/// arithmetic leaves below the `f64` ones.
fn full(rng: &mut Rng, x: f64) -> BigFloat {
    let v = BigFloat::from_f64(x, P, Round::NearestEven).0;
    let noise = [rng.next(), rng.next(), rng.next() >> 11];
    // Fill bits 54 and down: below the f64 ones, down past the 200th.
    let unit = v.exp() - 235;
    let (n, _) = BigFloat::from_int(false, unit, &noise, false, P, Round::NearestEven);
    bigfloat::add(&v, &n, P, Round::NearestEven).0
}

/// `n` arguments `shape(rng)`, alternately `f64`-exact and full-width.
fn args(seed: u64, n: usize, shape: impl Fn(&mut Rng) -> f64) -> Vec<BigFloat> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let x = shape(&mut rng);
            if i.is_multiple_of(2) {
                BigFloat::from_f64(x, P, Round::NearestEven).0
            } else {
                full(&mut rng, x)
            }
        })
        .collect()
}

/// The `bigfloat_pin` operand classes: |x| ≈ 2^[-10, 10] with random
/// mantissas, and small integers.
fn pin_like(rng: &mut Rng) -> f64 {
    let s = if rng.sign() { -1.0 } else { 1.0 };
    if rng.next().is_multiple_of(8) {
        return s * [1.0, 3.0, 10.0, 7.0][(rng.next() % 4) as usize];
    }
    s * (0.5 + rng.unit() / 2.0) * 2f64.powi((rng.next() % 21) as i32 - 10)
}

fn same(a: &BigFloat, b: &BigFloat) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn check_unary(name: &str, f: Unary, xs: &[BigFloat]) {
    for x in xs {
        let (wide, _) = f(x, REF, Round::NearestEven);
        for rm in RMS {
            let (got, _) = f(x, P, rm);
            let (want, _) = bigfloat::round_to(&wide, P, rm);
            assert!(
                same(&got, &want),
                "{name}({}) {rm:?}: {} != {}",
                x.to_decimal(70),
                got.to_decimal(70),
                want.to_decimal(70)
            );
        }
    }
}

fn check_binary(name: &str, f: Binary, pairs: &[(BigFloat, BigFloat)]) {
    for (a, b) in pairs {
        let (wide, _) = f(a, b, REF, Round::NearestEven);
        for rm in RMS {
            let (got, _) = f(a, b, P, rm);
            let (want, _) = bigfloat::round_to(&wide, P, rm);
            assert!(
                same(&got, &want),
                "{name}({}, {}) {rm:?}: {} != {}",
                a.to_decimal(70),
                b.to_decimal(70),
                got.to_decimal(70),
                want.to_decimal(70)
            );
        }
    }
}

const N: usize = 96;

#[test]
fn trigonometric_functions_round_like_the_400_bit_reference() {
    // FBench: incidence angles within a quarter turn either way.
    let angles = args(1, N, |r| (r.unit() - 0.5) * std::f64::consts::PI);
    let pins = args(2, N, pin_like);
    for (name, f) in [
        ("sin", bigfloat::sin as Unary),
        ("cos", bigfloat::cos),
        ("tan", bigfloat::tan),
        ("atan", bigfloat::atan),
    ] {
        check_unary(name, f, &angles);
        check_unary(name, f, &pins);
    }
}

#[test]
fn inverse_sines_round_like_the_400_bit_reference() {
    // FBench: refracted sines, anywhere in [-1, 1].
    let sines = args(3, 2 * N, |r| 2.0 * r.unit() - 1.0);
    check_unary("asin", bigfloat::asin, &sines);
    check_unary("acos", bigfloat::acos, &sines);
}

#[test]
fn logarithms_and_exp_round_like_the_400_bit_reference() {
    // NAS EP: logs of uniform deviates in (0, 1).
    let deviates = args(4, N, |r| r.unit().max(1e-300));
    let pins: Vec<BigFloat> = args(5, N, pin_like).iter().map(BigFloat::abs).collect();
    for (name, f) in [("log", bigfloat::log as Unary), ("log10", bigfloat::log10)] {
        check_unary(name, f, &deviates);
        check_unary(name, f, &pins);
    }
    check_unary("exp", bigfloat::exp, &args(6, N, pin_like));
}

#[test]
fn binary_functions_round_like_the_400_bit_reference() {
    let ys = args(7, N, pin_like);
    let xs = args(8, N, pin_like);
    let pairs: Vec<_> = ys.iter().cloned().zip(xs.iter().cloned()).collect();
    check_binary("atan2", bigfloat::atan2, &pairs);
    // pow(a, b) = exp(b·ln a) for a > 0 and non-integer b.
    let bases = args(9, N, |r| 0.25 + 4.0 * r.unit());
    let powers = args(10, N, |r| 8.0 * (r.unit() - 0.5));
    let pairs: Vec<_> = bases.into_iter().zip(powers).collect();
    check_binary("pow", bigfloat::pow, &pairs);
}
