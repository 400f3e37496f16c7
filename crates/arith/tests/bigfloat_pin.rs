//! Bit-exact pin of BigFloat results.
//!
//! Every basic operation (`add`/`sub`/`mul`/`div`/`sqrt`/`fma`/`round_to`/
//! `floor`/`cmp_quiet`) at precisions 53…4400, and every transcendental at
//! the paper's 200 bits, is run over seeded operands: full-width values,
//! values converted from `f64` (at the target precision and at 53 bits),
//! small integers and the special values. Each result is folded into an
//! FNV-1a 64 hash of (sign, kind, exp, prec, mantissa limbs, flags), one hash
//! per (operation, precision), and compared against the recorded constant.
//!
//! Kernel rewrites must leave every value and flag unchanged, so these
//! constants never move. The mantissa limbs are read through the public API
//! only (`scale2`, `to_integer_parts`, exact `from_int`/`sub`), so the file
//! builds against any version of the crate that has that API.
//!
//! On a mismatch the test prints the whole table as computed, ready to
//! compare against `PINS`.

use fpvm_arith::bigfloat::{self, BigFloat, Kind};
use fpvm_arith::{CmpResult, FpFlags, Round};

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
}

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn value(&mut self, v: &BigFloat) {
        let kind = match v.kind() {
            Kind::Zero => 0u8,
            Kind::Finite => 1,
            Kind::Inf => 2,
            Kind::Nan => 3,
        };
        self.bytes(&[u8::from(v.sign()), kind]);
        self.bytes(&v.exp().to_le_bytes());
        self.bytes(&v.prec().to_le_bytes());
        for w in limbs(v) {
            self.bytes(&w.to_le_bytes());
        }
    }

    fn result(&mut self, v: &BigFloat, f: FpFlags) {
        self.value(v);
        self.bytes(&[f.0]);
    }
}

/// The mantissa `M = |v| · 2^(prec − exp)` of a finite value as
/// little-endian 64-bit limbs (`⌈prec/64⌉` of them); empty otherwise.
/// Read top limb first: scale the unread rest so its next 64 bits are the
/// integer part, truncate, and subtract them back out (exact at `prec`).
fn limbs(v: &BigFloat) -> Vec<u64> {
    if v.kind() != Kind::Finite {
        return Vec::new();
    }
    let p = v.prec();
    let unit = v.exp() - i64::from(p);
    let n = (p as usize).div_ceil(64);
    let mut rest = v.abs();
    let mut out = vec![0u64; n];
    for j in (0..n).rev() {
        let shift = 64 * j as i64;
        let scaled = bigfloat::scale2(&rest, -(unit + shift));
        let (_, word, _) = scaled.to_integer_parts().expect("a limb fits in u128");
        let word = u64::try_from(word).expect("a limb fits in u64");
        out[j] = word;
        let (top, _) = BigFloat::from_int(false, unit + shift, &[word], false, p, Round::Zero);
        let (r, f) = bigfloat::sub(&rest, &top, p, Round::Zero);
        assert!(!f.contains(FpFlags::INEXACT), "limb extraction is exact");
        rest = r;
    }
    assert!(rest.is_zero(), "every mantissa bit was read");
    out
}

const RMS: [Round; 4] = [Round::NearestEven, Round::Down, Round::Up, Round::Zero];

/// Seeded operands at precision `p`.
fn operands(p: u32, seed: u64) -> Vec<BigFloat> {
    let mut rng = Rng(seed ^ u64::from(p).wrapping_mul(0x1000_0000_01B3));
    let rne = Round::NearestEven;
    let n = (p as usize).div_ceil(64);
    let mut v = Vec::new();
    // Full-width values: n + 1 random limbs rounded to p bits, |x| ≈ 2^[-3, 3].
    for _ in 0..4 {
        let words: Vec<u64> = (0..=n).map(|_| rng.next()).collect();
        let sign = rng.next() & 1 == 1;
        let unit = -64 * (n as i64 + 1) + (rng.next() % 7) as i64 - 3;
        v.push(BigFloat::from_int(sign, unit, &words, false, p, rne).0);
    }
    // Values converted from f64, at p bits and at 53 bits.
    for _ in 0..4 {
        let mant = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let scale = (rng.next() % 21) as i32 - 10;
        let sign = if rng.next() & 1 == 1 { -1.0 } else { 1.0 };
        let x = sign * (0.5 + mant) * 2f64.powi(scale);
        v.push(BigFloat::from_f64(x, p, rne).0);
    }
    v.push(BigFloat::from_f64(0.1, 53, rne).0);
    v.push(BigFloat::from_f64(-2.75, 53, rne).0);
    // Small integers.
    for k in [1.0, 3.0, 10.0, -7.0] {
        v.push(BigFloat::from_f64(k, p, rne).0);
    }
    // Specials.
    v.push(BigFloat::zero(true, p));
    v.push(BigFloat::inf(false, p));
    v.push(BigFloat::nan(p));
    v
}

type Unary = fn(&BigFloat, u32, Round) -> (BigFloat, FpFlags);
type Binary = fn(&BigFloat, &BigFloat, u32, Round) -> (BigFloat, FpFlags);

fn hash_binary(ops: &[BigFloat], p: u32, f: Binary) -> u64 {
    let mut h = Fnv::new();
    for (i, a) in ops.iter().enumerate() {
        for (j, b) in ops.iter().enumerate() {
            let (r, fl) = f(a, b, p, RMS[(i + j) % 4]);
            h.result(&r, fl);
        }
    }
    h.0
}

fn hash_unary(ops: &[BigFloat], p: u32, f: Unary) -> u64 {
    let mut h = Fnv::new();
    for (i, a) in ops.iter().enumerate() {
        let (r, fl) = f(a, p, RMS[i % 4]);
        h.result(&r, fl);
    }
    h.0
}

/// Every (operation, precision) hash, in `PINS` order.
fn compute() -> Vec<(&'static str, u32, u64)> {
    let mut out = Vec::new();
    for p in [53u32, 113, 200, 280, 360, 440, 1024, 4400] {
        let ops = operands(p, 0x5EED);
        out.push(("add", p, hash_binary(&ops, p, bigfloat::add)));
        out.push(("sub", p, hash_binary(&ops, p, bigfloat::sub)));
        out.push(("mul", p, hash_binary(&ops, p, bigfloat::mul)));
        out.push(("div", p, hash_binary(&ops, p, bigfloat::div)));
        out.push(("sqrt", p, hash_unary(&ops, p, bigfloat::sqrt)));
        let mut h = Fnv::new();
        for (i, a) in ops.iter().enumerate() {
            for (j, b) in ops.iter().enumerate() {
                let c = &ops[(i + 2 * j + 1) % ops.len()];
                let (r, fl) = bigfloat::fma(a, b, c, p, RMS[(i + j) % 4]);
                h.result(&r, fl);
            }
        }
        out.push(("fma", p, h.0));
        let mut h = Fnv::new();
        for (i, a) in ops.iter().enumerate() {
            for q in [53, 113, p / 2 + 3, p + 37] {
                let (r, ix) = bigfloat::round_to(a, q, RMS[i % 4]);
                h.value(&r);
                h.bytes(&[u8::from(ix)]);
            }
        }
        out.push(("round_to", p, h.0));
        let mut h = Fnv::new();
        for a in &ops {
            let (r, fl) = bigfloat::floor(a, p);
            h.result(&r, fl);
        }
        out.push(("floor", p, h.0));
        let mut h = Fnv::new();
        for a in &ops {
            for b in &ops {
                let (c, fl) = bigfloat::cmp_quiet(a, b);
                let c = match c {
                    CmpResult::Less => 0u8,
                    CmpResult::Equal => 1,
                    CmpResult::Greater => 2,
                    CmpResult::Unordered => 3,
                };
                h.bytes(&[c, fl.0]);
            }
        }
        out.push(("cmp_quiet", p, h.0));
    }
    let p = 200;
    let ops = operands(p, 0x7A11);
    let unary: [(&str, Unary); 9] = [
        ("sin", bigfloat::sin),
        ("cos", bigfloat::cos),
        ("tan", bigfloat::tan),
        ("asin", bigfloat::asin),
        ("acos", bigfloat::acos),
        ("atan", bigfloat::atan),
        ("exp", bigfloat::exp),
        ("log", bigfloat::log),
        ("log10", bigfloat::log10),
    ];
    for (name, f) in unary {
        out.push((name, p, hash_unary(&ops, p, f)));
    }
    // Most operands lie outside asin/acos's domain [-1, 1]; the same
    // operands scaled by 2^-4 pin the in-domain paths.
    let halves: Vec<BigFloat> = ops.iter().map(|a| bigfloat::scale2(a, -4)).collect();
    out.push(("asin_small", p, hash_unary(&halves, p, bigfloat::asin)));
    out.push(("acos_small", p, hash_unary(&halves, p, bigfloat::acos)));
    out.push(("atan2", p, hash_binary(&ops, p, bigfloat::atan2)));
    out.push(("pow", p, hash_binary(&ops[..10], p, bigfloat::pow)));
    out
}

const PINS: &[(&str, u32, u64)] = &[
    ("add", 53, 0xE3F5C35F7A29018C),
    ("sub", 53, 0x42388CBE4F2270AE),
    ("mul", 53, 0xED4EEDD0B6B7165A),
    ("div", 53, 0x520180A702F595F3),
    ("sqrt", 53, 0xA3A71D041595B2D0),
    ("fma", 53, 0xC4A4A5FB82FB055B),
    ("round_to", 53, 0x8745490C530EC476),
    ("floor", 53, 0xC9A5A2A6911A5FAB),
    ("cmp_quiet", 53, 0xD76CC0D4D98D3956),
    ("add", 113, 0xC2A760D25A3B753F),
    ("sub", 113, 0x0AC14E9DAB94A43B),
    ("mul", 113, 0x7F897B458C847549),
    ("div", 113, 0xF45D8C04AB5F7DEB),
    ("sqrt", 113, 0x866A2825BD7F40EE),
    ("fma", 113, 0xBFD2E0144D497E35),
    ("round_to", 113, 0x52E8606AC9E385C8),
    ("floor", 113, 0x0EB80ACA7AB7C82A),
    ("cmp_quiet", 113, 0x11F2E179352BCFF6),
    ("add", 200, 0x037074ACE0A9B095),
    ("sub", 200, 0x7758056A48681780),
    ("mul", 200, 0xE59261013DC3ECCC),
    ("div", 200, 0xD97B47644754C7EB),
    ("sqrt", 200, 0xE45655F07A0D8BBA),
    ("fma", 200, 0x774C904B3D43E1DA),
    ("round_to", 200, 0x330226F452FB6E75),
    ("floor", 200, 0x5E5FE45518D7AD34),
    ("cmp_quiet", 200, 0xCA1E664A495A8036),
    ("add", 280, 0x604D1CEF2E11E331),
    ("sub", 280, 0xB3FEE8C6B3414B69),
    ("mul", 280, 0xA0C129CD55CA88CD),
    ("div", 280, 0xEBD8F48EA23DFD59),
    ("sqrt", 280, 0xD188A44437E7E4BB),
    ("fma", 280, 0xB1FCE57F1B53F861),
    ("round_to", 280, 0x80E50D7E64F99BFF),
    ("floor", 280, 0x8539B2DBDF253288),
    ("cmp_quiet", 280, 0xCEE69488F5A517F6),
    ("add", 360, 0x69239496E1CFA130),
    ("sub", 360, 0x392EB9BDD90A8B2B),
    ("mul", 360, 0xFED464AE5659E237),
    ("div", 360, 0xBAA49DE4EAED1A59),
    ("sqrt", 360, 0xCAFEC8906A1E30AC),
    ("fma", 360, 0x63EDE540380E61E3),
    ("round_to", 360, 0xD04BBB8EFFEE3EFF),
    ("floor", 360, 0xB30AE8FFC6802E2A),
    ("cmp_quiet", 360, 0xAAF18C7F64363F56),
    ("add", 440, 0x5DE3B8428539F7E2),
    ("sub", 440, 0x77F8EB2264269001),
    ("mul", 440, 0x75CBFB8FC02B4C0A),
    ("div", 440, 0x08245708D4FA3799),
    ("sqrt", 440, 0x07997B80E0780677),
    ("fma", 440, 0x29A05452161766F8),
    ("round_to", 440, 0x61887FDCF24EE152),
    ("floor", 440, 0xC5116C96A86DCCDB),
    ("cmp_quiet", 440, 0xD59C1217869E6E56),
    ("add", 1024, 0x4F1329554C2D8B6E),
    ("sub", 1024, 0x36343944003D8888),
    ("mul", 1024, 0x07547DEB215809BD),
    ("div", 1024, 0x1E4794F9037A2C62),
    ("sqrt", 1024, 0x8AC0BD75E1907482),
    ("fma", 1024, 0x5A3962261A81FC06),
    ("round_to", 1024, 0xAF12F47A8BA02109),
    ("floor", 1024, 0x17862C22CD4CF172),
    ("cmp_quiet", 1024, 0xA18D1CDC448CC956),
    ("add", 4400, 0xAEF193CBA19C9303),
    ("sub", 4400, 0xD13BA77FB75E2B58),
    ("mul", 4400, 0xF0419A517ADA0826),
    ("div", 4400, 0xA75AA7E9A6156728),
    ("sqrt", 4400, 0x91DE2326A0D4606D),
    ("fma", 4400, 0x49837A032B61F0B1),
    ("round_to", 4400, 0xAFECE65341EB2D7C),
    ("floor", 4400, 0x0777977A92F56C49),
    ("cmp_quiet", 4400, 0x3987B84270C41616),
    ("sin", 200, 0xD20244C95EB2EF43),
    ("cos", 200, 0x97A2F2DC227FA1A5),
    ("tan", 200, 0x541A275FB281BDE9),
    ("asin", 200, 0xC0E879265D254AC7),
    ("acos", 200, 0xBB7FF7FB46FF9C4B),
    ("atan", 200, 0x46A5D0B7F47EC8FD),
    ("exp", 200, 0xE1B606B89A09C396),
    ("log", 200, 0xE2E78D00EFE249A2),
    ("log10", 200, 0x5E5EA09DC4110604),
    ("asin_small", 200, 0x5A64B6694055984F),
    ("acos_small", 200, 0xAD99ADC5C28BE3FA),
    ("atan2", 200, 0x1ACF0A6ABE3B8006),
    ("pow", 200, 0x5C179972CD02804C),
];

#[test]
fn bigfloat_results_are_pinned() {
    let got = compute();
    let table: String = got
        .iter()
        .map(|(op, p, h)| format!("    (\"{op}\", {p}, 0x{h:016X}),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "pin table shape:\n{table}");
    let bad: Vec<_> = got
        .iter()
        .zip(PINS)
        .filter(|(g, e)| g != e)
        .map(|(g, _)| format!("{} @ {}", g.0, g.1))
        .collect();
    assert!(bad.is_empty(), "moved: {bad:?}\ncomputed:\n{table}");
}
