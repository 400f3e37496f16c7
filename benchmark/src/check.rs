//! Output checking. Every job of every pass is checked; a job that fails
//! counts in `fail_rate` and makes the command exit non-zero.
//!
//! - Vanilla jobs must print exactly the workload's native-Rust
//!   `reference` (FPVM with Vanilla is bit-identical to native, §5.2).
//! - BigFloat jobs must match a digest of `m.output` + `rendered_output()`
//!   recorded in `expected/paper-bf200.digests`. The repository has no
//!   independent BigFloat oracle, so the digests pin the behaviour of the
//!   code they were recorded from; they catch change, not pre-existing
//!   error.
//! - The seeded Lorenz job under BigFloat has a recorded digest for seed
//!   0 only. For any other seed its demoted output must agree with the f64
//!   reference over the first prints, before chaos separates the two
//!   precisions, and stay finite and on the attractor for the rest; the
//!   run also requires every pass to reproduce the first pass's digest.

use crate::jobs::Prog;
use fpvm_machine::OutputEvent;
use std::collections::BTreeMap;

/// The digests recorded for `paper-bf200`, built into the binary.
pub const BF200_DIGESTS: &str = include_str!("../expected/paper-bf200.digests");

/// Lorenz prints (x, y, z) every 100 of its 2500 steps. Over the first
/// three prints (t ≤ 6) the f64 trajectory's rounding error stays below
/// about 1e-9 relative (measured over several seeds); later prints
/// diverge, as chaos amplifies it.
const LORENZ_PREFIX_VALUES: usize = 9;
const LORENZ_PREFIX_TOL: f64 = 1e-7;

/// What a job's output is checked against.
#[derive(Debug, Clone, Copy)]
pub enum Expect<'a> {
    /// Exact equality with a native reference.
    Reference(&'a [OutputEvent]),
    /// Equality of [`digest`] with a recorded value.
    Digest(u64),
    /// The seeded-Lorenz check against the f64 reference (see module doc).
    LorenzPrefix(&'a [OutputEvent]),
}

/// FNV-1a 64 over the guest's output events and the output wrapper's
/// rendered lines.
pub fn digest(output: &[OutputEvent], rendered: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for ev in output {
        match *ev {
            OutputEvent::F64(bits) => {
                eat(&[0]);
                eat(&bits.to_le_bytes());
            }
            OutputEvent::I64(v) => {
                eat(&[1]);
                eat(&v.to_le_bytes());
            }
        }
    }
    for line in rendered {
        eat(line.as_bytes());
        eat(b"\n");
    }
    h
}

/// Parse a digest file: `<program key> <16 hex digits>` per line, `#`
/// comments and blank lines ignored.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(key), Some(hex), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!("digest line {}: expected `<key> <hex>`", n + 1));
        };
        let v = u64::from_str_radix(hex, 16).map_err(|e| format!("digest line {}: {e}", n + 1))?;
        out.insert(key.to_string(), v);
    }
    Ok(out)
}

/// Render a digest file for the given `(key, digest)` pairs.
pub fn format_digests(entries: &[(&str, u64)]) -> String {
    let mut s = String::from(
        "# FNV-1a 64 of m.output + rendered_output() per paper-bf200 job\n\
         # (BigFloat@200, default FpvmConfig, size S). Lorenz: seed 0 only.\n\
         # Regenerate: fpvm-benchmark --record-digests <file>\n",
    );
    for (k, d) in entries {
        s.push_str(&format!("{k} {d:016x}\n"));
    }
    s
}

/// What the job running `prog` under `seed` is checked against.
pub fn expectation<'a>(
    prog: Prog,
    seed: u64,
    bigfloat: bool,
    reference: &'a [OutputEvent],
    digests: &BTreeMap<String, u64>,
) -> Result<Expect<'a>, String> {
    if !bigfloat {
        return Ok(Expect::Reference(reference));
    }
    if prog == Prog::Lorenz && seed != 0 {
        return Ok(Expect::LorenzPrefix(reference));
    }
    digests
        .get(prog.key())
        .map(|&d| Expect::Digest(d))
        .ok_or_else(|| format!("no recorded digest for {}", prog.key()))
}

/// Check one job's output.
pub fn check_output(
    expect: Expect<'_>,
    output: &[OutputEvent],
    rendered: &[String],
) -> Result<(), String> {
    match expect {
        Expect::Reference(r) => {
            if output == r {
                Ok(())
            } else {
                Err(first_difference(r, output))
            }
        }
        Expect::Digest(d) => {
            let got = digest(output, rendered);
            if got == d {
                Ok(())
            } else {
                Err(format!("digest {got:016x}, expected {d:016x}"))
            }
        }
        Expect::LorenzPrefix(r) => lorenz_prefix(r, output),
    }
}

fn first_difference(want: &[OutputEvent], got: &[OutputEvent]) -> String {
    match want.iter().zip(got).position(|(a, b)| a != b) {
        Some(i) => format!(
            "output line {i}: {} (expected {})",
            got[i].render(),
            want[i].render()
        ),
        None => format!("{} output lines, expected {}", got.len(), want.len()),
    }
}

fn lorenz_prefix(reference: &[OutputEvent], got: &[OutputEvent]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{} output lines, expected {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        let (OutputEvent::F64(rb), OutputEvent::F64(gb)) = (r, g) else {
            return Err(format!("output line {i} is not a double"));
        };
        let (r, g) = (f64::from_bits(*rb), f64::from_bits(*gb));
        // The attractor stays inside |x|, |y| < 30, 0 < z < 60.
        let bound = if i % 3 == 2 { 0.0..60.0 } else { -30.0..30.0 };
        if !bound.contains(&g) {
            return Err(format!("output line {i}: {g} is off the attractor"));
        }
        if i < LORENZ_PREFIX_VALUES && (g - r).abs() > LORENZ_PREFIX_TOL * r.abs().max(1.0) {
            return Err(format!("output line {i}: {g} departs from the f64 {r}"));
        }
    }
    Ok(())
}
