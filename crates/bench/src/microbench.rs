//! A tiny `Instant`-based micro-benchmark harness.
//!
//! The offline build environment has no criterion, so the `benches/`
//! targets (all `harness = false`) drive their scenarios through this
//! module instead: auto-calibrated iteration counts, best-of-three
//! samples, one printed line per scenario.

use std::time::Instant;

pub use std::hint::black_box;

/// Target per-sample duration for calibration.
const SAMPLE_NS: u64 = 20_000_000;

/// Measure the mean latency of `f` and print a `name … ns/iter` line.
///
/// Runs `f` once to calibrate an iteration count targeting ~20 ms per
/// sample, then takes three samples and reports the best (least-noisy)
/// mean, in nanoseconds per iteration.
pub fn bench_ns<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = (t.elapsed().as_nanos() as u64).max(1);
    let iters = (SAMPLE_NS / once).clamp(1, 1_000_000) as u32;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per = t.elapsed().as_nanos() as f64 / f64::from(iters);
        best = best.min(per);
    }
    println!("{name:<52} {best:>14.1} ns/iter");
    best
}

/// Paired off/on timing, the protocol of E16–E18. Runs `reps` pairs
/// back-to-back so slow machine-wide drift cancels within a pair, and
/// alternates which side runs first so monotonic drift (thermal,
/// co-tenant load ramping) does not systematically charge one side. Each
/// closure returns `(wall_ns, payload)`.
///
/// Returns the pair at the lower quartile of the on/off wall ratio:
/// paired ratios still carry ± a few percent of co-tenant noise, so the
/// median flaps around a small true effect; the lower quartile reads the
/// quietest credible pairing without the minimum's zero bias.
pub fn paired_lower_quartile<Off, On>(
    reps: usize,
    mut off: impl FnMut() -> (u64, Off),
    mut on: impl FnMut() -> (u64, On),
) -> ((u64, Off), (u64, On)) {
    assert!(reps > 0, "at least one pair");
    let mut pairs = Vec::with_capacity(reps);
    for rep in 0..reps {
        pairs.push(if rep % 2 == 0 {
            let o = off();
            (o, on())
        } else {
            let n = on();
            (off(), n)
        });
    }
    let ratio = |p: &((u64, Off), (u64, On))| p.1 .0 as f64 / p.0 .0.max(1) as f64;
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    pairs.swap_remove(reps / 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_timing_alternates_and_picks_the_lower_quartile() {
        let order = std::cell::RefCell::new(String::new());
        let ratios = [1.0, 0.5, 2.0, 1.5, 0.8, 1.2, 3.0, 0.9];
        let mut i_off = 0;
        let mut i_on = 0;
        let (off, on) = paired_lower_quartile(
            ratios.len(),
            || {
                order.borrow_mut().push('f');
                i_off += 1;
                (1000, i_off - 1)
            },
            || {
                order.borrow_mut().push('n');
                i_on += 1;
                ((ratios[i_on - 1] * 1000.0) as u64, i_on - 1)
            },
        );
        assert_eq!(order.into_inner(), "fnnffnnffnnffnnf");
        // Sorted ratios: 0.5 0.8 0.9 1.0 1.2 1.5 2.0 3.0; index 8/4 = 2.
        assert_eq!(on, (900, 7));
        assert_eq!(off, (1000, 7), "the pair stays together");
    }

    #[test]
    fn bench_ns_returns_positive_finite() {
        let ns = bench_ns("selftest/noop_sum", || {
            let mut s = 0u64;
            for i in 0..64u64 {
                s = s.wrapping_add(i);
            }
            s
        });
        assert!(ns.is_finite() && ns > 0.0);
    }
}
