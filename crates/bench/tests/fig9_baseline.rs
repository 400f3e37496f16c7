//! Pins the deterministic half of the Fig. 9 trap-cost breakdown for two
//! reference workloads against constants captured from the pre-refactor
//! monolithic runtime. Every value asserted here is deterministic: trap
//! counters, cost-model-derived cycle components, guest outputs (as an
//! FNV-1a hash), and retired instruction counts. The measured components
//! (emulate/gc wall time) are intentionally excluded.
//!
//! If the staged engine ever drifts from the monolith's accounting, these
//! tests name the exact component that moved.
//!
//! Re-captured after the softfp flag-semantics fixes (spurious INEXACT on
//! `0 * finite` removed): a handful of multiplies per workload no longer
//! raise an unmasked exception, so they retire natively instead of
//! trapping. Guest outputs are bit-identical to the previous capture.

use fpvm_arith::BigFloatCtx;
use fpvm_bench::{output_fnv, run_hybrid};
use fpvm_core::{Component, FpvmConfig, Stats};
use fpvm_machine::CostModel;
use fpvm_workloads::{fbench, lorenz, Size};

/// Deterministic fingerprint of one hybrid run.
#[derive(Debug, PartialEq, Eq)]
struct Baseline {
    fp_traps: u64,
    emulated: u64,
    emulated_lanes: u64,
    decode_hits: u64,
    decode_misses: u64,
    promotions: u64,
    boxes_created: u64,
    demotions: u64,
    hardware: u64,
    kernel: u64,
    user_delivery: u64,
    decode: u64,
    bind: u64,
    outputs: usize,
    output_fnv: u64,
    icount: u64,
}

fn run(w: &fpvm_workloads::Workload) -> (Stats, Baseline) {
    let (report, out, _) = run_hybrid(
        w,
        BigFloatCtx::new(200),
        CostModel::r815(),
        FpvmConfig::default(),
    );
    let s = report.stats.clone();
    let c = &s.cycles;
    let b = Baseline {
        fp_traps: s.fp_traps,
        emulated: s.emulated,
        emulated_lanes: s.emulated_lanes,
        decode_hits: s.decode_hits,
        decode_misses: s.decode_misses,
        promotions: s.promotions,
        boxes_created: s.boxes_created,
        demotions: s.demotions,
        hardware: c.get(Component::Hardware),
        kernel: c.get(Component::Kernel),
        user_delivery: c.get(Component::UserDelivery),
        decode: c.get(Component::Decode),
        bind: c.get(Component::Bind),
        outputs: out.len(),
        output_fnv: output_fnv(&out),
        icount: report.icount,
    };
    // The default config installs no software traps, so those components
    // stay zero on every baseline workload.
    assert_eq!(c.get(Component::CorrectnessDispatch), 0, "{}", w.name);
    assert_eq!(c.get(Component::Patch), 0, "{}", w.name);
    (s, b)
}

#[test]
fn fbench_tiny_matches_monolith_baseline() {
    let (_, b) = run(&fbench::workload(Size::Tiny));
    assert_eq!(
        b,
        Baseline {
            fp_traps: 698,
            emulated: 698,
            emulated_lanes: 698,
            decode_hits: 523,
            decode_misses: 175,
            promotions: 341,
            boxes_created: 1058,
            demotions: 1,
            hardware: 698_000,
            kernel: 174_500,
            user_delivery: 8_899_500,
            decode: 461_035,
            bind: 223_360,
            outputs: 1,
            output_fnv: 0xe188_03e4_b7af_78bc,
            icount: 2924,
        }
    );
}

#[test]
fn fbench_s_matches_monolith_baseline() {
    let (s, b) = run(&fbench::workload(Size::S));
    assert_eq!(
        b,
        Baseline {
            fp_traps: 10_498,
            emulated: 10_498,
            emulated_lanes: 10_498,
            decode_hits: 10_323,
            decode_misses: 175,
            promotions: 5_101,
            boxes_created: 15_898,
            demotions: 1,
            hardware: 10_498_000,
            kernel: 2_624_500,
            user_delivery: 133_849_500,
            decode: 902_035,
            bind: 3_359_360,
            outputs: 1,
            output_fnv: 0x95c0_f99d_151c_5835,
            icount: 43_356,
        }
    );
    // The Fig. 9 derived metrics recompute from the pinned breakdown.
    assert!((s.decode_hit_rate() - 10_323.0 / 10_498.0).abs() < 1e-12);
    assert!(s.avg_trap_cost() >= ((b.hardware + b.kernel + b.user_delivery) / b.fp_traps) as f64);
}

#[test]
fn lorenz_tiny_matches_monolith_baseline() {
    let (_, b) = run(&lorenz::workload(Size::Tiny));
    assert_eq!(
        b,
        Baseline {
            fp_traps: 2_790,
            emulated: 2_790,
            emulated_lanes: 2_790,
            decode_hits: 2_776,
            decode_misses: 14,
            promotions: 1_204,
            boxes_created: 2_790,
            demotions: 15,
            hardware: 2_790_000,
            kernel: 697_500,
            user_delivery: 35_572_500,
            decode: 159_920,
            bind: 892_800,
            outputs: 15,
            output_fnv: 0x6ade_03e4_6b29_f70d,
            icount: 17_890,
        }
    );
}

#[test]
fn lorenz_s_matches_monolith_baseline() {
    let (_, b) = run(&lorenz::workload(Size::S));
    assert_eq!(
        b,
        Baseline {
            fp_traps: 34_990,
            emulated: 34_990,
            emulated_lanes: 34_990,
            decode_hits: 34_976,
            decode_misses: 14,
            promotions: 15_004,
            boxes_created: 34_990,
            demotions: 78,
            hardware: 34_990_000,
            kernel: 8_747_500,
            user_delivery: 446_122_500,
            decode: 1_608_920,
            bind: 11_196_800,
            outputs: 78,
            output_fnv: 0x5c35_bca2_e1ff_7c26,
            icount: 222_758,
        }
    );
}
