//! Pins the Fig. 9 cycle accounting across emulate-cache modes: the
//! deterministic view of a run must be bit-identical whether the trap
//! cache memoizes bound plans (`emulate_cache: true`) or not (bind every
//! trap). The plan may only move host wall time, never a deterministic
//! stat.

use fpvm_arith::BigFloatCtx;
use fpvm_bench::run_hybrid;
use fpvm_core::{FpvmConfig, Stats};
use fpvm_machine::{CostModel, OutputEvent};
use fpvm_workloads::{fbench, lorenz, Size, Workload};

fn run_mode(w: &Workload, cfg: FpvmConfig) -> (Stats, Vec<OutputEvent>) {
    let (report, out, _) = run_hybrid(w, BigFloatCtx::new(200), CostModel::r815(), cfg);
    (report.stats, out)
}

fn pin_workload(w: &Workload) {
    let (s_on, out_on) = run_mode(w, FpvmConfig::default());
    let (s_off, out_off) = run_mode(
        w,
        FpvmConfig {
            emulate_cache: false,
            ..FpvmConfig::default()
        },
    );

    let base = s_on.deterministic_view();
    assert_eq!(
        s_off.deterministic_view(),
        base,
        "{}: ecache off moved a deterministic stat",
        w.name
    );
    assert_eq!(out_off, out_on, "{}: guest output diverged (off)", w.name);
    // A plan-carrying hit books a decode hit, not a miss: the decode
    // counters are identical in both modes.
    assert_eq!(s_off.decode_hits, s_on.decode_hits, "{}", w.name);
    assert_eq!(s_off.decode_misses, s_on.decode_misses, "{}", w.name);
}

#[test]
fn fig9_pinned_across_emulate_cache_modes() {
    pin_workload(&fbench::workload(Size::Tiny));
    pin_workload(&lorenz::workload(Size::Tiny));
}

/// The same pin under trap-and-patch: patched sites interact with the
/// emulate cache (install_patch invalidates the entry), so the accounting
/// must stay identical there too.
#[test]
fn fig9_pinned_across_emulate_cache_modes_with_patching() {
    let w = lorenz::workload(Size::Tiny);
    let tp = FpvmConfig {
        trap_and_patch: true,
        ..FpvmConfig::default()
    };
    let (on, out_on, _) = {
        let (r, o, a) = run_hybrid(&w, BigFloatCtx::new(200), CostModel::r815(), tp);
        (r.stats, o, a)
    };
    let (off, out_off, _) = run_hybrid(
        &w,
        BigFloatCtx::new(200),
        CostModel::r815(),
        FpvmConfig {
            emulate_cache: false,
            ..tp
        },
    );
    assert_eq!(off.stats.deterministic_view(), on.deterministic_view());
    assert_eq!(out_off, out_on);
    assert!(on.sites_patched > 0, "patching must actually happen");
}
