//! Pins the Fig. 9 cycle accounting across superblock modes: the
//! deterministic view of a run must be bit-identical whether the machine
//! dispatches superblocks (default) or steps every instruction
//! (`superblocks: false`) — and the same under trap-and-patch and at a
//! budget boundary. Block dispatch may only move host wall time, never a
//! deterministic stat, a guest output byte, or an exit reason. Shorter
//! block caps are pinned at machine level (`fpvm_machine::block`).

use fpvm_arith::{BigFloatCtx, Vanilla};
use fpvm_bench::{run_hybrid, run_hybrid_with};
use fpvm_core::{ExitReason, Fpvm, FpvmConfig, Stats};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Fault, Machine, OutputEvent};
use fpvm_workloads::{fbench, lorenz, Size, Workload};

fn sb_off(cfg: FpvmConfig) -> FpvmConfig {
    FpvmConfig {
        superblocks: false,
        ..cfg
    }
}

fn run_mode(w: &Workload, cfg: FpvmConfig) -> (Stats, Vec<OutputEvent>) {
    let (report, out, _) =
        run_hybrid_with(w, BigFloatCtx::new(200), CostModel::r815(), cfg, |_| {});
    (report.stats, out)
}

fn pin_workload(w: &Workload) {
    let (s_on, out_on) = run_mode(w, FpvmConfig::default());
    let (s_off, out_off) = run_mode(w, sb_off(FpvmConfig::default()));
    assert_eq!(
        s_off.deterministic_view(),
        s_on.deterministic_view(),
        "{}: superblocks off moved a deterministic stat",
        w.name
    );
    assert_eq!(out_off, out_on, "{}: guest output diverged (off)", w.name);
}

#[test]
fn fig9_pinned_across_superblock_modes() {
    pin_workload(&fbench::workload(Size::Tiny));
    pin_workload(&lorenz::workload(Size::Tiny));
}

/// The same pin under trap-and-patch: the engine installs patches while
/// the guest runs, truncating superblocks at the patched sites — the
/// invalidate-and-re-form path must not move a deterministic stat.
#[test]
fn fig9_pinned_across_superblock_modes_with_patching() {
    let w = lorenz::workload(Size::Tiny);
    let tp = FpvmConfig {
        trap_and_patch: true,
        ..FpvmConfig::default()
    };
    let (on, out_on, _) = run_hybrid(&w, BigFloatCtx::new(200), CostModel::r815(), tp);
    let (off, out_off, _) = run_hybrid(&w, BigFloatCtx::new(200), CostModel::r815(), sb_off(tp));
    assert_eq!(
        off.stats.deterministic_view(),
        on.stats.deterministic_view()
    );
    assert_eq!(out_off, out_on);
    assert!(on.stats.sites_patched > 0, "patching must actually happen");
}

/// Budget-edge semantics through the engine: with `max_insts` clamped so
/// the budget boundary lands mid-run (and, with blocks on, mid-block),
/// the Budget fault must fire at the identical `icount`/`rip` with the
/// identical deterministic view in every superblock mode. (Raw `cycles`
/// includes host-measured emulate time, so the machine-level cycle
/// equality is pinned exactly in `fpvm_machine::block`'s own tests; here
/// we pin the deterministic accounting the engine reports.)
#[test]
fn budget_fault_identical_across_superblock_modes() {
    let w = lorenz::workload(Size::Tiny);
    let compiled = compile(&w.module, CompileMode::Native);
    // Measure the full run length once, then pick boundaries guaranteed
    // to land mid-run (and at odd offsets, so some fall mid-block).
    let total = {
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&compiled.program);
        let mut vm = Fpvm::new(Vanilla, FpvmConfig::default());
        let r = vm.run(&mut m);
        assert_eq!(r.exit, ExitReason::Halted);
        r.icount
    };
    for max_insts in [1u64, 7, 97, total / 3 + 1, total / 2 + 3, total - 1] {
        let run_mode = |cfg: FpvmConfig| {
            let mut m = Machine::new(CostModel::r815());
            m.load_program(&compiled.program);
            let mut vm = Fpvm::new(Vanilla, FpvmConfig { max_insts, ..cfg });
            let r = vm.run(&mut m);
            (
                r.exit,
                r.icount,
                r.fp_icount,
                r.stats.deterministic_view(),
                m.rip,
            )
        };
        let on = run_mode(FpvmConfig::default());
        assert_eq!(
            on.0,
            ExitReason::Fault(Fault::Budget),
            "max_insts {max_insts} must exhaust the budget"
        );
        assert_eq!(on.1, max_insts, "budget fires at exactly max_insts");
        assert_eq!(
            run_mode(sb_off(FpvmConfig::default())),
            on,
            "max_insts {max_insts}"
        );
    }
}
