//! Integration tests for the staged engine surface: structured runtime
//! errors, handler registration, and stats derived through real runs.

use std::sync::atomic::{AtomicUsize, Ordering};

use fpvm_arith::Vanilla;
use fpvm_core::runtime::{ExitReason, Fpvm, FpvmConfig, RuntimeError, Stage};
use fpvm_machine::{AluOp, Asm, Cond, CostModel, ExtFn, Gpr, Inst, Machine, TrapKind, Xmm, XM};

/// Iterated logistic map x <- r·x·(1−x): every iteration rounds, so every
/// iteration traps.
fn logistic_program(iters: i64) -> fpvm_machine::Program {
    let mut a = Asm::new();
    let x0 = a.f64m(0.34567);
    let r = a.f64m(3.71);
    let one = a.f64m(1.0);
    a.movsd(Xmm(2), x0);
    a.mov_ri(Gpr::RCX, 0);
    let top = a.here_label();
    let done = a.label();
    a.cmp_ri(Gpr::RCX, iters);
    a.jcc(Cond::Ge, done);
    a.movsd(Xmm(3), one);
    a.subsd(Xmm(3), Xmm(2));
    a.mulsd(Xmm(2), r);
    a.mulsd(Xmm(2), Xmm(3));
    a.movsd(Xmm(0), XM::Reg(Xmm(2)));
    a.call_ext(ExtFn::PrintF64);
    a.alu_ri(AluOp::Add, Gpr::RCX, 1);
    a.jmp(top);
    a.bind(done);
    a.halt();
    a.finish()
}

/// A software trap with no side-table entry exits with a structured
/// error naming the stage, the rip, and the bad site id.
#[test]
fn missing_side_table_entry_reports_stage_rip_and_site() {
    let mut a = Asm::new();
    a.emit(Inst::Trap {
        kind: TrapKind::Correctness,
        id: 3,
    });
    a.halt();
    let p = a.finish();
    let trap_rip = fpvm_machine::CODE_BASE;
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    let report = fpvm.run(&mut m);
    let ExitReason::RuntimeError(e) = report.exit else {
        panic!("expected runtime error, got {:?}", report.exit);
    };
    assert_eq!(e.stage, Stage::Correctness);
    assert_eq!(e.rip, trap_rip);
    assert_eq!(e.site, Some(3));
    assert!(
        report.exit.to_string().contains("site id 3"),
        "{}",
        report.exit
    );
}

/// An unknown patch-call id likewise names the patch stage and the id.
#[test]
fn unknown_patch_site_reports_patch_stage() {
    let mut a = Asm::new();
    a.emit(Inst::Trap {
        kind: TrapKind::PatchCall,
        id: 9,
    });
    a.halt();
    let p = a.finish();
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    let report = fpvm.run(&mut m);
    assert_eq!(
        report.exit,
        ExitReason::RuntimeError(RuntimeError {
            stage: Stage::Patch,
            rip: fpvm_machine::CODE_BASE,
            site: Some(9),
        })
    );
}

static EXT_CALLS_SEEN: AtomicUsize = AtomicUsize::new(0);

/// Handlers are registered, not hard-coded: a custom external-call handler
/// observes every call and can still delegate to the built-in wrapper.
#[test]
fn custom_ext_call_handler_wraps_the_default() {
    let p = logistic_program(10);
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    fpvm.handlers_mut().ext_call = |vm, m, f, rip, next_rip| {
        EXT_CALLS_SEEN.fetch_add(1, Ordering::Relaxed);
        vm.on_ext_call(m, f, rip, next_rip)
    };
    let report = fpvm.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(EXT_CALLS_SEEN.load(Ordering::Relaxed), 10);
    assert_eq!(report.stats.output_wrapped, 10);
    assert_eq!(m.output.len(), 10);
}

/// `avg_trap_cost` and `decode_hit_rate` derived through a real run match
/// the deterministic cost model exactly: every component the figure calls
/// deterministic is pinned against the R815 constants.
#[test]
fn stats_derivations_match_cost_model_through_real_run() {
    let p = logistic_program(200);
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    let report = fpvm.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted);
    let s = &report.stats;
    let c = &s.cycles;
    let cost = CostModel::r815();

    // Deterministic Fig. 9 components, pinned to the model constants.
    assert!(s.fp_traps > 0);
    assert_eq!(c.hardware, s.fp_traps * cost.hw_exception);
    assert_eq!(c.kernel, s.fp_traps * cost.kernel_dispatch);
    assert_eq!(c.user_delivery, s.fp_traps * cost.user_delivery);
    assert_eq!(
        c.decode,
        s.decode_hits * cost.decode_hit + s.decode_misses * cost.decode_miss
    );
    assert_eq!(c.bind, s.fp_traps * cost.bind);
    assert_eq!(c.correctness_dispatch, 0);
    assert_eq!(c.patch, 0);

    // The derived figures recompute from the same breakdown.
    let numer =
        (c.hardware + c.kernel + c.user_delivery + c.decode + c.bind + c.emulate + c.gc) as f64;
    assert_eq!(s.avg_trap_cost(), numer / s.fp_traps as f64);
    assert_eq!(
        s.decode_hit_rate(),
        s.decode_hits as f64 / (s.decode_hits + s.decode_misses) as f64
    );
    assert!(s.decode_hit_rate() > 0.95, "{}", s.decode_hit_rate());

    // Live stats on the runtime agree with the report snapshot.
    assert_eq!(fpvm.stats().fp_traps, s.fp_traps);
    assert_eq!(fpvm.stats().cycles, s.cycles);
}

/// The trap cache and the `decode_cache: false` ablation agree on
/// results; only costs differ — and the ablation's misses equal its traps.
#[test]
fn decode_cache_ablation_still_functional() {
    let p = logistic_program(100);
    let run = |cfg: FpvmConfig| {
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        let mut fpvm = Fpvm::new(Vanilla, cfg);
        let r = fpvm.run(&mut m);
        (r, m.output)
    };
    let (on, out_on) = run(FpvmConfig::default());
    let (off, out_off) = run(FpvmConfig {
        decode_cache: false,
        ..FpvmConfig::default()
    });
    assert_eq!(out_on, out_off);
    assert_eq!(off.stats.decode_hits, 0);
    assert_eq!(off.stats.decode_misses, off.stats.fp_traps);
    // Compare the deterministic view: raw `cycles` include emulate cycles
    // converted from host ns, so they move with host load.
    let mut on = on.stats.deterministic_view();
    let off = off.stats.deterministic_view();
    assert!(
        off.cycles.decode > on.cycles.decode,
        "no cache must cost more decode cycles"
    );
    // Only the decode stage may differ.
    on.decode_hits = off.decode_hits;
    on.decode_misses = off.decode_misses;
    on.cycles.decode = off.cycles.decode;
    assert_eq!(on, off);
}
