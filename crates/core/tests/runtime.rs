//! Integration tests for the trap-and-emulate runtime: §5.2-style
//! validation (Vanilla ≡ native), alternative-arithmetic effects,
//! correctness traps, trap-and-patch, the GC under load, and the
//! limitation cases of §2.

use fpvm_arith::{ArithSystem, BigFloatCtx, PositCtx, Vanilla};
use fpvm_core::{ExitReason, Fpvm, FpvmConfig, SideTableEntry};
use fpvm_machine::{
    encode, AluOp, Asm, Cond, CostModel, Event, ExtFn, Gpr, Inst, Machine, Mem, OutputEvent,
    TrapKind, Xmm, XM,
};

fn native_output(p: &fpvm_machine::Program) -> Vec<OutputEvent> {
    let mut m = Machine::new(CostModel::r815());
    let ev = fpvm_core::run_native(&mut m, p, 100_000_000);
    assert!(matches!(ev, Event::Halted), "native run: {ev:?}");
    m.output
}

fn virt_run<A: ArithSystem>(
    p: &fpvm_machine::Program,
    arith: A,
    cfg: FpvmConfig,
) -> (fpvm_core::RunReport, Vec<OutputEvent>, Fpvm<A>) {
    let mut m = Machine::new(CostModel::r815());
    m.load_program(p);
    let mut fpvm = Fpvm::new(arith, cfg);
    let report = fpvm.run(&mut m);
    (report, m.output.clone(), fpvm)
}

/// A small program with lots of rounding: iterated logistic map
/// x <- r·x·(1−x), printing each iterate.
fn logistic_program(iters: i64) -> fpvm_machine::Program {
    let mut a = Asm::new();
    let x0 = a.f64m(0.34567);
    let r = a.f64m(3.71);
    let one = a.f64m(1.0);
    a.movsd(Xmm(2), x0); // x
    a.mov_ri(Gpr::RCX, 0);
    let top = a.here_label();
    let done = a.label();
    a.cmp_ri(Gpr::RCX, iters);
    a.jcc(Cond::Ge, done);
    // t = 1 - x
    a.movsd(Xmm(3), one);
    a.subsd(Xmm(3), Xmm(2));
    // x = r * x * t
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

#[test]
fn validation_vanilla_bit_identical() {
    // §5.2: "When run under FPVM, we used the Vanilla math implementation…
    // In all of the cases, the results were identical."
    let p = logistic_program(50);
    let native = native_output(&p);
    let (report, virt, _) = virt_run(&p, Vanilla, FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(native, virt, "Vanilla must be bit-identical to native");
    assert!(report.stats.fp_traps > 50, "rounding ops must trap");
}

#[test]
fn bigfloat_diverges_from_ieee_on_chaotic_map() {
    // §5.4: higher precision changes the answer for chaotic dynamics.
    let p = logistic_program(200);
    let native = native_output(&p);
    let (report, virt, _) = virt_run(&p, BigFloatCtx::new(200), FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(native.len(), virt.len());
    // Early iterates agree closely, late iterates diverge.
    let f = |o: &OutputEvent| match o {
        OutputEvent::F64(b) => f64::from_bits(*b),
        _ => unreachable!(),
    };
    assert!((f(&native[0]) - f(&virt[0])).abs() < 1e-12);
    let last = native.len() - 1;
    assert!(
        (f(&native[last]) - f(&virt[last])).abs() > 1e-6,
        "chaotic divergence expected: {} vs {}",
        f(&native[last]),
        f(&virt[last])
    );
}

#[test]
fn posit_system_runs_the_same_binary() {
    let p = logistic_program(20);
    let (report, virt, _) = virt_run(&p, PositCtx::<64, 3>, FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(virt.len(), 20);
    // Values stay in [0, 1]-ish (the logistic map's range) — sanity that
    // posit arithmetic is actually computing.
    for o in &virt {
        if let OutputEvent::F64(b) = o {
            let v = f64::from_bits(*b);
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }
}

#[test]
fn decode_cache_hits_dominate_loops() {
    let p = logistic_program(300);
    let (report, _, _) = virt_run(&p, Vanilla, FpvmConfig::default());
    let s = &report.stats;
    // §5.3 footnote: "the decode cache hit rate is nearly 100%".
    assert!(
        s.decode_hit_rate() > 0.95,
        "hit rate {}",
        s.decode_hit_rate()
    );
    // Without the cache every trap decodes.
    let cfg = FpvmConfig {
        decode_cache: false,
        ..FpvmConfig::default()
    };
    let (r2, _, _) = virt_run(&p, Vanilla, cfg);
    assert_eq!(r2.stats.decode_hits, 0);
    assert_eq!(r2.stats.decode_misses, r2.stats.fp_traps);
    // The deterministic view, not raw `cycles`: those include emulate
    // cycles converted from host ns.
    let mut on = report.stats.deterministic_view();
    let off = r2.stats.deterministic_view();
    assert!(
        off.cycles.total() > on.cycles.total(),
        "no cache must cost more cycles"
    );
    // Only the decode stage may differ.
    on.decode_hits = off.decode_hits;
    on.decode_misses = off.decode_misses;
    on.cycles.decode = off.cycles.decode;
    assert_eq!(on, off);
}

#[test]
fn comparisons_on_boxed_values_branch_correctly() {
    // A boxed (promoted) value flows into ucomisd; the emulated compare
    // must produce the right branch direction.
    let mut a = Asm::new();
    let c1 = a.f64m(0.1);
    let c2 = a.f64m(0.2);
    let c3 = a.f64m(0.25);
    let t = a.label();
    let end = a.label();
    a.movsd(Xmm(0), c1);
    a.addsd(Xmm(0), c2); // traps -> boxed 0.30000000000000004ish
    a.movsd(Xmm(1), c3);
    a.ucomisd(Xmm(0), Xmm(1)); // boxed vs 0.25: traps (sNaN), emulated
    a.jcc(Cond::A, t);
    a.mov_ri(Gpr::RAX, 0);
    a.jmp(end);
    a.bind(t);
    a.mov_ri(Gpr::RAX, 1);
    a.bind(end);
    a.halt();
    let p = a.finish();
    let (report, _, _) = virt_run(&p, Vanilla, FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    fpvm.run(&mut m);
    assert_eq!(m.gpr[0], 1, "0.3 > 0.25 must hold through the box");
}

#[test]
fn cvt_on_boxed_value() {
    let mut a = Asm::new();
    let c1 = a.f64m(0.1);
    let c2 = a.f64m(0.2);
    let big = a.f64m(1e18);
    a.movsd(Xmm(0), c1);
    a.addsd(Xmm(0), c2); // boxed
    a.mulsd(Xmm(0), big); // boxed ~3.0e17
    a.cvttsd2si(Gpr::RAX, Xmm(0)); // boxed input: IE trap, emulated
    a.halt();
    let p = a.finish();
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    let report = fpvm.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted);
    let expect = ((0.1f64 + 0.2) * 1e18).trunc() as i64;
    assert_eq!(m.gpr[0] as i64, expect);
}

#[test]
fn universal_nan_flows_as_true_nan() {
    // 0/0 under any arithmetic system is NaN; it must propagate and the
    // unordered compare must see it (§2 "universal NaNs").
    let mut a = Asm::new();
    let z = a.f64m(0.0);
    let unord = a.label();
    let end = a.label();
    a.movsd(Xmm(0), z);
    a.divsd(Xmm(0), z); // IE trap -> emulated 0/0 -> NaN shadow
    a.ucomisd(Xmm(0), Xmm(0));
    a.jcc(Cond::P, unord);
    a.mov_ri(Gpr::RAX, 0);
    a.jmp(end);
    a.bind(unord);
    a.mov_ri(Gpr::RAX, 1);
    a.bind(end);
    a.halt();
    let p = a.finish();
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(BigFloatCtx::new(100), FpvmConfig::default());
    let report = fpvm.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(m.gpr[0], 1, "NaN must compare unordered");
}

#[test]
fn gc_collects_dead_temporaries() {
    // Run enough iterations with a tiny epoch to force collections.
    let p = logistic_program(500);
    let cfg = FpvmConfig {
        gc_epoch: 2_000,
        ..FpvmConfig::default()
    };
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, cfg);
    let run = fpvm.run(&mut m);
    assert_eq!(run.exit, ExitReason::Halted);
    // Collect the tail allocations made since the last epoch, then snapshot.
    fpvm.force_gc(&mut m);
    let report = fpvm.run(&mut m); // machine already halted; returns stats
    assert_eq!(report.exit, ExitReason::Halted);
    let s = &report.stats;
    assert!(s.gc_passes > 0, "GC must have run");
    let total_freed: usize = s.gc_records.iter().map(|r| r.freed).sum();
    assert!(total_freed > 0, "temporaries must be collected");
    // §5.3: "> 95% of shadow values are collected on each pass" — here the
    // only persistent box is x itself (plus a couple in registers).
    let last = s.gc_records.last().unwrap();
    assert!(last.alive < 10, "alive after pass: {}", last.alive);
    assert!(fpvm.arena.live() < 10);
}

#[test]
fn trap_and_patch_reduces_traps() {
    let p = logistic_program(400);
    let (base, out_base, _) = virt_run(&p, Vanilla, FpvmConfig::default());
    let cfg = FpvmConfig {
        trap_and_patch: true,
        ..FpvmConfig::default()
    };
    let (tp, out_tp, _) = virt_run(&p, Vanilla, cfg);
    assert_eq!(out_base, out_tp, "patching must not change results");
    let s = &tp.stats;
    assert!(s.sites_patched >= 2, "loop sites must be patched");
    // Each site traps once, then runs via patch calls.
    assert!(
        s.fp_traps < base.stats.fp_traps / 10,
        "traps {} vs {}",
        s.fp_traps,
        base.stats.fp_traps
    );
    assert!(s.patch_fast + s.patch_slow > 300);
    // §3.2: when boxed operands are frequent, trap-and-patch is much
    // cheaper than trap-and-emulate.
    assert!(
        tp.cycles < base.cycles / 2,
        "{} vs {}",
        tp.cycles,
        base.cycles
    );
}

#[test]
fn correctness_trap_demotes_and_reexecutes() {
    // Build a program with a movq leak, hand-patch it the way the static
    // patcher does, and check the integer world sees a real double.
    let mut a = Asm::new();
    let c1 = a.f64m(0.1);
    let c2 = a.f64m(0.2);
    a.movsd(Xmm(0), c1);
    a.addsd(Xmm(0), c2); // boxed after trap
    let site = a.here();
    a.movq_xg(Gpr::RAX, Xmm(0)); // leak: would expose the box
    a.halt();
    let p = a.finish();

    // Patch the movq with a correctness trap (id 0) like the patcher does.
    let original = Inst::MovQXG {
        dst: Gpr::RAX,
        src: Xmm(0),
    };
    let orig_len = fpvm_machine::encoded_len(&original);
    let mut patched = p.clone();
    let mut bytes = Vec::new();
    encode(
        &Inst::Trap {
            kind: TrapKind::Correctness,
            id: 0,
        },
        &mut bytes,
    );
    while bytes.len() < orig_len {
        encode(&Inst::Nop, &mut bytes);
    }
    let off = (site - fpvm_machine::CODE_BASE) as usize;
    patched.code[off..off + orig_len].copy_from_slice(&bytes);

    let mut m = Machine::new(CostModel::r815());
    m.load_program(&patched);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    fpvm.set_side_table(vec![SideTableEntry {
        addr: site,
        original,
        len: orig_len as u8,
    }]);
    let report = fpvm.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(report.stats.correctness_traps, 1);
    assert_eq!(report.stats.correctness_demotions, 1);
    // rax holds the demoted double's bits, not a NaN-box.
    assert_eq!(f64::from_bits(m.gpr[0]), 0.1 + 0.2);
    assert!(fpvm_nanbox::decode(m.gpr[0]).is_none());
}

#[test]
fn unpatched_leak_corrupts_as_the_paper_warns() {
    // The same program WITHOUT the correctness patch: the integer world
    // sees the NaN-box ("a sea of undefined behavior", §4.2).
    let mut a = Asm::new();
    let c1 = a.f64m(0.1);
    let c2 = a.f64m(0.2);
    a.movsd(Xmm(0), c1);
    a.addsd(Xmm(0), c2);
    a.movq_xg(Gpr::RAX, Xmm(0));
    a.halt();
    let p = a.finish();
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    fpvm.run(&mut m);
    assert!(
        fpvm_nanbox::decode(m.gpr[0]).is_some(),
        "without patching, the box leaks into rax"
    );
}

#[test]
fn math_interposition_routes_to_arith() {
    let mut a = Asm::new();
    let half = a.f64m(0.5);
    a.movsd(Xmm(0), half);
    a.call_ext(ExtFn::Sin);
    a.call_ext(ExtFn::PrintF64);
    a.halt();
    let p = a.finish();
    let (report, out, _) = virt_run(&p, BigFloatCtx::new(200), FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(report.stats.math_interposed, 1);
    match &out[0] {
        OutputEvent::F64(bits) => {
            assert_eq!(f64::from_bits(*bits), 0.5f64.sin(), "demoted sin(0.5)");
        }
        other => panic!("{other:?}"),
    }
    // Without interposition, the demote-at-call-site path still produces
    // the correct double (sin of the demoted argument).
    let cfg = FpvmConfig {
        interpose_math: false,
        ..FpvmConfig::default()
    };
    let (report, out, _) = virt_run(&p, BigFloatCtx::new(200), cfg);
    assert_eq!(report.stats.math_interposed, 0);
    match &out[0] {
        OutputEvent::F64(bits) => assert_eq!(f64::from_bits(*bits), 0.5f64.sin()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn fp_dense_code_traps_dense_integer_code_does_not() {
    // An integer-only loop must never invoke FPVM.
    let mut a = Asm::new();
    a.mov_ri(Gpr::RAX, 0);
    a.mov_ri(Gpr::RCX, 0);
    let top = a.here_label();
    let done = a.label();
    a.cmp_ri(Gpr::RCX, 1000);
    a.jcc(Cond::Ge, done);
    a.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RCX);
    a.alu_ri(AluOp::Add, Gpr::RCX, 1);
    a.jmp(top);
    a.bind(done);
    a.halt();
    let p = a.finish();
    let (report, _, _) = virt_run(&p, Vanilla, FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(
        report.stats.fp_traps, 0,
        "no FP -> zero virtualization overhead"
    );
    assert_eq!(report.stats.cycles.total(), 0);
}

#[test]
fn exact_fp_ops_run_at_full_speed() {
    // Dyadic-rational arithmetic never rounds: zero traps, zero overhead —
    // the trap-and-emulate promise ("no overhead unless an alternative
    // arithmetic value is produced or consumed").
    let mut a = Asm::new();
    let c1 = a.f64m(1.5);
    let c2 = a.f64m(0.25);
    a.movsd(Xmm(0), c1);
    for _ in 0..50 {
        a.addsd(Xmm(0), c2);
        a.subsd(Xmm(0), c2);
    }
    a.halt();
    let p = a.finish();
    let (report, _, _) = virt_run(&p, BigFloatCtx::new(200), FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    assert_eq!(report.stats.fp_traps, 0);
}

#[test]
fn packed_instructions_emulate_per_lane() {
    let mut a = Asm::new();
    let v1 = a.u128c([0.1f64.to_bits(), 10.0f64.to_bits()]);
    let v2 = a.u128c([0.2f64.to_bits(), 20.5f64.to_bits()]);
    a.movapd(Xmm(0), Mem::abs(v1 as i64));
    a.emit(Inst::AddPd {
        dst: Xmm(0),
        src: XM::Mem(Mem::abs(v2 as i64)),
    });
    // Print both lanes: move lane1 down via a second movapd + shuffle-free
    // trick (store + reload).
    let tmp = a.global("tmp", 16);
    a.movapd(Mem::abs(tmp as i64), XM::Reg(Xmm(0)));
    a.movsd(Xmm(0), Mem::abs(tmp as i64));
    a.call_ext(ExtFn::PrintF64);
    a.movsd(Xmm(0), Mem::abs(tmp as i64 + 8));
    a.call_ext(ExtFn::PrintF64);
    a.halt();
    let p = a.finish();
    let (report, out, _) = virt_run(&p, Vanilla, FpvmConfig::default());
    assert_eq!(report.exit, ExitReason::Halted);
    // Lane0 (0.1+0.2) rounds -> whole instruction emulated, both lanes
    // boxed; lane1 (10+20.5 = 30.5 exact) still must be correct.
    assert!(report.stats.emulated_lanes >= 2);
    assert_eq!(
        out,
        vec![
            OutputEvent::F64((0.1 + 0.2f64).to_bits()),
            OutputEvent::F64(30.5f64.to_bits())
        ]
    );
}

#[test]
fn delivery_modes_change_cost_not_results() {
    use fpvm_machine::DeliveryMode;
    let p = logistic_program(100);
    let mut cycles = Vec::new();
    let mut outs = Vec::new();
    for mode in [
        DeliveryMode::UserSignal,
        DeliveryMode::KernelModule,
        DeliveryMode::PipelineInterrupt,
    ] {
        let cfg = FpvmConfig {
            delivery: mode,
            ..FpvmConfig::default()
        };
        let (r, o, _) = virt_run(&p, Vanilla, cfg);
        cycles.push(r.cycles);
        outs.push(o);
    }
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[1], outs[2]);
    assert!(cycles[0] > cycles[1], "kernel module cheaper than signals");
    assert!(cycles[1] > cycles[2], "pipeline interrupt cheapest (§6.2)");
}

#[test]
fn gc_pressure_trigger_bounds_arena() {
    // Even with an enormous epoch, the arena-pressure trigger must keep
    // the shadow population bounded.
    let p = logistic_program(2000);
    let cfg = FpvmConfig {
        gc_epoch: u64::MAX,
        gc_pressure: 500,
        ..FpvmConfig::default()
    };
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, cfg);
    let report = fpvm.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted);
    assert!(report.stats.gc_passes > 0, "pressure trigger must fire");
    // The arena never grew far past the pressure threshold + one epoch of
    // allocation between checks.
    assert!(
        fpvm.arena.capacity() < 5000,
        "arena capacity {} should stay bounded",
        fpvm.arena.capacity()
    );
}

#[test]
fn stale_box_after_gc_reads_as_universal_nan() {
    // A box whose shadow value was collected (because the box only lived
    // in unscanned dead-stack space) must read back as a true NaN rather
    // than resurrect garbage.
    let mut a = Asm::new();
    let c1 = a.f64m(0.1);
    let c2 = a.f64m(0.2);
    let g = a.global_f64("keep", 0.0);
    let unord = a.label();
    let end = a.label();
    a.movsd(Xmm(0), c1);
    a.addsd(Xmm(0), c2); // boxed
    a.movsd(Mem::abs(g as i64), Xmm(0)); // live in a global
    a.halt(); // pause point for the test driver
              // Phase 2 (re-entered by the test): consume the stale box.
    a.bind(unord);
    a.bind(end);
    let p = a.finish();
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
    let r = fpvm.run(&mut m);
    assert_eq!(r.exit, ExitReason::Halted);
    // Snapshot the box, then clobber its memory root and collect.
    let bits = m.mem.read_u64(g).unwrap();
    let key = fpvm_nanbox::decode(bits).expect("global holds a box");
    m.mem.write_u64(g, 0).unwrap();
    m.xmm = [[0; 2]; 16];
    m.gpr[4] = m.mem.size() - 64; // rsp
    fpvm.force_gc(&mut m);
    assert!(fpvm.shadow(key).is_none(), "shadow must be collected");
    // Emulating an op on the stale box yields NaN semantics.
    m.xmm[0][0] = fpvm_nanbox::encode(key);
    m.xmm[1][0] = 1.0f64.to_bits();
    let inst = Inst::AddSd {
        dst: Xmm(0),
        src: fpvm_machine::XM::Reg(Xmm(1)),
    };
    // Drive one emulation through the public surface: a fresh machine
    // program that consumes the stale box.
    let mut a2 = Asm::new();
    a2.addsd(Xmm(0), Xmm(1));
    a2.halt();
    let p2 = a2.finish();
    let mut m2 = Machine::new(CostModel::r815());
    m2.load_program(&p2);
    m2.xmm[0][0] = fpvm_nanbox::encode(key);
    m2.xmm[1][0] = 1.0f64.to_bits();
    let r2 = fpvm.run(&mut m2);
    assert_eq!(r2.exit, ExitReason::Halted);
    // Result is a (boxed) NaN: demote it and check.
    let out = m2.xmm[0][0];
    let nan_result = match fpvm_nanbox::decode(out) {
        Some(k) => {
            let v = fpvm.shadow(k).copied().unwrap();
            v.is_nan()
        }
        None => f64::from_bits(out).is_nan(),
    };
    assert!(nan_result, "stale box + 1.0 must be NaN");
    let _ = inst;
}
