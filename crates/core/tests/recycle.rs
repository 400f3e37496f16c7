//! Engine-reuse discipline: a recycled engine must be indistinguishable
//! (on the deterministic views) from a fresh one, and the per-run cache
//! retention must never leak across recycles or across *different*
//! programs of the same length (the stale-reload bug).

use fpvm_arith::{BigFloatCtx, Vanilla};
use fpvm_core::{ExitReason, Fpvm, FpvmConfig};
use fpvm_machine::{AluOp, Asm, Cond, CostModel, ExtFn, Gpr, Machine, Xmm, XM};

/// Iterated logistic map x <- r·x·(1−x): plenty of FP traps, a few sites.
fn logistic_program(r: f64, iters: i64) -> fpvm_machine::Program {
    let mut a = Asm::new();
    let x0 = a.f64m(0.34567);
    let rc = a.f64m(r);
    let one = a.f64m(1.0);
    a.movsd(Xmm(2), x0);
    a.mov_ri(Gpr::RCX, 0);
    let top = a.here_label();
    let done = a.label();
    a.cmp_ri(Gpr::RCX, iters);
    a.jcc(Cond::Ge, done);
    a.movsd(Xmm(3), one);
    a.subsd(Xmm(3), Xmm(2));
    a.mulsd(Xmm(2), rc);
    a.mulsd(Xmm(2), Xmm(3));
    a.movsd(Xmm(0), XM::Reg(Xmm(2)));
    a.call_ext(ExtFn::PrintF64);
    a.alu_ri(AluOp::Add, Gpr::RCX, 1);
    a.jmp(top);
    a.bind(done);
    a.halt();
    a.finish()
}

/// N back-to-back runs on ONE recycled engine must produce bit-identical
/// deterministic stats (and guest output) to N fresh engines — nothing may
/// leak through reused scratch, the arena slab, or the trap cache.
#[test]
fn recycled_engine_matches_fresh_engines() {
    // Distinct programs per round so leaked cache entries can't hide.
    let programs = [
        logistic_program(3.71, 40),
        logistic_program(3.99, 40),
        logistic_program(3.71, 40), // repeat of round 0: epoch must still isolate
    ];
    for config in [
        FpvmConfig::default(),
        FpvmConfig {
            trap_and_patch: true,
            ..FpvmConfig::default()
        },
    ] {
        let mut reused = Fpvm::new(BigFloatCtx::new(120), config);
        for (i, p) in programs.iter().enumerate() {
            reused.recycle(config);
            let mut mr = Machine::new(CostModel::r815());
            mr.load_program(p);
            let rr = reused.run(&mut mr);

            let mut fresh = Fpvm::new(BigFloatCtx::new(120), config);
            let mut mf = Machine::new(CostModel::r815());
            mf.load_program(p);
            let rf = fresh.run(&mut mf);

            assert_eq!(rr.exit, ExitReason::Halted);
            assert_eq!(rf.exit, ExitReason::Halted);
            assert_eq!(
                rr.stats.deterministic_view(),
                rf.stats.deterministic_view(),
                "round {i}: recycled engine diverged from fresh (t&p={})",
                config.trap_and_patch
            );
            assert_eq!(mr.output, mf.output, "round {i}: guest output diverged");
            // Report cycles include host-measured emulate time and so are
            // not bit-stable; icount and the deterministic view above are.
            assert_eq!(rr.icount, rf.icount);
        }
    }
}

/// Without a recycle, re-running the *same* program on one engine retains
/// the trap cache (the single-tenant optimization): the second
/// run decodes nothing.
#[test]
fn same_program_rerun_retains_caches() {
    let p = logistic_program(3.71, 40);
    let mut vm = Fpvm::new(Vanilla, FpvmConfig::default());
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    vm.run(&mut m);
    let after_first = vm.stats().clone();
    assert!(
        after_first.decode_misses > 0,
        "first run populates the cache"
    );
    let mut m2 = Machine::new(CostModel::r815());
    m2.load_program(&p);
    vm.run(&mut m2);
    let after_second = vm.stats().clone();
    assert_eq!(
        after_second.decode_misses, after_first.decode_misses,
        "second run of the identical program must be all cache hits"
    );
    assert!(after_second.decode_hits > after_first.decode_hits);
}

/// A recycle flushes retention even for an identical program: the epoch is
/// part of the cache identity.
#[test]
fn recycle_flushes_cache_retention() {
    let p = logistic_program(3.71, 40);
    let mut vm = Fpvm::new(Vanilla, FpvmConfig::default());
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    vm.run(&mut m);
    let first_misses = vm.stats().decode_misses;
    vm.recycle(FpvmConfig::default());
    assert_eq!(vm.stats().decode_misses, 0, "recycle zeroes stats");
    let mut m2 = Machine::new(CostModel::r815());
    m2.load_program(&p);
    vm.run(&mut m2);
    assert_eq!(
        vm.stats().decode_misses,
        first_misses,
        "post-recycle run must start cold (same miss profile as a fresh engine)"
    );
}
