//! Emulate-cache microbenchmarks: the per-trap cost of a full `bind`
//! (decode-derived operand walk + effective-address resolution) against
//! resolving a memoized [`BoundPlan`], plus the end-to-end effect of the
//! emulate cache (on / off) on a real trapping workload.
//!
//! With `emulate_cache` on, the trap cache stores the decoded instruction
//! *and* its bound operand plan per rip, so a hot trap replaces the bind stage with
//! `plan.resolve(m)` — only memory operands re-derive their effective
//! address. This bench demonstrates the resolve path beats bind-every-trap
//! (the acceptance gate for the cache's existence).

use fpvm_arith::Vanilla;
use fpvm_bench::microbench::{bench_ns, black_box};
use fpvm_core::runtime::{Fpvm, FpvmConfig};
use fpvm_core::{bind, plan, Planability};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Gpr, Inst, Machine, Mem, Xmm, XM};
use fpvm_workloads::{lorenz, Size};

fn main() {
    println!("== emulate cache: bind-every-trap vs plan.resolve (per trap) ==");
    let mut m = Machine::new(CostModel::r815());
    m.gpr[Gpr::RSP.0 as usize] = 0x40_0000;
    // A representative mix: reg-reg scalar, mem-operand scalar, packed.
    let insts = [
        Inst::AddSd {
            dst: Xmm(0),
            src: XM::Reg(Xmm(1)),
        },
        Inst::MulSd {
            dst: Xmm(2),
            src: XM::Mem(Mem::base_disp(Gpr::RSP, 8)),
        },
        Inst::MulPd {
            dst: Xmm(3),
            src: XM::Mem(Mem::base_disp(Gpr::RSP, 16)),
        },
    ];
    let plans: Vec<_> = insts
        .iter()
        .map(|i| match plan(i, 0x2000) {
            Planability::Static(p) => p,
            other => panic!("bench insts must be statically plannable, got {other:?}"),
        })
        .collect();

    let bind_ns = bench_ns("emulate_cache/bind_every_trap_x3", || {
        let mut lanes = 0u32;
        for i in &insts {
            let b = bind(&m, i, 0x2000).unwrap();
            lanes += b.lanes.iter().flatten().count() as u32;
        }
        black_box(lanes)
    });
    let resolve_ns = bench_ns("emulate_cache/plan_resolve_x3", || {
        let mut lanes = 0u32;
        for p in &plans {
            let b = p.resolve(&m);
            lanes += b.lanes.iter().flatten().count() as u32;
        }
        black_box(lanes)
    });
    println!(
        "plan.resolve is {:.2}x the bind-every-trap cost (< 1.0 means the cache pays)",
        resolve_ns / bind_ns
    );

    println!();
    println!("== emulate cache: end-to-end (lorenz/tiny, Vanilla, R815) ==");
    let w = lorenz::workload(Size::Tiny);
    let compiled = compile(&w.module, CompileMode::Native);
    let run_mode = |name: &str, cfg: FpvmConfig| {
        let mut last = (0u64, 0u64);
        let ns = bench_ns(&format!("emulate_cache/{name}/lorenz_tiny_run"), || {
            let mut m = Machine::new(CostModel::r815());
            m.load_program(&compiled.program);
            let mut fpvm = Fpvm::new(Vanilla, cfg);
            let r = fpvm.run(&mut m);
            last = (r.stats.fp_traps, r.stats.decode_hits);
            black_box(r.cycles)
        });
        println!(
            "    {name}: {} traps, {} decode hits, {:.0} ns/run",
            last.0, last.1, ns
        );
        ns
    };
    let on = run_mode("ecache_on", FpvmConfig::default());
    let off = run_mode(
        "ecache_off",
        FpvmConfig {
            emulate_cache: false,
            ..FpvmConfig::default()
        },
    );
    println!(
        "emulate cache on is {:.2}x the bind-every-trap run (< 1.0 means faster)",
        on / off
    );
}
