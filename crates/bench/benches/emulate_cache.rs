//! Bound-plan microbenchmark: the per-trap cost of a full `bind`
//! (decode-derived operand walk + effective-address resolution) against
//! resolving a memoized [`BoundPlan`].
//!
//! The trap cache stores the decoded instruction *and* its bound operand
//! plan per rip, so a hot trap replaces the bind stage with
//! `plan.resolve(m)` — only memory operands re-derive their effective
//! address. This bench shows what the stored plan saves per trap.

use fpvm_bench::microbench::{bench_ns, black_box};
use fpvm_core::{bind, plan, Planability};
use fpvm_machine::{CostModel, Gpr, Inst, Machine, Mem, Xmm, XM};

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
}
