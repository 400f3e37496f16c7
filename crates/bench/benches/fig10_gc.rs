//! Fig. 10 microbenchmark: garbage collector pass latency as a function of
//! live shadow population. The collector is the paper's serial
//! mark-and-sweep. Each timed iteration rebuilds the arena + guest memory
//! (collect mutates both), so the printed number includes that fixed
//! setup.

use fpvm_arith::ShadowArena;
use fpvm_bench::microbench::bench_ns;
use fpvm_core::gc;
use fpvm_machine::{Asm, CostModel, Machine, DATA_BASE};

fn machine_with_boxes(arena: &mut ShadowArena<f64>, n: usize) -> Machine {
    let mut a = Asm::new();
    a.global("space", 64 * 1024);
    a.halt();
    let p = a.finish();
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p);
    // Scatter n live boxes through the data segment; allocate n dead ones.
    for i in 0..n {
        let live = arena.alloc(i as f64);
        let _dead = arena.alloc(-(i as f64));
        m.mem
            .write_u64(DATA_BASE + (i as u64 % 8000) * 8, fpvm_nanbox::encode(live))
            .unwrap();
    }
    m
}

fn main() {
    println!("== fig10: gc pass latency (setup + collect) ==");
    for &n in &[100usize, 1000, 10_000] {
        bench_ns(&format!("fig10/gc_pass/serial/{n}"), || {
            let mut arena = ShadowArena::new();
            let m = machine_with_boxes(&mut arena, n);
            gc::collect(&m, &mut arena)
        });
    }
}
