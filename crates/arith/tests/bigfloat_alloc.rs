//! BigFloat at the paper's 200 bits must not touch the heap: a counting
//! global allocator asserts zero allocations for the basic operations, the
//! `f64` conversions and, once the per-thread constant and table caches
//! are warm, the transcendentals, over a spread of operands.

use fpvm_arith::bigfloat::{self, BigFloat};
use fpvm_arith::Round;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made on the current thread
/// (the test harness's own threads allocate concurrently).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn bigfloat200_basic_ops_and_conversions_do_not_allocate() {
    const P: u32 = 200;
    let rm = Round::NearestEven;
    let xs = [
        0.1,
        -2.75,
        3.0,
        1e-300,
        7.0e200,
        -0.0,
        1.0 / 3.0,
        f64::MIN_POSITIVE / 8.0,
    ];
    let n = allocations(|| {
        // f64-converted operands, full-width quotients and roots of them,
        // and small integers: every divisor shape the workloads produce.
        let mut vals: [BigFloat; 8] = xs.map(|x| BigFloat::from_f64(x, P, rm).0);
        for i in 0..vals.len() {
            let j = (i + 3) % vals.len();
            let (q, _) = bigfloat::div(&vals[i], &vals[j], P, rm);
            let (s, _) = bigfloat::sqrt(&q.abs(), P, rm);
            vals[i] = bigfloat::add(&q, &s, P, rm).0;
        }
        let mut acc = BigFloat::from_f64(1.5, P, rm).0;
        for a in &vals {
            for b in &vals {
                let (s, _) = bigfloat::add(a, b, P, rm);
                let (d, _) = bigfloat::sub(a, b, P, rm);
                let (p, _) = bigfloat::mul(&s, &d, P, rm);
                let (q, _) = bigfloat::div(&p, b, P, rm);
                let (r, _) = bigfloat::sqrt(&q.abs(), P, rm);
                acc = bigfloat::add(&acc, &r, P, rm).0;
                let (k, _) = BigFloat::from_f64(7.0, P, rm);
                acc = bigfloat::div(&acc, &k, P, rm).0;
                let (x, _) = r.to_f64(rm);
                let (back, _) = BigFloat::from_f64(x, P, rm);
                acc = bigfloat::sub(&acc, &back, P, rm).0;
            }
        }
        std::hint::black_box(acc.to_f64(rm));
    });
    assert_eq!(n, 0, "BigFloat@200 basic ops allocated {n} times");
}

#[test]
fn bigfloat200_transcendentals_do_not_allocate_once_caches_are_warm() {
    const P: u32 = 200;
    let xs = [0.7, -0.31, 2.5, -11.0, 1e-5, 0.999, 123.4, -0.05];
    let args: Vec<BigFloat> = xs
        .iter()
        .map(|&x| {
            // Full-width operands, as a BigFloat guest computes them.
            let v = BigFloat::from_f64(x, P, Round::NearestEven).0;
            let three = BigFloat::from_f64(3.0, P, Round::NearestEven).0;
            bigfloat::div(&v, &three, P, Round::NearestEven).0
        })
        .collect();
    type Unary = fn(&BigFloat, u32, Round) -> (BigFloat, fpvm_arith::FpFlags);
    let fns: [Unary; 6] = [
        bigfloat::sin,
        bigfloat::cos,
        bigfloat::asin,
        bigfloat::atan,
        bigfloat::exp,
        bigfloat::log,
    ];
    let run = || {
        for f in fns {
            for a in &args {
                for rm in [Round::NearestEven, Round::Down, Round::Up, Round::Zero] {
                    // asin and log reject part of the spread: NaN, no heap.
                    std::hint::black_box(f(a, P, rm));
                }
            }
        }
    };
    // The first pass fills the caches: π, ln 2, 2/π and 1/ln 2 at each
    // working precision, and the atan and ln tables.
    run();
    let n = allocations(run);
    assert_eq!(
        n, 0,
        "warm BigFloat@200 transcendentals allocated {n} times"
    );
}
