//! Arithmetic-system microbenchmarks: the per-op cost of each system
//! through the 37-function interface (§4.3), plus NaN-box encode/decode.
//! These are the `emulate` component inputs of Fig. 9.

use fpvm_arith::{bigfloat, ArithSystem, BigFloatCtx, PositCtx, Round, Vanilla};
use fpvm_bench::microbench::bench_ns;

fn main() {
    let rm = Round::NearestEven;
    println!("== arith: add/mul/div chain (16 rounds) ==");
    bench_ns("arith/add_mul_div_chain/vanilla", || {
        let v = Vanilla;
        let mut x = 0.1f64;
        for _ in 0..16 {
            x = v
                .div(&v.mul(&v.add(&x, &0.7, rm).0, &1.3, rm).0, &1.1, rm)
                .0;
        }
        x
    });
    bench_ns("arith/add_mul_div_chain/bigfloat200", || {
        let v = BigFloatCtx::new(200);
        let mut x = v.from_f64(0.1);
        let k7 = v.from_f64(0.7);
        let k13 = v.from_f64(1.3);
        let k11 = v.from_f64(1.1);
        for _ in 0..16 {
            x = v.div(&v.mul(&v.add(&x, &k7, rm).0, &k13, rm).0, &k11, rm).0;
        }
        v.to_f64(&x, rm).0
    });
    bench_ns("arith/add_mul_div_chain/posit64", || {
        let v = PositCtx::<64, 3>;
        let mut x = v.from_f64(0.1);
        let k7 = v.from_f64(0.7);
        let k13 = v.from_f64(1.3);
        let k11 = v.from_f64(1.1);
        for _ in 0..16 {
            x = v.div(&v.mul(&v.add(&x, &k7, rm).0, &k13, rm).0, &k11, rm).0;
        }
        v.to_f64(&x, rm).0
    });

    println!("== arith: single kernels (bigfloat200) ==");
    let big = BigFloatCtx::new(200);
    // Full-width operands (every mantissa limb populated) and an f64-widened
    // one (53 significant bits: the short-divisor path).
    let third = big.div(&big.from_f64(1.0), &big.from_f64(3.0), rm).0;
    let root2 = big.sqrt(&big.from_f64(2.0), rm).0;
    let short = big.from_f64(1.1);
    bench_ns("arith/kernel/bigfloat200/sqrt", || big.sqrt(&third, rm).0);
    bench_ns("arith/kernel/bigfloat200/div_full_width", || {
        big.div(&root2, &third, rm).0
    });
    bench_ns("arith/kernel/bigfloat200/div_short", || {
        big.div(&root2, &short, rm).0
    });
    // Same exponent, so `add` compares the mantissas word by word.
    let near = big.add(&root2, &big.from_f64(1e-30), rm).0;
    bench_ns("arith/kernel/bigfloat200/add_equal_exp", || {
        big.add(&root2, &near, rm).0
    });
    bench_ns("arith/kernel/bigfloat200/add_f64_operand", || {
        big.add(&root2, &short, rm).0
    });
    // The scalar kernels the transcendentals reduce and sum with, at the
    // 280-bit working precision of a 200-bit target.
    bench_ns("arith/kernel/bigfloat280/mul_u64", || {
        bigfloat::mul_u64(&root2, 1_000_003, 280, rm).0
    });
    bench_ns("arith/kernel/bigfloat280/div_u64", || {
        bigfloat::div_u64(&root2, 1_000_003, 280, rm).0
    });

    println!("== arith: transcendentals (bigfloat200) ==");
    let x = big.from_f64(0.7);
    bench_ns("arith/transcendental/bigfloat200/sin", || big.sin(&x, rm).0);
    bench_ns("arith/transcendental/bigfloat200/cos", || big.cos(&x, rm).0);
    bench_ns("arith/transcendental/bigfloat200/tan", || big.tan(&x, rm).0);
    bench_ns("arith/transcendental/bigfloat200/exp", || big.exp(&x, rm).0);
    bench_ns("arith/transcendental/bigfloat200/log", || big.log(&x, rm).0);
    bench_ns("arith/transcendental/bigfloat200/asin", || {
        big.asin(&x, rm).0
    });
    bench_ns("arith/transcendental/bigfloat200/acos", || {
        big.acos(&x, rm).0
    });
    bench_ns("arith/transcendental/bigfloat200/atan", || {
        big.atan(&x, rm).0
    });
    let y = big.from_f64(-1.9);
    bench_ns("arith/transcendental/bigfloat200/atan2", || {
        big.atan2(&y, &x, rm).0
    });
    let e = big.from_f64(1.37);
    bench_ns("arith/transcendental/bigfloat200/pow", || {
        big.pow(&x, &e, rm).0
    });
    bench_ns("arith/transcendental/bigfloat200/log10", || {
        big.log10(&x, rm).0
    });
    // Workload-shaped arguments: full-width values as a BigFloat guest
    // computes them. FBench traces rays through lens surfaces (sin of
    // incidence angles, asin of refracted sines); NAS EP takes logs of
    // uniform deviates in (0, 1).
    let full = |v: f64| big.div(&big.from_f64(v), &big.from_f64(3.0), rm).0;
    let angle = full(0.4137);
    let sine = full(-0.2911);
    let deviate = full(0.6180);
    bench_ns("arith/transcendental/bigfloat200/sin_fbench", || {
        big.sin(&angle, rm).0
    });
    bench_ns("arith/transcendental/bigfloat200/asin_fbench", || {
        big.asin(&sine, rm).0
    });
    bench_ns("arith/transcendental/bigfloat200/log_ep", || {
        big.log(&deviate, rm).0
    });

    println!("== arith: nanbox ==");
    let key = fpvm_nanbox::ShadowKey::new(0xABCDE).unwrap();
    let boxed = fpvm_nanbox::encode(key);
    let plain = 1.5f64.to_bits();
    bench_ns("arith/nanbox/encode", || fpvm_nanbox::encode(key));
    bench_ns("arith/nanbox/decode_hit", || fpvm_nanbox::decode(boxed));
    bench_ns("arith/nanbox/decode_miss", || fpvm_nanbox::decode(plain));
}
