//! The host-speed reference the benchmark's times are scaled by.
//!
//! On a shared host the same code can run up to about 2× slower while
//! neighbours load the physical core, and the load changes from second
//! to second. Thread CPU time does not remove that: the thread is not
//! waiting, it runs slower. The slowdown hits code with a large
//! instruction footprint and many indirect branches (an interpreter, a
//! trap handler, a software float library) and leaves tight loops almost
//! untouched, so the reference is a kernel of that shape: 1024 distinct
//! small functions called through a table in a data-dependent order.
//!
//! The benchmark runs the kernel right before and after every timed call
//! and scales the call's CPU time by how fast the kernel ran around it: a
//! call's time is reported in *reference seconds*, the CPU time it would
//! have taken had a kernel run taken [`REF_KERNEL_S`]. The kernel is this
//! file's own code and calls nothing of the repository, so no change to
//! the program moves it: a change that makes the program faster or slower
//! moves the scaled times as it moves the raw ones.

use crate::cpu::CpuInstant;
use crate::measure::Interval;

/// The kernel's CPU time in one reference second's worth of its runs: a
/// fixed constant that defines the unit. It is chosen so that reference
/// seconds come out close to the CPU seconds the workloads took on a
/// lightly loaded 2-vCPU Intel Xeon guest at 2.0 GHz.
pub const REF_KERNEL_S: f64 = 0.002;

/// Calls per [`Kernel::run`].
const STEPS: usize = 1_000_000;
const TABLE_WORDS: usize = 1 << 14;

type Op = fn(&mut [u64; 8], &mut [u64]) -> usize;

/// One of the kernel's functions; every `N` is a distinct body.
#[inline(never)]
fn op<const N: u64>(r: &mut [u64; 8], t: &mut [u64]) -> usize {
    let a = (N % 8) as usize;
    let b = ((N / 8) % 8) as usize;
    let mut x = r[a].wrapping_mul(N | 1).rotate_left((N % 63) as u32);
    if x & (N + 1) == 0 {
        x ^= r[b].wrapping_add(N * 0x9e37);
    } else {
        x = x.wrapping_sub(r[b] >> (N % 13));
    }
    let i = (x as usize ^ N as usize) & (t.len() - 1);
    t[i] = t[i].wrapping_add(x ^ N);
    if (x >> 7) % (N % 5 + 2) == 1 {
        r[b] = r[b].wrapping_add(t[(i + N as usize) & (t.len() - 1)]);
    }
    r[a] = x;
    (x >> 3) as usize
}

macro_rules! ops4 {
    ($b:expr) => {
        [
            op::<{ $b * 4 }> as Op,
            op::<{ $b * 4 + 1 }>,
            op::<{ $b * 4 + 2 }>,
            op::<{ $b * 4 + 3 }>,
        ]
    };
}
macro_rules! ops16 {
    ($b:expr) => {
        [
            ops4!($b * 4),
            ops4!($b * 4 + 1),
            ops4!($b * 4 + 2),
            ops4!($b * 4 + 3),
        ]
    };
}
macro_rules! ops64 {
    ($b:expr) => {
        [
            ops16!($b * 4),
            ops16!($b * 4 + 1),
            ops16!($b * 4 + 2),
            ops16!($b * 4 + 3),
        ]
    };
}
macro_rules! ops256 {
    ($b:expr) => {
        [
            ops64!($b * 4),
            ops64!($b * 4 + 1),
            ops64!($b * 4 + 2),
            ops64!($b * 4 + 3),
        ]
    };
}

/// The kernel's 1024 functions.
static OPS: [[[[[Op; 4]; 4]; 4]; 4]; 4] = [ops256!(0), ops256!(1), ops256!(2), ops256!(3)];

/// The reference kernel and its state.
pub struct Kernel {
    regs: [u64; 8],
    table: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            regs: [1, 2, 3, 4, 5, 6, 7, 8],
            table: vec![0; TABLE_WORDS],
        }
    }

    /// Make [`STEPS`] calls, each choosing the next from its result.
    pub fn run(&mut self) -> u64 {
        let mut k = 1usize;
        for _ in 0..STEPS {
            let f = OPS[(k >> 8) & 3][(k >> 6) & 3][(k >> 4) & 3][(k >> 2) & 3][k & 3];
            k = f(&mut self.regs, &mut self.table) ^ k.wrapping_mul(31);
        }
        k as u64
    }

    /// Run the kernel once and return its CPU time in ns.
    pub fn sample(&mut self) -> u64 {
        let t = CpuInstant::now();
        std::hint::black_box(self.run());
        t.elapsed().as_nanos() as u64
    }
}

/// Times calls in reference seconds.
pub struct RefClock {
    kernel: Kernel,
    last_ns: u64,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        let last_ns = kernel.sample();
        RefClock { kernel, last_ns }
    }

    /// Sample the kernel afresh before a series of calls, so the first
    /// call's "before" sample is not stale.
    pub fn begin(&mut self) {
        self.last_ns = self.kernel.sample();
    }

    /// Run `f`, then the kernel; returns `f`'s value, its interval and
    /// its scale: reference seconds per CPU second, from the mean of the
    /// kernel runs just before and just after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Interval, f64) {
        let (v, at) = Interval::of(f);
        let after = self.kernel.sample();
        let kernel_s = (self.last_ns + after) as f64 / 2e9;
        self.last_ns = after;
        (v, at, REF_KERNEL_S / kernel_s)
    }
}

/// `ns` scaled by `scale` (see [`RefClock::time`]).
pub fn scaled(ns: u64, scale: f64) -> u64 {
    (ns as f64 * scale).round() as u64
}
