//! A delegating [`ArithSystem`] that times the backend by op class.
//!
//! Every trait method forwards to the wrapped backend, including the
//! default methods (`cmp_eq`, `is_unordered`, `is_nan`, `render`) that
//! backends override: a wrapper that fell back to the trait defaults
//! would silently change printf output. Times are summed per op class in
//! relaxed atomics (the trait is `Sync` and takes `&self`), never
//! recorded one span per call.

use fpvm_arith::{ArithSystem, CmpResult, FpFlags, Round};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The op classes the ledger sums over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// add, sub, mul, div, fma, sqrt, min, max, neg, abs, floor, ceil.
    Basic,
    /// sin, cos, tan, asin, acos, atan, atan2, exp, log, log10, pow.
    Transcendental,
    /// The ten conversions.
    Convert,
    /// cmp_quiet, cmp_signaling, cmp_eq, is_unordered, is_nan.
    Compare,
    /// The output wrapper's full-precision rendering.
    Render,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Basic,
        OpClass::Transcendental,
        OpClass::Convert,
        OpClass::Compare,
        OpClass::Render,
    ];

    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Basic => "basic",
            OpClass::Transcendental => "transcendental",
            OpClass::Convert => "convert",
            OpClass::Compare => "compare",
            OpClass::Render => "render",
        }
    }
}

/// Calls and host nanoseconds per op class.
#[derive(Debug, Default)]
pub struct Ledger {
    calls: [AtomicU64; 5],
    ns: [AtomicU64; 5],
}

impl Ledger {
    /// Calls made in one class.
    pub fn calls(&self, c: OpClass) -> u64 {
        self.calls[c as usize].load(Ordering::Relaxed)
    }

    /// Host nanoseconds spent in one class.
    pub fn ns(&self, c: OpClass) -> u64 {
        self.ns[c as usize].load(Ordering::Relaxed)
    }
}

/// The timing wrapper around a backend.
#[derive(Debug)]
pub struct Timed<A> {
    inner: A,
    ledger: Ledger,
}

impl<A: ArithSystem> Timed<A> {
    /// Wrap a backend with an empty ledger.
    pub fn new(inner: A) -> Self {
        Timed {
            inner,
            ledger: Ledger::default(),
        }
    }

    /// The per-class totals so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    #[inline]
    fn time<R>(&self, class: OpClass, f: impl FnOnce(&A) -> R) -> R {
        let t = Instant::now();
        let r = f(&self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        self.ledger.calls[class as usize].fetch_add(1, Ordering::Relaxed);
        self.ledger.ns[class as usize].fetch_add(ns, Ordering::Relaxed);
        r
    }
}

type V<A> = <A as ArithSystem>::Value;

impl<A: ArithSystem> ArithSystem for Timed<A> {
    type Value = A::Value;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn from_f64(&self, x: f64) -> V<A> {
        self.time(OpClass::Convert, |a| a.from_f64(x))
    }
    fn to_f64(&self, v: &V<A>, rm: Round) -> (f64, FpFlags) {
        self.time(OpClass::Convert, |a| a.to_f64(v, rm))
    }
    fn from_f32(&self, x: f32) -> (V<A>, FpFlags) {
        self.time(OpClass::Convert, |a| a.from_f32(x))
    }
    fn to_f32(&self, v: &V<A>, rm: Round) -> (f32, FpFlags) {
        self.time(OpClass::Convert, |a| a.to_f32(v, rm))
    }
    fn from_i32(&self, x: i32) -> (V<A>, FpFlags) {
        self.time(OpClass::Convert, |a| a.from_i32(x))
    }
    fn from_i64(&self, x: i64) -> (V<A>, FpFlags) {
        self.time(OpClass::Convert, |a| a.from_i64(x))
    }
    fn to_i32(&self, v: &V<A>) -> (i32, FpFlags) {
        self.time(OpClass::Convert, |a| a.to_i32(v))
    }
    fn to_i64(&self, v: &V<A>) -> (i64, FpFlags) {
        self.time(OpClass::Convert, |a| a.to_i64(v))
    }
    fn from_u64(&self, x: u64) -> (V<A>, FpFlags) {
        self.time(OpClass::Convert, |a| a.from_u64(x))
    }
    fn to_u64(&self, v: &V<A>) -> (u64, FpFlags) {
        self.time(OpClass::Convert, |a| a.to_u64(v))
    }

    fn add(&self, x: &V<A>, y: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.add(x, y, rm))
    }
    fn sub(&self, x: &V<A>, y: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.sub(x, y, rm))
    }
    fn mul(&self, x: &V<A>, y: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.mul(x, y, rm))
    }
    fn div(&self, x: &V<A>, y: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.div(x, y, rm))
    }
    fn fma(&self, x: &V<A>, y: &V<A>, z: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.fma(x, y, z, rm))
    }
    fn sqrt(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.sqrt(x, rm))
    }
    fn min(&self, x: &V<A>, y: &V<A>) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.min(x, y))
    }
    fn max(&self, x: &V<A>, y: &V<A>) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.max(x, y))
    }
    fn neg(&self, x: &V<A>) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.neg(x))
    }
    fn abs(&self, x: &V<A>) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.abs(x))
    }
    fn floor(&self, x: &V<A>) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.floor(x))
    }
    fn ceil(&self, x: &V<A>) -> (V<A>, FpFlags) {
        self.time(OpClass::Basic, |a| a.ceil(x))
    }

    fn sin(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.sin(x, rm))
    }
    fn cos(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.cos(x, rm))
    }
    fn tan(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.tan(x, rm))
    }
    fn asin(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.asin(x, rm))
    }
    fn acos(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.acos(x, rm))
    }
    fn atan(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.atan(x, rm))
    }
    fn atan2(&self, y: &V<A>, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.atan2(y, x, rm))
    }
    fn exp(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.exp(x, rm))
    }
    fn log(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.log(x, rm))
    }
    fn log10(&self, x: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.log10(x, rm))
    }
    fn pow(&self, x: &V<A>, y: &V<A>, rm: Round) -> (V<A>, FpFlags) {
        self.time(OpClass::Transcendental, |a| a.pow(x, y, rm))
    }

    fn cmp_quiet(&self, x: &V<A>, y: &V<A>) -> (CmpResult, FpFlags) {
        self.time(OpClass::Compare, |a| a.cmp_quiet(x, y))
    }
    fn cmp_signaling(&self, x: &V<A>, y: &V<A>) -> (CmpResult, FpFlags) {
        self.time(OpClass::Compare, |a| a.cmp_signaling(x, y))
    }
    fn cmp_eq(&self, x: &V<A>, y: &V<A>) -> (bool, FpFlags) {
        self.time(OpClass::Compare, |a| a.cmp_eq(x, y))
    }
    fn is_unordered(&self, x: &V<A>, y: &V<A>) -> (bool, FpFlags) {
        self.time(OpClass::Compare, |a| a.is_unordered(x, y))
    }
    fn is_nan(&self, x: &V<A>) -> bool {
        self.time(OpClass::Compare, |a| a.is_nan(x))
    }

    fn render(&self, v: &V<A>) -> String {
        self.time(OpClass::Render, |a| a.render(v))
    }
}
