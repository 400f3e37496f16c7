//! # fpvm-core — the hybrid FPVM runtime
//!
//! The paper's primary contribution (§4): a trap-and-emulate floating point
//! virtual machine that runs an existing binary on an alternative
//! arithmetic system, combined with static-analysis correctness traps for
//! the x64 instructions that cannot trap on NaN-boxed values, an
//! LD_PRELOAD-style math/output interposition layer, a conservative
//! mark-and-sweep shadow-value collector, and an optional trap-and-patch
//! engine (§3.2).
//!
//! Typical use:
//!
//! ```
//! use fpvm_core::{Fpvm, FpvmConfig, run_native};
//! use fpvm_arith::BigFloatCtx;
//! use fpvm_machine::{Asm, CostModel, Machine, Xmm, ExtFn};
//!
//! // A tiny guest: print 1.0 / 3.0.
//! let mut a = Asm::new();
//! let one = a.f64m(1.0);
//! let three = a.f64m(3.0);
//! a.movsd(Xmm(0), one);
//! a.divsd(Xmm(0), three);
//! a.call_ext(ExtFn::PrintF64);
//! a.halt();
//! let prog = a.finish();
//!
//! // Virtualize it onto 200-bit arbitrary precision arithmetic.
//! let mut m = Machine::new(CostModel::r815());
//! m.load_program(&prog);
//! let mut fpvm = Fpvm::new(BigFloatCtx::new(200), FpvmConfig::default());
//! let report = fpvm.run(&mut m);
//! assert_eq!(report.stats.fp_traps, 1); // the divsd rounded and trapped
//! assert!(fpvm.rendered_output()[0].starts_with("3.333333333333333333"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod engine;
pub mod gc;
pub mod metrics;
pub mod profile;
pub mod stats;
pub mod trace;

/// The staged engine under its historical name: `fpvm_core::runtime::*`
/// paths keep working.
pub use engine as runtime;

pub use bound::{
    bind, plan, Bound, BoundLane, BoundPlan, Dst, Loc, PlanLane, PlanLoc, Planability,
};
pub use engine::{
    Accounting, Counter, ExitReason, Fpvm, FpvmConfig, HandlerTable, RunReport, RuntimeError,
    SideTableEntry, Stage, TrapFrame,
};
pub use metrics::{EngineMetrics, MetricStage};
pub use profile::{ArenaSample, Log2Histogram, ProfilerSink, SiteProfile};
pub use stats::{Component, CycleBreakdown, GcRecord, Stats};
pub use trace::{ExtDisposition, FanoutSink, NullSink, RingBufferSink, TraceEvent, TraceSink};

use fpvm_machine::{Event, Machine, Program};

/// Run a program natively (no virtualization): all exceptions masked,
/// external calls executed by the machine. The §5.2 baseline.
pub fn run_native(m: &mut Machine, p: &Program, max_insts: u64) -> Event {
    m.load_program(p);
    m.hook_ext = false;
    m.mxcsr.mask_all();
    m.run(max_insts)
}
