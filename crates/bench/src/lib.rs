//! # fpvm-bench — the experiment harness
//!
//! One entry point per table/figure in the paper's evaluation (§5) plus the
//! §6 projections; the `reproduce` binary drives them and prints
//! paper-style tables. See DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod loc;
pub mod microbench;
pub mod trace;
pub mod trajectory;

use fpvm_analysis::analyze_and_patch;
use fpvm_arith::ArithSystem;
use fpvm_core::{ExitReason, Fpvm, FpvmConfig, RunReport};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Event, Machine, OutputEvent};
use fpvm_workloads::Workload;

/// Result of a native (baseline) run.
pub struct NativeRun {
    /// Cycles under the cost model.
    pub cycles: u64,
    /// Instructions retired.
    pub icount: u64,
    /// FP instructions retired.
    pub fp_icount: u64,
    /// Guest output.
    pub output: Vec<OutputEvent>,
}

/// Run a workload natively under a cost profile.
pub fn run_native(w: &Workload, cost: CostModel) -> NativeRun {
    let c = compile(&w.module, CompileMode::Native);
    let mut m = Machine::new(cost);
    let ev = fpvm_core::run_native(&mut m, &c.program, 20_000_000_000);
    assert_eq!(ev, Event::Halted, "{}: {ev:?}", w.name);
    NativeRun {
        cycles: m.cycles,
        icount: m.icount,
        fp_icount: m.fp_icount,
        output: m.output,
    }
}

/// Run the full hybrid pipeline (compile → analyze+patch → virtualize).
pub fn run_hybrid<A: ArithSystem>(
    w: &Workload,
    arith: A,
    cost: CostModel,
    cfg: FpvmConfig,
) -> (RunReport, Vec<OutputEvent>, fpvm_analysis::AnalysisStats) {
    run_hybrid_with(w, arith, cost, cfg, |_| {})
}

/// [`run_hybrid`] with a setup hook that sees the runtime before it runs —
/// install a trace sink, restrict patch sites, etc.
pub fn run_hybrid_with<A: ArithSystem>(
    w: &Workload,
    arith: A,
    cost: CostModel,
    cfg: FpvmConfig,
    setup: impl FnOnce(&mut Fpvm<A>),
) -> (RunReport, Vec<OutputEvent>, fpvm_analysis::AnalysisStats) {
    let (report, output, stats, _) = run_hybrid_owned(w, arith, cost, cfg, setup);
    (report, output, stats)
}

/// [`run_hybrid_with`] that also hands back the runtime itself, so callers
/// can tear down installed sinks ([`Fpvm::take_trace_sink`] + `downcast`)
/// or inspect patch state after the run. Sinks are owned by the engine —
/// this is the only way to read them back.
pub fn run_hybrid_owned<A: ArithSystem>(
    w: &Workload,
    arith: A,
    cost: CostModel,
    cfg: FpvmConfig,
    setup: impl FnOnce(&mut Fpvm<A>),
) -> (
    RunReport,
    Vec<OutputEvent>,
    fpvm_analysis::AnalysisStats,
    Fpvm<A>,
) {
    let c = compile(&w.module, CompileMode::Native);
    let patched = analyze_and_patch(&c.program);
    let mut m = Machine::new(cost);
    m.load_program(&patched.program);
    let mut rt = Fpvm::new(arith, cfg);
    rt.set_side_table(patched.side_table);
    setup(&mut rt);
    let report = rt.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted, "{}", w.name);
    (report, m.output, patched.analysis.stats, rt)
}

/// FNV-1a over the guest's output events, little-endian per event: the
/// bit-identity fingerprint the pins and experiments compare.
pub fn output_fnv(out: &[OutputEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in out {
        let bits = match ev {
            OutputEvent::F64(b) => *b,
            OutputEvent::I64(v) => *v as u64,
        };
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Format a count with thousands separators.
pub fn commas(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Format a slowdown like the paper's Fig. 12 ("1,808x").
pub fn slowdown_str(x: f64) -> String {
    format!("{}x", commas(x.round() as u64))
}
