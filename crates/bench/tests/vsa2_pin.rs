//! E19 behavior pins for the second-generation analysis passes.
//!
//! The `flow_mem` refinement may only *refine* the sink set — never add sinks, never change guest-visible behavior.
//! These tests pin, at Tiny sizes so they run in CI's test pass:
//!
//! 1. the static refinement invariant on every workload (the `+flow`
//!    sinks ⊆ the baseline's sinks), and every sink set exactly,
//! 2. dynamic bit-identity of guest outputs and deterministic accounting
//!    across configs on FP-heavy and sink-heavy reference workloads,
//! 3. soundness through the taint oracle (zero missed) in every config on
//!    the sink-bearing workloads, and the headline Enzo refinement.

use fpvm_analysis::{analyze_and_patch_with, analyze_with, AnalysisConfig, HeapModel};
use fpvm_arith::Vanilla;
use fpvm_core::{ExitReason, Fpvm, FpvmConfig};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Machine, OutputEvent};
use fpvm_workloads::{all_workloads, Size};
use std::collections::BTreeSet;

/// The two E19 ablation configs (alloc-site heap everywhere).
fn configs() -> Vec<(&'static str, AnalysisConfig)> {
    let base = AnalysisConfig {
        heap: HeapModel::AllocSite,
        ..Default::default()
    };
    vec![
        ("baseline", base),
        (
            "+flow",
            AnalysisConfig {
                flow_mem: true,
                ..base
            },
        ),
    ]
}

#[test]
fn every_config_only_refines_the_baseline_sink_set() {
    for w in all_workloads(Size::Tiny) {
        let c = compile(&w.module, CompileMode::Native);
        let cfgs = configs();
        let base = analyze_with(&c.program, &cfgs[0].1);
        let base_addrs: BTreeSet<u64> = base.sinks.iter().map(|s| s.addr).collect();
        for (name, acfg) in &cfgs[1..] {
            let an = analyze_with(&c.program, acfg);
            let addrs: BTreeSet<u64> = an.sinks.iter().map(|s| s.addr).collect();
            assert!(
                addrs.is_subset(&base_addrs),
                "{} under {name}: sinks grew beyond baseline ({:?} ⊄ {:?})",
                w.name,
                addrs.difference(&base_addrs).collect::<Vec<_>>(),
                base_addrs
            );
        }
    }
}

#[test]
fn flow_strictly_refines_enzo() {
    let w = all_workloads(Size::Tiny)
        .into_iter()
        .find(|w| w.name == "Enzo")
        .expect("Enzo exists");
    let c = compile(&w.module, CompileMode::Native);
    let cfgs = configs();
    let base = analyze_with(&c.program, &cfgs[0].1);
    let flow = analyze_with(&c.program, &cfgs[1].1);
    assert!(
        flow.sinks.len() < base.sinks.len(),
        "+flow must drop Enzo sinks: {} !< {}",
        flow.sinks.len(),
        base.sinks.len()
    );
}

/// One config's dynamic fingerprint on one workload.
#[derive(Debug, PartialEq, Eq)]
struct RunPrint {
    fp_traps: u64,
    emulated: u64,
    output: Vec<OutputEvent>,
    missed: usize,
    skipped: usize,
}

/// Folds `CorrectnessTrap` trace events into per-site observations.
#[derive(Default)]
struct TrapLedger {
    per_rip: std::collections::BTreeMap<u64, fpvm_analysis::SiteDyn>,
}

impl fpvm_core::TraceSink for TrapLedger {
    fn emit(&mut self, ev: &fpvm_core::TraceEvent) {
        if let fpvm_core::TraceEvent::CorrectnessTrap {
            rip,
            demoted,
            dispatch_cycles,
            handler_cycles,
            ..
        } = ev
        {
            self.per_rip
                .entry(*rip)
                .or_default()
                .record(*demoted, dispatch_cycles + handler_cycles);
        }
    }
}

fn run_config(w: &fpvm_workloads::Workload, acfg: &AnalysisConfig) -> RunPrint {
    let c = compile(&w.module, CompileMode::Native);
    let patched = analyze_and_patch_with(&c.program, acfg);
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&patched.program);
    let mut rt = Fpvm::new(
        Vanilla,
        FpvmConfig {
            taint_oracle: true,
            ..FpvmConfig::default()
        },
    );
    rt.set_side_table(patched.side_table.clone());
    rt.set_trace_sink(Box::new(TrapLedger::default()));
    let report = rt.run(&mut m);
    assert_eq!(report.exit, ExitReason::Halted, "{}", w.name);
    let patched_addrs = patched.side_table.iter().map(|e| e.addr).collect();
    let plane = m.taint_plane().expect("oracle enabled");
    let ledger = rt.take_trace_sink().downcast::<TrapLedger>().unwrap();
    let rep = fpvm_analysis::audit(
        &patched.analysis,
        &patched_addrs,
        &ledger.per_rip,
        &plane.sites,
    );
    RunPrint {
        fp_traps: report.stats.fp_traps,
        emulated: report.stats.emulated,
        output: m.output,
        missed: rep.total.missed,
        skipped: patched.skipped.len(),
    }
}

#[test]
fn guest_behavior_is_bit_identical_across_configs() {
    // FP-heavy with zero sinks (Lorenz), sink-heavy heap workload (Enzo),
    // and the other audit-positive workload (miniAero): every ablation
    // config must produce the same outputs and FP-trap accounting, stay
    // sound (zero missed), and leave no sink unpatched.
    for name in ["Lorenz Attractor", "Enzo", "miniAero"] {
        let w = all_workloads(Size::Tiny)
            .into_iter()
            .find(|w| w.name == name)
            .expect("workload exists");
        let mut first: Option<RunPrint> = None;
        for (cname, acfg) in configs() {
            let r = run_config(&w, &acfg);
            assert_eq!(r.missed, 0, "{name} under {cname}: missed sinks");
            assert_eq!(r.skipped, 0, "{name} under {cname}: unpatched sinks");
            match &first {
                None => first = Some(r),
                Some(f) => {
                    assert_eq!(f.output, r.output, "{name} under {cname}: output drift");
                    assert_eq!(
                        (f.fp_traps, f.emulated),
                        (r.fp_traps, r.emulated),
                        "{name} under {cname}: FP-trap accounting drift"
                    );
                }
            }
        }
    }
}

/// FNV-1a over the sorted sink addresses (little-endian bytes).
fn sink_set_hash(addrs: &BTreeSet<u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in addrs {
        for b in a.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hash of the empty sink set.
const EMPTY: (usize, u64) = (0, 0xcbf2_9ce4_8422_2325);

/// Every workload's Tiny sink set under each configuration the analysis
/// supports, `{OneCell, AllocSite} × {flow_mem off, on}`, as
/// `(count, FNV-1a of the sorted addresses)`. Any change to the analysis
/// that moves one sink on any workload fails here.
#[test]
fn sink_sets_are_pinned() {
    #[rustfmt::skip]
    let pins: [(&str, [(usize, u64); 4]); 10] = [
        ("FBench", [EMPTY; 4]),
        ("Lorenz Attractor", [EMPTY; 4]),
        ("Three-Body", [EMPTY; 4]),
        ("miniAero", [
            (8, 0xe33e_44bc_aac5_0f51), (1, 0x90c6_cb9c_ff09_50ac),
            (8, 0xe33e_44bc_aac5_0f51), (1, 0x90c6_cb9c_ff09_50ac),
        ]),
        ("NAS IS", [EMPTY; 4]),
        ("NAS EP", [EMPTY; 4]),
        ("NAS CG", [EMPTY; 4]),
        ("NAS MG", [EMPTY; 4]),
        ("NAS LU", [EMPTY; 4]),
        ("Enzo", [
            (29, 0xeeb4_b461_6ef0_4a9e), (5, 0xbf66_8029_84db_790a),
            (16, 0x70b3_2d33_3fa7_0564), (3, 0xdefa_26a5_9c76_04ab),
        ]),
    ];
    let workloads = all_workloads(Size::Tiny);
    assert_eq!(workloads.len(), pins.len());
    for (w, (name, want)) in workloads.iter().zip(pins) {
        assert_eq!(w.name, name);
        let c = compile(&w.module, CompileMode::Native);
        let mut i = 0;
        for heap in [HeapModel::OneCell, HeapModel::AllocSite] {
            for flow_mem in [false, true] {
                let acfg = AnalysisConfig { heap, flow_mem };
                let an = analyze_with(&c.program, &acfg);
                let addrs: BTreeSet<u64> = an.sinks.iter().map(|s| s.addr).collect();
                assert_eq!(
                    (addrs.len(), sink_set_hash(&addrs)),
                    want[i],
                    "{name} under {heap:?}, flow_mem {flow_mem}"
                );
                i += 1;
            }
        }
    }
}
