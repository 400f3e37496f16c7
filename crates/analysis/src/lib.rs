//! # fpvm-analysis — static binary analysis and transformation (§4.2)
//!
//! The offline half of the hybrid FPVM: because some x64 instructions
//! operate on NaN-boxed values *without* faulting (integer loads of FP
//! memory, `movq r64 ← xmm`, the `xorpd`/`andpd` compiler idioms),
//! trap-and-emulate alone is unsound. This crate reproduces the paper's
//! angr + e9patch pipeline on the simulated ISA:
//!
//! 1. [`cfg`](mod@cfg) recovers a control flow graph from the program image;
//! 2. [`vsa`] runs a value-set-analysis-lite abstract interpretation that
//!    finds *sources* (FP stores) and *sinks* (integer reads that may
//!    observe them), degrading conservatively where static reasoning fails
//!    — VSA "is not generally solvable" (§4.2);
//! 3. [`patch`] overwrites each sink with an explicit **correctness trap**
//!    and emits the side table the runtime uses to demote-and-re-execute.
//!
//! Two [`AnalysisConfig`] knobs refine the sink set: allocation-site heap
//! partitioning (measured by `reproduce --exp audit`, E14) and
//! flow-sensitive memory typing (`reproduce --exp vsa2`, E19).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cfg;
pub mod patch;
pub mod vsa;

pub use audit::{audit, AuditReport, AuditSite, ReasonMetrics, SiteClass, SiteDyn};
pub use cfg::Cfg;
pub use patch::{
    analyze_and_patch, analyze_and_patch_with, apply_patches, PatchedProgram, SkipReason,
    SkippedSink,
};
pub use vsa::{
    analyze, analyze_with, Analysis, AnalysisConfig, AnalysisStats, HeapModel, Sink, SinkReason,
};
