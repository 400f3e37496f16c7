//! # fpvm-benchmark — one benchmark for the FPVM reproduction
//!
//! Three workloads, each a fixed list of guest programs run one at a time
//! on a fresh `Machine` + `Fpvm` (a closed loop of one client, single
//! thread): the paper's BigFloat@200 configuration over all ten programs,
//! and two Vanilla mixes that stress the trap frame and the interpreter in
//! opposite proportions. The benchmark drives only public entry points
//! (`fpvm_ir::compile`, `fpvm_analysis::analyze_and_patch`,
//! `fpvm_core::run_native`, `Fpvm::run`, `Machine::superblock_stats` and
//! the `ArithSystem` trait), so it measures the system as a user gets it.
//!
//! - [`jobs`]: the workloads, their programs and the seeded job order;
//! - [`check`]: output checking (references and recorded digests);
//! - [`timed`]: the op-class timing wrapper around a backend;
//! - [`measure`]: set-up, passes, traced passes and the metrics;
//! - [`spans`]: the traced run's in-memory span log;
//! - [`cpu`]: the thread CPU clock every time is measured on;
//! - [`calib`]: the reference kernel that scales those times to
//!   reference seconds, so a shared host's load does not move them.

#![deny(unsafe_code)]

pub mod calib;
pub mod check;
#[allow(unsafe_code)]
pub mod cpu;
pub mod jobs;
pub mod measure;
pub mod spans;
pub mod timed;
