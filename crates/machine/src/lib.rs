//! # fpvm-machine — the simulated x64-FP substrate
//!
//! A deterministic, cycle-accounted simulator of an x64 subset with SSE2
//! floating point and **precise, maskable FP exceptions** — the substrate
//! on which this reproduction runs the entire FPVM pipeline (see DESIGN.md
//! §2 for the substitution argument).
//!
//! The crate provides:
//! * [`isa`] — the instruction set, with the same virtualization holes as
//!   real x64 (bitwise FP ops, integer loads, `movq` never fault).
//! * [`encode`](mod@encode) — variable-length binary encoding + decoder (the Capstone
//!   analogue).
//! * [`asm`] — a two-pass assembler producing [`Program`] images.
//! * [`exec`] — the [`Machine`] executor with `%mxcsr` semantics.
//! * [`cost`] — cycle cost profiles for the paper's three machines and the
//!   §6 delivery-mode variants.
//! * [`mem`] — guest memory with the segment layout the GC scans.
//! * [`block`] — superblock dispatch: batched execution of straight-line
//!   guest code between traps (host-time only; accounting-pinned).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod block;
pub mod cost;
pub mod encode;
pub mod exec;
pub mod isa;
pub mod mem;
pub mod mxcsr;
pub mod taint;

pub use asm::{Asm, Label, Program};
pub use block::BlockCacheStats;
pub use cost::{CostModel, DeliveryMode};
pub use encode::{decode, encode, encoded_len, DecodeError, MAX_INST_LEN};
pub use exec::{Event, Fault, Machine, OutputEvent};
pub use isa::*;
pub use mem::{MemFault, Memory, CODE_BASE, DATA_BASE, HEAP_BASE};
pub use mxcsr::{Mxcsr, RFlags};
pub use taint::{TaintEvent, TaintPlane, TaintSinkKind, TaintSite};
