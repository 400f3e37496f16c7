//! The machine executor: a functional + cycle-accounted simulator of the
//! ISA with precise, maskable floating point exceptions.
//!
//! The executor implements the hardware contract FPVM's trap-and-emulate
//! engine relies on (§4.1):
//!
//! * FP arithmetic computes IEEE results *and* exception flags (via
//!   [`fpvm_arith::softfp`]); flags are OR-ed into the sticky `%mxcsr`
//!   condition codes.
//! * If any raised flag is **unmasked**, the instruction faults *before
//!   retirement*: no result is written, `rip` still points at the faulting
//!   instruction, and the run loop surfaces an [`Event::FpException`] — the
//!   analogue of #XM → kernel → SIGFPE.
//! * Bitwise FP instructions, integer loads, and `movq` never fault — the
//!   holes §4.2's static analysis exists to patch.
//! * `Trap` instructions surface [`Event::SwTrap`] (correctness traps and
//!   patch calls), and external calls surface [`Event::ExtCall`] when the
//!   runtime has hooked them (the LD_PRELOAD-shim analogue).

use crate::cost::CostModel;
use crate::encode::{decode, DecodeError, MAX_INST_LEN};
use crate::isa::*;
use crate::mem::{MemFault, Memory, CODE_BASE};
use crate::mxcsr::{Mxcsr, RFlags};
use crate::taint::TaintPlane;
use crate::Program;
use fpvm_arith::{softfp, FpFlags};

/// A recorded output event (the guest's stdout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputEvent {
    /// printf("%.17g\n", x) — records the raw bits for exact comparison.
    F64(u64),
    /// printf("%ld\n", x).
    I64(i64),
}

impl OutputEvent {
    /// Render as the guest's stdout line.
    pub fn render(&self) -> String {
        match self {
            OutputEvent::F64(bits) => format!("{:?}", f64::from_bits(*bits)),
            OutputEvent::I64(v) => format!("{v}"),
        }
    }
}

/// A fatal execution fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Memory access fault.
    Mem(MemFault, u64),
    /// Undecodable instruction.
    Decode(DecodeError, u64),
    /// `rip` left the code segment.
    BadRip(u64),
    /// Instruction budget exhausted (runaway loop guard).
    Budget,
    /// Unhandled software trap (no runtime attached).
    UnhandledTrap(u64),
}

/// Why the run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `Halt` executed.
    Halted,
    /// `Exit` external call (with code).
    Exited(i64),
    /// An unmasked FP exception fired. `rip` points at the faulting
    /// instruction, which has *not* retired. `flags` are the conditions the
    /// instruction raised (already OR-ed into mxcsr).
    FpException {
        /// Address of the faulting instruction.
        rip: u64,
        /// The exception conditions raised.
        flags: FpFlags,
    },
    /// A `Trap` instruction was reached (correctness trap or patch call).
    SwTrap {
        /// Trap kind.
        kind: TrapKind,
        /// Side-table index.
        id: u16,
        /// Address of the trap instruction.
        rip: u64,
    },
    /// An external call site was reached while hooked; the instruction has
    /// *not* executed. The runtime interposes or forwards it.
    ExtCall {
        /// The external function.
        f: ExtFn,
        /// Address of the call instruction.
        rip: u64,
        /// Address of the following instruction.
        next_rip: u64,
    },
    /// One instruction retired in single-step (TF) mode.
    SingleStepped,
    /// §6.2 hardware extension: a NaN-box pattern was observed by a
    /// non-FP instruction while [`Machine::nan_hole_traps`] is enabled
    /// (trap-on-NaN-load + NaN checks on bitwise FP ops). The instruction
    /// has *not* retired.
    NanHole {
        /// Address of the instruction that observed the pattern.
        rip: u64,
    },
    /// Fatal fault.
    Fault(Fault),
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// General-purpose registers.
    pub gpr: [u64; 16],
    /// XMM registers (two 64-bit lanes each).
    pub xmm: [[u64; 2]; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Flags register.
    pub rflags: RFlags,
    /// SSE control/status register.
    pub mxcsr: Mxcsr,
    /// Guest memory.
    pub mem: Memory,
    /// Cost model for cycle accounting.
    pub cost: CostModel,
    /// Accumulated cycles (base execution + runtime charges).
    pub cycles: u64,
    /// Retired instruction count.
    pub icount: u64,
    /// Retired *floating point arithmetic* instruction count.
    pub fp_icount: u64,
    /// Guest output.
    pub output: Vec<OutputEvent>,
    /// Deliver `ExtCall` events instead of executing externals natively.
    pub hook_ext: bool,
    /// Single-step (TF) mode: return after each retired instruction.
    pub single_step: bool,
    /// §6.2 hardware extension: integer loads, `movq r64←xmm` and bitwise
    /// FP ops fault when they observe a signaling-NaN pattern, making the
    /// FP ISA fully virtualizable without static analysis.
    pub nan_hole_traps: bool,
    /// Dispatch superblocks of straight-line code on the hot path (see
    /// [`crate::block`]). On by default; accounting is bit-identical
    /// on/off — the block engine may only change host wall time.
    pub superblocks: bool,
    /// Superblock formation cap: [`crate::block::DEFAULT_BLOCK_CAP`],
    /// lowered only by the block tests.
    pub(crate) sb_cap: u32,
    /// The superblock cache (offset-keyed, fingerprint-guarded).
    pub(crate) blocks: crate::block::BlockCache,
    /// Pre-decoded instruction cache, indexed by code offset (this is the
    /// *hardware* decoder — free; FPVM's software decode cache is separate).
    /// Allocated lazily on first fetch so machines that never run cost
    /// nothing; retained (capacity and all) across `load_program`.
    predecoded: Vec<Option<(Inst, u8)>>,
    /// Shadow taint plane (the audit oracle). `None` — the default — means
    /// the hot path is completely untouched.
    taint: Option<Box<TaintPlane>>,
}

impl Machine {
    /// New machine with the given cost profile and default memory.
    pub fn new(cost: CostModel) -> Self {
        Machine {
            gpr: [0; 16],
            xmm: [[0; 2]; 16],
            rip: CODE_BASE,
            rflags: RFlags::default(),
            mxcsr: Mxcsr::default(),
            mem: Memory::default(),
            cost,
            cycles: 0,
            icount: 0,
            fp_icount: 0,
            output: Vec::new(),
            hook_ext: false,
            single_step: false,
            nan_hole_traps: false,
            superblocks: true,
            sb_cap: crate::block::DEFAULT_BLOCK_CAP,
            blocks: crate::block::BlockCache::default(),
            predecoded: Vec::new(),
            taint: None,
        }
    }

    /// Load a program image and reset execution state.
    pub fn load_program(&mut self, p: &Program) {
        self.mem.load_image(&p.code, &p.data);
        self.rip = p.entry;
        self.gpr = [0; 16];
        self.gpr[Gpr::RSP.0 as usize] = self.mem.size() - 64;
        self.xmm = [[0; 2]; 16];
        self.rflags = RFlags::default();
        self.mxcsr = Mxcsr::default();
        self.cycles = 0;
        self.icount = 0;
        self.fp_icount = 0;
        self.output.clear();
        // Keep the allocation (fleet reuse); fetch re-grows it lazily.
        self.predecoded.clear();
        if self.taint.is_some() {
            self.taint = Some(Box::default());
        }
    }

    /// Enable (or reset) the shadow taint plane. Costs nothing when never
    /// called: the plane is `None` by default and every taint hook is a
    /// no-op.
    pub fn taint_enable(&mut self) {
        self.taint = Some(Box::default());
    }

    /// Drop the taint plane entirely (back to the zero-cost default).
    /// Used by machine-reusing drivers (the fleet) to guarantee a
    /// recycled machine doesn't inherit a previous job's plane.
    pub fn taint_disable(&mut self) {
        self.taint = None;
    }

    /// The taint plane, if enabled.
    pub fn taint_plane(&self) -> Option<&TaintPlane> {
        self.taint.as_deref()
    }

    /// Tell the plane which sites the patcher trapped: taint consumption
    /// there is handled by the correctness-trap machinery and is not a
    /// leak. No-op when the plane is disabled.
    pub fn taint_install_trapped(&mut self, addrs: impl IntoIterator<Item = u64>) {
        if let Some(t) = self.taint.as_deref_mut() {
            t.trapped.extend(addrs);
        }
    }

    /// Reclassify XMM `r` lane `l` from its current bits (called by the
    /// runtime after it writes a register — this is how boxed results
    /// *enter* the plane). No-op when disabled.
    pub fn taint_reclassify_xmm(&mut self, r: usize, l: usize) {
        let boxed = fpvm_nanbox::is_boxed(self.xmm[r][l]);
        if let Some(t) = self.taint.as_deref_mut() {
            t.set_xmm(r, l, boxed);
        }
    }

    /// Reclassify GPR `r` from its current bits. No-op when disabled.
    pub fn taint_reclassify_gpr(&mut self, r: usize) {
        let boxed = fpvm_nanbox::is_boxed(self.gpr[r]);
        if let Some(t) = self.taint.as_deref_mut() {
            t.set_gpr(r, boxed);
        }
    }

    /// Reclassify the 8-byte word containing `addr` from memory contents.
    /// No-op when disabled.
    pub fn taint_reclassify_mem(&mut self, addr: u64) {
        let boxed = self
            .mem
            .read_u64(addr & !7)
            .map(fpvm_nanbox::is_boxed)
            .unwrap_or(false);
        if let Some(t) = self.taint.as_deref_mut() {
            t.set_mem_word(addr, boxed);
        }
    }

    /// Patch code bytes and invalidate every predecode slot and superblock
    /// that overlaps the patched range. Instructions are variable length,
    /// so a decode *starting before* the range can span into it — the
    /// predecode sweep rewinds by [`MAX_INST_LEN`] and drops exactly the
    /// slots whose decoded span reaches the patch.
    pub fn patch_code(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.patch_code(addr, bytes);
        let off = (addr - CODE_BASE) as usize;
        let lo = off.saturating_sub(MAX_INST_LEN - 1);
        let hi = (off + bytes.len()).min(self.predecoded.len());
        for s in lo..hi.min(self.predecoded.len()) {
            let stale = match &self.predecoded[s] {
                // Inside the range: bytes changed under the decode.
                _ if s >= off => true,
                // Before the range: stale only if the span reaches it.
                Some((_, len)) => s + *len as usize > off,
                None => false,
            };
            if stale {
                self.predecoded[s] = None;
            }
        }
        self.blocks
            .note_patch(off, bytes.len(), self.mem.code_fingerprint());
    }

    /// Charge extra cycles (used by the runtime for delivery/handling).
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Content fingerprint of the loaded code segment (see
    /// [`crate::Memory::code_fingerprint`]).
    pub fn code_fingerprint(&self) -> u64 {
        self.mem.code_fingerprint()
    }

    /// Effective address of a memory operand.
    pub fn ea(&self, m: &Mem) -> u64 {
        let base = m.base.map_or(0, |r| self.gpr[r.0 as usize]);
        let index = m.index.map_or(0, |r| {
            self.gpr[r.0 as usize].wrapping_mul(u64::from(m.scale))
        });
        base.wrapping_add(index).wrapping_add(m.disp as u64)
    }

    /// Read a 64-bit FP operand (lane 0 of a register, or memory).
    pub fn read_xm64(&self, xm: &XM) -> Result<u64, MemFault> {
        match xm {
            XM::Reg(x) => Ok(self.xmm[x.0 as usize][0]),
            XM::Mem(m) => self.mem.read_u64(self.ea(m)),
        }
    }

    /// Read both lanes of an FP operand.
    pub fn read_xm128(&self, xm: &XM) -> Result<[u64; 2], MemFault> {
        match xm {
            XM::Reg(x) => Ok(self.xmm[x.0 as usize]),
            XM::Mem(m) => self.mem.read_u128(self.ea(m)),
        }
    }

    /// Fetch and decode the instruction at `rip` (hardware decode — free).
    pub fn fetch(&mut self, rip: u64) -> Result<(Inst, u8), Fault> {
        if rip < CODE_BASE || rip >= self.mem.code_end {
            return Err(Fault::BadRip(rip));
        }
        let off = (rip - CODE_BASE) as usize;
        if self.predecoded.len() <= off {
            // Lazy allocation: machines that never run (fleet spares,
            // clones held for inspection) pay nothing for this table.
            self.predecoded.resize(self.mem.code_bytes().len(), None);
        }
        let slot = &mut self.predecoded[off];
        if let Some(hit) = slot {
            return Ok(*hit);
        }
        match decode(self.mem.code_bytes(), off) {
            Ok((inst, len)) => {
                *slot = Some((inst, len as u8));
                Ok((inst, len as u8))
            }
            Err(e) => Err(Fault::Decode(e, rip)),
        }
    }

    /// Run until an event occurs (fault, halt, trap, hooked ext call) or
    /// `budget` instructions retire.
    ///
    /// When [`Machine::superblocks`] is enabled (the default) this
    /// dispatches whole superblocks on the hot path (see [`crate::block`]);
    /// single-step mode and the taint plane demand per-instruction
    /// fidelity, so they fall back to the stepped loop. Either way the
    /// observable result — events, `rip`, all accounting — is identical.
    pub fn run(&mut self, budget: u64) -> Event {
        if self.superblocks && !self.single_step && self.taint.is_none() {
            return self.run_superblocks(budget);
        }
        self.run_stepped(budget)
    }

    /// The per-instruction run loop (the reference semantics superblock
    /// dispatch is pinned against).
    fn run_stepped(&mut self, budget: u64) -> Event {
        let target = self.icount.saturating_add(budget);
        loop {
            if self.icount >= target {
                return Event::Fault(Fault::Budget);
            }
            match self.step() {
                None => {
                    if self.single_step {
                        return Event::SingleStepped;
                    }
                }
                Some(ev) => return ev,
            }
        }
    }

    /// Execute one instruction. Returns `None` if it retired without
    /// incident, `Some(event)` otherwise.
    pub fn step(&mut self) -> Option<Event> {
        let rip = self.rip;
        let (inst, len) = match self.fetch(rip) {
            Ok(v) => v,
            Err(f) => return Some(Event::Fault(f)),
        };
        let next = rip + u64::from(len);
        self.cycles += self.cost.inst_cost(&inst);
        match self.exec(&inst, rip, next) {
            ExecResult::Retired => {
                self.icount += 1;
                if inst.is_fp_arith() {
                    self.fp_icount += 1;
                }
                None
            }
            ExecResult::Event(ev) => Some(ev),
        }
    }

    /// Execute a specific instruction (not fetched from `rip`) with all FP
    /// exceptions temporarily masked, then set `rip = next_rip`. Used by
    /// the runtime to re-execute demoted instructions after a correctness
    /// trap (single-instruction-step, §4.2) and by trap-and-patch handlers.
    /// Returns the flags the instruction raised (the postcondition check).
    pub fn exec_masked(&mut self, inst: &Inst, next_rip: u64) -> Result<FpFlags, Event> {
        let saved_masks = self.mxcsr.masks();
        let saved_flags = self.mxcsr.flags();
        let saved_nan_traps = self.nan_hole_traps;
        self.nan_hole_traps = false;
        // The runtime re-executes originals it demoted; any taint they
        // consume is already handled — suppress leak events, but keep
        // propagating taint.
        let saved_suppress = self.taint.as_deref_mut().map(|t| {
            let s = t.suppress;
            t.suppress = true;
            s
        });
        self.mxcsr.mask_all();
        self.mxcsr.clear_flags();
        self.cycles += self.cost.inst_cost(inst);
        let r = self.exec(inst, self.rip, next_rip);
        let raised = self.mxcsr.flags();
        self.nan_hole_traps = saved_nan_traps;
        if let (Some(t), Some(s)) = (self.taint.as_deref_mut(), saved_suppress) {
            t.suppress = s;
        }
        self.mxcsr.set_masks(saved_masks);
        self.mxcsr.clear_flags();
        self.mxcsr.raise(saved_flags);
        match r {
            ExecResult::Retired => {
                self.icount += 1;
                if inst.is_fp_arith() {
                    self.fp_icount += 1;
                }
                Ok(raised)
            }
            ExecResult::Event(ev) => Err(ev),
        }
    }

    /// Execute an external function natively (host libm / stdio / services).
    /// Returns `Some(event)` only for `Exit`.
    pub fn exec_ext_native(&mut self, f: ExtFn) -> Option<Event> {
        let x0 = f64::from_bits(self.xmm[0][0]);
        let x1 = f64::from_bits(self.xmm[1][0]);
        let set0 = |m: &mut Machine, v: f64| m.xmm[0][0] = v.to_bits();
        match f {
            ExtFn::Sin => set0(self, x0.sin()),
            ExtFn::Cos => set0(self, x0.cos()),
            ExtFn::Tan => set0(self, x0.tan()),
            ExtFn::Asin => set0(self, x0.asin()),
            ExtFn::Acos => set0(self, x0.acos()),
            ExtFn::Atan => set0(self, x0.atan()),
            ExtFn::Atan2 => set0(self, x0.atan2(x1)),
            ExtFn::Exp => set0(self, x0.exp()),
            ExtFn::Log => set0(self, x0.ln()),
            ExtFn::Log10 => set0(self, x0.log10()),
            ExtFn::Pow => set0(self, x0.powf(x1)),
            ExtFn::Floor => set0(self, x0.floor()),
            ExtFn::Ceil => set0(self, x0.ceil()),
            ExtFn::Fabs => {
                // Real libm fabs is a bit operation — it clears the sign bit
                // of whatever pattern it is handed, NaN-box or not.
                self.xmm[0][0] &= !fpvm_nanbox::F64_SIGN_BIT;
            }
            ExtFn::PrintF64 => self.output.push(OutputEvent::F64(self.xmm[0][0])),
            ExtFn::PrintI64 => self
                .output
                .push(OutputEvent::I64(self.gpr[Gpr::RDI.0 as usize] as i64)),
            ExtFn::AllocHeap => {
                let size = self.gpr[Gpr::RDI.0 as usize];
                self.gpr[Gpr::RAX.0 as usize] = self.mem.alloc_heap(size).unwrap_or(0);
            }
            ExtFn::Exit => {
                return Some(Event::Exited(self.gpr[Gpr::RDI.0 as usize] as i64));
            }
        }
        if let Some(t) = self.taint.as_deref_mut() {
            t.apply_ext(f);
        }
        None
    }

    fn exec(&mut self, inst: &Inst, rip: u64, next: u64) -> ExecResult {
        if self.taint.is_none() {
            return self.exec_inner(inst, rip, next);
        }
        let pre = crate::taint::PreState::capture(self, inst);
        let r = self.exec_inner(inst, rip, next);
        if matches!(r, ExecResult::Retired) {
            let mut t = self.taint.take().expect("taint plane present");
            t.step(self, inst, rip, &pre);
            self.taint = Some(t);
        }
        r
    }

    pub(crate) fn exec_inner(&mut self, inst: &Inst, rip: u64, next: u64) -> ExecResult {
        use Inst::*;
        macro_rules! mem_try {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(f) => return ExecResult::Event(Event::Fault(Fault::Mem(f, rip))),
                }
            };
        }
        match inst {
            Nop => {}
            Halt => return ExecResult::Event(Event::Halted),
            Trap { kind, id } => {
                return ExecResult::Event(Event::SwTrap {
                    kind: *kind,
                    id: *id,
                    rip,
                });
            }
            MovSd { dst, src } => {
                let v = mem_try!(self.read_xm64(src));
                match dst {
                    XM::Reg(x) => {
                        let lane = &mut self.xmm[x.0 as usize];
                        lane[0] = v;
                        // x64: movsd xmm ← mem zeroes the upper lane;
                        // xmm ← xmm preserves it.
                        if matches!(src, XM::Mem(_)) {
                            lane[1] = 0;
                        }
                    }
                    XM::Mem(m) => mem_try!(self.mem.write_u64(self.ea(m), v)),
                }
            }
            MovApd { dst, src } => {
                let v = mem_try!(self.read_xm128(src));
                match dst {
                    XM::Reg(x) => self.xmm[x.0 as usize] = v,
                    XM::Mem(m) => mem_try!(self.mem.write_u128(self.ea(m), v)),
                }
            }
            AddSd { dst, src } => return self.fp_bin(softfp::add, *dst, src, rip, next),
            SubSd { dst, src } => return self.fp_bin(softfp::sub, *dst, src, rip, next),
            MulSd { dst, src } => return self.fp_bin(softfp::mul, *dst, src, rip, next),
            DivSd { dst, src } => return self.fp_bin(softfp::div, *dst, src, rip, next),
            MinSd { dst, src } => return self.fp_bin(softfp::min, *dst, src, rip, next),
            MaxSd { dst, src } => return self.fp_bin(softfp::max, *dst, src, rip, next),
            SqrtSd { dst, src } => {
                let b = match self.read_xm64(src) {
                    Ok(v) => v,
                    Err(f) => return ExecResult::Event(Event::Fault(Fault::Mem(f, rip))),
                };
                let (v, flags) = softfp::sqrt(f64::from_bits(b));
                return self.fp_retire(*dst, v.to_bits(), flags, rip, next);
            }
            FmaSd { dst, a, b } => {
                let va = f64::from_bits(self.xmm[dst.0 as usize][0]);
                let vb = f64::from_bits(self.xmm[a.0 as usize][0]);
                let vc = match self.read_xm64(b) {
                    Ok(v) => f64::from_bits(v),
                    Err(f) => return ExecResult::Event(Event::Fault(Fault::Mem(f, rip))),
                };
                let (v, flags) = softfp::fma(va, vb, vc);
                return self.fp_retire(*dst, v.to_bits(), flags, rip, next);
            }
            AddPd { dst, src } => return self.fp_packed(softfp::add, *dst, src, rip, next),
            SubPd { dst, src } => return self.fp_packed(softfp::sub, *dst, src, rip, next),
            MulPd { dst, src } => return self.fp_packed(softfp::mul, *dst, src, rip, next),
            DivPd { dst, src } => return self.fp_packed(softfp::div, *dst, src, rip, next),
            UComISd { a, b } | ComISd { a, b } => {
                let va = f64::from_bits(self.xmm[a.0 as usize][0]);
                let vb = match self.read_xm64(b) {
                    Ok(v) => f64::from_bits(v),
                    Err(f) => return ExecResult::Event(Event::Fault(Fault::Mem(f, rip))),
                };
                let (r, flags) = if matches!(inst, UComISd { .. }) {
                    softfp::ucomi(va, vb)
                } else {
                    softfp::comi(va, vb)
                };
                self.mxcsr.raise(flags);
                if !self.mxcsr.unmasked(flags).is_empty() {
                    return ExecResult::Event(Event::FpException { rip, flags });
                }
                self.rflags.set_fp_compare(r);
                self.rip = next;
            }
            CvtSi2Sd { dst, src, w } => {
                let raw = match src {
                    RM::Reg(r) => self.gpr[r.0 as usize],
                    RM::Mem(m) => mem_try!(self.mem.read_int(self.ea(m), w.bytes())),
                };
                let (v, flags) = match w {
                    Width::W32 => softfp::cvt_i32_to_f64(raw as u32 as i32),
                    _ => softfp::cvt_i64_to_f64(raw as i64),
                };
                return self.fp_retire(*dst, v.to_bits(), flags, rip, next);
            }
            CvtTSd2Si { dst, src, w } => {
                let b = match self.read_xm64(src) {
                    Ok(v) => f64::from_bits(v),
                    Err(f) => return ExecResult::Event(Event::Fault(Fault::Mem(f, rip))),
                };
                let (v, flags) = match w {
                    Width::W32 => {
                        let (v, f) = softfp::cvt_f64_to_i32(b);
                        (v as u32 as u64, f)
                    }
                    _ => {
                        let (v, f) = softfp::cvt_f64_to_i64(b);
                        (v as u64, f)
                    }
                };
                self.mxcsr.raise(flags);
                if !self.mxcsr.unmasked(flags).is_empty() {
                    return ExecResult::Event(Event::FpException { rip, flags });
                }
                self.gpr[dst.0 as usize] = v;
                self.rip = next;
            }
            CvtSd2Ss { dst, src } => {
                let b = match self.read_xm64(src) {
                    Ok(v) => f64::from_bits(v),
                    Err(f) => return ExecResult::Event(Event::Fault(Fault::Mem(f, rip))),
                };
                let (v, flags) = softfp::cvt_f64_to_f32(b);
                self.mxcsr.raise(flags);
                if !self.mxcsr.unmasked(flags).is_empty() {
                    return ExecResult::Event(Event::FpException { rip, flags });
                }
                let lane = &mut self.xmm[dst.0 as usize][0];
                *lane = (*lane & !0xFFFF_FFFF) | u64::from(v.to_bits());
                self.rip = next;
            }
            CvtSs2Sd { dst, src } => {
                let b = match self.read_xm64(src) {
                    Ok(v) => v,
                    Err(f) => return ExecResult::Event(Event::Fault(Fault::Mem(f, rip))),
                };
                let (v, flags) = softfp::cvt_f32_to_f64(f32::from_bits(b as u32));
                return self.fp_retire(*dst, v.to_bits(), flags, rip, next);
            }
            // Bitwise FP: execute blindly on the bit patterns — NO exception
            // check. This is the virtualization hole.
            XorPd { dst, src } => {
                let v = mem_try!(self.read_xm128(src));
                if self.nan_hole_traps {
                    let d = &self.xmm[dst.0 as usize];
                    if [d[0], d[1], v[0], v[1]]
                        .iter()
                        .any(|&x| fpvm_nanbox::is_boxed(x))
                    {
                        return ExecResult::Event(Event::NanHole { rip });
                    }
                }
                let d = &mut self.xmm[dst.0 as usize];
                d[0] ^= v[0];
                d[1] ^= v[1];
            }
            AndPd { dst, src } => {
                let v = mem_try!(self.read_xm128(src));
                if self.nan_hole_traps {
                    let d = &self.xmm[dst.0 as usize];
                    if [d[0], d[1], v[0], v[1]]
                        .iter()
                        .any(|&x| fpvm_nanbox::is_boxed(x))
                    {
                        return ExecResult::Event(Event::NanHole { rip });
                    }
                }
                let d = &mut self.xmm[dst.0 as usize];
                d[0] &= v[0];
                d[1] &= v[1];
            }
            OrPd { dst, src } => {
                let v = mem_try!(self.read_xm128(src));
                if self.nan_hole_traps {
                    let d = &self.xmm[dst.0 as usize];
                    if [d[0], d[1], v[0], v[1]]
                        .iter()
                        .any(|&x| fpvm_nanbox::is_boxed(x))
                    {
                        return ExecResult::Event(Event::NanHole { rip });
                    }
                }
                let d = &mut self.xmm[dst.0 as usize];
                d[0] |= v[0];
                d[1] |= v[1];
            }
            MovQXG { dst, src } => {
                let v = self.xmm[src.0 as usize][0];
                if self.nan_hole_traps && fpvm_nanbox::is_boxed(v) {
                    return ExecResult::Event(Event::NanHole { rip });
                }
                self.gpr[dst.0 as usize] = v;
            }
            MovQGX { dst, src } => {
                self.xmm[dst.0 as usize][0] = self.gpr[src.0 as usize];
                self.xmm[dst.0 as usize][1] = 0;
            }
            MovRR { dst, src } => self.gpr[dst.0 as usize] = self.gpr[src.0 as usize],
            MovRI { dst, imm } => self.gpr[dst.0 as usize] = *imm as u64,
            Load { dst, addr, w } => {
                let v = mem_try!(self.mem.read_int(self.ea(addr), w.bytes()));
                // §6.2 "trap on NaN-load": a 64-bit integer load of a
                // signaling-NaN pattern faults before retirement.
                if self.nan_hole_traps && matches!(w, Width::W64) && fpvm_nanbox::is_boxed(v) {
                    return ExecResult::Event(Event::NanHole { rip });
                }
                self.gpr[dst.0 as usize] = v;
            }
            Store { addr, src, w } => {
                mem_try!(self
                    .mem
                    .write_int(self.ea(addr), self.gpr[src.0 as usize], w.bytes()));
            }
            Lea { dst, addr } => self.gpr[dst.0 as usize] = self.ea(addr),
            AluRR { op, dst, src } => {
                let b = self.gpr[src.0 as usize];
                self.alu(*op, *dst, b);
            }
            AluRI { op, dst, imm } => self.alu(*op, *dst, *imm as u64),
            DivR { dst, src } => {
                let b = self.gpr[src.0 as usize] as i64;
                let a = self.gpr[dst.0 as usize] as i64;
                // Guest #DE modeled as a fault (integer divide-by-zero is a
                // kernel matter, not FPVM's — §6.2).
                if b == 0 {
                    return ExecResult::Event(Event::Fault(Fault::Mem(
                        MemFault::NullGuard(0),
                        rip,
                    )));
                }
                self.gpr[dst.0 as usize] = a.wrapping_div(b) as u64;
            }
            RemR { dst, src } => {
                let b = self.gpr[src.0 as usize] as i64;
                let a = self.gpr[dst.0 as usize] as i64;
                if b == 0 {
                    return ExecResult::Event(Event::Fault(Fault::Mem(
                        MemFault::NullGuard(0),
                        rip,
                    )));
                }
                self.gpr[dst.0 as usize] = a.wrapping_rem(b) as u64;
            }
            CmpRR { a, b } => {
                self.rflags
                    .set_int_compare(self.gpr[a.0 as usize], self.gpr[b.0 as usize]);
            }
            CmpRI { a, imm } => {
                self.rflags
                    .set_int_compare(self.gpr[a.0 as usize], *imm as u64);
            }
            TestRR { a, b } => {
                self.rflags
                    .set_logic(self.gpr[a.0 as usize] & self.gpr[b.0 as usize]);
            }
            Jmp { rel } => {
                self.rip = next.wrapping_add(i64::from(*rel) as u64);
                return self.retired_jump();
            }
            Jcc { cond, rel } => {
                if self.rflags.cond(*cond) {
                    self.cycles += 1; // taken-branch bubble
                    self.rip = next.wrapping_add(i64::from(*rel) as u64);
                } else {
                    self.rip = next;
                }
                return self.retired_jump();
            }
            Call { rel } => {
                let rsp = self.gpr[Gpr::RSP.0 as usize].wrapping_sub(8);
                mem_try!(self.mem.write_u64(rsp, next));
                self.gpr[Gpr::RSP.0 as usize] = rsp;
                self.rip = next.wrapping_add(i64::from(*rel) as u64);
                return self.retired_jump();
            }
            CallExt { f } => {
                if self.hook_ext {
                    return ExecResult::Event(Event::ExtCall {
                        f: *f,
                        rip,
                        next_rip: next,
                    });
                }
                if let Some(ev) = self.exec_ext_native(*f) {
                    return ExecResult::Event(ev);
                }
            }
            Ret => {
                let rsp = self.gpr[Gpr::RSP.0 as usize];
                let ra = mem_try!(self.mem.read_u64(rsp));
                self.gpr[Gpr::RSP.0 as usize] = rsp.wrapping_add(8);
                self.rip = ra;
                return self.retired_jump();
            }
            Push { src } => {
                let rsp = self.gpr[Gpr::RSP.0 as usize].wrapping_sub(8);
                mem_try!(self.mem.write_u64(rsp, self.gpr[src.0 as usize]));
                self.gpr[Gpr::RSP.0 as usize] = rsp;
            }
            Pop { dst } => {
                let rsp = self.gpr[Gpr::RSP.0 as usize];
                let v = mem_try!(self.mem.read_u64(rsp));
                self.gpr[dst.0 as usize] = v;
                self.gpr[Gpr::RSP.0 as usize] = rsp.wrapping_add(8);
            }
        }
        self.rip = next;
        ExecResult::Retired
    }

    fn retired_jump(&mut self) -> ExecResult {
        ExecResult::Retired
    }

    fn alu(&mut self, op: AluOp, dst: Gpr, b: u64) {
        let a = self.gpr[dst.0 as usize];
        let r = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32 & 63),
            AluOp::Shr => a.wrapping_shr(b as u32 & 63),
            AluOp::Sar => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::IMul => (a as i64).wrapping_mul(b as i64) as u64,
        };
        self.gpr[dst.0 as usize] = r;
        if matches!(op, AluOp::Sub) {
            self.rflags.set_int_compare(a, b);
        } else {
            self.rflags.set_logic(r);
        }
    }

    fn fp_bin(
        &mut self,
        f: fn(f64, f64) -> (f64, FpFlags),
        dst: Xmm,
        src: &XM,
        rip: u64,
        next: u64,
    ) -> ExecResult {
        let a = f64::from_bits(self.xmm[dst.0 as usize][0]);
        let b = match self.read_xm64(src) {
            Ok(v) => f64::from_bits(v),
            Err(fault) => return ExecResult::Event(Event::Fault(Fault::Mem(fault, rip))),
        };
        let (v, flags) = f(a, b);
        self.fp_retire(dst, v.to_bits(), flags, rip, next)
    }

    fn fp_packed(
        &mut self,
        f: fn(f64, f64) -> (f64, FpFlags),
        dst: Xmm,
        src: &XM,
        rip: u64,
        next: u64,
    ) -> ExecResult {
        let a = self.xmm[dst.0 as usize];
        let b = match self.read_xm128(src) {
            Ok(v) => v,
            Err(fault) => return ExecResult::Event(Event::Fault(Fault::Mem(fault, rip))),
        };
        let (v0, f0) = f(f64::from_bits(a[0]), f64::from_bits(b[0]));
        let (v1, f1) = f(f64::from_bits(a[1]), f64::from_bits(b[1]));
        let flags = f0 | f1;
        self.mxcsr.raise(flags);
        if !self.mxcsr.unmasked(flags).is_empty() {
            // No partial writeback: the whole instruction faults.
            return ExecResult::Event(Event::FpException { rip, flags });
        }
        self.xmm[dst.0 as usize] = [v0.to_bits(), v1.to_bits()];
        self.rip = next;
        ExecResult::Retired
    }

    fn fp_retire(
        &mut self,
        dst: Xmm,
        bits: u64,
        flags: FpFlags,
        rip: u64,
        next: u64,
    ) -> ExecResult {
        self.mxcsr.raise(flags);
        if !self.mxcsr.unmasked(flags).is_empty() {
            return ExecResult::Event(Event::FpException { rip, flags });
        }
        self.xmm[dst.0 as usize][0] = bits;
        self.rip = next;
        ExecResult::Retired
    }
}

pub(crate) enum ExecResult {
    Retired,
    Event(Event),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn run_asm(build: impl FnOnce(&mut Asm)) -> Machine {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        let ev = m.run(1_000_000);
        assert_eq!(ev, Event::Halted, "program must halt cleanly");
        m
    }

    fn xmm0(m: &Machine) -> f64 {
        f64::from_bits(m.xmm[0][0])
    }

    #[test]
    fn basic_arithmetic() {
        let m = run_asm(|a| {
            let c1 = a.f64m(1.5);
            let c2 = a.f64m(2.25);
            a.movsd(Xmm(0), c1);
            a.movsd(Xmm(1), c2);
            a.addsd(Xmm(0), Xmm(1)); // 3.75
            a.mulsd(Xmm(0), Xmm(1)); // 8.4375
        });
        assert_eq!(xmm0(&m), 8.4375);
        assert_eq!(m.fp_icount, 2);
    }

    #[test]
    fn masked_flags_are_sticky() {
        let m = run_asm(|a| {
            let c1 = a.f64m(0.1);
            let c2 = a.f64m(0.2);
            a.movsd(Xmm(0), c1);
            a.addsd(Xmm(0), c2);
        });
        assert_eq!(xmm0(&m), 0.1 + 0.2);
        assert!(m.mxcsr.flags().contains(FpFlags::INEXACT));
    }

    #[test]
    fn unmasked_inexact_faults_before_retirement() {
        let mut a = Asm::new();
        let c1 = a.f64m(0.1);
        let c2 = a.f64m(0.2);
        a.movsd(Xmm(0), c1);
        let fault_site = a.here();
        a.addsd(Xmm(0), c2);
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m.mxcsr.unmask_all();
        let ev = m.run(100);
        match ev {
            Event::FpException { rip, flags } => {
                assert_eq!(rip, fault_site, "rip points at the faulting inst");
                assert!(flags.contains(FpFlags::INEXACT));
            }
            other => panic!("expected FpException, got {other:?}"),
        }
        // Result NOT written: xmm0 still holds 0.1.
        assert_eq!(xmm0(&m), 0.1);
        // Sticky flag set even though it faulted.
        assert!(m.mxcsr.flags().contains(FpFlags::INEXACT));
    }

    #[test]
    fn exact_ops_never_fault_even_unmasked() {
        let mut a = Asm::new();
        let c1 = a.f64m(1.5);
        let c2 = a.f64m(0.25);
        a.movsd(Xmm(0), c1);
        a.addsd(Xmm(0), c2); // 1.75 exact
        a.mulsd(Xmm(0), c2); // 0.4375 exact
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m.mxcsr.unmask_all();
        assert_eq!(m.run(100), Event::Halted);
        assert_eq!(xmm0(&m), 0.4375);
    }

    #[test]
    fn snan_traps_on_consume_not_on_move() {
        // The NaN-boxing contract: moves carry boxes freely; arithmetic
        // consuming one faults with IE.
        let snan_bits = fpvm_nanbox::encode(fpvm_nanbox::ShadowKey::new(77).unwrap());
        let mut a = Asm::new();
        let boxed = a.f64m(f64::from_bits(snan_bits));
        let g = a.global_f64("slot", 0.0);
        let one = a.f64m(1.0);
        a.movsd(Xmm(0), boxed); // move: no fault
        a.movsd(Mem::abs(g as i64), Xmm(0)); // store: no fault
        a.movsd(Xmm(1), Mem::abs(g as i64)); // reload: no fault
        a.addsd(Xmm(1), one); // consume: IE fault
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m.mxcsr.unmask_all();
        match m.run(100) {
            Event::FpException { flags, .. } => {
                assert!(flags.contains(FpFlags::INVALID));
            }
            other => panic!("expected IE fault, got {other:?}"),
        }
        // The box arrived intact in xmm1.
        assert_eq!(m.xmm[1][0], snan_bits);
    }

    #[test]
    fn bitwise_holes_do_not_trap() {
        // xorpd sign-flip on a NaN-box: corrupts silently, never faults —
        // the §4.2 hazard.
        let snan_bits = fpvm_nanbox::encode(fpvm_nanbox::ShadowKey::new(5).unwrap());
        let mut a = Asm::new();
        let boxed = a.f64m(f64::from_bits(snan_bits));
        let mask = a.u128c([fpvm_nanbox::F64_SIGN_BIT, 0]);
        a.movsd(Xmm(0), boxed);
        a.xorpd(Xmm(0), Mem::abs(mask as i64));
        a.movq_xg(Gpr::RAX, Xmm(0)); // leak to integer world: no fault
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m.mxcsr.unmask_all();
        assert_eq!(m.run(100), Event::Halted);
        assert_eq!(m.gpr[0], snan_bits | fpvm_nanbox::F64_SIGN_BIT);
    }

    #[test]
    fn control_flow_and_stack() {
        // Sum 1..=10 with a loop and a helper function.
        let m = run_asm(|a| {
            let body = a.label();
            let done = a.label();
            let func = a.label();
            a.mov_ri(Gpr::RCX, 1); // i
            a.mov_ri(Gpr::RAX, 0); // sum
            a.bind(body);
            a.cmp_ri(Gpr::RCX, 10);
            a.jcc(Cond::G, done);
            a.call(func);
            a.alu_ri(AluOp::Add, Gpr::RCX, 1);
            a.jmp(body);
            a.bind(func);
            a.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RCX);
            a.ret();
            a.bind(done);
        });
        assert_eq!(m.gpr[0], 55);
    }

    #[test]
    fn compare_and_branch_fp() {
        let m = run_asm(|a| {
            let c1 = a.f64m(1.0);
            let c2 = a.f64m(2.0);
            let less = a.label();
            let end = a.label();
            a.movsd(Xmm(0), c1);
            a.movsd(Xmm(1), c2);
            a.ucomisd(Xmm(0), Xmm(1));
            a.jcc(Cond::B, less);
            a.mov_ri(Gpr::RAX, 0);
            a.jmp(end);
            a.bind(less);
            a.mov_ri(Gpr::RAX, 1);
            a.bind(end);
        });
        assert_eq!(m.gpr[0], 1, "1.0 < 2.0");
    }

    #[test]
    fn ext_calls_native_and_output() {
        let m = run_asm(|a| {
            let c = a.f64m(0.5);
            a.movsd(Xmm(0), c);
            a.call_ext(ExtFn::Sin);
            a.call_ext(ExtFn::PrintF64);
            a.mov_ri(Gpr::RDI, 42);
            a.call_ext(ExtFn::PrintI64);
        });
        assert_eq!(
            m.output,
            vec![
                OutputEvent::F64(0.5f64.sin().to_bits()),
                OutputEvent::I64(42)
            ]
        );
    }

    #[test]
    fn hooked_ext_calls_surface() {
        let mut a = Asm::new();
        let c = a.f64m(0.5);
        a.movsd(Xmm(0), c);
        a.call_ext(ExtFn::Sin);
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m.hook_ext = true;
        match m.run(100) {
            Event::ExtCall { f, next_rip, .. } => {
                assert_eq!(f, ExtFn::Sin);
                // Runtime responsibility: execute + resume.
                m.exec_ext_native(f);
                m.rip = next_rip;
            }
            other => panic!("expected ExtCall, got {other:?}"),
        }
        assert_eq!(m.run(100), Event::Halted);
        assert_eq!(xmm0(&m), 0.5f64.sin());
    }

    #[test]
    fn packed_ops_and_lanes() {
        let m = run_asm(|a| {
            let pair = a.u128c([1.5f64.to_bits(), 2.5f64.to_bits()]);
            let pair2 = a.u128c([10.0f64.to_bits(), 20.0f64.to_bits()]);
            a.movapd(Xmm(0), Mem::abs(pair as i64));
            a.emit(Inst::AddPd {
                dst: Xmm(0),
                src: XM::Mem(Mem::abs(pair2 as i64)),
            });
        });
        assert_eq!(f64::from_bits(m.xmm[0][0]), 11.5);
        assert_eq!(f64::from_bits(m.xmm[0][1]), 22.5);
    }

    #[test]
    fn alloc_heap_service() {
        let m = run_asm(|a| {
            a.mov_ri(Gpr::RDI, 256);
            a.call_ext(ExtFn::AllocHeap);
            a.mov_rr(Gpr::RBX, Gpr::RAX);
            a.mov_ri(Gpr::RDX, 7);
            a.store(Mem::base_disp(Gpr::RBX, 0), Gpr::RDX);
            a.load(Gpr::RSI, Mem::base_disp(Gpr::RBX, 0));
        });
        assert!(m.gpr[Gpr::RBX.0 as usize] >= crate::mem::HEAP_BASE);
        assert_eq!(m.gpr[Gpr::RSI.0 as usize], 7);
    }

    #[test]
    fn faults_detected() {
        // Null access.
        let mut a = Asm::new();
        a.load(Gpr::RAX, Mem::abs(0));
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        assert!(matches!(
            m.run(10),
            Event::Fault(Fault::Mem(MemFault::NullGuard(0), _))
        ));
        // Runaway loop hits budget.
        let mut a = Asm::new();
        let top = a.here_label();
        a.jmp(top);
        let p = a.finish();
        m.load_program(&p);
        assert_eq!(m.run(1000), Event::Fault(Fault::Budget));
    }

    #[test]
    fn cycles_accumulate() {
        let m = run_asm(|a| {
            let c = a.f64m(3.0);
            a.movsd(Xmm(0), c);
            a.divsd(Xmm(0), c);
        });
        assert!(m.cycles >= 20, "divsd alone costs 20+; got {}", m.cycles);
        assert!(m.icount >= 2, "movsd + divsd retired");
    }

    #[test]
    fn exec_masked_reexecution() {
        // Simulates the correctness-trap path: execute an instruction
        // out-of-band with exceptions masked, collect the postcondition.
        let mut a = Asm::new();
        let c = a.f64m(0.1);
        a.movsd(Xmm(0), c);
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m.mxcsr.unmask_all();
        assert_eq!(m.run(10), Event::Halted);
        m.xmm[1][0] = 0.2f64.to_bits();
        let inst = Inst::AddSd {
            dst: Xmm(0),
            src: XM::Reg(Xmm(1)),
        };
        let raised = m.exec_masked(&inst, m.rip).unwrap();
        assert!(raised.contains(FpFlags::INEXACT));
        assert_eq!(xmm0(&m), 0.1 + 0.2);
        // Masks restored to unmasked-all.
        assert_eq!(m.mxcsr.masks(), FpFlags::NONE);
    }

    #[test]
    fn patching_mid_instruction_invalidates_overlapping_predecode() {
        // Regression: patch_code used to clear only predecode slots
        // *inside* the patched byte range, so an instruction starting
        // before the range but spanning into it kept serving its stale
        // decode. Patch one byte in the middle of a mov's immediate and
        // make sure the re-run sees the new value.
        use crate::encode::encode;
        let mut a = Asm::new();
        a.mov_ri(Gpr::RAX, 0x1122_3344);
        a.halt();
        let p = a.finish();

        let old_imm = 0x1122_3344i64;
        let new_imm = 0x1122_3345i64;
        let mut old_b = Vec::new();
        encode(
            &Inst::MovRI {
                dst: Gpr::RAX,
                imm: old_imm,
            },
            &mut old_b,
        );
        let mut new_b = Vec::new();
        encode(
            &Inst::MovRI {
                dst: Gpr::RAX,
                imm: new_imm,
            },
            &mut new_b,
        );
        assert_eq!(old_b.len(), new_b.len());
        let d = old_b.iter().zip(&new_b).position(|(x, y)| x != y).unwrap();
        assert!(d > 0, "the patch must start strictly mid-instruction");

        for sb in [false, true] {
            let mut m = Machine::new(CostModel::r815());
            m.superblocks = sb;
            m.load_program(&p);
            assert_eq!(m.run(100), Event::Halted);
            assert_eq!(m.gpr[Gpr::RAX.0 as usize], old_imm as u64);
            m.patch_code(CODE_BASE + d as u64, &new_b[d..]);
            m.rip = CODE_BASE;
            assert_eq!(m.run(100), Event::Halted);
            assert_eq!(
                m.gpr[Gpr::RAX.0 as usize],
                new_imm as u64,
                "stale decode served after mid-instruction patch (superblocks={sb})"
            );
        }
    }
}
