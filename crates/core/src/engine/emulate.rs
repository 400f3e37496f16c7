//! The emulate stage: bind → per-lane evaluate → commit.
//!
//! Three narrow components, mirroring §4.1's pipeline:
//!
//! * [`Binder`] resolves the faulting instruction's operands to concrete
//!   [`Loc`]s (a thin stage wrapper over [`crate::bound`]).
//! * [`Emulator`] evaluates one bound lane on the alternative arithmetic
//!   system, unboxing/promoting sources and boxing the result. It touches
//!   the machine read-only and returns a [`LaneOutcome`].
//! * [`Committer`] retires a [`LaneOutcome`] into machine state (register
//!   writes, `%rflags`, sticky MXCSR flags).
//!
//! Splitting evaluation from commitment keeps the paper's per-lane
//! ordering (each lane retires before the next evaluates) while giving
//! each half a single responsibility.

use super::accounting::{Accounting, Counter};
use super::exit::{ExitReason, Stage};
use super::Fpvm;
use crate::bound::{self, bind, read_int_loc, read_loc, Bound, Dst};
use crate::stats::Component;
use crate::trace::TraceEvent;
use fpvm_arith::{ArithSystem, CmpResult, FpFlags, ScalarOp, ShadowArena};
use fpvm_machine::{Fault, Inst, Machine};
use std::time::Instant;

/// The bind stage: resolve an instruction's operands to storage.
pub struct Binder;

impl Binder {
    /// Bind `inst` against the current machine state. `None` means the
    /// instruction has no emulable FP shape.
    pub fn bind(&self, m: &Machine, inst: &Inst, next_rip: u64) -> Option<Bound> {
        bind(m, inst, next_rip)
    }
}

/// What one evaluated lane wants to retire.
#[derive(Debug, Clone, Copy)]
pub enum LaneOutcome {
    /// A boxed f64 result for an XMM lane.
    F64 {
        /// Destination lane.
        dst: Dst,
        /// NaN-boxed result bits.
        bits: u64,
        /// Exception flags to raise.
        flags: FpFlags,
    },
    /// An integer conversion result for a GPR.
    Int {
        /// Destination register (with width).
        dst: Dst,
        /// Result bits (already width-adjusted).
        bits: u64,
        /// Exception flags to raise.
        flags: FpFlags,
    },
    /// A 32-bit float demotion into the low half of an XMM lane.
    F32 {
        /// Destination lane.
        dst: Dst,
        /// The f32 result bits.
        bits: u32,
        /// Exception flags to raise.
        flags: FpFlags,
    },
    /// A compare result for `%rflags`.
    Compare {
        /// The IEEE comparison outcome.
        result: CmpResult,
        /// Exception flags to raise.
        flags: FpFlags,
    },
}

/// The evaluation half of the emulate stage. Borrows only what evaluation
/// needs — the arithmetic system, its shadow arena, and the accounting
/// sink — so it composes with a mutable machine borrow held elsewhere.
pub(crate) struct Emulator<'rt, A: ArithSystem> {
    pub arith: &'rt A,
    pub arena: &'rt mut ShadowArena<A::Value>,
    pub acct: &'rt mut Accounting,
}

/// One lane source, read without cloning when possible: live arena cells
/// are *borrowed* (the hot case — no shadow-value clone per operand, which
/// for BigFloat values meant a limb-vector allocation per source), while
/// promotions of raw doubles and the universal NaN are owned.
pub(crate) enum SrcVal<'v, V> {
    /// A borrow of a live arena cell.
    Ref(&'v V),
    /// An owned value (promotion or universal NaN).
    Owned(V),
}

impl<V> std::ops::Deref for SrcVal<'_, V> {
    type Target = V;

    fn deref(&self) -> &V {
        match self {
            SrcVal::Ref(v) => v,
            SrcVal::Owned(v) => v,
        }
    }
}

impl<'rt, A: ArithSystem> Emulator<'rt, A> {
    /// Unbox a source into an owned value, promoting if necessary. The
    /// external-call path (and anything needing ownership) uses this; the
    /// lane evaluator reads through [`SrcVal`] to avoid the clone.
    pub fn unbox(&mut self, bits: u64) -> A::Value {
        self.tally_src(bits);
        match self.srcval(bits) {
            SrcVal::Ref(v) => v.clone(),
            SrcVal::Owned(v) => v,
        }
    }

    /// Phase 1 of a clone-free source read: the accounting side effect
    /// (raw doubles tally a promotion). Separate from [`Emulator::srcval`]
    /// because tallying needs `&mut self` while the returned borrow pins
    /// `&self`.
    fn tally_src(&mut self, bits: u64) {
        if fpvm_nanbox::decode(bits).is_none() {
            self.acct.tally(Counter::Promotions);
        }
    }

    /// Phase 2: the value itself. Callers must have passed the same bits
    /// to [`Emulator::tally_src`] first.
    fn srcval(&self, bits: u64) -> SrcVal<'_, A::Value> {
        if let Some(key) = fpvm_nanbox::decode(bits) {
            if let Some(v) = self.arena.get(key) {
                return SrcVal::Ref(v);
            }
            // Universal NaN: a signaling NaN with no live shadow value is a
            // true NaN (§2).
            return SrcVal::Owned(self.arith.from_f64(f64::NAN));
        }
        SrcVal::Owned(self.arith.from_f64(f64::from_bits(bits)))
    }

    /// Box a shadow value: allocate a cell and return the encoded sNaN
    /// bits.
    pub fn boxv(&mut self, v: A::Value) -> u64 {
        self.acct.tally(Counter::BoxesCreated);
        let key = self.arena.alloc(v);
        fpvm_nanbox::encode(key)
    }

    /// Evaluate one bound lane against a read-only machine view.
    pub fn eval_lane(
        &mut self,
        m: &Machine,
        lane: &bound::BoundLane,
    ) -> Result<LaneOutcome, ExitReason> {
        use ScalarOp::*;
        self.acct.tally(Counter::EmulatedLanes);
        let rm = m.mxcsr.rounding();
        let err = ExitReason::Fault(Fault::Mem(fpvm_machine::MemFault::OutOfBounds(0), m.rip));
        // Clone-free source reads, in two phases per lane shape: fetch the
        // raw bits and tally (`&mut self`), then borrow or build the
        // values (`&self`) so live arena cells are never cloned.
        let rdbits =
            |i: usize| -> Result<u64, ExitReason> { read_loc(m, lane.srcs[i]).map_err(|_| err) };
        let (v, flags) = match lane.op {
            Add | Sub | Mul | Div | Min | Max => {
                let (ba, bb) = (rdbits(0)?, rdbits(1)?);
                self.tally_src(ba);
                self.tally_src(bb);
                let (a, b) = (self.srcval(ba), self.srcval(bb));
                match lane.op {
                    Add => self.arith.add(&a, &b, rm),
                    Sub => self.arith.sub(&a, &b, rm),
                    Mul => self.arith.mul(&a, &b, rm),
                    Div => self.arith.div(&a, &b, rm),
                    Min => self.arith.min(&a, &b),
                    _ => self.arith.max(&a, &b),
                }
            }
            Sqrt | Neg | Abs => {
                let ba = rdbits(0)?;
                self.tally_src(ba);
                let a = self.srcval(ba);
                match lane.op {
                    Sqrt => self.arith.sqrt(&a, rm),
                    Neg => self.arith.neg(&a),
                    _ => self.arith.abs(&a),
                }
            }
            Fma => {
                let (ba, bb, bc) = (rdbits(0)?, rdbits(1)?, rdbits(2)?);
                self.tally_src(ba);
                self.tally_src(bb);
                self.tally_src(bc);
                let (a, b, c) = (self.srcval(ba), self.srcval(bb), self.srcval(bc));
                self.arith.fma(&a, &b, &c, rm)
            }
            CmpQuiet | CmpSignaling => {
                let (ba, bb) = (rdbits(0)?, rdbits(1)?);
                self.tally_src(ba);
                self.tally_src(bb);
                let (a, b) = (self.srcval(ba), self.srcval(bb));
                let (result, flags) = if lane.op == CmpQuiet {
                    self.arith.cmp_quiet(&a, &b)
                } else {
                    self.arith.cmp_signaling(&a, &b)
                };
                return Ok(LaneOutcome::Compare { result, flags });
            }
            CvtI32ToF | CvtI64ToF => {
                let raw = read_int_loc(m, lane.srcs[0], lane.int_width).map_err(|_| err)?;
                if lane.op == CvtI32ToF {
                    self.arith.from_i32(raw as i32)
                } else {
                    self.arith.from_i64(raw)
                }
            }
            CvtFToI32 | CvtFToI64 => {
                let ba = rdbits(0)?;
                self.tally_src(ba);
                let a = self.srcval(ba);
                let (bits, flags) = if lane.op == CvtFToI32 {
                    let (v, f) = self.arith.to_i32(&a);
                    (v as u32 as u64, f)
                } else {
                    let (v, f) = self.arith.to_i64(&a);
                    (v as u64, f)
                };
                return Ok(LaneOutcome::Int {
                    dst: lane.dst,
                    bits,
                    flags,
                });
            }
            CvtFToF32 => {
                let ba = rdbits(0)?;
                self.tally_src(ba);
                self.acct.tally(Counter::Demotions);
                let a = self.srcval(ba);
                let (v, flags) = self.arith.to_f32(&a, rm);
                return Ok(LaneOutcome::F32 {
                    dst: lane.dst,
                    bits: v.to_bits(),
                    flags,
                });
            }
            CvtF32ToF => {
                let raw = read_loc(m, lane.srcs[0]).map_err(|_| err)? as u32;
                self.arith.from_f32(f32::from_bits(raw))
            }
            _ => return Err(ExitReason::error(Stage::Emulate, m.rip)),
        };
        Ok(LaneOutcome::F64 {
            dst: lane.dst,
            bits: self.boxv(v),
            flags,
        })
    }
}

/// The commit stage: retire one [`LaneOutcome`] into machine state.
pub struct Committer;

impl Committer {
    /// Write the outcome's destination and raise its sticky flags.
    pub fn commit(&self, m: &mut Machine, outcome: LaneOutcome) -> Result<(), ExitReason> {
        match outcome {
            LaneOutcome::F64 { dst, bits, flags } => {
                match dst {
                    Dst::F64Lane(r, l) => {
                        m.xmm[r as usize][l as usize] = bits;
                        // Boxed results seed the audit oracle's taint plane
                        // (no-op unless the plane is enabled).
                        m.taint_reclassify_xmm(r as usize, l as usize);
                    }
                    _ => return Err(ExitReason::error(Stage::Emulate, m.rip)),
                }
                m.mxcsr.raise(flags);
            }
            LaneOutcome::Int { dst, bits, flags } => {
                if let Dst::Int(r, _) = dst {
                    m.gpr[r as usize] = bits;
                    m.taint_reclassify_gpr(r as usize);
                }
                m.mxcsr.raise(flags);
            }
            LaneOutcome::F32 { dst, bits, flags } => {
                if let Dst::F32Lane(r) = dst {
                    let lane0 = &mut m.xmm[r as usize][0];
                    *lane0 = (*lane0 & !0xFFFF_FFFF) | u64::from(bits);
                    m.taint_reclassify_xmm(r as usize, 0);
                }
                m.mxcsr.raise(flags);
            }
            LaneOutcome::Compare { result, flags } => {
                m.rflags.set_fp_compare(result);
                m.mxcsr.raise(flags);
            }
        }
        Ok(())
    }
}

impl<A: ArithSystem> Fpvm<A> {
    /// The emulate stage: bind the instruction, evaluate and commit each
    /// lane in order, advance `rip`, and charge the measured time.
    pub(crate) fn emulate(
        &mut self,
        m: &mut Machine,
        inst: &Inst,
        next_rip: u64,
    ) -> Result<(), ExitReason> {
        let t_bind = self.acct.stage_timer();
        let Some(b) = Binder.bind(m, inst, next_rip) else {
            return Err(ExitReason::error(Stage::Bind, m.rip));
        };
        self.acct
            .stage_record(crate::metrics::MetricStage::Bind, t_bind);
        self.emulate_bound(m, &b)
    }

    /// The back half of the emulate stage, entered with operands already
    /// bound — either freshly (via [`Fpvm::emulate`]) or from a cached
    /// plan resolved from the trap cache. Both entries charge
    /// and trace identically from here on.
    pub(crate) fn emulate_bound(&mut self, m: &mut Machine, b: &Bound) -> Result<(), ExitReason> {
        let trap_rip = m.rip;
        let t = Instant::now();
        self.acct.tally(Counter::Emulated);
        let mut lanes: u32 = 0;
        for lane in b.lanes.iter().flatten() {
            let t_eval = self.acct.stage_timer();
            let outcome = self.emulator().eval_lane(m, lane)?;
            self.acct
                .stage_record(crate::metrics::MetricStage::Emulate, t_eval);
            let t_commit = self.acct.stage_timer();
            Committer.commit(m, outcome)?;
            self.acct
                .stage_record(crate::metrics::MetricStage::Commit, t_commit);
            lanes += 1;
        }
        m.rip = b.next_rip;
        let ns = t.elapsed().as_nanos() as u64;
        let dispatch = m.cost.emulate_dispatch;
        let cycles = self
            .acct
            .charge_measured(m, Component::Emulate, ns, dispatch);
        self.acct.emit(|| TraceEvent::Emulate {
            rip: trap_rip,
            lanes,
            cycles,
        });
        self.acct.emit(|| TraceEvent::Commit {
            rip: trap_rip,
            next_rip: b.next_rip,
        });
        Ok(())
    }

    /// An [`Emulator`] borrowing this runtime's arithmetic state.
    pub(crate) fn emulator(&mut self) -> Emulator<'_, A> {
        Emulator {
            arith: &self.arith,
            arena: &mut self.arena,
            acct: &mut self.acct,
        }
    }
}
