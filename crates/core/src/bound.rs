//! Operand binding (§4.1 "Binding").
//!
//! A decoded instruction is *bound* to concrete storage: "an abstract
//! normalized representation, containing direct pointers to the sources and
//! destinations of the instruction, the size of the values being operated
//! on, a simplified op-code which is later used for emulation." Here the
//! "pointers" are [`Loc`]s — resolved register/lane indices or effective
//! addresses — so the emulator "need not handle accesses to memory or
//! registers differently."
//!
//! `addsd xmm0, [rsp]` and `addsd xmm0, xmm1` both bind to
//! `FPVM_OP_ADD`-style [`fpvm_arith::ScalarOp::Add`] with the former's
//! second source pointing at the stack and the latter's at the register
//! file — exactly the paper's example.

use fpvm_arith::{FpFlags, ScalarOp};
use fpvm_machine::{Inst, Machine, Mem, MemFault, Width, Xmm, RM, XM};

/// A resolved operand location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// One 64-bit lane of an XMM register.
    XmmLane(u8, u8),
    /// A general-purpose register.
    Gpr(u8),
    /// A resolved guest address.
    Mem(u64),
    /// No operand.
    None,
}

/// Where an emulated result goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    /// An f64 result, NaN-boxed into an XMM lane.
    F64Lane(u8, u8),
    /// An f32 result into the low half of lane 0 (cvtsd2ss).
    F32Lane(u8),
    /// An integer result into a GPR (cvttsd2si), with width.
    Int(u8, Width),
    /// The guest `%rflags` (compares).
    Rflags,
}

/// One bound scalar operation (one lane of the original instruction).
#[derive(Debug, Clone, Copy)]
pub struct BoundLane {
    /// The simplified operation.
    pub op: ScalarOp,
    /// Source operands (f64-typed unless the op is an int conversion).
    pub srcs: [Loc; 3],
    /// Integer source width (CvtI*ToF only).
    pub int_width: Width,
    /// Destination.
    pub dst: Dst,
}

/// A bound instruction: 1 lane (scalar) or 2 (packed).
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// The lanes to emulate in order.
    pub lanes: [Option<BoundLane>; 2],
    /// Address of the next instruction (resume point).
    pub next_rip: u64,
}

/// A *symbolic* operand location: the machine-independent half of a
/// [`Loc`]. Register operands are already fully resolved; memory operands
/// keep the addressing form (base/index/scale/disp) so the effective
/// address can be re-resolved against whatever register state holds at
/// each trap. This is what makes a bound plan cacheable per RIP: the plan
/// depends only on the instruction bytes, never on machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanLoc {
    /// One 64-bit lane of an XMM register.
    XmmLane(u8, u8),
    /// A general-purpose register.
    Gpr(u8),
    /// An unresolved memory operand plus a byte offset into it (packed
    /// lane 1 reads at +8).
    Mem(Mem, u64),
    /// No operand.
    None,
}

impl PlanLoc {
    /// Resolve against the current machine state (memory operands pay one
    /// effective-address computation; everything else is a re-tag).
    #[inline]
    pub fn resolve(self, m: &Machine) -> Loc {
        match self {
            PlanLoc::XmmLane(r, l) => Loc::XmmLane(r, l),
            PlanLoc::Gpr(r) => Loc::Gpr(r),
            PlanLoc::Mem(mem, off) => Loc::Mem(m.ea(&mem) + off),
            PlanLoc::None => Loc::None,
        }
    }
}

/// The symbolic form of one [`BoundLane`].
#[derive(Debug, Clone, Copy)]
pub struct PlanLane {
    /// The simplified operation.
    pub op: ScalarOp,
    /// Symbolic source operands.
    pub srcs: [PlanLoc; 3],
    /// Integer source width (CvtI*ToF only).
    pub int_width: Width,
    /// Destination.
    pub dst: Dst,
}

impl PlanLane {
    #[inline]
    fn resolve(&self, m: &Machine) -> BoundLane {
        BoundLane {
            op: self.op,
            srcs: [
                self.srcs[0].resolve(m),
                self.srcs[1].resolve(m),
                self.srcs[2].resolve(m),
            ],
            int_width: self.int_width,
            dst: self.dst,
        }
    }
}

/// A memoizable bound-operand plan: everything [`bind`] derives from the
/// instruction alone, with memory operands left symbolic. Resolving a plan
/// against a machine reproduces [`bind`]'s result exactly, at the cost of
/// an effective-address computation per memory operand instead of the full
/// instruction-shape match.
#[derive(Debug, Clone, Copy)]
pub struct BoundPlan {
    /// The lanes to emulate in order.
    pub lanes: [Option<PlanLane>; 2],
    /// Address of the next instruction (resume point).
    pub next_rip: u64,
}

impl BoundPlan {
    /// Resolve every symbolic operand against the current machine state.
    #[inline]
    pub fn resolve(&self, m: &Machine) -> Bound {
        Bound {
            lanes: [
                self.lanes[0].as_ref().map(|l| l.resolve(m)),
                self.lanes[1].as_ref().map(|l| l.resolve(m)),
            ],
            next_rip: self.next_rip,
        }
    }
}

/// Whether an instruction's binding can be memoized.
#[derive(Debug, Clone, Copy)]
pub enum Planability {
    /// The binding is a pure function of the instruction: cache the plan.
    Static(BoundPlan),
    /// The binding reads machine state beyond operand addressing (the
    /// XorPd/AndPd mask inspection): bind fresh at every trap.
    Dynamic,
    /// The instruction has no emulable FP shape.
    Unbindable,
}

/// Read a 64-bit value from a location.
pub fn read_loc(m: &Machine, loc: Loc) -> Result<u64, MemFault> {
    match loc {
        Loc::XmmLane(r, l) => Ok(m.xmm[r as usize][l as usize]),
        Loc::Gpr(r) => Ok(m.gpr[r as usize]),
        Loc::Mem(a) => m.mem.read_u64(a),
        Loc::None => Ok(0),
    }
}

/// Read an integer source of the given width (sign-extended).
pub fn read_int_loc(m: &Machine, loc: Loc, w: Width) -> Result<i64, MemFault> {
    let raw = match loc {
        Loc::Gpr(r) => m.gpr[r as usize],
        Loc::Mem(a) => m.mem.read_int(a, w.bytes())?,
        Loc::XmmLane(r, l) => m.xmm[r as usize][l as usize],
        Loc::None => 0,
    };
    Ok(match w {
        Width::W8 => raw as u8 as i8 as i64,
        Width::W16 => raw as u16 as i16 as i64,
        Width::W32 => raw as u32 as i32 as i64,
        Width::W64 => raw as i64,
    })
}

fn xm_plan(xm: &XM, lane: u8) -> PlanLoc {
    match xm {
        XM::Reg(x) => PlanLoc::XmmLane(x.0, lane),
        XM::Mem(mem) => PlanLoc::Mem(*mem, u64::from(lane) * 8),
    }
}

fn rm_plan(rm: &RM) -> PlanLoc {
    match rm {
        RM::Reg(r) => PlanLoc::Gpr(r.0),
        RM::Mem(mem) => PlanLoc::Mem(*mem, 0),
    }
}

fn scalar2(op: ScalarOp, dst: Xmm, src: &XM) -> PlanLane {
    PlanLane {
        op,
        srcs: [PlanLoc::XmmLane(dst.0, 0), xm_plan(src, 0), PlanLoc::None],
        int_width: Width::W64,
        dst: Dst::F64Lane(dst.0, 0),
    }
}

fn packed2(op: ScalarOp, dst: Xmm, src: &XM, lane: u8) -> PlanLane {
    PlanLane {
        op,
        srcs: [
            PlanLoc::XmmLane(dst.0, lane),
            xm_plan(src, lane),
            PlanLoc::None,
        ],
        int_width: Width::W64,
        dst: Dst::F64Lane(dst.0, lane),
    }
}

/// Derive the machine-independent binding plan of an instruction. The
/// single source of truth for operand shapes: [`bind`] is implemented as
/// `plan(..).resolve(m)`, and the trap cache memoizes the `Static`
/// plans per RIP so hot traps skip this match entirely.
pub fn plan(inst: &Inst, next_rip: u64) -> Planability {
    use Inst::*;
    use ScalarOp::*;
    let one = |l: PlanLane| {
        Planability::Static(BoundPlan {
            lanes: [Some(l), None],
            next_rip,
        })
    };
    match inst {
        AddSd { dst, src } => one(scalar2(Add, *dst, src)),
        SubSd { dst, src } => one(scalar2(Sub, *dst, src)),
        MulSd { dst, src } => one(scalar2(Mul, *dst, src)),
        DivSd { dst, src } => one(scalar2(Div, *dst, src)),
        MinSd { dst, src } => one(scalar2(Min, *dst, src)),
        MaxSd { dst, src } => one(scalar2(Max, *dst, src)),
        SqrtSd { dst, src } => one(PlanLane {
            op: Sqrt,
            srcs: [xm_plan(src, 0), PlanLoc::None, PlanLoc::None],
            int_width: Width::W64,
            dst: Dst::F64Lane(dst.0, 0),
        }),
        FmaSd { dst, a, b } => one(PlanLane {
            op: Fma,
            srcs: [
                PlanLoc::XmmLane(dst.0, 0),
                PlanLoc::XmmLane(a.0, 0),
                xm_plan(b, 0),
            ],
            int_width: Width::W64,
            dst: Dst::F64Lane(dst.0, 0),
        }),
        AddPd { dst, src } | SubPd { dst, src } | MulPd { dst, src } | DivPd { dst, src } => {
            let op = match inst {
                AddPd { .. } => Add,
                SubPd { .. } => Sub,
                MulPd { .. } => Mul,
                _ => Div,
            };
            Planability::Static(BoundPlan {
                lanes: [
                    Some(packed2(op, *dst, src, 0)),
                    Some(packed2(op, *dst, src, 1)),
                ],
                next_rip,
            })
        }
        UComISd { a, b } => one(PlanLane {
            op: CmpQuiet,
            srcs: [PlanLoc::XmmLane(a.0, 0), xm_plan(b, 0), PlanLoc::None],
            int_width: Width::W64,
            dst: Dst::Rflags,
        }),
        ComISd { a, b } => one(PlanLane {
            op: CmpSignaling,
            srcs: [PlanLoc::XmmLane(a.0, 0), xm_plan(b, 0), PlanLoc::None],
            int_width: Width::W64,
            dst: Dst::Rflags,
        }),
        CvtSi2Sd { dst, src, w } => one(PlanLane {
            op: if matches!(w, Width::W32) {
                CvtI32ToF
            } else {
                CvtI64ToF
            },
            srcs: [rm_plan(src), PlanLoc::None, PlanLoc::None],
            int_width: *w,
            dst: Dst::F64Lane(dst.0, 0),
        }),
        CvtTSd2Si { dst, src, w } => one(PlanLane {
            op: if matches!(w, Width::W32) {
                CvtFToI32
            } else {
                CvtFToI64
            },
            srcs: [xm_plan(src, 0), PlanLoc::None, PlanLoc::None],
            int_width: *w,
            dst: Dst::Int(dst.0, *w),
        }),
        CvtSd2Ss { dst, src } => one(PlanLane {
            op: CvtFToF32,
            srcs: [xm_plan(src, 0), PlanLoc::None, PlanLoc::None],
            int_width: Width::W32,
            dst: Dst::F32Lane(dst.0),
        }),
        CvtSs2Sd { dst, src } => one(PlanLane {
            op: CvtF32ToF,
            srcs: [xm_plan(src, 0), PlanLoc::None, PlanLoc::None],
            int_width: Width::W32,
            dst: Dst::F64Lane(dst.0, 0),
        }),
        // Binding inspects the mask *value*, so the result depends on
        // machine state beyond operand addressing: never memoizable.
        XorPd { .. } | AndPd { .. } => Planability::Dynamic,
        _ => Planability::Unbindable,
    }
}

/// Bind an instruction to operand locations. Returns `None` for
/// instructions the emulator never sees (moves, integer ops, control flow).
pub fn bind(m: &Machine, inst: &Inst, next_rip: u64) -> Option<Bound> {
    match plan(inst, next_rip) {
        Planability::Static(p) => Some(p.resolve(m)),
        Planability::Dynamic => bind_dynamic(m, inst, next_rip),
        Planability::Unbindable => None,
    }
}

/// The data-dependent bindings ([`Planability::Dynamic`]): bitwise FP ops
/// with the canonical compiler masks bind to Neg/Abs — the runtime can
/// then emulate a sign flip on the *shadow value* instead of demoting
/// (used by the compiler-based approach and the smart-bitwise extension;
/// plain static analysis demotes instead).
fn bind_dynamic(m: &Machine, inst: &Inst, next_rip: u64) -> Option<Bound> {
    use Inst::*;
    use ScalarOp::*;
    match inst {
        XorPd { dst, src } | AndPd { dst, src } => {
            let mask = m.read_xm128(src).ok()?;
            let is_xor = matches!(inst, XorPd { .. });
            let sign = fpvm_nanbox::F64_SIGN_BIT;
            let op = match (is_xor, mask) {
                (true, [s0, _]) if s0 == sign => Neg,
                (false, [a0, _]) if a0 == !sign => Abs,
                _ => return None,
            };
            let lane1_active = mask[1] == mask[0];
            let mk = |l: u8| BoundLane {
                op,
                srcs: [Loc::XmmLane(dst.0, l), Loc::None, Loc::None],
                int_width: Width::W64,
                dst: Dst::F64Lane(dst.0, l),
            };
            Some(Bound {
                lanes: [Some(mk(0)), if lane1_active { Some(mk(1)) } else { None }],
                next_rip,
            })
        }
        _ => None,
    }
}

/// Pure softfp evaluation of one bound lane from raw bits — the
/// trap-and-patch *postcondition check* (§3.2): would executing this lane
/// natively raise any event? Returns the would-be result bits and flags
/// without writing anything. `None` for ops whose native result is not a
/// single f64 (compares, conversions) — those take the slow path.
pub fn native_eval(m: &Machine, lane: &BoundLane) -> Option<(u64, FpFlags)> {
    use fpvm_arith::softfp;
    use ScalarOp::*;
    let rd = |loc: Loc| read_loc(m, loc).ok().map(f64::from_bits);
    let (v, f) = match lane.op {
        Add => softfp::add(rd(lane.srcs[0])?, rd(lane.srcs[1])?),
        Sub => softfp::sub(rd(lane.srcs[0])?, rd(lane.srcs[1])?),
        Mul => softfp::mul(rd(lane.srcs[0])?, rd(lane.srcs[1])?),
        Div => softfp::div(rd(lane.srcs[0])?, rd(lane.srcs[1])?),
        Min => softfp::min(rd(lane.srcs[0])?, rd(lane.srcs[1])?),
        Max => softfp::max(rd(lane.srcs[0])?, rd(lane.srcs[1])?),
        Sqrt => softfp::sqrt(rd(lane.srcs[0])?),
        Fma => softfp::fma(rd(lane.srcs[0])?, rd(lane.srcs[1])?, rd(lane.srcs[2])?),
        Neg => (-rd(lane.srcs[0])?, FpFlags::NONE),
        Abs => (rd(lane.srcs[0])?.abs(), FpFlags::NONE),
        _ => return None,
    };
    Some((v.to_bits(), f))
}

/// True if any *f64-typed* source of the lane holds a NaN-boxed value —
/// the trap-and-patch *precondition check*.
pub fn has_boxed_src(m: &Machine, lane: &BoundLane) -> bool {
    use ScalarOp::*;
    if matches!(lane.op, CvtI32ToF | CvtI64ToF) {
        return false; // integer source
    }
    lane.srcs
        .iter()
        .any(|&loc| !matches!(loc, Loc::None) && read_loc(m, loc).is_ok_and(fpvm_nanbox::is_boxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_machine::{Asm, CostModel, Gpr, Mem};

    fn machine_with(f: impl FnOnce(&mut Asm)) -> Machine {
        let mut a = Asm::new();
        f(&mut a);
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m
    }

    #[test]
    fn bind_reg_and_mem_to_same_op() {
        // The paper's example: addsd with a register source and a memory
        // source bind to the same ADD op with different source locations.
        let mut m = machine_with(|_| {});
        m.gpr[Gpr::RSP.0 as usize] = 0x40_0000;
        let reg_form = Inst::AddSd {
            dst: Xmm(0),
            src: XM::Reg(Xmm(1)),
        };
        let mem_form = Inst::AddSd {
            dst: Xmm(0),
            src: XM::Mem(Mem::base_disp(Gpr::RSP, 8)),
        };
        let b1 = bind(&m, &reg_form, 0x2000).unwrap();
        let b2 = bind(&m, &mem_form, 0x2000).unwrap();
        let l1 = b1.lanes[0].unwrap();
        let l2 = b2.lanes[0].unwrap();
        assert_eq!(l1.op, ScalarOp::Add);
        assert_eq!(l2.op, ScalarOp::Add);
        assert_eq!(l1.srcs[1], Loc::XmmLane(1, 0));
        assert_eq!(l2.srcs[1], Loc::Mem(0x40_0008));
        assert_eq!(l1.dst, Dst::F64Lane(0, 0));
    }

    #[test]
    fn packed_binds_two_lanes() {
        let m = machine_with(|_| {});
        let inst = Inst::MulPd {
            dst: Xmm(2),
            src: XM::Reg(Xmm(3)),
        };
        let b = bind(&m, &inst, 0x2000).unwrap();
        let l0 = b.lanes[0].unwrap();
        let l1 = b.lanes[1].unwrap();
        assert_eq!(l0.srcs[1], Loc::XmmLane(3, 0));
        assert_eq!(l1.srcs[1], Loc::XmmLane(3, 1));
        assert_eq!(l1.dst, Dst::F64Lane(2, 1));
    }

    #[test]
    fn non_fp_instructions_do_not_bind() {
        let m = machine_with(|_| {});
        assert!(bind(
            &m,
            &Inst::MovRR {
                dst: Gpr::RAX,
                src: Gpr::RBX
            },
            0
        )
        .is_none());
        assert!(bind(
            &m,
            &Inst::MovSd {
                dst: XM::Reg(Xmm(0)),
                src: XM::Reg(Xmm(1))
            },
            0
        )
        .is_none());
        assert!(bind(
            &m,
            &Inst::XorPd {
                dst: Xmm(0),
                src: XM::Reg(Xmm(1))
            },
            0
        )
        .is_none());
    }

    #[test]
    fn plan_resolve_matches_direct_bind() {
        // The memoizable plan, resolved against the machine, must agree
        // with a fresh bind for every static shape — including memory
        // operands whose effective address changes between traps.
        let mut m = machine_with(|_| {});
        m.gpr[Gpr::RSP.0 as usize] = 0x40_0000;
        let insts = [
            Inst::AddSd {
                dst: Xmm(0),
                src: XM::Mem(Mem::base_disp(Gpr::RSP, 8)),
            },
            Inst::MulPd {
                dst: Xmm(2),
                src: XM::Mem(Mem::base_disp(Gpr::RSP, 16)),
            },
            Inst::SqrtSd {
                dst: Xmm(1),
                src: XM::Reg(Xmm(3)),
            },
            Inst::UComISd {
                a: Xmm(0),
                b: XM::Reg(Xmm(1)),
            },
        ];
        for inst in &insts {
            let Planability::Static(p) = plan(inst, 0x2000) else {
                panic!("{inst:?} must be statically plannable");
            };
            for rsp in [0x40_0000u64, 0x41_0000] {
                m.gpr[Gpr::RSP.0 as usize] = rsp;
                let fresh = bind(&m, inst, 0x2000).unwrap();
                let cached = p.resolve(&m);
                assert_eq!(format!("{fresh:?}"), format!("{cached:?}"));
            }
        }
    }

    #[test]
    fn plan_resolve_matches_bind_on_workload_code() {
        // The same agreement over real code: every statically plannable
        // instruction in the ten Tiny workloads, resolved on a machine
        // loaded with its program under several seeded register states.
        use fpvm_ir::{compile, CompileMode};
        use fpvm_workloads::{all_workloads, Lcg, Size};
        for w in all_workloads(Size::Tiny) {
            let p = compile(&w.module, CompileMode::Native).program;
            let mut m = Machine::new(CostModel::r815());
            m.load_program(&p);
            let mut statics = 0;
            for (rip, inst, len) in p.disassemble() {
                let next = rip + len as u64;
                let Planability::Static(planned) = plan(&inst, next) else {
                    continue;
                };
                statics += 1;
                for seed in 1..=3u64 {
                    let mut rng = Lcg(seed ^ rip);
                    m.gpr = std::array::from_fn(|_| rng.next());
                    m.xmm = std::array::from_fn(|_| [rng.next(), rng.next()]);
                    let fresh = bind(&m, &inst, next).unwrap();
                    let cached = planned.resolve(&m);
                    assert_eq!(
                        format!("{fresh:?}"),
                        format!("{cached:?}"),
                        "{} at {rip:#x}: {inst:?}",
                        w.name
                    );
                }
            }
            assert!(statics > 0, "{}: no statically plannable site", w.name);
        }
    }

    #[test]
    fn mask_dependent_ops_are_dynamic() {
        // XorPd/AndPd read the mask value at bind time, so their plans
        // must never be memoized (a cached Neg could replay after the
        // guest rewrote the mask).
        for inst in [
            Inst::XorPd {
                dst: Xmm(0),
                src: XM::Reg(Xmm(1)),
            },
            Inst::AndPd {
                dst: Xmm(0),
                src: XM::Reg(Xmm(1)),
            },
        ] {
            assert!(matches!(plan(&inst, 0), Planability::Dynamic));
        }
        assert!(matches!(
            plan(
                &Inst::MovRR {
                    dst: Gpr::RAX,
                    src: Gpr::RBX
                },
                0
            ),
            Planability::Unbindable
        ));
    }

    #[test]
    fn precondition_detects_boxes() {
        let mut m = machine_with(|_| {});
        let key = fpvm_nanbox::ShadowKey::new(9).unwrap();
        m.xmm[1][0] = fpvm_nanbox::encode(key);
        m.xmm[0][0] = 1.5f64.to_bits();
        let inst = Inst::AddSd {
            dst: Xmm(0),
            src: XM::Reg(Xmm(1)),
        };
        let b = bind(&m, &inst, 0).unwrap();
        assert!(has_boxed_src(&m, &b.lanes[0].unwrap()));
        m.xmm[1][0] = 2.5f64.to_bits();
        assert!(!has_boxed_src(&m, &b.lanes[0].unwrap()));
    }

    #[test]
    fn native_eval_matches_host() {
        let mut m = machine_with(|_| {});
        m.xmm[0][0] = 0.1f64.to_bits();
        m.xmm[1][0] = 0.2f64.to_bits();
        let inst = Inst::AddSd {
            dst: Xmm(0),
            src: XM::Reg(Xmm(1)),
        };
        let b = bind(&m, &inst, 0).unwrap();
        let (bits, flags) = native_eval(&m, &b.lanes[0].unwrap()).unwrap();
        assert_eq!(f64::from_bits(bits), 0.1 + 0.2);
        assert!(flags.contains(FpFlags::INEXACT));
        // Nothing was written.
        assert_eq!(f64::from_bits(m.xmm[0][0]), 0.1);
    }
}
