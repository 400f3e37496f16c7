//! Correctness traps (§4.2) and the §6.2 NaN-hole handler: demote boxed
//! operands in place and re-execute the original instruction.

use super::accounting::Counter;
use super::exit::{ExitReason, Stage};
use super::Fpvm;
use crate::bound::{read_loc, Loc};
use crate::stats::Component;
use crate::trace::TraceEvent;
use fpvm_arith::{ArithSystem, Round};
use fpvm_machine::{Event, Inst, Machine};
use std::time::Instant;

/// An entry in the correctness-trap side table (produced by fpvm-analysis's
/// patcher): the original instruction that the `Trap` replaced. The table
/// is indexed by the trap's site id, so lookup is O(1).
#[derive(Debug, Clone, Copy)]
pub struct SideTableEntry {
    /// Address of the patched site.
    pub addr: u64,
    /// The original instruction.
    pub original: Inst,
    /// Its encoded length (the patch spans this many bytes).
    pub len: u8,
}

impl<A: ArithSystem> Fpvm<A> {
    /// Handle a correctness trap: charge dispatch, look up the original
    /// instruction by site id, demote any boxed operand in place, and
    /// re-execute in single-step mode. The default
    /// [`super::HandlerTable::correctness`] handler.
    pub fn on_correctness_trap(
        &mut self,
        m: &mut Machine,
        id: u16,
        rip: u64,
    ) -> Result<(), ExitReason> {
        self.acct.tally(Counter::CorrectnessTraps);
        let dispatch = m
            .cost
            .correctness_dispatch(self.config.correctness_as_call, self.config.delivery);
        self.acct
            .charge(m, Component::CorrectnessDispatch, dispatch);
        let Some(entry) = self.side_table.get(id as usize).copied() else {
            return Err(ExitReason::error_at_site(Stage::Correctness, rip, id));
        };
        debug_assert_eq!(entry.addr, rip, "side table / patch mismatch");
        let t = Instant::now();
        // Demote any boxed operand in place, then re-execute the original
        // instruction in single-step mode.
        let demoted = self.demote_operands(m, &entry.original);
        if demoted > 0 {
            self.acct.tally(Counter::CorrectnessDemotions);
        }
        let next_rip = rip + u64::from(entry.len);
        match m.exec_masked(&entry.original, next_rip) {
            Ok(_) => {}
            Err(Event::ExtCall { f, next_rip, .. }) => {
                // Re-executed instruction was itself an external call site.
                self.on_ext_call(m, f, rip, next_rip)?;
            }
            Err(Event::Fault(f)) => return Err(ExitReason::Fault(f)),
            Err(_) => return Err(ExitReason::error_at_site(Stage::Correctness, rip, id)),
        }
        let ns = t.elapsed().as_nanos() as u64;
        let check = m.cost.patch_check;
        let handler = self
            .acct
            .charge_measured(m, Component::CorrectnessHandler, ns, check);
        self.acct.emit(|| TraceEvent::CorrectnessTrap {
            rip,
            site: id,
            demoted: demoted > 0,
            dispatch_cycles: dispatch,
            handler_cycles: handler,
        });
        Ok(())
    }

    /// §6.2 hardware path: a NaN-box reached a non-FP instruction and the
    /// extended hardware faulted. Demote the offending operands and
    /// re-execute — same handler as a correctness trap, but discovered by
    /// hardware instead of static analysis. The default
    /// [`super::HandlerTable::nan_hole`] handler.
    pub fn on_nan_hole(&mut self, m: &mut Machine, rip: u64) -> Result<(), ExitReason> {
        self.acct.tally(Counter::NanHoleTraps);
        let dispatch = m.cost.correctness_dispatch(false, self.config.delivery);
        self.acct
            .charge(m, Component::CorrectnessDispatch, dispatch);
        let (inst, len, _) = self.decode_at(m, rip)?;
        let t = Instant::now();
        let demoted = self.demote_operands(m, &inst);
        if demoted > 0 {
            self.acct.tally(Counter::CorrectnessDemotions);
        }
        match m.exec_masked(&inst, rip + u64::from(len)) {
            Ok(_) => {}
            Err(Event::Fault(f)) => return Err(ExitReason::Fault(f)),
            Err(_) => return Err(ExitReason::error(Stage::NanHole, rip)),
        }
        let ns = t.elapsed().as_nanos() as u64;
        let handler = self
            .acct
            .charge_measured(m, Component::CorrectnessHandler, ns, 0);
        self.acct.emit(|| TraceEvent::NanHoleTrap {
            rip,
            demoted: demoted > 0,
            dispatch_cycles: dispatch,
            handler_cycles: handler,
        });
        Ok(())
    }

    /// Demote every boxed f64-typed operand of `inst` in place. Returns the
    /// number of demotions performed.
    pub(crate) fn demote_operands(&mut self, m: &mut Machine, inst: &Inst) -> usize {
        use Inst::*;
        // No shape touches more than four locations (the bitwise ops: two
        // dst lanes + two source lanes/words), so a fixed array replaces
        // the former per-trap Vec.
        let mut locs = [Loc::None; 4];
        let mut ln = 0;
        {
            let mut push = |l: Loc| {
                locs[ln] = l;
                ln += 1;
            };
            match inst {
                Load { addr, .. } => push(Loc::Mem(m.ea(addr))),
                MovQXG { src, .. } => push(Loc::XmmLane(src.0, 0)),
                XorPd { dst, src } | AndPd { dst, src } | OrPd { dst, src } => {
                    push(Loc::XmmLane(dst.0, 0));
                    push(Loc::XmmLane(dst.0, 1));
                    match src {
                        fpvm_machine::XM::Reg(x) => {
                            push(Loc::XmmLane(x.0, 0));
                            push(Loc::XmmLane(x.0, 1));
                        }
                        fpvm_machine::XM::Mem(mem) => {
                            let ea = m.ea(mem);
                            push(Loc::Mem(ea));
                            push(Loc::Mem(ea + 8));
                        }
                    }
                }
                MovSd { src, .. } | MovApd { src, .. } => {
                    if let fpvm_machine::XM::Mem(mem) = src {
                        push(Loc::Mem(m.ea(mem)));
                    }
                }
                Store { src, .. } => push(Loc::Gpr(src.0)),
                _ => {
                    // Conservative: demoting all xmm lanes the instruction
                    // touches is unnecessary for our patch set; other
                    // shapes do not reach the side table.
                }
            }
        }
        let mut n = 0;
        for &loc in &locs[..ln] {
            n += usize::from(self.demote_loc(m, loc));
        }
        n
    }

    /// If `loc` holds a live NaN-box, replace it with the demoted double.
    pub(crate) fn demote_loc(&mut self, m: &mut Machine, loc: Loc) -> bool {
        let Ok(bits) = read_loc(m, loc) else {
            return false;
        };
        let Some(key) = fpvm_nanbox::decode(bits) else {
            return false;
        };
        let demoted = match self.arena.get(key) {
            Some(v) => {
                let (d, _) = self.arith.to_f64(v, Round::NearestEven);
                d.to_bits()
            }
            // Stale box = universal NaN: demote to the canonical quiet NaN.
            None => f64::NAN.to_bits(),
        };
        self.acct.tally(Counter::Demotions);
        match loc {
            Loc::XmmLane(r, l) => {
                m.xmm[r as usize][l as usize] = demoted;
                m.taint_reclassify_xmm(r as usize, l as usize);
                true
            }
            Loc::Gpr(r) => {
                m.gpr[r as usize] = demoted;
                m.taint_reclassify_gpr(r as usize);
                true
            }
            Loc::Mem(a) => {
                let ok = m.mem.write_u64(a, demoted).is_ok();
                if ok {
                    m.taint_reclassify_mem(a);
                }
                ok
            }
            Loc::None => false,
        }
    }
}
