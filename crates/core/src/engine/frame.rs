//! The trap frame and the trap-and-emulate front half of the pipeline:
//! delivery accounting → decode (cached) → bind → emulate → patch.

use super::accounting::{Accounting, Counter};
use super::exit::{ExitReason, Stage};
use super::Fpvm;
use crate::bound::{plan, Bound, BoundPlan, Planability};
use crate::metrics::MetricStage;
use crate::stats::Component;
use crate::trace::TraceEvent;
use fpvm_arith::{ArithSystem, FpFlags};
use fpvm_machine::{decode, Inst, Machine, CODE_BASE};

/// One hardware FP trap's lifecycle: the faulting site, the sticky
/// condition flags at delivery, and — once the decode stage has run — the
/// decoded instruction and its extent. Built by
/// [`Fpvm::on_fp_trap`] and threaded through the pipeline stages.
#[derive(Debug, Clone, Copy)]
pub struct TrapFrame {
    /// The faulting guest instruction pointer.
    pub rip: u64,
    /// MXCSR condition flags captured at delivery (cleared on entry, §4.1).
    pub flags: FpFlags,
    /// The decoded faulting instruction.
    pub inst: Inst,
    /// Its encoded length in bytes.
    pub len: u8,
}

impl TrapFrame {
    /// The resume point after the faulting instruction.
    pub fn next_rip(&self) -> u64 {
        self.rip + u64::from(self.len)
    }
}

impl<A: ArithSystem> Fpvm<A> {
    /// Handle one hardware FP exception: the trap-and-emulate pipeline.
    pub fn on_fp_trap(
        &mut self,
        m: &mut Machine,
        rip: u64,
        flags: FpFlags,
    ) -> Result<(), ExitReason> {
        self.acct.tally(Counter::FpTraps);
        // Wall-clock plane: tick the sample sequence and, on sampled
        // traps, time the whole frame (the ns/trap distribution).
        let t_frame = self.acct.trap_metrics_begin();
        // Delivery cost (Fig. 9: hardware + kernel + user components).
        let (hw, kern, user) = m.cost.delivery_parts(self.config.delivery);
        self.acct.charge(m, Component::Hardware, hw);
        self.acct.charge(m, Component::Kernel, kern);
        self.acct.charge(m, Component::UserDelivery, user);
        let icount = m.icount;
        self.acct.emit(|| TraceEvent::TrapBegin {
            rip,
            icount,
            hardware: hw,
            kernel: kern,
            user,
        });
        // Inspect and clear the sticky condition codes (§4.1 "Trapping").
        m.mxcsr.clear_flags();
        // Decode (through the trap cache) fills in the rest of the frame;
        // a statically bound site also yields its resolved operands.
        let (inst, len, bound) = self.decode_at(m, rip)?;
        let frame = TrapFrame {
            rip,
            flags,
            inst,
            len,
        };
        // Bind + emulate. A resolved plan skips the instruction-shape
        // match; the deterministic charge is the same either way.
        let bind_cost = m.cost.bind;
        self.acct.charge(m, Component::Bind, bind_cost);
        self.acct.emit(|| TraceEvent::Bind {
            rip,
            cycles: bind_cost,
        });
        match bound {
            Some(b) => self.emulate_bound(m, &b)?,
            None => self.emulate(m, &frame.inst, frame.next_rip())?,
        }
        // Trap-and-patch: install a patch at this site so the next
        // encounter dispatches via a cheap call instead of a trap. The
        // decode stage already filled the cache, so the install's
        // invalidation wins and the pre-patch entry is not resurrected.
        if self.config.trap_and_patch {
            self.install_patch(m, &frame);
        }
        self.acct.stage_record(MetricStage::Frame, t_frame);
        Ok(())
    }

    /// The decode stage: consult the [`super::TrapCache`], fall back to a
    /// full decode on miss, and charge the stage through the accounting
    /// sink. A miss fills the cache unless `decode_cache` is off, with the
    /// instruction's bound plan when it is static.
    /// A plan is resolved in place against `m` (timed as the bind stage),
    /// so the hot path never copies it out of the cache.
    pub(crate) fn decode_at(
        &mut self,
        m: &mut Machine,
        rip: u64,
    ) -> Result<(Inst, u8, Option<Bound>), ExitReason> {
        let t_decode = self.acct.stage_timer();
        if let Some((inst, len, plan)) = self.cache.lookup(rip) {
            self.acct.tally(Counter::DecodeHits);
            let cyc = m.cost.decode_cost(true);
            self.acct.charge(m, Component::Decode, cyc);
            self.acct.emit(|| TraceEvent::Decode {
                rip,
                hit: true,
                cycles: cyc,
            });
            self.acct.stage_record(MetricStage::Decode, t_decode);
            let bound = plan.as_ref().map(|p| resolve(&mut self.acct, m, p));
            return Ok((*inst, *len, bound));
        }
        self.acct.tally(Counter::DecodeMisses);
        let cyc = m.cost.decode_cost(false);
        self.acct.charge(m, Component::Decode, cyc);
        self.acct.emit(|| TraceEvent::Decode {
            rip,
            hit: false,
            cycles: cyc,
        });
        let off = (rip - CODE_BASE) as usize;
        let Ok((inst, len)) = decode(m.mem.code_bytes(), off) else {
            return Err(ExitReason::error(Stage::Decode, rip));
        };
        let plan = match plan(&inst, rip + len as u64) {
            Planability::Static(p) => Some(p),
            _ => None,
        };
        if self.config.decode_cache {
            self.cache.insert(rip, (inst, len as u8, plan));
        }
        self.acct.stage_record(MetricStage::Decode, t_decode);
        let bound = plan.map(|p| resolve(&mut self.acct, m, &p));
        Ok((inst, len as u8, bound))
    }
}

/// The bind stage for a statically bound site: resolve its plan's memory
/// operands against current register state. Inlined into the generic
/// trap path: as an out-of-line call it measurably slowed trap-dense
/// guests.
#[inline]
fn resolve(acct: &mut Accounting, m: &Machine, plan: &BoundPlan) -> Bound {
    let t_bind = acct.stage_timer();
    let b = plan.resolve(m);
    acct.stage_record(MetricStage::Bind, t_bind);
    b
}
