//! External-call interposition: the math wrapper and the output wrapper,
//! an `LD_PRELOAD`-style shim (§2, §4.2).

use super::accounting::Counter;
use super::exit::{ExitReason, Stage};
use super::Fpvm;
use crate::bound::Loc;
use crate::metrics::MetricStage;
use crate::stats::Component;
use crate::trace::{ExtDisposition, TraceEvent};
use fpvm_arith::{ArithSystem, Round};
use fpvm_machine::{Event, ExtFn, Machine};
use std::time::Instant;

impl<A: ArithSystem> Fpvm<A> {
    /// Handle an external call: route libm into the arithmetic system (the
    /// math wrapper), demote-for-rendering on output (the output wrapper),
    /// or demote FP argument registers and forward natively. The default
    /// [`super::HandlerTable::ext_call`] handler.
    pub fn on_ext_call(
        &mut self,
        m: &mut Machine,
        f: ExtFn,
        rip: u64,
        next_rip: u64,
    ) -> Result<(), ExitReason> {
        let t0 = self.acct.ext_metrics_begin();
        if f.is_math() && self.config.interpose_math {
            self.acct.tally(Counter::MathInterposed);
            let t = Instant::now();
            let rm = m.mxcsr.rounding();
            let mut emu = self.emulator();
            let a = emu.unbox(m.xmm[0][0]);
            let (v, flags) = match f {
                ExtFn::Sin => emu.arith.sin(&a, rm),
                ExtFn::Cos => emu.arith.cos(&a, rm),
                ExtFn::Tan => emu.arith.tan(&a, rm),
                ExtFn::Asin => emu.arith.asin(&a, rm),
                ExtFn::Acos => emu.arith.acos(&a, rm),
                ExtFn::Atan => emu.arith.atan(&a, rm),
                ExtFn::Exp => emu.arith.exp(&a, rm),
                ExtFn::Log => emu.arith.log(&a, rm),
                ExtFn::Log10 => emu.arith.log10(&a, rm),
                ExtFn::Floor => emu.arith.floor(&a),
                ExtFn::Ceil => emu.arith.ceil(&a),
                ExtFn::Fabs => emu.arith.abs(&a),
                ExtFn::Atan2 => {
                    let b = emu.unbox(m.xmm[1][0]);
                    emu.arith.atan2(&a, &b, rm)
                }
                ExtFn::Pow => {
                    let b = emu.unbox(m.xmm[1][0]);
                    emu.arith.pow(&a, &b, rm)
                }
                _ => unreachable!("is_math"),
            };
            let boxed = emu.boxv(v);
            m.mxcsr.raise(flags);
            m.xmm[0][0] = boxed;
            m.taint_reclassify_xmm(0, 0);
            m.rip = next_rip;
            let ns = t.elapsed().as_nanos() as u64;
            let dispatch = m.cost.emulate_dispatch;
            let cycles = self
                .acct
                .charge_measured(m, Component::Emulate, ns, dispatch);
            self.acct.emit(|| TraceEvent::ExtCall {
                rip,
                f,
                disposition: ExtDisposition::Math,
                cycles,
            });
            self.acct.stage_record(MetricStage::ExtCall, t0);
            return Ok(());
        }
        if f == ExtFn::PrintF64 {
            // The output wrapper: demote for printing without destroying
            // the box ("hijack such output functions … to promote %lf").
            self.acct.tally(Counter::OutputWrapped);
            let bits = m.xmm[0][0];
            let (demoted_bits, full) = if let Some(key) = fpvm_nanbox::decode(bits) {
                self.acct.tally(Counter::Demotions);
                match self.arena.get(key) {
                    Some(v) => {
                        let (d, _) = self.arith.to_f64(v, Round::NearestEven);
                        (d.to_bits(), self.arith.render(v))
                    }
                    None => (f64::NAN.to_bits(), "nan".to_string()),
                }
            } else {
                let d = f64::from_bits(bits);
                (bits, format!("{d:?}"))
            };
            m.output.push(fpvm_machine::OutputEvent::F64(demoted_bits));
            self.rendered.push(full);
            m.rip = next_rip;
            self.acct.emit(|| TraceEvent::ExtCall {
                rip,
                f,
                disposition: ExtDisposition::Output,
                cycles: 0,
            });
            self.acct.stage_record(MetricStage::ExtCall, t0);
            return Ok(());
        }
        // Non-interposed external (or stdio/services): demote FP argument
        // registers at the call site (§4.2 "for calls into external
        // libraries, NaN-boxed values passed as arguments can be
        // problematic … we demote NaN-boxed floating point registers at
        // the call site"), then forward natively.
        for i in 0..f.fp_args() {
            self.demote_loc(m, Loc::XmmLane(i as u8, 0));
        }
        if let Some(ev) = m.exec_ext_native(f) {
            match ev {
                Event::Exited(code) => return Err(ExitReason::Exited(code)),
                _ => return Err(ExitReason::error(Stage::External, m.rip)),
            }
        }
        m.rip = next_rip;
        self.acct.emit(|| TraceEvent::ExtCall {
            rip,
            f,
            disposition: ExtDisposition::Native,
            cycles: 0,
        });
        self.acct.stage_record(MetricStage::ExtCall, t0);
        Ok(())
    }
}
