//! The trap-and-patch engine (§3.2): rewrite hot faulting sites into
//! direct patch calls with inline pre/postcondition checks.

use super::accounting::Counter;
use super::exit::{ExitReason, Stage};
use super::frame::TrapFrame;
use super::Fpvm;
use crate::bound::{has_boxed_src, native_eval, BoundPlan, Dst, Planability};
use crate::stats::Component;
use crate::trace::TraceEvent;
use fpvm_arith::ArithSystem;
use fpvm_machine::{encode, Event, Inst, Machine, TrapKind};
use std::collections::HashMap;

/// One dynamically patched site: the original instruction the patch
/// replaced, the resume point after it, and — for statically plannable
/// shapes — its memoized bound-operand plan, so patch-call slow paths
/// skip the bind stage's instruction-shape match just like the trap
/// cache does for traps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TpSite {
    pub original: Inst,
    pub next_rip: u64,
    pub plan: Option<BoundPlan>,
}

impl TpSite {
    /// Record a site, memoizing its plan when the binding is static.
    pub fn new(original: Inst, next_rip: u64) -> Self {
        let plan = match crate::bound::plan(&original, next_rip) {
            Planability::Static(p) => Some(p),
            _ => None,
        };
        TpSite {
            original,
            next_rip,
            plan,
        }
    }
}

/// The patch-site table. Sites are keyed by a dense u16 id baked into the
/// `Trap { PatchCall }` encoding, so dispatch is a direct index — no
/// hashing on the hot path. The address map exists only to keep
/// installation idempotent.
#[derive(Debug, Default)]
pub(crate) struct PatchTable {
    sites: Vec<Option<TpSite>>,
    by_addr: HashMap<u64, u16>,
}

impl PatchTable {
    /// O(1) site lookup by trap id.
    pub fn get(&self, id: u16) -> Option<TpSite> {
        self.sites.get(id as usize).copied().flatten()
    }

    /// Is this address already patched?
    pub fn contains_addr(&self, addr: u64) -> bool {
        self.by_addr.contains_key(&addr)
    }

    /// The next free id, or `None` when the id space is exhausted.
    pub fn next_id(&self) -> Option<u16> {
        (self.sites.len() < u16::MAX as usize).then_some(self.sites.len() as u16)
    }

    /// Record a dynamically installed patch.
    pub fn insert(&mut self, id: u16, addr: u64, site: TpSite) {
        self.set(id, site);
        self.by_addr.insert(addr, id);
    }

    /// Register a site under a caller-chosen id (compiler preload, §3.4).
    pub fn set(&mut self, id: u16, site: TpSite) {
        let idx = id as usize;
        if idx >= self.sites.len() {
            self.sites.resize(idx + 1, None);
        }
        self.sites[idx] = Some(site);
    }

    /// Drop every site (engine recycle), keeping the allocations.
    pub fn clear(&mut self) {
        self.sites.clear();
        self.by_addr.clear();
    }
}

impl<A: ArithSystem> Fpvm<A> {
    /// Patch the trapped site in `frame` so its next encounter dispatches
    /// via a cheap `Trap { PatchCall }` instead of a hardware trap.
    pub(crate) fn install_patch(&mut self, m: &mut Machine, frame: &TrapFrame) {
        let rip = frame.rip;
        if self.patches.contains_addr(rip) || frame.len < 3 {
            return;
        }
        // Profiler-guided site selection: when an allowlist is installed,
        // only the ranked sites are eligible for dynamic patching.
        if let Some(allow) = &self.patch_allow {
            if !allow.contains(&rip) {
                return;
            }
        }
        let Some(id) = self.patches.next_id() else {
            return;
        };
        // Only FP arithmetic sites benefit; compares and cvts also qualify.
        if !frame.inst.is_fp_arith() {
            return;
        }
        // Encode into the engine-owned scratch buffer (no per-install
        // allocation once it has grown to the longest patch).
        let mut bytes = std::mem::take(&mut self.scratch_code);
        bytes.clear();
        encode(
            &Inst::Trap {
                kind: TrapKind::PatchCall,
                id,
            },
            &mut bytes,
        );
        while bytes.len() < frame.len as usize {
            encode(&Inst::Nop, &mut bytes);
        }
        m.patch_code(rip, &bytes);
        self.scratch_code = bytes;
        // A cached decode or plan would replay the pre-patch instruction.
        self.cache.invalidate(rip);
        self.patches
            .insert(id, rip, TpSite::new(frame.inst, frame.next_rip()));
        self.acct.tally(Counter::SitesPatched);
        self.acct
            .emit(|| TraceEvent::PatchInstalled { rip, site: id });
    }

    /// Handle a `Trap { PatchCall }`: run the inlined pre/postcondition
    /// checks and execute natively when both hold, falling back to full
    /// emulation otherwise. The default [`super::HandlerTable::patch_call`]
    /// handler.
    pub fn on_patch_call(&mut self, m: &mut Machine, id: u16, rip: u64) -> Result<(), ExitReason> {
        let Some(site) = self.patches.get(id) else {
            return Err(ExitReason::error_at_site(Stage::Patch, rip, id));
        };
        // Direct call into the custom handler + inlined checks.
        let dispatch = m.cost.patch_dispatch();
        self.acct.charge(m, Component::Patch, dispatch);
        // Static shapes resolve their memoized plan; dynamic ones (the
        // mask-dependent bitwise ops) re-bind against current state.
        let bound = match site.plan {
            Some(p) => Some(p.resolve(m)),
            None => crate::bound::bind(m, &site.original, site.next_rip),
        };
        let Some(b) = bound else {
            // Unbindable patched instruction (e.g. a bitwise FP op with a
            // non-canonical mask): fall back to demote + re-execute, like a
            // correctness trap.
            self.acct.emit(|| TraceEvent::PatchCall {
                rip,
                site: id,
                fast: false,
                cycles: dispatch,
            });
            self.demote_operands(m, &site.original);
            return match m.exec_masked(&site.original, site.next_rip) {
                Ok(_) => Ok(()),
                Err(Event::Fault(f)) => Err(ExitReason::Fault(f)),
                Err(_) => Err(ExitReason::error_at_site(Stage::Patch, rip, id)),
            };
        };
        // Precondition: no boxed inputs. Postcondition: native execution
        // would raise no event. Both hold → execute natively in the patch.
        // At most two lanes, so the staging buffer is a fixed array — no
        // per-call allocation.
        let mut native: [Option<(Dst, u64)>; 2] = [None, None];
        let mut n = 0;
        let mut fast = true;
        for lane in b.lanes.iter().flatten() {
            if has_boxed_src(m, lane) {
                fast = false;
                break;
            }
            match native_eval(m, lane) {
                Some((bits, flags)) if flags.is_empty() => {
                    native[n] = Some((lane.dst, bits));
                    n += 1;
                }
                _ => {
                    fast = false;
                    break;
                }
            }
        }
        self.acct.emit(|| TraceEvent::PatchCall {
            rip,
            site: id,
            fast,
            cycles: dispatch,
        });
        if fast {
            self.acct.tally(Counter::PatchFast);
            for (dst, bits) in native.iter().take(n).flatten() {
                if let Dst::F64Lane(r, l) = dst {
                    m.xmm[*r as usize][*l as usize] = *bits;
                    m.taint_reclassify_xmm(*r as usize, *l as usize);
                }
            }
            m.rip = site.next_rip;
            return Ok(());
        }
        // Slow path: full emulation through the handler.
        self.acct.tally(Counter::PatchSlow);
        self.emulate(m, &site.original, site.next_rip)
    }
}
