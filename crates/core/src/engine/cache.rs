//! The trap cache: per-RIP memo of the decode and bind stages (§5.3
//! footnote 8: "the decode cache hit rate is nearly 100%").
//!
//! One direct-mapped slot per guest code byte holds what the bytes at that
//! RIP decode to, their encoded length, and — when the instruction's
//! binding is a pure function of its bytes — the machine-independent
//! [`BoundPlan`] from [`crate::bound::plan`]. Instruction addresses are
//! unique byte offsets, so the mapping is collision-free and a lookup is a
//! bounds check plus a load. A hot trap that hits here skips the full
//! decode and, with a plan, the bind stage's instruction-shape match; all
//! that remains is resolving the plan's memory operands against current
//! register state.
//!
//! Data-dependent bindings ([`crate::bound::Planability::Dynamic`], the
//! XorPd/AndPd mask inspection) and unbindable shapes are cached with no
//! plan, so a hit can never replay a machine-state-dependent decision.
//!
//! A stored plan changes *host* work only: resolving it yields exactly
//! what a fresh bind would. The `decode_cache: false` ablation leaves the
//! cache empty, so every trap pays the miss-path decode cost; Fig. 9
//! accounting outside the Decode component is the same either way.

use crate::bound::BoundPlan;
use fpvm_machine::{Inst, CODE_BASE};

/// A cached trap-site entry: the decoded instruction, its encoded length,
/// and its bound-operand plan when the binding is static.
pub type TrapEntry = (Inst, u8, Option<BoundPlan>);

/// Direct-mapped trap cache, sized to the guest's code segment.
#[derive(Debug, Default)]
pub struct TrapCache {
    slots: Vec<Option<TrapEntry>>,
    /// Fingerprint of the program the slots were filled under.
    fingerprint: u64,
}

impl TrapCache {
    /// An empty cache; it sizes itself in [`TrapCache::prepare`].
    pub fn new() -> Self {
        TrapCache::default()
    }

    /// Called once per run with the guest's code segment length and its
    /// content fingerprint, before any lookup. Entries survive only a
    /// re-run of the *same* program: two different programs of identical
    /// length must never share entries (length alone is not identity).
    /// `clear` + `resize` keeps the slot allocation.
    pub fn prepare(&mut self, code_len: usize, fingerprint: u64) {
        if self.slots.len() != code_len || self.fingerprint != fingerprint {
            self.slots.clear();
            self.slots.resize(code_len, None);
            self.fingerprint = fingerprint;
        }
    }

    /// The cached entry at `rip`. A lookup before any `prepare`, or at an
    /// out-of-segment rip, is a miss, never an index panic. Borrowed, so
    /// the hot path resolves a plan in place instead of copying it out.
    #[inline]
    pub fn lookup(&self, rip: u64) -> Option<&TrapEntry> {
        let off = rip.checked_sub(CODE_BASE)? as usize;
        self.slots.get(off)?.as_ref()
    }

    /// Cache the entry at `rip` (dropped when `rip` is outside the segment).
    pub fn insert(&mut self, rip: u64, entry: TrapEntry) {
        if let Some(slot) = self.slot_mut(rip) {
            *slot = Some(entry);
        }
    }

    /// Drop the entry at `rip` (trap-and-patch rewrote the site).
    pub fn invalidate(&mut self, rip: u64) {
        if let Some(slot) = self.slot_mut(rip) {
            *slot = None;
        }
    }

    fn slot_mut(&mut self, rip: u64) -> Option<&mut Option<TrapEntry>> {
        let off = rip.checked_sub(CODE_BASE)? as usize;
        self.slots.get_mut(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::{plan, Planability};
    use crate::engine::{ExitReason, Fpvm, FpvmConfig};
    use fpvm_arith::{FpFlags, Vanilla};
    use fpvm_machine::{
        decode, AluOp, Asm, Cond, CostModel, ExtFn, Gpr, Machine, Mem, TrapKind, Xmm, XM,
    };

    fn entry() -> TrapEntry {
        let inst = Inst::AddSd {
            dst: Xmm(0),
            src: XM::Reg(Xmm(1)),
        };
        let Planability::Static(p) = plan(&inst, CODE_BASE + 4) else {
            panic!("addsd must be static");
        };
        (inst, 4, Some(p))
    }

    fn is_hit(c: &TrapCache, rip: u64) -> bool {
        c.lookup(rip).is_some()
    }

    #[test]
    fn roundtrip_invalidate_and_same_program_prepare() {
        let mut c = TrapCache::new();
        c.prepare(64, 0xAA);
        assert!(!is_hit(&c, CODE_BASE + 3));
        c.insert(CODE_BASE + 3, entry());
        let (inst, len, p) = c.lookup(CODE_BASE + 3).unwrap();
        assert_eq!((*inst, *len), (entry().0, 4));
        assert!(p.is_some());
        c.invalidate(CODE_BASE + 3);
        assert!(!is_hit(&c, CODE_BASE + 3));

        c.insert(CODE_BASE + 1, entry());
        c.prepare(64, 0xAA); // same program re-run: keep entries
        assert!(is_hit(&c, CODE_BASE + 1));
        c.prepare(48, 0xAA); // different length: flushed
        assert!(!is_hit(&c, CODE_BASE + 1));
    }

    #[test]
    fn same_length_different_program_flushes() {
        // The stale-reload bug: two different programs of identical length
        // must not share entries. The fingerprint is the identity.
        let mut c = TrapCache::new();
        c.prepare(32, 0xAA);
        c.insert(CODE_BASE + 1, entry());
        c.prepare(32, 0xBB);
        assert!(!is_hit(&c, CODE_BASE + 1));
    }

    #[test]
    fn ignores_out_of_segment_rips() {
        let mut c = TrapCache::new();
        c.prepare(16, 0xAA);
        c.insert(CODE_BASE + 100, entry()); // beyond the segment: dropped
        assert!(!is_hit(&c, CODE_BASE + 100));
        assert!(!is_hit(&c, CODE_BASE.wrapping_sub(1)));
    }

    #[test]
    fn inert_before_prepare() {
        // Lookups, inserts and invalidations on a never-prepared cache are
        // misses or no-ops, never index panics.
        let mut c = TrapCache::new();
        for rip in [CODE_BASE, CODE_BASE + 1000, 0, u64::MAX] {
            assert!(!is_hit(&c, rip));
        }
        c.invalidate(CODE_BASE + 5);
        c.insert(CODE_BASE + 5, entry());
        assert!(!is_hit(&c, CODE_BASE + 5));
    }

    /// A `Planability::Dynamic` site (the XorPd sign-mask idiom) is cached
    /// without a plan: its second trap is a decode hit that binds fresh.
    #[test]
    fn dynamic_site_is_a_decode_hit_without_a_plan() {
        let mut a = Asm::new();
        let mask = a.u128c([fpvm_nanbox::F64_SIGN_BIT, 0]);
        a.xorpd(Xmm(0), Mem::abs(mask as i64));
        a.halt();
        let p = a.finish();
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        m.xmm[0][0] = 1.5f64.to_bits();
        let mut fpvm = Fpvm::new(Vanilla, FpvmConfig::default());
        fpvm.cache
            .prepare(m.mem.code_bytes().len(), m.code_fingerprint());
        for _ in 0..2 {
            m.rip = CODE_BASE;
            fpvm.on_fp_trap(&mut m, CODE_BASE, FpFlags::NONE).unwrap();
        }
        assert_eq!(
            (fpvm.stats().decode_misses, fpvm.stats().decode_hits),
            (1, 1)
        );
        let (inst, _, plan) = fpvm.cache.lookup(CODE_BASE).expect("cached");
        assert!(matches!(inst, Inst::XorPd { .. }));
        assert!(plan.is_none(), "a dynamic binding must not be memoized");
    }

    /// Iterated logistic map x <- r·x·(1−x): every iteration rounds, so
    /// every iteration traps.
    fn logistic_program(iters: i64) -> fpvm_machine::Program {
        let mut a = Asm::new();
        let x0 = a.f64m(0.34567);
        let r = a.f64m(3.71);
        let one = a.f64m(1.0);
        a.movsd(Xmm(2), x0);
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let done = a.label();
        a.cmp_ri(Gpr::RCX, iters);
        a.jcc(Cond::Ge, done);
        a.movsd(Xmm(3), one);
        a.subsd(Xmm(3), Xmm(2));
        a.mulsd(Xmm(2), r);
        a.mulsd(Xmm(2), Xmm(3));
        a.movsd(Xmm(0), XM::Reg(Xmm(2)));
        a.call_ext(ExtFn::PrintF64);
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.jmp(top);
        a.bind(done);
        a.halt();
        a.finish()
    }

    /// Trap-and-patch must invalidate the cache at every site it rewrites:
    /// the cached entry predates the patch, so a later decode at that rip
    /// would resurrect the original instruction.
    #[test]
    fn trap_and_patch_empties_every_patched_slot() {
        let p = logistic_program(50);
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&p);
        let mut fpvm = Fpvm::new(
            Vanilla,
            FpvmConfig {
                trap_and_patch: true,
                ..FpvmConfig::default()
            },
        );
        let report = fpvm.run(&mut m);
        assert_eq!(report.exit, ExitReason::Halted);
        let code = m.mem.code_bytes();
        let patched: Vec<u64> = (0..code.len() as u64)
            .map(|off| CODE_BASE + off)
            .filter(|&rip| fpvm.is_patched(rip))
            .collect();
        assert!(patched.len() >= 2, "loop FP sites must be patched");
        assert_eq!(patched.len() as u64, report.stats.sites_patched);
        for rip in patched {
            assert!(
                fpvm.cache.lookup(rip).is_none(),
                "patched site {rip:#x} still cached"
            );
            let (inst, _) = decode(code, (rip - CODE_BASE) as usize).unwrap();
            assert!(
                matches!(
                    inst,
                    Inst::Trap {
                        kind: TrapKind::PatchCall,
                        ..
                    }
                ),
                "patched site at {rip:#x} decodes as {inst:?}"
            );
        }
    }
}
