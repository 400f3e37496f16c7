//! Superblock dispatch: batched execution of straight-line guest code.
//!
//! The stepped interpreter ([`Machine::step`]) pays fetch + predecode
//! lookup + cost-table lookup + taint branch + budget check + match
//! dispatch for *every* instruction. In a virtualized run almost none of
//! those instructions trap — FPVM's own observation (§5) is that the FP
//! sites are a small minority — so the dominant cost for trap-sparse
//! workloads is pure interpreter overhead. This module applies the classic
//! trace/superblock technique from binary translators (DynamoRIO trace
//! building, QEMU TB chaining): lazily form *superblocks* — runs of
//! pre-decoded instructions ending at control flow, a potentially-trapping
//! site, or a length cap — and dispatch whole blocks on the hot path.
//!
//! ## Formation rules
//!
//! Walking forward from a code offset, a block **ends before** any
//! instruction that traps into the runtime on essentially every execution
//! of a virtualized run, or that stops the run outright:
//!
//! * FP arithmetic ([`Inst::is_fp_arith`]) — faults under the engine's
//!   unmasked `%mxcsr`,
//! * `Trap` — correctness traps and patch calls,
//! * `CallExt` — hooked external calls,
//! * `Halt`.
//!
//! Control flow (`Jmp`/`Jcc`/`Call`/`Ret`) may sit at the *end* of a block:
//! it retires normally and redirects `rip`, after which dispatch re-enters
//! the cache at the new offset. Instructions that can fault *conditionally*
//! (memory operands, NaN-hole checks) sit anywhere in a block, because the
//! block executor runs every entry through the same `exec_inner` as
//! [`Machine::step`] — an event aborts the block with `rip`, `cycles`, and
//! `icount` exactly as the stepped loop would leave them. Blocks shorter
//! than two instructions are recorded as refusals (dispatching them would
//! cost as much as stepping).
//!
//! ## Accounting equivalence
//!
//! The superblock engine is a pure host-time optimization: `icount`,
//! `fp_icount`, `cycles`, guest output, and every surfaced [`Event`] are
//! bit-identical with superblocks on, off, or capped at any length. That
//! holds because the executor replays `step()`'s exact per-instruction
//! protocol (charge the pre-computed base cost, execute, count
//! retirement), block formation never *includes* an instruction it would
//! execute differently, and [`Machine::run`] only dispatches a block when
//! it fits the remaining instruction budget — otherwise it falls back to
//! single stepping so a `Fault::Budget` fires at the exact boundary.
//! Pinned by the tests below and by `crates/bench/tests/sblock_pin.rs`.
//!
//! ## Invalidation
//!
//! The cache is keyed by code offset and guarded by the same FNV-1a code
//! fingerprint discipline as the engine's trap cache: a mismatch (new
//! program, recycled machine with different code) resets every slot.
//! [`Machine::patch_code`] invalidates surgically instead — any block
//! whose byte span overlaps the patched range is dropped (blocks start at
//! most `longest_block - 1` bytes before the patch), and re-forms
//! truncated at the patched site on next dispatch.

use crate::cost::CostModel;
use crate::encode::{decode, MAX_INST_LEN};
use crate::exec::{Event, ExecResult, Fault, Machine};
use crate::isa::Inst;
use crate::mem::CODE_BASE;

/// Superblock formation cap (instructions per block).
pub(crate) const DEFAULT_BLOCK_CAP: u32 = 64;

/// Blocks shorter than this are refusals: dispatching a one-instruction
/// block costs as much as stepping it.
const MIN_BLOCK_LEN: usize = 2;

/// One pre-decoded instruction within a superblock, with everything the
/// per-instruction retire protocol needs snapshotted at formation time.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    inst: Inst,
    /// Address of this instruction (`rip` while it executes).
    rip: u64,
    /// Address of the following instruction (fall-through `rip`).
    next: u64,
    /// Base cycle cost (`CostModel::inst_cost` at formation; the cache is
    /// keyed on the whole cost model, so this can never go stale).
    cost: u32,
    /// Counts toward `fp_icount` on retirement.
    fp: bool,
}

/// A superblock: a run of straight-line instructions plus precomputed
/// aggregates.
#[derive(Debug, Clone)]
struct Block {
    entries: Box<[BlockEntry]>,
    /// End of the block's byte span (code offset, exclusive). Formation
    /// reads only `[start, end)`, so patch invalidation tests overlap
    /// against this.
    end: u32,
    /// Summed base cycle cost of all entries.
    cost_sum: u64,
    /// How many entries count toward `fp_icount`.
    fp_count: u64,
}

/// One cache slot: not yet examined, examined-and-too-short, or a block.
#[derive(Debug, Clone, Default)]
enum Slot {
    #[default]
    Empty,
    Refused,
    Block(Block),
}

/// Host-side superblock cache counters (observability only — never part
/// of the deterministic accounting; they change with budget shape and
/// machine reuse).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Blocks formed.
    pub built: u64,
    /// Offsets examined that could not reach [`MIN_BLOCK_LEN`].
    pub refused: u64,
    /// Whole-block dispatches.
    pub dispatches: u64,
    /// Instructions retired through block dispatch.
    pub block_insts: u64,
    /// Base cycles charged by *fully completed* block dispatches (from the
    /// blocks' precomputed `cost_sum`).
    pub block_cycles: u64,
    /// FP-arith retirements through *fully completed* block dispatches.
    pub block_fp: u64,
    /// Slots dropped by patch invalidation.
    pub invalidated: u64,
}

/// The superblock cache: one slot per code offset, guarded by the code
/// fingerprint and the cost model.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCache {
    slots: Vec<Slot>,
    fingerprint: u64,
    /// Cost model the entries' costs were snapshotted under.
    cost: Option<CostModel>,
    /// Longest block byte span ever installed — bounds how far before a
    /// patch an overlapping block can start.
    longest: usize,
    stats: BlockCacheStats,
}

impl BlockCache {
    /// Validate the cache against the current code identity; reset every
    /// slot on any mismatch (different program, different cost model).
    /// O(1) when nothing changed.
    fn ensure(&mut self, code_len: usize, fingerprint: u64, cost: &CostModel) {
        let stale = self.slots.len() != code_len
            || self.fingerprint != fingerprint
            || self.cost.as_ref() != Some(cost);
        if stale {
            self.slots.clear();
            self.slots.resize(code_len, Slot::Empty);
            self.fingerprint = fingerprint;
            self.cost = Some(*cost);
            self.longest = 0;
        }
    }

    /// Surgical invalidation for a code patch at `[off, off + len)`: drop
    /// every block whose byte span overlaps the patched range, and every
    /// refusal whose verdict could have depended on patched bytes (a
    /// refusal is decided by one instruction, which spans at most
    /// [`MAX_INST_LEN`] bytes). Records the post-patch fingerprint so the
    /// surviving slots stay valid — only a *foreign* code change (one that
    /// bypassed [`Machine::patch_code`]) resets the whole cache.
    pub(crate) fn note_patch(&mut self, off: usize, len: usize, new_fingerprint: u64) {
        let reach = self.longest.max(MAX_INST_LEN).saturating_sub(1);
        let lo = off.saturating_sub(reach);
        let hi = (off + len).min(self.slots.len());
        for s in lo..hi {
            let kill = match &self.slots[s] {
                Slot::Empty => false,
                Slot::Refused => s + MAX_INST_LEN > off,
                Slot::Block(b) => (b.end as usize) > off,
            };
            if kill {
                self.stats.invalidated += 1;
                self.slots[s] = Slot::Empty;
            }
        }
        self.fingerprint = new_fingerprint;
    }
}

impl Machine {
    /// Host-side superblock cache counters (see [`BlockCacheStats`]).
    pub fn superblock_stats(&self) -> BlockCacheStats {
        self.blocks.stats
    }

    /// The block-dispatching run loop. Called by [`Machine::run`] when
    /// superblocks are enabled and neither single-step nor the taint plane
    /// demands per-instruction fidelity.
    pub(crate) fn run_superblocks(&mut self, budget: u64) -> Event {
        // Take the cache out of `self` for the duration: the executor
        // needs `&mut self` while blocks are borrowed from the cache, and
        // nothing inside a run can touch `self.blocks` (patches only land
        // between `run()` calls).
        let mut cache = std::mem::take(&mut self.blocks);
        cache.ensure(
            self.mem.code_bytes().len(),
            self.mem.code_fingerprint(),
            &self.cost,
        );
        let ev = self.run_block_loop(&mut cache, budget);
        self.blocks = cache;
        ev
    }

    fn run_block_loop(&mut self, cache: &mut BlockCache, budget: u64) -> Event {
        let target = self.icount.saturating_add(budget);
        loop {
            if self.icount >= target {
                return Event::Fault(Fault::Budget);
            }
            let rip = self.rip;
            if rip < CODE_BASE || rip >= self.mem.code_end {
                // step() surfaces the BadRip fault with the exact stepped
                // shape (no cycles charged, rip unchanged).
                match self.step() {
                    Some(ev) => return ev,
                    None => continue,
                }
            }
            let off = (rip - CODE_BASE) as usize;
            if matches!(cache.slots[off], Slot::Empty) {
                let slot = self.build_block(off);
                match &slot {
                    Slot::Block(b) => {
                        cache.stats.built += 1;
                        cache.longest = cache.longest.max(b.end as usize - off);
                    }
                    Slot::Refused => cache.stats.refused += 1,
                    Slot::Empty => unreachable!("build_block returns Refused or Block"),
                }
                cache.slots[off] = slot;
            }
            match &cache.slots[off] {
                Slot::Block(b) if (b.entries.len() as u64) <= target - self.icount => {
                    cache.stats.dispatches += 1;
                    let (retired, ev) = self.exec_entries(&b.entries);
                    cache.stats.block_insts += retired as u64;
                    match ev {
                        Some(ev) => return ev,
                        None => {
                            // Fully retired: the precomputed aggregates
                            // describe exactly what was charged.
                            cache.stats.block_cycles += b.cost_sum;
                            cache.stats.block_fp += b.fp_count;
                        }
                    }
                }
                // Refused slot, or the block is longer than the remaining
                // budget: single-step so a Budget fault (or any event)
                // lands at exactly the same point as the stepped loop.
                _ => {
                    if let Some(ev) = self.step() {
                        return ev;
                    }
                }
            }
        }
    }

    /// Form a block starting at code offset `off` (or refuse).
    fn build_block(&self, off: usize) -> Slot {
        let code = self.mem.code_bytes();
        let mut entries: Vec<BlockEntry> = Vec::new();
        let mut cur = off;
        while entries.len() < self.sb_cap as usize && cur < code.len() {
            let Ok((inst, len)) = decode(code, cur) else {
                break;
            };
            if ends_before(&inst) {
                break;
            }
            let rip = CODE_BASE + cur as u64;
            entries.push(BlockEntry {
                inst,
                rip,
                next: rip + len as u64,
                cost: self.cost.inst_cost(&inst) as u32,
                fp: inst.is_fp_arith(),
            });
            cur += len;
            if is_control_flow(&inst) {
                break;
            }
        }
        if entries.len() < MIN_BLOCK_LEN {
            return Slot::Refused;
        }
        let cost_sum = entries.iter().map(|e| u64::from(e.cost)).sum();
        let fp_count = entries.iter().filter(|e| e.fp).count() as u64;
        Slot::Block(Block {
            entries: entries.into_boxed_slice(),
            end: cur as u32,
            cost_sum,
            fp_count,
        })
    }

    /// Execute a block's entries back-to-back with the exact
    /// per-instruction protocol of [`Machine::step`]: charge the
    /// precomputed base cost, execute through `exec_inner`, count
    /// retirement. Any event returns immediately — at that point `rip`,
    /// `cycles`, `icount`, and `fp_icount` are bit-identical to what the
    /// stepped loop would have left. Returns (entries retired, event).
    fn exec_entries(&mut self, entries: &[BlockEntry]) -> (usize, Option<Event>) {
        for (i, e) in entries.iter().enumerate() {
            self.cycles += u64::from(e.cost);
            match self.exec_inner(&e.inst, e.rip, e.next) {
                ExecResult::Retired => {
                    self.icount += 1;
                    if e.fp {
                        self.fp_icount += 1;
                    }
                }
                ExecResult::Event(ev) => return (i, Some(ev)),
            }
        }
        (entries.len(), None)
    }
}

/// Instructions a superblock must end *before*: they trap into the runtime
/// on essentially every execution of a virtualized run, or stop the run.
fn ends_before(inst: &Inst) -> bool {
    inst.is_fp_arith() || matches!(inst, Inst::Halt | Inst::Trap { .. } | Inst::CallExt { .. })
}

/// Control flow may sit at the end of a block: it retires normally and
/// redirects `rip`.
fn is_control_flow(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. } | Inst::Ret
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::encode::encode;
    use crate::isa::{AluOp, Cond, Gpr, Mem, Xmm};

    /// A program with straight-line integer runs, a loop, a call/ret pair,
    /// and FP arithmetic — every block-formation rule gets exercised.
    fn mixed_program() -> crate::Program {
        let mut a = Asm::new();
        let c1 = a.f64m(1.5);
        let body = a.label();
        let done = a.label();
        let func = a.label();
        a.mov_ri(Gpr::RCX, 1);
        a.mov_ri(Gpr::RAX, 0);
        a.movsd(Xmm(0), c1);
        a.bind(body);
        a.cmp_ri(Gpr::RCX, 20);
        a.jcc(Cond::G, done);
        a.call(func);
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.addsd(Xmm(0), Xmm(0)); // fp-arith: terminates any block
        a.jmp(body);
        a.bind(func);
        a.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RCX);
        a.alu_ri(AluOp::Xor, Gpr::RDX, 0);
        a.ret();
        a.bind(done);
        a.store(Mem::abs(crate::mem::DATA_BASE as i64), Gpr::RAX);
        a.halt();
        a.finish()
    }

    fn fresh(p: &crate::Program, superblocks: bool) -> Machine {
        let mut m = Machine::new(CostModel::r815());
        m.superblocks = superblocks;
        m.load_program(p);
        m
    }

    /// Full-state equivalence: run the same program to completion with
    /// superblocks on and off; every piece of architectural and
    /// accounting state must match bit for bit.
    fn assert_equiv(mon: &Machine, moff: &Machine) {
        assert_eq!(mon.icount, moff.icount, "icount");
        assert_eq!(mon.fp_icount, moff.fp_icount, "fp_icount");
        assert_eq!(mon.cycles, moff.cycles, "cycles");
        assert_eq!(mon.rip, moff.rip, "rip");
        assert_eq!(mon.gpr, moff.gpr, "gpr");
        assert_eq!(mon.xmm, moff.xmm, "xmm");
        assert_eq!(mon.output, moff.output, "output");
    }

    #[test]
    fn superblocks_match_stepped_execution_exactly() {
        let p = mixed_program();
        let mut mon = fresh(&p, true);
        let mut moff = fresh(&p, false);
        assert_eq!(mon.run(1_000_000), Event::Halted);
        assert_eq!(moff.run(1_000_000), Event::Halted);
        assert_equiv(&mon, &moff);
        let st = mon.superblock_stats();
        assert!(st.built > 0, "blocks must actually form");
        assert!(st.dispatches > 0, "blocks must actually dispatch");
        assert!(st.block_insts > 0);
        assert_eq!(moff.superblock_stats(), BlockCacheStats::default());
    }

    #[test]
    fn capped_blocks_match_too() {
        let p = mixed_program();
        for cap in [1u32, 2, 3] {
            let mut mcap = fresh(&p, true);
            mcap.sb_cap = cap;
            let mut moff = fresh(&p, false);
            assert_eq!(mcap.run(1_000_000), Event::Halted);
            assert_eq!(moff.run(1_000_000), Event::Halted);
            assert_equiv(&mcap, &moff);
            if cap == 1 {
                // Passthrough: the 2-instruction minimum is unreachable.
                assert_eq!(mcap.superblock_stats().built, 0);
            }
        }
    }

    #[test]
    fn unmasked_fp_exceptions_land_identically() {
        // With every exception unmasked (the engine's configuration) the
        // addsd traps; the surfaced event and all state must match.
        let p = mixed_program();
        let mut mon = fresh(&p, true);
        let mut moff = fresh(&p, false);
        mon.mxcsr.unmask_all();
        moff.mxcsr.unmask_all();
        loop {
            let eon = mon.run(1_000_000);
            let eoff = moff.run(1_000_000);
            assert_eq!(eon, eoff, "event streams must match");
            assert_equiv(&mon, &moff);
            match eon {
                Event::Halted => break,
                Event::FpException { rip, .. } => {
                    // Resume past the faulting instruction like a runtime
                    // would (skip emulation; this is an equivalence test).
                    let (_, len) = mon.fetch(rip).unwrap();
                    mon.mxcsr.clear_flags();
                    moff.mxcsr.clear_flags();
                    mon.rip = rip + u64::from(len);
                    moff.rip = mon.rip;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn budget_fault_identical_on_off_including_mid_block() {
        // Straight-line run long enough to form a fat block, then sweep
        // every budget across it: the Budget fault must land at the same
        // icount/cycles/rip whether the boundary falls mid-block or not.
        let mut a = Asm::new();
        for i in 0..40 {
            a.alu_ri(AluOp::Add, Gpr::RAX, i);
        }
        a.halt();
        let p = a.finish();
        for budget in 0..44u64 {
            let mut mon = fresh(&p, true);
            let mut moff = fresh(&p, false);
            let eon = mon.run(budget);
            let eoff = moff.run(budget);
            assert_eq!(eon, eoff, "budget {budget}");
            assert_equiv(&mon, &moff);
            if budget <= 40 {
                // At exactly 40 the loop-top check fires before the halt
                // is even fetched — budget semantics, pinned both modes.
                assert_eq!(eon, Event::Fault(Fault::Budget), "budget {budget}");
                assert_eq!(mon.icount, budget);
            } else {
                assert_eq!(eon, Event::Halted, "budget {budget}");
            }
        }
    }

    #[test]
    fn budget_resume_converges_with_stepped() {
        // Driving the machine in many tiny budget slices (the engine's
        // re-entry pattern) must retire the same program state as one big
        // stepped run.
        let p = mixed_program();
        let mut mon = fresh(&p, true);
        let mut moff = fresh(&p, false);
        let ev = loop {
            match mon.run(7) {
                Event::Fault(Fault::Budget) => continue,
                other => break other,
            }
        };
        assert_eq!(ev, Event::Halted);
        assert_eq!(moff.run(1_000_000), Event::Halted);
        assert_equiv(&mon, &moff);
    }

    #[test]
    fn patched_blocks_reform_after_invalidation() {
        // Form blocks over a straight-line run, patch an instruction in
        // the middle (same length, different immediate), and check the
        // re-run picks up the patch — and matches a stepped machine
        // patched the same way.
        let mut a = Asm::new();
        let top = a.here_label();
        let _ = top;
        a.mov_ri(Gpr::RAX, 0);
        for _ in 0..8 {
            a.alu_ri(AluOp::Add, Gpr::RAX, 5);
        }
        a.halt();
        let p = a.finish();

        let mut mon = fresh(&p, true);
        let mut moff = fresh(&p, false);
        assert_eq!(mon.run(1_000_000), Event::Halted);
        assert_eq!(moff.run(1_000_000), Event::Halted);
        assert_eq!(mon.gpr[0], 40);
        let built_before = mon.superblock_stats().built;
        assert!(built_before > 0);

        // Patch the third add (imm 5 → 9): encode the replacement at the
        // same address. The add instructions are identical, so find the
        // site by encoding one add and stepping over the mov.
        let mut one_add = Vec::new();
        let add_len = encode(
            &Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::RAX,
                imm: 5,
            },
            &mut one_add,
        );
        let mut mov = Vec::new();
        let mov_len = encode(
            &Inst::MovRI {
                dst: Gpr::RAX,
                imm: 0,
            },
            &mut mov,
        );
        let site = CODE_BASE + mov_len as u64 + 2 * add_len as u64;
        let mut patched = Vec::new();
        let plen = encode(
            &Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::RAX,
                imm: 9,
            },
            &mut patched,
        );
        assert_eq!(plen, add_len, "replacement must fit in place");

        for m in [&mut mon, &mut moff] {
            m.patch_code(site, &patched);
            m.rip = m.mem.code_end - 1; // re-enter at... reset below
        }
        // Re-run from the entry point on the patched code.
        for m in [&mut mon, &mut moff] {
            m.rip = CODE_BASE;
            m.gpr = [0; 16];
        }
        assert_eq!(mon.run(1_000_000), Event::Halted);
        assert_eq!(moff.run(1_000_000), Event::Halted);
        assert_eq!(mon.gpr[0], 44, "7 adds of 5 + 1 add of 9");
        assert_equiv(&mon, &moff);
        let st = mon.superblock_stats();
        assert!(st.invalidated > 0, "the patch must drop overlapping blocks");
        assert!(
            st.built > built_before,
            "blocks must re-form after invalidation"
        );
    }

    #[test]
    fn cache_resets_on_new_program_same_machine() {
        // Fleet reuse: loading a *different* program into the same machine
        // must not serve the old program's blocks (fingerprint discipline).
        let build = |imm: i64| {
            let mut a = Asm::new();
            a.mov_ri(Gpr::RAX, 0);
            for _ in 0..4 {
                a.alu_ri(AluOp::Add, Gpr::RAX, imm);
            }
            a.halt();
            a.finish()
        };
        let (pa, pb) = (build(3), build(8));
        assert_eq!(pa.code.len(), pb.code.len());
        let mut m = Machine::new(CostModel::r815());
        m.load_program(&pa);
        assert_eq!(m.run(1_000), Event::Halted);
        assert_eq!(m.gpr[0], 12);
        m.load_program(&pb);
        assert_eq!(m.run(1_000), Event::Halted);
        assert_eq!(m.gpr[0], 32, "stale blocks would replay imm=3");
    }
}
