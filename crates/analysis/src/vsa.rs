//! Value-set analysis: find the instructions where a NaN-boxed value
//! could leak into the non-trapping integer world (§4.2).
//!
//! "The analysis categorizes instructions into two categories: sources and
//! sinks. A source is any instruction that stores a floating point value to
//! memory, and a sink is any instruction that later loads from any memory
//! location that was previously been written to by a source."
//!
//! The analysis is an abstract interpretation over the recovered CFG:
//!
//! * registers carry a value-set lattice — constants, entry-relative stack
//!   offsets, exact global pointers, *object-granular* global pointers
//!   (angr-VSA's allocation-site a-locs, using the image's object table),
//!   a one-cell heap summary, and ⊤ — plus an *FP-bits taint*;
//! * stack slot **contents** are tracked flow-sensitively (the `-O0` style
//!   codegen round-trips every pointer through the frame, so without this
//!   every indexed access would degrade to ⊤);
//! * memory *typing* (which locations may hold FP data) is flow-insensitive
//!   and monotone by default: per-function frame slots, per-word and
//!   per-object global sets, and the heap summary.
//!
//! One optional refinement layers on top of this forward pass:
//! **flow-sensitive memory typing** ([`AnalysisConfig::flow_mem`]).
//! Per-program-point *kill sets* record slots/words whose last write was a
//! provably-integer store (a strong update), overriding the monotone typing
//! on the killed location. The refinement also models the patch contract:
//! a sink load *is patched* and its trap demotes the box, so the loaded
//! register holds raw bits — this breaks the taint cascade where one
//! spurious heap sink used to re-taint every frame slot it was spilled to.
//! The model is only sound when every sink is actually patched; the audit
//! harness gates on zero skipped sinks.
//!
//! Like the paper's tweaked VSA, unresolvable facts degrade conservatively:
//! "if VSA returns a conservative result, FPVM follows suit and assumes
//! there exists a NaN-boxed double that may need demotion." The one-cell
//! heap summary is the deliberate imprecision that reproduces the paper's
//! Enzo behavior — correctness traps in critical loops "because the static
//! analysis could not prove they were unneeded."
//!
//! Sinks: integer loads from maybe-FP locations, `movq r64 ← xmm` (always),
//! and the bitwise-FP idioms `xorpd`/`andpd`/`orpd` (always — compilers use
//! them to negate / take `fabs` of FP registers that may hold boxes).
//! Code reachable only through computed control flow (blocks owned by no
//! recovered function, e.g. a `push addr; ret` landing pad) is treated
//! maximally conservatively: every load there is a sink. External call
//! sites are not patched: the runtime's LD_PRELOAD-style shim interposes
//! them directly (§4.1).

use crate::cfg::{Block, Cfg, Site};
use fpvm_machine::{AluOp, ExtFn, Gpr, Inst, Mem, Program, DATA_BASE, HEAP_BASE, XM};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The data-segment object table (allocation sites).
struct ObjMap {
    /// Sorted (base, size).
    objects: Vec<(u64, u64)>,
}

impl ObjMap {
    fn new(p: &Program) -> ObjMap {
        let mut objects = p.objects.clone();
        objects.sort_unstable();
        ObjMap { objects }
    }

    fn resolve(&self, addr: u64) -> Option<u32> {
        let idx = self.objects.partition_point(|&(b, _)| b <= addr);
        if idx == 0 {
            return None;
        }
        let (base, size) = self.objects[idx - 1];
        (addr < base + size).then_some(idx as u32 - 1)
    }

    fn range(&self, k: u32) -> (u64, u64) {
        self.objects[k as usize]
    }
}

/// How the heap is summarized (the audit harness drives the comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapModel {
    /// Paper-faithful single summary cell: one FP store anywhere on the
    /// heap taints every heap load (the deliberate Enzo imprecision).
    #[default]
    OneCell,
    /// Allocation-site partitioning: pointers returned by distinct
    /// `AllocHeap` call sites are distinguished; merged or unknown heap
    /// pointers still degrade to the one-cell summary.
    AllocSite,
}

/// Static analysis configuration. Both knobs default to the paper-faithful
/// first-generation behavior; the E14 (`heap`) and E19 (`flow_mem`)
/// harnesses measure their precision/recall through the dynamic taint
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisConfig {
    /// Heap summarization model.
    pub heap: HeapModel,
    /// Flow-sensitive memory typing: exact integer stores strongly update
    /// (kill) a location's FP typing, and patched sinks are modeled as
    /// demoting (their result is raw bits, not a box).
    pub flow_mem: bool,
}

/// Abstract register / slot value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AVal {
    Const(i64),
    /// Entry-rsp-relative stack address.
    Stack(i64),
    /// Somewhere in the current frame (widened stack pointer — a cursor
    /// that takes different offsets across a back-edge).
    StackAny,
    /// Exact data-segment address.
    Global(u64),
    /// Somewhere inside data object `k`.
    GlobalObj(u32),
    /// Somewhere in the data segment.
    GlobalAny,
    /// Somewhere in the allocation made at call site `addr`
    /// ([`HeapModel::AllocSite`] only).
    HeapSite(u64),
    /// Somewhere in dynamic memory (heap summary).
    Heap,
    Top,
}

impl AVal {
    fn join(self, other: AVal, objs: &ObjMap) -> AVal {
        use AVal::*;
        match (self, other) {
            (a, b) if a == b => a,
            // A stack pointer taking distinct offsets (a strided frame
            // cursor) widens to the frame summary instead of ⊤ — the
            // object-bounded widening for the stack region.
            (Stack(_) | StackAny, Stack(_) | StackAny) => StackAny,
            (Global(a), Global(b)) => match (objs.resolve(a), objs.resolve(b)) {
                (Some(ka), Some(kb)) if ka == kb => GlobalObj(ka),
                _ => GlobalAny,
            },
            (Global(a), GlobalObj(k)) | (GlobalObj(k), Global(a)) => {
                if objs.resolve(a) == Some(k) {
                    GlobalObj(k)
                } else {
                    GlobalAny
                }
            }
            (Global(_) | GlobalObj(_) | GlobalAny, Global(_) | GlobalObj(_) | GlobalAny) => {
                GlobalAny
            }
            // Distinct allocation sites (or a site against the summary)
            // merge into the one-cell summary.
            (HeapSite(_) | Heap, HeapSite(_) | Heap) => Heap,
            _ => Top,
        }
    }

    fn add_const(self, k: i64) -> AVal {
        match self {
            AVal::Const(c) => AVal::Const(c.wrapping_add(k)),
            AVal::Stack(o) => AVal::Stack(o.wrapping_add(k)),
            AVal::Global(a) => AVal::Global(a.wrapping_add(k as u64)),
            x => x,
        }
    }

    /// Result of adding an unknown offset (array indexing).
    fn add_unknown(self, objs: &ObjMap) -> AVal {
        match self {
            AVal::Global(a) => objs.resolve(a).map_or(AVal::GlobalAny, AVal::GlobalObj),
            AVal::GlobalObj(k) => AVal::GlobalObj(k),
            AVal::GlobalAny => AVal::GlobalAny,
            AVal::HeapSite(s) => AVal::HeapSite(s),
            AVal::Heap => AVal::Heap,
            // An unknown index can carry a stack pointer out of the stack
            // region entirely; stay maximally conservative.
            _ => AVal::Top,
        }
    }
}

/// Classify a constant that may be a pointer (MovRI of an address).
fn classify_const_val(c: i64) -> AVal {
    let u = c as u64;
    if (DATA_BASE..HEAP_BASE).contains(&u) {
        AVal::Global(u)
    } else if (HEAP_BASE..(1 << 40)).contains(&u) {
        AVal::Heap
    } else {
        AVal::Const(c)
    }
}

/// Abstract memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ALoc {
    StackOff(i64),
    StackAny,
    GlobalWord(u64),
    GlobalObj(u32),
    GlobalAny,
    /// Inside the allocation made at call site `addr`.
    HeapSite(u64),
    Heap,
    Any,
}

/// Flow-insensitive memory typing, shared across functions; grows
/// monotonically to a fixpoint. (The flow-*sensitive* refinement lives in
/// [`Kills`] and overrides this per program point.)
#[derive(Debug, Default, Clone, PartialEq)]
struct MemTypes {
    /// Exact data words that may hold FP data.
    words_fp: BTreeSet<u64>,
    /// Objects where *some* unknown offset may hold FP data.
    objs_fp: BTreeSet<u32>,
    global_any_fp: bool,
    /// Allocation sites whose allocation may hold FP data.
    heap_site_fp: BTreeSet<u64>,
    heap_fp: bool,
    any_fp: bool,
    /// Some function's frame holds FP data somewhere (consulted by reads
    /// through wild pointers, which may reach any frame).
    some_stack_fp: bool,
    /// FP was stored through an imprecise stack pointer — any frame slot
    /// of any function may have been hit.
    stack_all_fp: bool,
}

impl MemTypes {
    fn mark(&mut self, loc: ALoc, ctx: &mut FnCtx) {
        match loc {
            ALoc::StackOff(o) => {
                ctx.stack_fp.insert(o & !7);
                self.some_stack_fp = true;
            }
            ALoc::StackAny => {
                ctx.stack_any = true;
                self.some_stack_fp = true;
                self.stack_all_fp = true;
            }
            ALoc::GlobalWord(a) => {
                self.words_fp.insert(a & !7);
            }
            ALoc::GlobalObj(k) => {
                self.objs_fp.insert(k);
            }
            ALoc::GlobalAny => self.global_any_fp = true,
            ALoc::HeapSite(s) => {
                self.heap_site_fp.insert(s);
            }
            ALoc::Heap => self.heap_fp = true,
            ALoc::Any => self.any_fp = true,
        }
    }

    fn maybe_fp(&self, loc: ALoc, ctx: &FnCtx, objs: &ObjMap) -> bool {
        if self.any_fp {
            return true;
        }
        let obj_hit = |k: u32| {
            if self.objs_fp.contains(&k) {
                return true;
            }
            let (base, size) = objs.range(k);
            self.words_fp.range(base..base + size).next().is_some()
        };
        match loc {
            ALoc::StackOff(o) => {
                self.stack_all_fp || ctx.stack_any || ctx.stack_fp.contains(&(o & !7))
            }
            ALoc::StackAny => self.stack_all_fp || self.some_stack_fp || ctx.stack_any,
            ALoc::GlobalWord(a) => {
                self.global_any_fp
                    || self.words_fp.contains(&(a & !7))
                    || objs.resolve(a).is_some_and(|k| self.objs_fp.contains(&k))
            }
            ALoc::GlobalObj(k) => self.global_any_fp || obj_hit(k),
            ALoc::GlobalAny => {
                self.global_any_fp || !self.words_fp.is_empty() || !self.objs_fp.is_empty()
            }
            ALoc::HeapSite(s) => self.heap_fp || self.heap_site_fp.contains(&s),
            ALoc::Heap => self.heap_fp || !self.heap_site_fp.is_empty(),
            ALoc::Any => {
                self.heap_fp
                    || !self.heap_site_fp.is_empty()
                    || self.global_any_fp
                    || !self.words_fp.is_empty()
                    || !self.objs_fp.is_empty()
                    || self.some_stack_fp
                    || ctx.stack_any
                    || !ctx.stack_fp.is_empty()
            }
        }
    }
}

/// Per-program-point strong-update facts ([`AnalysisConfig::flow_mem`]):
/// slots/words whose *last* write on every path was a provably-integer
/// store. A killed location's monotone FP typing is overridden at loads.
#[derive(Debug, Clone, PartialEq, Default)]
struct Kills {
    slots: BTreeSet<i64>,
    words: BTreeSet<u64>,
}

impl Kills {
    fn covers(&self, loc: ALoc) -> bool {
        match loc {
            ALoc::StackOff(o) => self.slots.contains(&(o & !7)),
            ALoc::GlobalWord(a) => self.words.contains(&(a & !7)),
            _ => false,
        }
    }

    /// An integer (untainted) store: strong-update exact targets. An
    /// imprecise target adds nothing, but existing kills stand — an
    /// integer store never *adds* FP typing anywhere.
    fn kill(&mut self, loc: ALoc) {
        match loc {
            ALoc::StackOff(o) => {
                self.slots.insert(o & !7);
            }
            ALoc::GlobalWord(a) => {
                self.words.insert(a & !7);
            }
            _ => {}
        }
    }

    /// An FP (tainted) store: every location it may reach loses its kill.
    fn unkill(&mut self, loc: ALoc, objs: &ObjMap) {
        match loc {
            ALoc::StackOff(o) => {
                self.slots.remove(&(o & !7));
            }
            ALoc::StackAny => self.slots.clear(),
            ALoc::GlobalWord(a) => {
                self.words.remove(&(a & !7));
            }
            ALoc::GlobalObj(k) => {
                let (base, size) = objs.range(k);
                self.words.retain(|w| !(base..base + size).contains(w));
            }
            ALoc::GlobalAny => self.words.clear(),
            ALoc::HeapSite(_) | ALoc::Heap => {}
            ALoc::Any => {
                self.slots.clear();
                self.words.clear();
            }
        }
    }

    /// Join = intersection (a location is killed only if killed on every
    /// incoming path). Returns true if `self` changed.
    fn meet(&mut self, other: &Kills) -> bool {
        let before = (self.slots.len(), self.words.len());
        self.slots.retain(|k| other.slots.contains(k));
        self.words.retain(|k| other.words.contains(k));
        before != (self.slots.len(), self.words.len())
    }
}

/// Per-block register + frame-slot state.
#[derive(Debug, Clone, PartialEq)]
struct RegState {
    vals: [AVal; 16],
    taint: [bool; 16],
    /// Known frame-slot contents (entry-rsp-relative offset → value).
    slots: BTreeMap<i64, (AVal, bool)>,
    /// Strong-update facts (populated only under `flow_mem`).
    kills: Kills,
}

impl RegState {
    fn entry() -> Self {
        let mut vals = [AVal::Top; 16];
        vals[Gpr::RSP.0 as usize] = AVal::Stack(0);
        RegState {
            vals,
            taint: [false; 16],
            slots: BTreeMap::new(),
            kills: Kills::default(),
        }
    }

    fn join(&mut self, other: &RegState, objs: &ObjMap) -> bool {
        let mut changed = false;
        for i in 0..16 {
            let j = self.vals[i].join(other.vals[i], objs);
            if j != self.vals[i] {
                self.vals[i] = j;
                changed = true;
            }
            let t = self.taint[i] || other.taint[i];
            if t != self.taint[i] {
                self.taint[i] = t;
                changed = true;
            }
        }
        // Slot maps: keep the intersection of keys, joining values.
        let keys: Vec<i64> = self.slots.keys().copied().collect();
        for k in keys {
            match other.slots.get(&k) {
                None => {
                    self.slots.remove(&k);
                    changed = true;
                }
                Some(&(ov, ot)) => {
                    let (sv, st) = self.slots[&k];
                    let nv = sv.join(ov, objs);
                    let nt = st || ot;
                    if (nv, nt) != (sv, st) {
                        self.slots.insert(k, (nv, nt));
                        changed = true;
                    }
                }
            }
        }
        changed |= self.kills.meet(&other.kills);
        changed
    }
}

/// Why an instruction was classified as a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkReason {
    /// Integer load of a location that may hold FP data (Fig. 6/7).
    IntLoadOfFp,
    /// `movq r64, xmm` — direct FP-to-integer register leak.
    MovqLeak,
    /// Bitwise FP op (`xorpd`/`andpd`/`orpd`) — compiler sign/abs idiom.
    BitwiseFp,
}

/// A sink instruction that must be patched with a correctness trap.
#[derive(Debug, Clone, Copy)]
pub struct Sink {
    /// Instruction address.
    pub addr: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Encoded length.
    pub len: u8,
    /// Classification.
    pub reason: SinkReason,
}

/// Analysis summary statistics (reported by the `reproduce` harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Instructions analyzed.
    pub instructions: usize,
    /// Basic blocks.
    pub blocks: usize,
    /// Functions.
    pub functions: usize,
    /// Integer loads examined (unique sites).
    pub loads_total: usize,
    /// Integer loads proven safe (not patched).
    pub loads_proven_safe: usize,
    /// Outer fixpoint rounds.
    pub rounds: usize,
    /// Sink instructions found by the analysis.
    pub sinks_found: usize,
    /// Sinks actually patched with correctness traps (filled by the
    /// patcher; zero when only [`analyze`] ran).
    pub sinks_patched: usize,
    /// Sinks skipped because the side table ran out of u16 ids.
    pub sinks_skipped_table_full: usize,
    /// Sinks skipped because a branch targets the middle of the
    /// would-be patch span.
    pub sinks_skipped_straddle: usize,
}

/// Full analysis result.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Sink instructions to patch.
    pub sinks: Vec<Sink>,
    /// Statistics.
    pub stats: AnalysisStats,
}

struct FnCtx {
    stack_fp: BTreeSet<i64>,
    stack_any: bool,
}

impl FnCtx {
    fn new() -> FnCtx {
        FnCtx {
            stack_fp: BTreeSet::new(),
            stack_any: false,
        }
    }
}

/// Run the analysis on a program image with the paper-faithful default
/// configuration (one-cell heap summary, first-generation passes only).
pub fn analyze(p: &Program) -> Analysis {
    analyze_with(p, &AnalysisConfig::default())
}

/// Run the analysis on a program image under an explicit configuration.
pub fn analyze_with(p: &Program, acfg: &AnalysisConfig) -> Analysis {
    let cfg = Cfg::build(p);
    let objs = ObjMap::new(p);
    let env = Env { acfg, objs: &objs };
    let mut mem = MemTypes::default();
    let mut fn_ctxs: HashMap<u64, FnCtx> = HashMap::new();
    // Outer fixpoint over the shared memory typing and frame typing.
    let mut rounds = 0;
    loop {
        rounds += 1;
        let before_mem = mem.clone();
        let frames_before: BTreeMap<u64, (usize, bool)> = fn_ctxs
            .iter()
            .map(|(k, c)| (*k, (c.stack_fp.len(), c.stack_any)))
            .collect();
        for &f in &cfg.functions {
            let ctx = fn_ctxs.entry(f).or_insert_with(FnCtx::new);
            analyze_function(&cfg, f, &env, &mut mem, ctx, None);
        }
        let frames_after: BTreeMap<u64, (usize, bool)> = fn_ctxs
            .iter()
            .map(|(k, c)| (*k, (c.stack_fp.len(), c.stack_any)))
            .collect();
        if (mem == before_mem && frames_before == frames_after) || rounds > 16 {
            break;
        }
    }
    // Final pass: classify sinks with the converged typing.
    let mut col = SinkCollector::default();
    for &f in &cfg.functions {
        let ctx = fn_ctxs.entry(f).or_insert_with(FnCtx::new);
        analyze_function(&cfg, f, &env, &mut mem, ctx, Some(&mut col));
    }
    // Blocks owned by no recovered function are reachable only through
    // computed control flow the CFG cannot see (e.g. `push addr; ret`);
    // degrade soundly: every load there is a sink.
    for (start, block) in &cfg.blocks {
        if cfg.block_fn.contains_key(start) {
            continue;
        }
        for site in &block.insts {
            match site.inst {
                Inst::Load { .. } => col.note_load(site, true),
                Inst::MovQXG { .. } => col.note_sink(site, SinkReason::MovqLeak),
                Inst::XorPd { .. } | Inst::AndPd { .. } | Inst::OrPd { .. } => {
                    col.note_sink(site, SinkReason::BitwiseFp)
                }
                _ => {}
            }
        }
    }
    let sinks: Vec<Sink> = col.sinks.into_values().collect();
    let loads_total = col.load_sink.len();
    let loads_safe = col.load_sink.values().filter(|&&t| !t).count();
    let sinks_found = sinks.len();
    Analysis {
        sinks,
        stats: AnalysisStats {
            instructions: cfg.inst_count,
            blocks: cfg.blocks.len(),
            functions: cfg.functions.len(),
            loads_total,
            loads_proven_safe: loads_safe,
            rounds,
            sinks_found,
            sinks_patched: 0,
            sinks_skipped_table_full: 0,
            sinks_skipped_straddle: 0,
        },
    }
}

struct Env<'a> {
    acfg: &'a AnalysisConfig,
    objs: &'a ObjMap,
}

/// Final-pass accumulator: per-site sink/safety verdicts.
#[derive(Default)]
struct SinkCollector {
    sinks: BTreeMap<u64, Sink>,
    /// Load site → classified as a sink.
    load_sink: BTreeMap<u64, bool>,
}

impl SinkCollector {
    fn note_sink(&mut self, site: &Site, reason: SinkReason) {
        self.sinks.entry(site.addr).or_insert(Sink {
            addr: site.addr,
            inst: site.inst,
            len: site.len,
            reason,
        });
    }

    fn note_load(&mut self, site: &Site, taint: bool) {
        let e = self.load_sink.entry(site.addr).or_insert(false);
        *e |= taint;
        if taint {
            self.note_sink(site, SinkReason::IntLoadOfFp);
        }
    }
}

fn analyze_function(
    cfg: &Cfg,
    entry: u64,
    env: &Env,
    mem: &mut MemTypes,
    ctx: &mut FnCtx,
    mut collect: Option<&mut SinkCollector>,
) {
    let blocks: Vec<&Block> = cfg.function_blocks(entry);
    if blocks.is_empty() {
        return;
    }
    let mut states: HashMap<u64, RegState> = HashMap::new();
    states.insert(entry, RegState::entry());
    let mut worklist: Vec<u64> = vec![entry];
    let mut visits: HashMap<u64, usize> = HashMap::new();
    while let Some(b) = worklist.pop() {
        let v = visits.entry(b).or_insert(0);
        *v += 1;
        if *v > 100 {
            continue;
        }
        let Some(block) = cfg.blocks.get(&b) else {
            continue;
        };
        if cfg.block_fn.get(&b) != Some(&entry) {
            continue;
        }
        let Some(mut s) = states.get(&b).cloned() else {
            continue;
        };
        for site in &block.insts {
            transfer(site, &mut s, env, mem, ctx, collect.as_deref_mut());
        }
        for &succ in &block.succs {
            if cfg.block_fn.get(&succ) != Some(&entry) {
                continue;
            }
            match states.get_mut(&succ) {
                Some(st) => {
                    if st.join(&s, env.objs) {
                        worklist.push(succ);
                    }
                }
                None => {
                    states.insert(succ, s.clone());
                    worklist.push(succ);
                }
            }
        }
    }
}

fn classify_addr(s: &RegState, m: &Mem, objs: &ObjMap) -> ALoc {
    let base = match m.base {
        None => AVal::Const(0),
        Some(r) => s.vals[r.0 as usize],
    };
    let base = base.add_const(m.disp);
    let full = if let Some(index) = m.index {
        // Treat the index as an unknown offset unless it is a known const.
        match s.vals[index.0 as usize] {
            AVal::Const(c) => base.add_const(c.wrapping_mul(i64::from(m.scale))),
            _ => base.add_unknown(objs),
        }
    } else {
        base
    };
    aval_to_loc(full, objs)
}

fn aval_to_loc(v: AVal, objs: &ObjMap) -> ALoc {
    match v {
        AVal::Stack(o) => ALoc::StackOff(o),
        AVal::StackAny => ALoc::StackAny,
        AVal::Global(a) => ALoc::GlobalWord(a),
        AVal::GlobalObj(k) => ALoc::GlobalObj(k),
        AVal::GlobalAny => ALoc::GlobalAny,
        AVal::HeapSite(s) => ALoc::HeapSite(s),
        AVal::Heap => ALoc::Heap,
        AVal::Const(c) => {
            // A constant address (absolute operands).
            let u = c as u64;
            if (DATA_BASE..HEAP_BASE).contains(&u) {
                ALoc::GlobalWord(u)
            } else if u >= HEAP_BASE {
                ALoc::Heap
            } else {
                ALoc::Any
            }
        }
        AVal::Top => ALoc::Any,
    }
    .widen_if_needed(objs)
}

trait WidenExt {
    fn widen_if_needed(self, objs: &ObjMap) -> ALoc;
}
impl WidenExt for ALoc {
    /// Widen exact locations the lattice cannot justify keeping exact:
    ///
    /// * a data-segment word outside every recorded object is a stray
    ///   computed pointer (e.g. a strided cursor that left its array) —
    ///   widen to the whole data segment;
    /// * a stack offset at or above the entry RSP points into the caller's
    ///   frame or the return-address area, where no per-function slot
    ///   discipline exists — widen to ⊤ memory.
    fn widen_if_needed(self, objs: &ObjMap) -> ALoc {
        match self {
            ALoc::GlobalWord(a) if objs.resolve(a).is_none() => ALoc::GlobalAny,
            ALoc::StackOff(o) if o >= 0 => ALoc::Any,
            x => x,
        }
    }
}

const CALLER_SAVED: [usize; 9] = [0, 1, 2, 6, 7, 8, 9, 10, 11]; // rax rcx rdx rsi rdi r8-r11

fn transfer(
    site: &Site,
    s: &mut RegState,
    env: &Env,
    mem: &mut MemTypes,
    ctx: &mut FnCtx,
    collect: Option<&mut SinkCollector>,
) {
    use Inst::*;
    let inst = &site.inst;
    let acfg = env.acfg;
    let objs = env.objs;
    let fm = acfg.flow_mem;
    // Helper: record a store's effect on frame-slot tracking.
    let store_slot = |s: &mut RegState, loc: ALoc, val: AVal, taint: bool| match loc {
        ALoc::StackOff(o) => {
            s.slots.insert(o & !7, (val, taint));
        }
        ALoc::StackAny | ALoc::Any => {
            // Unknown store may have clobbered any slot.
            s.slots.clear();
        }
        _ => {}
    };
    // Helper: an FP source wrote `loc`.
    let fp_store = |s: &mut RegState, mem: &mut MemTypes, ctx: &mut FnCtx, loc: ALoc| {
        mem.mark(loc, ctx);
        if fm {
            s.kills.unkill(loc, objs);
        }
    };
    match inst {
        // ---- FP stores: sources -------------------------------------------
        MovSd {
            dst: XM::Mem(m), ..
        } => {
            let loc = classify_addr(s, m, objs);
            fp_store(s, mem, ctx, loc);
            store_slot(s, loc, AVal::Top, true);
        }
        MovApd {
            dst: XM::Mem(m), ..
        } => {
            let loc = classify_addr(s, m, objs);
            fp_store(s, mem, ctx, loc);
            let loc2 = match loc {
                ALoc::StackOff(o) => ALoc::StackOff(o + 8),
                ALoc::GlobalWord(a) => ALoc::GlobalWord(a + 8),
                x => x,
            };
            fp_store(s, mem, ctx, loc2);
            store_slot(s, loc, AVal::Top, true);
            store_slot(s, loc2, AVal::Top, true);
        }
        // ---- integer world -------------------------------------------------
        MovRI { dst, imm } => {
            s.vals[dst.0 as usize] = classify_const_val(*imm);
            s.taint[dst.0 as usize] = false;
        }
        MovRR { dst, src } => {
            s.vals[dst.0 as usize] = s.vals[src.0 as usize];
            s.taint[dst.0 as usize] = s.taint[src.0 as usize];
        }
        Lea { dst, addr } => {
            let loc = classify_addr(s, addr, objs);
            s.vals[dst.0 as usize] = match loc {
                ALoc::StackOff(o) => AVal::Stack(o),
                ALoc::StackAny => AVal::StackAny,
                ALoc::GlobalWord(a) => AVal::Global(a),
                ALoc::GlobalObj(k) => AVal::GlobalObj(k),
                ALoc::GlobalAny => AVal::GlobalAny,
                ALoc::Heap => AVal::Heap,
                _ => AVal::Top,
            };
            s.taint[dst.0 as usize] = false;
        }
        Load { dst, addr, w } => {
            let loc = classify_addr(s, addr, objs);
            let (val, mut taint) = match loc {
                ALoc::StackOff(o) => match s.slots.get(&(o & !7)) {
                    Some(&(v, t)) => (v, t),
                    None => (AVal::Top, mem.maybe_fp(loc, ctx, objs)),
                },
                _ => (AVal::Top, mem.maybe_fp(loc, ctx, objs)),
            };
            // A strong update killed the location's FP typing on every
            // path here: the monotone summary is stale for this point.
            if fm && s.kills.covers(loc) {
                taint = false;
            }
            if let Some(c) = collect {
                c.note_load(site, taint);
            }
            let _ = w;
            s.vals[dst.0 as usize] = val;
            // Under flow_mem the patch contract is part of the model: a
            // sink load is patched and its trap demotes, so the register
            // receives raw bits either way.
            s.taint[dst.0 as usize] = taint && !fm;
        }
        Store { addr, src, .. } => {
            let loc = classify_addr(s, addr, objs);
            let taint = s.taint[src.0 as usize];
            if taint {
                fp_store(s, mem, ctx, loc);
            } else if fm {
                s.kills.kill(loc);
            }
            // A stack pointer escaping to non-stack memory breaks frame
            // locality; flag the whole frame.
            if matches!(s.vals[src.0 as usize], AVal::Stack(_) | AVal::StackAny)
                && !matches!(loc, ALoc::StackOff(_) | ALoc::StackAny)
            {
                ctx.stack_any = true;
            }
            store_slot(s, loc, s.vals[src.0 as usize], taint);
        }
        MovQXG { dst, .. } => {
            if let Some(c) = collect {
                c.note_sink(site, SinkReason::MovqLeak);
            }
            s.vals[dst.0 as usize] = AVal::Top;
            // Always patched; under flow_mem the demotion is modeled.
            s.taint[dst.0 as usize] = !fm;
        }
        MovQGX { .. } => {}
        XorPd { .. } | AndPd { .. } | OrPd { .. } => {
            if let Some(c) = collect {
                c.note_sink(site, SinkReason::BitwiseFp);
            }
        }
        CvtTSd2Si { dst, .. } => {
            s.vals[dst.0 as usize] = AVal::Top;
            s.taint[dst.0 as usize] = false;
        }
        AluRI { op, dst, imm } => {
            let d = dst.0 as usize;
            s.vals[d] = match op {
                AluOp::Add => s.vals[d].add_const(*imm),
                AluOp::Sub => s.vals[d].add_const(imm.wrapping_neg()),
                _ => match s.vals[d] {
                    AVal::Const(c) => eval_alu(*op, c, *imm).map_or(AVal::Top, AVal::Const),
                    _ => AVal::Top,
                },
            };
        }
        AluRR { op, dst, src } => {
            let d = dst.0 as usize;
            let sv = s.vals[src.0 as usize];
            s.vals[d] = match (op, s.vals[d], sv) {
                (AluOp::Add, a, AVal::Const(c)) => a.add_const(c),
                (AluOp::Add, AVal::Const(c), b) => b.add_const(c),
                (AluOp::Add, a, _) => a.add_unknown(objs),
                (AluOp::Sub, a, AVal::Const(c)) => a.add_const(c.wrapping_neg()),
                (_, AVal::Const(a), AVal::Const(b)) => {
                    eval_alu(*op, a, b).map_or(AVal::Top, AVal::Const)
                }
                _ => AVal::Top,
            };
            s.taint[d] = s.taint[d] || s.taint[src.0 as usize];
        }
        DivR { dst, .. } | RemR { dst, .. } => {
            s.vals[dst.0 as usize] = AVal::Top;
        }
        Push { src } => {
            let rsp = Gpr::RSP.0 as usize;
            s.vals[rsp] = s.vals[rsp].add_const(-8);
            if let AVal::Stack(o) = s.vals[rsp] {
                let t = s.taint[src.0 as usize];
                if t {
                    fp_store(s, mem, ctx, ALoc::StackOff(o));
                } else if fm {
                    s.kills.kill(ALoc::StackOff(o));
                }
                s.slots.insert(o & !7, (s.vals[src.0 as usize], t));
            }
        }
        Pop { dst } => {
            let rsp = Gpr::RSP.0 as usize;
            let (val, mut taint) = match s.vals[rsp] {
                AVal::Stack(o) => {
                    let (v, mut t) = match s.slots.get(&(o & !7)) {
                        Some(&(v, t)) => (v, t),
                        None => (AVal::Top, mem.maybe_fp(ALoc::StackOff(o), ctx, objs)),
                    };
                    if fm && s.kills.covers(ALoc::StackOff(o)) {
                        t = false;
                    }
                    (v, t)
                }
                _ => (AVal::Top, true),
            };
            if mem.any_fp {
                taint = true;
            }
            s.vals[dst.0 as usize] = val;
            s.taint[dst.0 as usize] = taint;
            s.vals[rsp] = s.vals[rsp].add_const(8);
        }
        Call { .. } => {
            for &r in &CALLER_SAVED {
                s.vals[r] = AVal::Top;
                // Integer return values are not FP bits under the ABI
                // discipline (FP returns travel in xmm0) — documented
                // assumption in DESIGN.md.
                s.taint[r] = false;
            }
            if fm {
                // The callee may FP-store through any pointer it holds.
                s.kills = Kills::default();
            }
        }
        CallExt { f } => {
            let rax = Gpr::RAX.0 as usize;
            s.vals[rax] = if *f == ExtFn::AllocHeap {
                match acfg.heap {
                    // Under allocation-site partitioning the call site
                    // itself names the abstract object.
                    HeapModel::AllocSite => AVal::HeapSite(site.addr),
                    HeapModel::OneCell => AVal::Heap,
                }
            } else {
                AVal::Top
            };
            s.taint[rax] = false;
            // Runtime shims read only scalar arguments and never write
            // guest-visible memory words, so kill sets survive the call.
        }
        _ => {}
    }
}

fn eval_alu(op: AluOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32 & 63),
        AluOp::Shr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        AluOp::Sar => a.wrapping_shr(b as u32 & 63),
        AluOp::IMul => a.wrapping_mul(b),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_machine::{Asm, Cond, Gpr, Mem, Width, Xmm};

    #[test]
    fn fig6_pattern_is_a_sink() {
        // The paper's Fig. 6: store a double to the stack, reload as int.
        let mut a = Asm::new();
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 16);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0)); // source
        a.load_w(Gpr::RAX, Mem::base_disp(Gpr::RSP, 8), Width::W32); // sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.sinks.len(), 1);
        assert_eq!(an.sinks[0].reason, SinkReason::IntLoadOfFp);
        assert!(matches!(an.sinks[0].inst, Inst::Load { .. }));
    }

    #[test]
    fn integer_only_loads_proven_safe() {
        let mut a = Asm::new();
        let g = a.global("counter", 8);
        a.mov_ri(Gpr::RAX, 5);
        a.store(Mem::abs(g as i64), Gpr::RAX);
        a.load(Gpr::RBX, Mem::abs(g as i64));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(an.sinks.is_empty(), "{:?}", an.sinks);
        assert_eq!(an.stats.loads_total, 1);
        assert_eq!(an.stats.loads_proven_safe, 1);
    }

    #[test]
    fn movq_and_bitwise_always_sinks() {
        let mut a = Asm::new();
        let mask = a.u128c([1 << 63, 0]);
        a.movq_xg(Gpr::RAX, Xmm(0));
        a.xorpd(Xmm(0), Mem::abs(mask as i64));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.sinks.len(), 2);
        assert_eq!(an.sinks[0].reason, SinkReason::MovqLeak);
        assert_eq!(an.sinks[1].reason, SinkReason::BitwiseFp);
    }

    #[test]
    fn fig7_heap_indirection_is_conservative() {
        // Fig. 7: FP stored through a heap pointer, integer loaded back.
        let mut a = Asm::new();
        let c = a.f64m(2.5);
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RAX, 8), Xmm(0)); // ptr->d = fp
        a.mov_ri(Gpr::RDX, 0);
        a.store(Mem::base_disp(Gpr::RAX, 0), Gpr::RDX); // ptr->i = 0
        a.load_w(Gpr::RCX, Mem::base_disp(Gpr::RAX, 8), Width::W32); // sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "heap load after heap FP store must be a sink: {:?}",
            an.sinks
        );
        // The heap summary is one cell: no heap load can be proven safe
        // once any FP value landed on the heap (conservative imprecision —
        // exactly the Enzo situation of §5.3).
        assert_eq!(an.stats.loads_total, 1);
        assert_eq!(an.stats.loads_proven_safe, 0);
    }

    #[test]
    fn alloc_site_partitioning_separates_heap_allocations() {
        // Two allocations from distinct call sites: FP lands in the first,
        // integers in the second. One-cell merges them (both loads sink);
        // allocation-site partitioning proves the integer-only load safe.
        let mut a = Asm::new();
        let c = a.f64m(2.5);
        a.mov_ri(Gpr::RDI, 32);
        a.call_ext(ExtFn::AllocHeap); // site A
        a.mov_rr(Gpr::RBX, Gpr::RAX);
        a.mov_ri(Gpr::RDI, 32);
        a.call_ext(ExtFn::AllocHeap); // site B
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0)); // FP -> A
        a.mov_ri(Gpr::RDX, 7);
        a.store(Mem::base_disp(Gpr::RAX, 0), Gpr::RDX); // int -> B
        a.load(Gpr::RCX, Mem::base_disp(Gpr::RAX, 0)); // from B: safe
        a.load(Gpr::RSI, Mem::base_disp(Gpr::RBX, 0)); // from A: sink
        a.halt();
        let p = a.finish();

        let one = analyze(&p);
        assert_eq!(one.stats.loads_total, 2);
        assert_eq!(
            one.stats.loads_proven_safe, 0,
            "one-cell heap must merge both allocations"
        );

        let cfg = AnalysisConfig {
            heap: HeapModel::AllocSite,
            ..Default::default()
        };
        let an = analyze_with(&p, &cfg);
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(
            an.stats.loads_proven_safe, 1,
            "alloc-site heap must prove the integer allocation safe: {:?}",
            an.sinks
        );
        assert_eq!(
            an.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            1
        );
        // The FP-bearing allocation is still a sink under both models
        // (soundness is preserved; only precision improves).
        assert!(an.sinks.iter().all(|s| one
            .sinks
            .iter()
            .any(|o| o.addr == s.addr && o.reason == s.reason)));
    }

    #[test]
    fn taint_through_gpr_store() {
        // movq leak -> integer store -> integer load elsewhere: the final
        // load must be a sink even though no FP store wrote that word.
        let mut a = Asm::new();
        let g = a.global("slot", 8);
        a.movq_xg(Gpr::RAX, Xmm(3));
        a.store(Mem::abs(g as i64), Gpr::RAX);
        a.load(Gpr::RBX, Mem::abs(g as i64));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        let load_sinks: Vec<_> = an
            .sinks
            .iter()
            .filter(|s| s.reason == SinkReason::IntLoadOfFp)
            .collect();
        assert_eq!(load_sinks.len(), 1);
    }

    #[test]
    fn distinct_globals_are_distinguished() {
        // FP in global A, integer in global B: loading B is safe, loading
        // A is a sink.
        let mut a = Asm::new();
        let ga = a.global_f64("a", 0.0);
        let gb = a.global("b", 8);
        let c = a.f64m(1.5);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(ga as i64), Xmm(0));
        a.mov_ri(Gpr::RAX, 1);
        a.store(Mem::abs(gb as i64), Gpr::RAX);
        a.load(Gpr::RBX, Mem::abs(gb as i64)); // safe
        a.load(Gpr::RCX, Mem::abs(ga as i64)); // sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(an.stats.loads_proven_safe, 1);
        assert_eq!(an.sinks.len(), 1);
    }

    #[test]
    fn object_granularity_separates_arrays() {
        // FP array and integer index array as distinct global objects,
        // accessed through computed indices: integer loads from the index
        // array stay safe even though the FP array is written.
        let mut a = Asm::new();
        let fp_arr = a.f64_array("vals", &[0.0; 16]);
        let idx_arr = a.i64_array("cols", &[0; 16]);
        let c = a.f64m(3.25);
        // vals[rcx*8] = 3.25 (computed index).
        a.mov_ri(Gpr::RCX, 5);
        a.mov_ri(Gpr::RBX, fp_arr as i64);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::bis(Gpr::RBX, Gpr::RCX, 8, 0), Xmm(0));
        // rax = cols[rcx*8] — integer array, must be safe.
        a.mov_ri(Gpr::RDX, idx_arr as i64);
        a.load(Gpr::RAX, Mem::bis(Gpr::RDX, Gpr::RCX, 8, 0));
        // rbx2 = vals[rcx*8] as integer — must be a sink.
        a.load(Gpr::RSI, Mem::bis(Gpr::RBX, Gpr::RCX, 8, 0));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(an.stats.loads_proven_safe, 1, "{:?}", an.sinks);
        assert_eq!(an.sinks.len(), 1);
    }

    #[test]
    fn pointer_roundtrip_through_frame_slot() {
        // A global pointer spilled to the frame and reloaded must keep its
        // object identity (the -O0 codegen pattern).
        let mut a = Asm::new();
        let fp_arr = a.f64_array("vals", &[0.0; 8]);
        let int_arr = a.i64_array("idx", &[0; 8]);
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        // Spill &vals and &idx to the frame.
        a.mov_ri(Gpr::RAX, fp_arr as i64);
        a.store(Mem::base_disp(Gpr::RSP, 0), Gpr::RAX);
        a.mov_ri(Gpr::RAX, int_arr as i64);
        a.store(Mem::base_disp(Gpr::RSP, 8), Gpr::RAX);
        // Store FP through the reloaded vals pointer.
        a.load(Gpr::RCX, Mem::base_disp(Gpr::RSP, 0));
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RCX, 16), Xmm(0));
        // Integer-load through the reloaded idx pointer: SAFE.
        a.load(Gpr::RCX, Mem::base_disp(Gpr::RSP, 8));
        a.load(Gpr::RAX, Mem::base_disp(Gpr::RCX, 16));
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        // 3 integer loads total: the two pointer reloads + idx[2].
        assert_eq!(an.stats.loads_total, 3);
        assert_eq!(
            an.stats.loads_proven_safe, 3,
            "pointer identity must survive the frame round-trip: {:?}",
            an.sinks
        );
    }

    #[test]
    fn loop_fixpoint_converges() {
        // FP store happens on a back edge after the load in program order:
        // the fixpoint must still flag the load.
        let mut a = Asm::new();
        let g = a.global("x", 8);
        let c = a.f64m(1.5);
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let done = a.label();
        a.cmp_ri(Gpr::RCX, 4);
        a.jcc(fpvm_machine::Cond::Ge, done);
        a.load(Gpr::RAX, Mem::abs(g as i64)); // reads FP on iterations > 0
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(g as i64), Xmm(0)); // source, later in the loop
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.jmp(top);
        a.bind(done);
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "loop-carried FP flow must be found"
        );
    }

    #[test]
    fn calls_are_analyzed_interprocedurally() {
        // Callee stores FP to a global; caller integer-loads it.
        let mut a = Asm::new();
        let g = a.global_f64("shared", 0.0);
        let c = a.f64m(3.5);
        let f = a.label();
        a.call(f);
        a.load(Gpr::RAX, Mem::abs(g as i64)); // sink
        a.halt();
        a.bind(f);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::abs(g as i64), Xmm(0));
        a.ret();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(
            an.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            1
        );
        assert!(an.stats.functions >= 2);
    }

    // ---- second-generation passes -------------------------------------

    #[test]
    fn strided_stack_loop_widens_without_poisoning_globals() {
        // A cursor walking the frame across a back-edge joins to the
        // frame summary (StackAny) instead of ⊤, so the FP stores through
        // it poison only stack typing — an unrelated global integer load
        // stays provably safe (pre-widening it degraded to any_fp and
        // everything sank).
        let mut a = Asm::new();
        let g = a.global("counter", 8);
        let c = a.f64m(1.0);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 64);
        a.mov_rr(Gpr::RBX, Gpr::RSP); // cursor
        a.mov_ri(Gpr::RCX, 0);
        let top = a.here_label();
        let done = a.label();
        a.cmp_ri(Gpr::RCX, 4);
        a.jcc(Cond::Ge, done);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0)); // *cursor = fp
        a.alu_ri(AluOp::Add, Gpr::RBX, 8); // cursor += 8 (strided)
        a.alu_ri(AluOp::Add, Gpr::RCX, 1);
        a.jmp(top);
        a.bind(done);
        a.mov_ri(Gpr::RAX, 7);
        a.store(Mem::abs(g as i64), Gpr::RAX);
        a.load(Gpr::RDX, Mem::abs(g as i64)); // must stay safe
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert_eq!(an.stats.loads_total, 1);
        assert_eq!(
            an.stats.loads_proven_safe, 1,
            "a widened stack cursor must not poison global typing: {:?}",
            an.sinks
        );
        // And the conservative side: a frame load in the same function IS
        // suspect once the widened cursor wrote FP somewhere in the frame.
        let mut b = Asm::new();
        let c2 = b.f64m(1.0);
        b.alu_ri(AluOp::Sub, Gpr::RSP, 64);
        b.mov_rr(Gpr::RBX, Gpr::RSP);
        b.mov_ri(Gpr::RCX, 0);
        let top2 = b.here_label();
        let done2 = b.label();
        b.cmp_ri(Gpr::RCX, 4);
        b.jcc(Cond::Ge, done2);
        b.movsd(Xmm(0), c2);
        b.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0));
        b.alu_ri(AluOp::Add, Gpr::RBX, 8);
        b.alu_ri(AluOp::Add, Gpr::RCX, 1);
        b.jmp(top2);
        b.bind(done2);
        b.load(Gpr::RDX, Mem::base_disp(Gpr::RSP, 48)); // frame slot: sink
        b.halt();
        let p2 = b.finish();
        let an2 = analyze(&p2);
        assert!(
            an2.sinks
                .iter()
                .any(|s| s.reason == SinkReason::IntLoadOfFp),
            "frame loads must stay conservative under the widened cursor"
        );
    }

    #[test]
    fn stray_global_pointer_widens_to_segment() {
        // A computed data-segment address outside every recorded object
        // widens to GlobalAny: an FP store through it must make global
        // loads conservative rather than silently staying "exact word".
        let mut a = Asm::new();
        let g = a.global("n", 8);
        let c = a.f64m(1.0);
        // A stray pointer: mid-segment, far past the last object.
        a.mov_ri(Gpr::RBX, (DATA_BASE + 0x8_0000) as i64);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RBX, 0), Xmm(0));
        a.load(Gpr::RAX, Mem::abs(g as i64)); // conservative: sink
        a.halt();
        let p = a.finish();
        let an = analyze(&p);
        assert!(
            an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
            "stray-pointer FP store must degrade to the whole segment"
        );
    }

    #[test]
    fn flow_mem_strong_update_survives_unknown_int_store() {
        // FP spill types a slot; an integer store strongly updates it;
        // then an unknown (untainted) store wipes the slot *value* map.
        // The monotone typing calls the reload a sink; the kill set knows
        // the last write was an integer.
        let mut a = Asm::new();
        let g = a.global("cell", 8);
        let c = a.f64m(1.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RSP, 8), Xmm(0)); // slot ← FP
        a.mov_ri(Gpr::RAX, 7);
        a.store(Mem::base_disp(Gpr::RSP, 8), Gpr::RAX); // strong update
        a.load(Gpr::RDX, Mem::abs(g as i64)); // RDX = ⊤ (safe load)
        a.mov_ri(Gpr::RCX, 1);
        a.store(Mem::base_disp(Gpr::RDX, 0), Gpr::RCX); // unknown int store
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RSP, 8)); // the reload
        a.halt();
        let p = a.finish();
        let base = analyze(&p);
        assert_eq!(
            base.stats.loads_proven_safe, 1,
            "monotone typing must flag the reload: {:?}",
            base.sinks
        );
        let an = analyze_with(
            &p,
            &AnalysisConfig {
                flow_mem: true,
                ..Default::default()
            },
        );
        assert_eq!(
            an.stats.loads_proven_safe, 2,
            "the strong update must survive the unknown integer store: {:?}",
            an.sinks
        );
        assert!(!an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp));
    }

    #[test]
    fn flow_mem_models_demotion_and_stops_taint_cascade() {
        // Heap sink load → result relayed through a global → reload. The
        // first-generation analysis cascades the taint (both loads sink);
        // flow_mem knows the first sink is patched and demotes, so the
        // relay holds raw bits and the reload is safe.
        let mut a = Asm::new();
        let g = a.global("relay", 8);
        let c = a.f64m(2.5);
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RAX, 0), Xmm(0)); // FP → heap
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RAX, 0)); // sink (stays)
        a.store(Mem::abs(g as i64), Gpr::RBX); // the cascade relay
        a.load(Gpr::RCX, Mem::abs(g as i64)); // cascade victim
        a.halt();
        let p = a.finish();
        let base = analyze(&p);
        assert_eq!(
            base.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            2,
            "first-generation: the taint cascades"
        );
        let an = analyze_with(
            &p,
            &AnalysisConfig {
                flow_mem: true,
                ..Default::default()
            },
        );
        assert_eq!(
            an.sinks
                .iter()
                .filter(|s| s.reason == SinkReason::IntLoadOfFp)
                .count(),
            1,
            "flow_mem: the patched sink demotes, the relay is raw: {:?}",
            an.sinks
        );
        assert_eq!(an.stats.loads_total, 2);
        assert_eq!(an.stats.loads_proven_safe, 1);
    }

    #[test]
    fn flow_mem_composes_and_only_refines() {
        // Both heap models with flow_mem on a program mixing all the
        // patterns: sink sets must be subsets of the baseline (refinement
        // only) and the genuinely-boxed load must sink in every config.
        let mut a = Asm::new();
        let g = a.global("relay", 8);
        let c = a.f64m(2.5);
        a.alu_ri(AluOp::Sub, Gpr::RSP, 32);
        a.mov_ri(Gpr::RDI, 16);
        a.call_ext(ExtFn::AllocHeap);
        a.movsd(Xmm(0), c);
        a.movsd(Mem::base_disp(Gpr::RAX, 0), Xmm(0));
        a.load(Gpr::RBX, Mem::base_disp(Gpr::RAX, 0)); // true sink
        a.store(Mem::abs(g as i64), Gpr::RBX);
        a.load(Gpr::RCX, Mem::abs(g as i64)); // cascade victim
        a.alu_ri(AluOp::Add, Gpr::RCX, 1); // observed
        a.halt();
        let p = a.finish();
        let base = analyze(&p);
        let base_addrs: Vec<u64> = base.sinks.iter().map(|s| s.addr).collect();
        for heap in [HeapModel::OneCell, HeapModel::AllocSite] {
            let an = analyze_with(
                &p,
                &AnalysisConfig {
                    heap,
                    flow_mem: true,
                },
            );
            assert!(
                an.sinks.iter().all(|s| base_addrs.contains(&s.addr)),
                "flow_mem under {heap:?} added a sink beyond baseline"
            );
            assert!(
                an.sinks.iter().any(|s| s.reason == SinkReason::IntLoadOfFp),
                "the genuinely-boxed heap load must survive every config"
            );
        }
    }
}
