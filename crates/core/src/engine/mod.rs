//! The staged trap-pipeline engine: the hybrid FPVM runtime (§3, §4).
//!
//! The engine drives the simulated machine exactly the way the paper's
//! prototype drives a Linux process:
//!
//! 1. It unmasks every `%mxcsr` exception, so any rounding, overflow,
//!    underflow, denormal or NaN event faults into the runtime
//!    ([`Fpvm::run`] ↔ the SIGFPE handler).
//! 2. On a trap it decodes the faulting instruction (through the
//!    per-RIP [`TrapCache`]), **binds** its operands, **emulates** it on the
//!    alternative arithmetic system, NaN-boxes the result, clears the
//!    sticky condition flags, and resumes after the instruction. One
//!    trap's lifecycle is a [`TrapFrame`]; the stages live in
//!    [`frame`]/[`emulate`] as `Binder` → `Emulator` → `Committer`.
//! 3. `Trap` instructions installed by the static analyzer demote any
//!    boxed operands in place and re-execute the original instruction in
//!    single-step mode (§4.2 "correctness traps", [`correctness`]).
//! 4. External calls are interposed like an `LD_PRELOAD` shim
//!    ([`external`]): libm routes into the arithmetic system (the math
//!    wrapper) and `printf` demotes for rendering (the output wrapper).
//! 5. Optionally, the trap-and-patch engine ([`patch`], §3.2) rewrites hot
//!    faulting sites into direct patch calls with inline checks.
//!
//! Software traps, external calls and NaN-hole faults dispatch through a
//! [`HandlerTable`] of registered handlers, and every cycle/stat is
//! charged through one [`Accounting`] sink.

pub mod accounting;
pub mod cache;
pub mod config;
mod correctness;
mod emulate;
pub mod exit;
mod external;
pub mod frame;
pub mod handlers;
mod patch;

pub use accounting::{Accounting, Counter};
pub use cache::TrapCache;
pub use config::FpvmConfig;
pub use correctness::SideTableEntry;
pub use emulate::{Binder, Committer, LaneOutcome};
pub use exit::{ExitReason, RuntimeError, Stage};
pub use frame::TrapFrame;
pub use handlers::{ExtCallHandler, HandlerTable, NanHoleHandler, SwTrapHandler};

use crate::gc;
use crate::stats::{Component, Stats};
use crate::trace::{TraceEvent, TraceSink};
use fpvm_machine::{Event, Fault, Inst, Machine, TrapKind};
use fpvm_nanbox::ShadowKey;
use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use fpvm_arith::{ArithSystem, ShadowArena};

/// Result of a virtualized run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Exit reason.
    pub exit: ExitReason,
    /// Runtime statistics.
    pub stats: Stats,
    /// Guest instructions retired.
    pub icount: u64,
    /// Guest FP instructions retired natively (did not trap).
    pub fp_icount: u64,
    /// Total accounted cycles (guest base + virtualization).
    pub cycles: u64,
    /// Wall-clock host time of the whole run.
    pub wall_ns: u64,
}

impl fmt::Display for RunReport {
    /// One-paragraph human summary: exit, instruction counts, trap cost,
    /// decode hit rate, GC passes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        write!(
            f,
            "{}: {} guest instructions retired ({} native FP) in {} cycles; \
             {} FP traps at {:.0} cycles/trap on average, decode hit rate {:.1}%, \
             {} correctness traps, {} GC passes; wall time {:.3} ms",
            self.exit,
            commas(self.icount),
            commas(self.fp_icount),
            commas(self.cycles),
            commas(s.fp_traps),
            s.avg_trap_cost(),
            s.decode_hit_rate() * 100.0,
            commas(s.correctness_traps),
            s.gc_passes,
            self.wall_ns as f64 / 1e6,
        )
    }
}

/// Format a count with thousands separators (display helper).
fn commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// The FPVM runtime, generic over the alternative arithmetic system.
///
/// The runtime owns everything it touches — arena, trap cache,
/// accounting, trace sink — so `Fpvm<A>` is [`Send`] whenever the
/// arithmetic system and its values are (all in-tree backends qualify;
/// `crates/core/tests/send.rs` compile-asserts it). A fleet worker can
/// therefore own a machine + engine + sinks outright on its own thread;
/// post-run telemetry is recovered by [`Fpvm::take_trace_sink`] and
/// `dyn TraceSink::downcast`, never by aliasing a shared handle.
pub struct Fpvm<A: ArithSystem> {
    arith: A,
    /// The shadow-value arena (FPVM provides the arithmetic system with
    /// memory management, §4.3).
    pub arena: ShadowArena<A::Value>,
    /// Runtime configuration.
    pub config: FpvmConfig,
    pub(crate) acct: Accounting,
    /// Decoded instructions and bound plans per RIP (see [`cache`]).
    pub(crate) cache: TrapCache,
    pub(crate) side_table: Vec<SideTableEntry>,
    pub(crate) patches: patch::PatchTable,
    pub(crate) patch_allow: Option<HashSet<u64>>,
    /// Reusable encode buffer for trap-and-patch installs (per-trap
    /// allocation discipline: the engine owns its scratch).
    pub(crate) scratch_code: Vec<u8>,
    /// Bumped by [`Fpvm::recycle`]; mixed into the cache fingerprint so no
    /// cache entry survives an engine recycle even across identical
    /// programs (fleet workers must be indistinguishable from fresh
    /// engines).
    cache_epoch: u64,
    handlers: HandlerTable<A>,
    last_gc_icount: u64,
    pub(crate) rendered: Vec<String>,
}

impl<A: ArithSystem> Fpvm<A> {
    /// Create a runtime over the given arithmetic system.
    pub fn new(arith: A, config: FpvmConfig) -> Self {
        let mut acct = Accounting::new();
        if config.metrics {
            acct.set_metrics(crate::metrics::EngineMetrics::new(
                config.metrics_sample_shift,
            ));
        }
        Fpvm {
            arith,
            arena: ShadowArena::new(),
            config,
            acct,
            cache: TrapCache::new(),
            side_table: Vec::new(),
            patches: patch::PatchTable::default(),
            patch_allow: None,
            scratch_code: Vec::new(),
            cache_epoch: 0,
            handlers: HandlerTable::default(),
            last_gc_icount: 0,
            rendered: Vec::new(),
        }
    }

    /// The arithmetic system.
    pub fn arith(&self) -> &A {
        &self.arith
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        self.acct.stats()
    }

    /// Full-precision rendered output lines (the output wrapper's view).
    pub fn rendered_output(&self) -> &[String] {
        &self.rendered
    }

    /// Install the correctness-trap side table (from the static patcher).
    pub fn set_side_table(&mut self, table: Vec<SideTableEntry>) {
        self.side_table = table;
    }

    /// The event-routing table, for registering custom handlers.
    pub fn handlers_mut(&mut self) -> &mut HandlerTable<A> {
        &mut self.handlers
    }

    /// Install a trace sink (see [`crate::trace`]). Every trap-lifecycle
    /// step emits a [`TraceEvent`] into it from the same choke points
    /// that charge cycles; with the default [`crate::trace::NullSink`]
    /// nothing is constructed or emitted.
    ///
    /// The engine takes **ownership**: read the sink back after the run
    /// with [`Fpvm::take_trace_sink`] and downcast it to its concrete
    /// type (`sink.downcast::<ProfilerSink>()`), or use a
    /// [`crate::trace::FanoutSink`] and `into_sinks()` to recover several.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.acct.set_sink(sink);
    }

    /// Remove the installed trace sink — the teardown half of the owned-
    /// sink protocol — reverting to the disabled default. Downcast the
    /// returned box to inspect the concrete sink.
    pub fn take_trace_sink(&mut self) -> Box<dyn TraceSink> {
        self.acct.take_sink()
    }

    /// Read-only view of the wall-clock metrics plane, if
    /// [`FpvmConfig::metrics`] attached one.
    pub fn engine_metrics(&self) -> Option<&crate::metrics::EngineMetrics> {
        self.acct.metrics()
    }

    /// Export the metrics plane (stage-ns histograms + the run's
    /// deterministic execution counters) as a
    /// [`fpvm_obs::MetricsSnapshot`]. `None` when the plane is off — a
    /// metrics-off run emits *no* samples at all, it does not emit zeros.
    pub fn metrics_snapshot(&self) -> Option<fpvm_obs::MetricsSnapshot> {
        self.acct.metrics().map(|m| m.snapshot(self.acct.stats()))
    }

    /// Restrict the trap-and-patch engine (§3.2) to the given sites: only
    /// RIPs in the set are eligible for dynamic patching. This is how a
    /// profiler's hot-site ranking drives site selection instead of the
    /// default patch-everything-on-first-trap heuristic.
    pub fn restrict_patching(&mut self, rips: impl IntoIterator<Item = u64>) {
        self.patch_allow = Some(rips.into_iter().collect());
    }

    /// Has the trap-and-patch engine patched this address?
    pub fn is_patched(&self, addr: u64) -> bool {
        self.patches.contains_addr(addr)
    }

    /// Preload patch-call sites emitted by the compiler-based approach
    /// (§3.4): the IR pass replaced each FP operation with a
    /// `Trap{PatchCall}` whose handler is registered here at load time.
    pub fn preload_patch_sites(&mut self, sites: Vec<(u16, Inst, u64)>) {
        for (id, original, next_rip) in sites {
            self.patches.set(id, patch::TpSite::new(original, next_rip));
        }
    }

    /// Reset the engine for reuse with its current configuration: same as
    /// [`Fpvm::recycle`].
    pub fn reset(&mut self) {
        self.recycle(self.config);
    }

    /// Recycle the engine for the next job (fleet-worker discipline): all
    /// run state — stats, arena, side table, patch table, caches, rendered
    /// output — is cleared so a recycled engine behaves bit-identically to
    /// a fresh [`Fpvm::new`], while the big allocations (cache slot
    /// array, arena slab, scratch buffers) are retained. The cache epoch
    /// is bumped so no cache entry survives into the next job even when
    /// the program happens to be identical — merged fleet stats must not
    /// depend on which jobs shared a worker.
    pub fn recycle(&mut self, config: FpvmConfig) {
        self.config = config;
        self.acct.reset_stats();
        let _ = self.acct.take_metrics();
        if config.metrics {
            self.acct.set_metrics(crate::metrics::EngineMetrics::new(
                config.metrics_sample_shift,
            ));
        }
        self.arena.reset();
        self.side_table.clear();
        self.patches.clear();
        self.patch_allow = None;
        self.rendered.clear();
        self.last_gc_icount = 0;
        self.cache_epoch += 1;
    }

    /// Run the machine under virtualization until it halts or faults.
    pub fn run(&mut self, m: &mut Machine) -> RunReport {
        let wall = Instant::now();
        m.hook_ext = true;
        m.nan_hole_traps = self.config.nan_load_hw;
        if self.config.taint_oracle {
            m.taint_enable();
            m.taint_install_trapped(self.side_table.iter().map(|e| e.addr));
        }
        m.mxcsr.unmask_all();
        // Superblock dispatch is an accounting-pinned pass-through: the
        // machine may batch straight-line execution between traps, but
        // every deterministic stat and event the engine observes is
        // bit-identical to the stepped loop (E18 / sblock_pin tests).
        m.superblocks = self.config.superblocks;
        // Cache identity = program content fingerprint ⊕ engine epoch: a
        // re-run of the same program on the same engine keeps its entries,
        // anything else — different program, same-length different
        // program, or a recycled engine — starts cold.
        let fingerprint =
            m.code_fingerprint() ^ self.cache_epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.cache.prepare(m.mem.code_bytes().len(), fingerprint);
        let exit = loop {
            if m.icount >= self.config.max_insts {
                break ExitReason::Fault(Fault::Budget);
            }
            let budget = self.config.max_insts - m.icount;
            match m.run(budget) {
                Event::Halted => break ExitReason::Halted,
                Event::Exited(code) => break ExitReason::Exited(code),
                Event::Fault(f) => break ExitReason::Fault(f),
                Event::SingleStepped => unreachable!("runtime never sets TF across run()"),
                Event::FpException { rip, flags } => {
                    if let Err(e) = self.on_fp_trap(m, rip, flags) {
                        break e;
                    }
                }
                Event::SwTrap { kind, id, rip } => {
                    let handler = match kind {
                        TrapKind::Correctness => self.handlers.correctness,
                        TrapKind::PatchCall => self.handlers.patch_call,
                    };
                    if let Err(e) = handler(self, m, id, rip) {
                        break e;
                    }
                }
                Event::ExtCall { f, rip, next_rip } => {
                    let handler = self.handlers.ext_call;
                    if let Err(e) = handler(self, m, f, rip, next_rip) {
                        break e;
                    }
                }
                Event::NanHole { rip } => {
                    let handler = self.handlers.nan_hole;
                    if let Err(e) = handler(self, m, rip) {
                        break e;
                    }
                }
            }
            self.maybe_gc(m);
        };
        if let ExitReason::RuntimeError(e) = exit {
            self.acct.emit(|| TraceEvent::RuntimeError {
                stage: e.stage,
                rip: e.rip,
                site: e.site,
            });
        }
        RunReport {
            exit,
            stats: self.acct.snapshot(),
            icount: m.icount,
            fp_icount: m.fp_icount,
            cycles: m.cycles,
            wall_ns: wall.elapsed().as_nanos() as u64,
        }
    }

    // ---- GC ----------------------------------------------------------------

    fn maybe_gc(&mut self, m: &mut Machine) {
        let due_epoch = m.icount.saturating_sub(self.last_gc_icount) >= self.config.gc_epoch;
        let due_pressure = self.arena.live() >= self.config.gc_pressure;
        if !(due_epoch || due_pressure) || self.arena.live() == 0 {
            return;
        }
        self.last_gc_icount = m.icount;
        let rec = gc::collect(m, &mut self.arena);
        self.acct.record_gc(rec);
        let cyc = m.cost.ns_to_cycles(rec.ns);
        self.acct.charge(m, Component::Gc, cyc);
        self.acct.emit(|| TraceEvent::GcPass {
            icount: m.icount,
            before: rec.before as u64,
            freed: rec.freed as u64,
            alive: rec.alive as u64,
            cycles: cyc,
        });
    }

    /// Force a GC pass now (used by tests and the Fig. 10 harness).
    pub fn force_gc(&mut self, m: &mut Machine) -> crate::stats::GcRecord {
        self.last_gc_icount = m.icount;
        let rec = gc::collect(m, &mut self.arena);
        self.acct.record_gc(rec);
        self.acct.emit(|| TraceEvent::GcPass {
            icount: m.icount,
            before: rec.before as u64,
            freed: rec.freed as u64,
            alive: rec.alive as u64,
            cycles: m.cost.ns_to_cycles(rec.ns),
        });
        rec
    }

    /// Look up a shadow value by key (tests/inspection).
    pub fn shadow(&self, key: ShadowKey) -> Option<&A::Value> {
        self.arena.get(key)
    }
}
