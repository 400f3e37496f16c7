//! Runtime configuration.

use fpvm_machine::DeliveryMode;

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct FpvmConfig {
    /// How traps reach the runtime (cost model only; §6).
    pub delivery: DeliveryMode,
    /// Fill the trap cache with decoded instructions and their static
    /// bound plans (§5.3 footnote 8 ablation: off, every trap pays a full
    /// decode and bind).
    pub decode_cache: bool,
    /// Interpose libm calls onto the arithmetic system (the math wrapper).
    pub interpose_math: bool,
    /// GC epoch in retired guest instructions (the paper uses a 1 s timer;
    /// instruction count is the deterministic analogue).
    pub gc_epoch: u64,
    /// Arena-pressure GC trigger (live cells).
    pub gc_pressure: usize,
    /// Enable the trap-and-patch engine (§3.2).
    pub trap_and_patch: bool,
    /// Dispatch correctness traps as direct calls instead of full traps
    /// (the §5.3 "matter of implementation effort" optimization).
    pub correctness_as_call: bool,
    /// §6.2 hardware extension: assume trap-on-NaN-load + NaN checks on all
    /// FP-adjacent instructions. Makes the FP ISA fully virtualizable —
    /// **no static analysis or binary patching needed** ("If the hardware
    /// could optionally trigger an exception when a NaN pattern is loaded
    /// as a value, the static analysis could be avoided").
    pub nan_load_hw: bool,
    /// Guest instruction budget.
    pub max_insts: u64,
    /// Attach the machine's shadow taint plane and register every
    /// correctness-trap site with it (the dynamic audit oracle;
    /// `fpvm-analysis::audit`). Off by default: the hot path and its
    /// deterministic accounting are untouched.
    pub taint_oracle: bool,
    /// Attach the wall-clock metrics plane (`fpvm-obs`): sampled host-ns
    /// stage timers around the trap pipeline, exported via
    /// `Fpvm::metrics_snapshot`. Off by default: disabled costs one cached
    /// branch per trap, and Fig. 9 accounting is bit-identical on/off
    /// (same discipline as tracing).
    pub metrics: bool,
    /// Sample every `2^metrics_sample_shift`-th trap (and ext-call) when
    /// the metrics plane is on. 0 times every trap; the default (5 → every
    /// 32nd) keeps observability's own overhead within the E16 ≤3% budget.
    pub metrics_sample_shift: u32,
    /// Superblock dispatch in the machine (`fpvm_machine::block`): the
    /// interpreter executes pre-decoded runs of straight-line,
    /// non-trapping guest code as a unit between traps. Accounting is
    /// pinned bit-identical on/off — the block engine may only
    /// move host wall time (`crates/bench/tests/sblock_pin.rs`, E18).
    pub superblocks: bool,
}

impl Default for FpvmConfig {
    fn default() -> Self {
        FpvmConfig {
            delivery: DeliveryMode::UserSignal,
            decode_cache: true,
            interpose_math: true,
            gc_epoch: 400_000,
            gc_pressure: 1 << 20,
            trap_and_patch: false,
            correctness_as_call: false,
            nan_load_hw: false,
            max_insts: 4_000_000_000,
            taint_oracle: false,
            metrics: false,
            metrics_sample_shift: 5,
            superblocks: true,
        }
    }
}
