//! Set-up, passes and metrics.
//!
//! A run builds the workload's programs once, then repeats rounds for the
//! requested number of seconds. A round sets up every program afresh
//! (`compile` + `analyze_and_patch`) and runs one pass over the new
//! images: every job once, in the seed's order for that round, each on a
//! fresh `Machine` + `Fpvm` (cold caches, as a user runs a binary), with
//! every job's output checked. `run_s` is the median over rounds of the
//! pass's summed `Fpvm::run` time, `setup_s` the median set-up time.
//!
//! Every time is the calling thread's CPU time scaled to reference
//! seconds by the [`RefClock`] (see [`crate::calib`]), so that a
//! neighbour's load on a shared host does not move it; the raw CPU times
//! are printed as notes.
//!
//! A traced round adds a native pass and a traced pass (metrics plane
//! timing every trap, the [`Timed`] arith wrapper, spans) after the
//! untraced one, so the difference between the two is the tracing
//! overhead, and checks that both produce the same outputs and
//! `modeled_cycles`.

use crate::calib::{scaled, RefClock, REF_KERNEL_S};
use crate::check::{self, Expect};
use crate::cpu::CpuInstant;
use crate::jobs::{pass_order, Backend, Kind, Prog};
use crate::spans::SpanLog;
use crate::timed::{OpClass, Timed};
use fpvm_analysis::{analyze_and_patch, PatchedProgram};
use fpvm_arith::{ArithSystem, BigFloatCtx, Vanilla};
use fpvm_core::{ExitReason, Fpvm, FpvmConfig, MetricStage, RunReport};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Event, Machine, OutputEvent, Program};
use fpvm_workloads::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Fewest rounds per run, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;
/// Guest instruction budget of a native run.
const NATIVE_MAX_INSTS: u64 = 20_000_000_000;

/// One program ready to run: its unpatched and patched images.
pub struct Job {
    pub prog: Prog,
    pub native: Program,
    pub patched: PatchedProgram,
    pub reference: Vec<OutputEvent>,
}

/// One set-up pass over the workload's programs. Times are in reference
/// ns, except `cpu_ns`.
pub struct Setup {
    pub jobs: Vec<Job>,
    pub compile_ns: u64,
    pub analyze_ns: u64,
    /// `compile` + `analyze_and_patch`, summed over programs.
    pub ns: u64,
    /// The same in raw CPU ns.
    pub cpu_ns: u64,
}

/// Build every program of the workload (not timed: the builders stand in
/// for the user's source code).
pub fn build(kind: Kind, seed: u64) -> Vec<(Prog, Workload)> {
    kind.programs()
        .iter()
        .map(|&p| (p, p.build(seed)))
        .collect()
}

/// `compile` + `analyze_and_patch` every program once, timing each call.
pub fn setup(
    built: &[(Prog, Workload)],
    mut spans: Option<&mut SpanLog>,
    clock: &mut RefClock,
) -> Setup {
    let (mut compile_ns, mut analyze_ns, mut ns, mut cpu_ns) = (0, 0, 0, 0);
    clock.begin();
    let mut jobs = Vec::with_capacity(built.len());
    for (prog, w) in built {
        let ((native, patched, c, a), at, scale) = clock.time(|| {
            let (native, c) = Interval::of(|| compile(&w.module, CompileMode::Native).program);
            let (patched, a) = Interval::of(|| analyze_and_patch(&native));
            (native, patched, c, a)
        });
        compile_ns += scaled(c.cpu_ns, scale);
        analyze_ns += scaled(a.cpu_ns, scale);
        ns += scaled(at.cpu_ns, scale);
        cpu_ns += at.cpu_ns;
        if let Some(log) = spans.as_deref_mut() {
            let job = log.job();
            let root = log.span(job, None, prog.key(), "setup", c.start, a.end);
            log.span(job, Some(root), prog.key(), "compile", c.start, c.end);
            log.span(
                job,
                Some(root),
                prog.key(),
                "analyze_and_patch",
                a.start,
                a.end,
            );
        }
        jobs.push(Job {
            prog: *prog,
            native,
            patched,
            reference: w.reference.clone(),
        });
    }
    Setup {
        jobs,
        compile_ns,
        analyze_ns,
        ns,
        cpu_ns,
    }
}

/// The machine's cycles minus the host-timed components (emulate, GC,
/// correctness handler): the part of the accounting that
/// `Stats::deterministic_view` keeps, which must repeat exactly.
pub fn modeled_cycles(report: &RunReport) -> u64 {
    let c = &report.stats.cycles;
    report.cycles - c.emulate - c.gc - c.correctness_handler
}

/// Per-layer counts and times of one traced pass, summed over its jobs;
/// times in reference ns.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub fp_traps: u64,
    pub correctness_traps: u64,
    pub decode_hits: u64,
    pub decode_misses: u64,
    /// Host ns per metric stage, in `MetricStage::ALL` order.
    pub stage_ns: [u64; 6],
    /// Samples per metric stage (every trap and ext-call is sampled).
    pub stage_samples: [u64; 6],
    pub gc_ns: u64,
    /// Host ns in the correctness-trap handler, which runs outside the
    /// metric stages.
    pub correctness_ns: u64,
    pub gc_passes: u64,
    pub gc_before: u64,
    pub gc_freed: u64,
    pub boxes_created: u64,
    pub sblock_built: u64,
    pub sblock_dispatches: u64,
    pub block_insts: u64,
    pub icount: u64,
    pub arith_calls: [u64; 5],
    pub arith_ns: [u64; 5],
}

/// One pass's results.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Summed `Fpvm::run` time, in reference ns.
    pub run_ns: u64,
    /// The same in raw CPU ns.
    pub run_cpu_ns: u64,
    pub modeled_cycles: u64,
    /// Output digest and modeled cycles per job, in program order (not
    /// run order).
    pub jobs: Vec<(u64, u64)>,
    /// Failed jobs (index in program order) and why.
    pub failures: Vec<(usize, String)>,
    /// Present on traced passes.
    pub layers: Option<Layers>,
}

/// The engine configuration of a traced pass: the default plus the
/// metrics plane timing every trap and ext-call.
fn traced_config() -> FpvmConfig {
    FpvmConfig {
        metrics: true,
        metrics_sample_shift: 0,
        ..FpvmConfig::default()
    }
}

/// When a call ran: its wall-clock interval and the thread CPU time it
/// took.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
    pub cpu_ns: u64,
}

impl Interval {
    /// Time `f`.
    pub fn of<T>(f: impl FnOnce() -> T) -> (T, Interval) {
        let c0 = CpuInstant::now();
        let start = Instant::now();
        let v = f();
        let end = Instant::now();
        let cpu_ns = CpuInstant::now().ns_since(c0);
        (v, Interval { start, end, cpu_ns })
    }
}

/// Run one job on a fresh machine and engine; returns the report, the
/// machine, the engine, the `Fpvm::run` interval and its scale.
fn run_job<A: ArithSystem>(
    job: &Job,
    arith: A,
    cfg: FpvmConfig,
    clock: &mut RefClock,
) -> (RunReport, Machine, Fpvm<A>, Interval, f64) {
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&job.patched.program);
    let mut vm = Fpvm::new(arith, cfg);
    vm.set_side_table(job.patched.side_table.clone());
    let (report, at, scale) = clock.time(|| vm.run(&mut m));
    (report, m, vm, at, scale)
}

/// Check a finished job; `Err` carries the reason it failed.
fn verdict(
    job: &Job,
    seed: u64,
    bigfloat: bool,
    digests: &BTreeMap<String, u64>,
    report: &RunReport,
    output: &[OutputEvent],
    rendered: &[String],
) -> Result<(), String> {
    if report.exit != ExitReason::Halted {
        return Err(format!("exit {}", report.exit));
    }
    let expect: Expect<'_> = check::expectation(job.prog, seed, bigfloat, &job.reference, digests)?;
    check::check_output(expect, output, rendered)
}

/// The benchmark's view of one workload run: the jobs, the backend and
/// the recorded digests.
pub struct Bench<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub jobs: &'a [Job],
    pub digests: &'a BTreeMap<String, u64>,
}

impl Bench<'_> {
    /// Run every job once, in `order` (indices into the jobs): untraced
    /// with the default configuration, or traced (metrics plane, arith
    /// wrapper, spans into `spans`).
    pub fn pass(&self, order: &[usize], spans: Option<&mut SpanLog>, clock: &mut RefClock) -> Pass {
        clock.begin();
        match self.kind.backend() {
            Backend::Vanilla => self.pass_on(order, spans, clock, || Vanilla),
            Backend::BigFloat200 => self.pass_on(order, spans, clock, || BigFloatCtx::new(200)),
        }
    }

    fn pass_on<A: ArithSystem>(
        &self,
        order: &[usize],
        mut spans: Option<&mut SpanLog>,
        clock: &mut RefClock,
        make: impl Fn() -> A,
    ) -> Pass {
        let bigfloat = self.kind.backend() == Backend::BigFloat200;
        let mut pass = Pass {
            jobs: vec![(0, 0); self.jobs.len()],
            layers: spans.is_some().then(Layers::default),
            ..Pass::default()
        };
        for &i in order {
            let job = &self.jobs[i];
            let (report, m, rendered, at, scale) = match spans.as_deref_mut() {
                None => {
                    let (report, m, vm, at, scale) =
                        run_job(job, make(), FpvmConfig::default(), clock);
                    (report, m, vm.rendered_output().to_vec(), at, scale)
                }
                Some(log) => {
                    let (report, m, vm, at, scale) =
                        run_job(job, Timed::new(make()), traced_config(), clock);
                    let layers = pass.layers.as_mut().expect("traced pass has layers");
                    record_layers(layers, &report, &m, &vm, scale);
                    record_run_spans(log, job.prog.key(), &vm, at);
                    (report, m, vm.rendered_output().to_vec(), at, scale)
                }
            };
            pass.run_ns += scaled(at.cpu_ns, scale);
            pass.run_cpu_ns += at.cpu_ns;
            let cycles = modeled_cycles(&report);
            pass.modeled_cycles += cycles;
            pass.jobs[i] = (check::digest(&m.output, &rendered), cycles);
            let v = verdict(
                job,
                self.seed,
                bigfloat,
                self.digests,
                &report,
                &m.output,
                &rendered,
            );
            if let Err(e) = v {
                pass.failures.push((i, e));
            }
        }
        pass
    }
}

fn record_layers<A: ArithSystem>(
    l: &mut Layers,
    report: &RunReport,
    m: &Machine,
    vm: &Fpvm<Timed<A>>,
    scale: f64,
) {
    let s = &report.stats;
    l.fp_traps += s.fp_traps;
    l.correctness_traps += s.correctness_traps;
    l.decode_hits += s.decode_hits;
    l.decode_misses += s.decode_misses;
    l.gc_ns += scaled(s.gc_ns, scale);
    // The handler charges its measured ns at the profile clock on top of a
    // fixed check per trap; undo that conversion.
    let handler = s.cycles.correctness_handler - s.correctness_traps * m.cost.patch_check;
    l.correctness_ns += scaled((handler as f64 / m.cost.clock_ghz) as u64, scale);
    l.gc_passes += s.gc_passes;
    for r in &s.gc_records {
        l.gc_before += r.before as u64;
        l.gc_freed += r.freed as u64;
    }
    l.boxes_created += s.boxes_created;
    let metrics = vm
        .engine_metrics()
        .expect("traced passes attach the metrics plane");
    for stage in MetricStage::ALL {
        let h = metrics.stage_histogram(stage);
        l.stage_ns[stage.index()] += scaled(h.sum(), scale);
        l.stage_samples[stage.index()] += h.count();
    }
    let sb = m.superblock_stats();
    l.sblock_built += sb.built;
    l.sblock_dispatches += sb.dispatches;
    l.block_insts += sb.block_insts;
    l.icount += report.icount;
    let ledger = vm.arith().ledger();
    for c in OpClass::ALL {
        l.arith_calls[c as usize] += ledger.calls(c);
        l.arith_ns[c as usize] += scaled(ledger.ns(c), scale);
    }
}

fn record_run_spans<A: ArithSystem>(
    log: &mut SpanLog,
    program: &'static str,
    vm: &Fpvm<Timed<A>>,
    at: Interval,
) {
    let job = log.job();
    let root = log.span(job, None, program, "Fpvm::run", at.start, at.end);
    let start = log.at(at.start);
    let ledger = vm.arith().ledger();
    for c in OpClass::ALL {
        if ledger.calls(c) > 0 {
            let name = ARITH_SPAN[c as usize];
            log.push(job, Some(root), program, name, start, start + ledger.ns(c));
        }
    }
}

const ARITH_SPAN: [&str; 5] = [
    "arith.basic",
    "arith.transcendental",
    "arith.convert",
    "arith.compare",
    "arith.render",
];

/// One native (unvirtualized) run of every unpatched program: summed time
/// in reference ns and guest instructions retired.
pub fn native_pass(
    jobs: &[Job],
    spans: &mut SpanLog,
    clock: &mut RefClock,
) -> Result<(u64, u64), String> {
    let (mut ns, mut insts) = (0, 0);
    clock.begin();
    for job in jobs {
        let mut m = Machine::new(CostModel::r815());
        let (ev, at, scale) =
            clock.time(|| fpvm_core::run_native(&mut m, &job.native, NATIVE_MAX_INSTS));
        if ev != Event::Halted {
            return Err(format!("{}: native run ended with {ev:?}", job.prog.key()));
        }
        let j = spans.job();
        spans.span(j, None, job.prog.key(), "run_native", at.start, at.end);
        ns += scaled(at.cpu_ns, scale);
        insts += m.icount;
    }
    Ok((ns, insts))
}

/// A metric value: measured numbers keep all their digits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Count(u64),
    Real(f64),
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: Value,
    pub unit: &'static str,
}

/// Everything one run of the command produces.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// Why: one line per failed check, or other error; any makes the run
    /// incorrect.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's span log.
    pub spans: Option<SpanLog>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: Value, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn real(&mut self, name: &str, v: f64, unit: &'static str) {
        self.metric(name, Value::Real(v), unit);
    }

    fn count(&mut self, name: &str, v: u64) {
        self.metric(name, Value::Count(v), "count");
    }

    /// The command's exit code: 0 when every check passed, 1 otherwise.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.failures.is_empty())
    }

    /// The result line: one JSON object, metric values with all their
    /// digits.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = match m.value {
                    Value::Count(c) => c.to_string(),
                    Value::Real(r) if r.is_finite() => format!("{r}"),
                    Value::Real(_) => "null".to_string(),
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kib / 1024.0)
}

/// Counts a pass's jobs and failures into the outcome, and checks
/// cross-pass determinism: every job must reproduce its output digest and
/// modeled cycles from the first pass.
#[derive(Default)]
struct Consistency {
    first: Option<Vec<(u64, u64)>>,
}

impl Consistency {
    fn check(&mut self, kind: Kind, p: &Pass, out: &mut Outcome) {
        let mut failures = p.failures.clone();
        let first = self.first.get_or_insert_with(|| p.jobs.clone());
        for (i, (now, then)) in p.jobs.iter().zip(first.iter()).enumerate() {
            if now.0 != then.0 {
                failures.push((i, "output differs from the first pass".into()));
            }
            if now.1 != then.1 {
                let msg = format!(
                    "modeled cycles {} differ from the first pass's {}",
                    now.1, then.1
                );
                failures.push((i, msg));
            }
        }
        let failed: BTreeSet<usize> = failures.iter().map(|f| f.0).collect();
        out.attempted += p.jobs.len() as u64;
        out.failed += failed.len() as u64;
        for (i, why) in failures {
            out.failures
                .push(format!("{}: {why}", kind.programs()[i].key()));
        }
    }
}

/// One round of a run: a fresh set-up, then the passes over its jobs.
struct Round {
    /// Set-up time in reference ns, and in raw CPU ns.
    setup_ns: u64,
    setup_cpu_ns: u64,
    compile_ns: u64,
    analyze_ns: u64,
    /// The untraced pass.
    plain: Pass,
    /// Traced runs only: the native pass (host ns, guest instructions)
    /// and the traced pass.
    native: Option<(u64, u64)>,
    traced: Option<Pass>,
}

/// Run the workload for `seconds` and produce its metrics: the end-to-end
/// set untraced, or the per-layer set when `trace` is on.
///
/// The run repeats rounds until the time is up. A round sets up every
/// program afresh (timed: `setup_s`), runs one untraced pass over the new
/// images (timed: `run_s`) and, when tracing, a native pass and a traced
/// pass. Each metric is the median over rounds, so set-up and passes are
/// sampled under the same host conditions.
///
/// Before the timed rounds, an untimed memory round sets up and runs
/// every program once in program order: `peak_rss_mib` is the process's
/// peak RSS at its end. Glibc keeps freed heap, so the peak depends on the
/// order of allocations; a fixed order makes it repeat from run to run.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    digests: &BTreeMap<String, u64>,
) -> Outcome {
    let built = build(kind, seed);
    let mut spans = trace.then(SpanLog::new);
    let mut out = Outcome::default();
    let mut consistency = Consistency::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut analysis = None;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let in_program_order: Vec<usize> = (0..built.len()).collect();
    let mut clock = RefClock::new();
    {
        let warm = setup(&built, None, &mut clock);
        let bench = Bench {
            kind,
            seed,
            jobs: &warm.jobs,
            digests,
        };
        let p = bench.pass(&in_program_order, None, &mut clock);
        consistency.check(kind, &p, &mut out);
    }
    let peak_rss = peak_rss_mib();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let order = pass_order(seed, rounds.len() as u64, built.len());
        let s = setup(&built, spans.as_mut(), &mut clock);
        analysis.get_or_insert_with(|| AnalysisTotals::of(&s.jobs));
        let bench = Bench {
            kind,
            seed,
            jobs: &s.jobs,
            digests,
        };
        let mut native = None;
        if let Some(log) = spans.as_mut() {
            match native_pass(&s.jobs, log, &mut clock) {
                Ok(n) => native = Some(n),
                Err(e) => out.failures.push(e),
            }
        }
        let plain = bench.pass(&order, None, &mut clock);
        consistency.check(kind, &plain, &mut out);
        let traced = spans
            .as_mut()
            .map(|log| bench.pass(&order, Some(log), &mut clock));
        if let Some(t) = &traced {
            consistency.check(kind, t, &mut out);
        }
        rounds.push(Round {
            setup_ns: s.ns,
            setup_cpu_ns: s.cpu_ns,
            compile_ns: s.compile_ns,
            analyze_ns: s.analyze_ns,
            plain,
            native,
            traced,
        });
    }
    out.notes.push(format!(
        "workload {} seed {seed}: {} jobs per pass, one at a time on one thread \
         (closed loop); {} rounds of set-up + pass{}",
        kind.name(),
        kind.programs().len(),
        rounds.len(),
        if trace {
            " + native pass + traced pass"
        } else {
            ""
        }
    ));
    let of = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let run_s = of(&|r| secs(r.plain.run_ns));
    let setup_s = of(&|r| secs(r.setup_ns));
    if trace {
        let a = analysis.expect("at least one round ran");
        per_layer(&rounds, &a, &mut out);
    } else {
        out.real("run_s", median(&run_s), "s");
        out.real("setup_s", median(&setup_s), "s");
        out.metric(
            "modeled_cycles",
            Value::Count(rounds[0].plain.modeled_cycles),
            "cycles",
        );
        match peak_rss {
            Ok(mib) => out.real("peak_rss_mib", mib, "MiB"),
            Err(e) => out.failures.push(e),
        }
    }
    let run_cpu_s = of(&|r| secs(r.plain.run_cpu_ns));
    let setup_cpu_s = of(&|r| secs(r.setup_cpu_ns));
    out.notes.push(spread_note("run_s", &run_s));
    out.notes.push(spread_note("setup_s", &setup_s));
    out.notes.push(spread_note("run_s raw CPU", &run_cpu_s));
    out.notes.push(spread_note("setup_s raw CPU", &setup_cpu_s));
    out.notes.push(format!(
        "host speed: the pass's raw CPU time is {:.3}x its reference time \
         (reference kernel at {} ms)",
        median(&run_cpu_s) / median(&run_s),
        REF_KERNEL_S * 1e3
    ));
    out.notes.push(format!(
        "modeled_cycles {} per pass",
        rounds[0].plain.modeled_cycles
    ));
    out.notes.push(format!(
        "fail_rate {} ({} failed of {} jobs attempted)",
        share(out.failed, out.attempted),
        out.failed,
        out.attempted
    ));
    for m in &out.metrics {
        if let Value::Real(r) = m.value {
            if !r.is_finite() {
                out.failures.push(format!("{} is not finite", m.name));
            }
        }
    }
    out.spans = spans;
    out
}

/// "median m s over n rounds (min, p90, max)": p90 only once at least ten
/// samples lie beyond it.
fn spread_note(name: &str, xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p90 = if n >= 100 {
        format!(", p90 {:.6}", v[n * 9 / 10])
    } else {
        String::new()
    };
    format!(
        "{name}: median {:.6} s over {n} rounds (min {:.6}{p90}, max {:.6})",
        median(xs),
        v[0],
        v[n - 1]
    )
}

/// The analysis's deterministic counts, summed over a workload's programs.
struct AnalysisTotals {
    loads_total: u64,
    loads_proven_safe: u64,
    rounds: u64,
    sinks_patched: u64,
    sinks_skipped: u64,
}

impl AnalysisTotals {
    fn of(jobs: &[Job]) -> Self {
        let sum = |f: &dyn Fn(&Job) -> usize| jobs.iter().map(f).sum::<usize>() as u64;
        AnalysisTotals {
            loads_total: sum(&|j| j.patched.analysis.stats.loads_total),
            loads_proven_safe: sum(&|j| j.patched.analysis.stats.loads_proven_safe),
            rounds: sum(&|j| j.patched.analysis.stats.rounds),
            sinks_patched: sum(&|j| j.patched.analysis.stats.sinks_patched),
            sinks_skipped: sum(&|j| j.patched.skipped.len()),
        }
    }
}

fn layers(r: &Round) -> &Layers {
    r.traced
        .as_ref()
        .and_then(|p| p.layers.as_ref())
        .expect("traced rounds carry layers")
}

/// The per-layer metrics of a traced run. Counts come from the first
/// round (they repeat exactly); times are medians over rounds.
fn per_layer(rounds: &[Round], a: &AnalysisTotals, out: &mut Outcome) {
    let of = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<f64>>());
    let med = |f: &dyn Fn(&Layers) -> f64| of(&|r| f(layers(r)));
    let l0 = layers(&rounds[0]);
    let stage = |l: &Layers, s: MetricStage| l.stage_ns[s.index()];

    out.real("ir.compile_s", of(&|r| secs(r.compile_ns)), "s");
    out.real("analysis.analyze_s", of(&|r| secs(r.analyze_ns)), "s");
    out.real(
        "analysis.loads_proven_safe_share",
        share(a.loads_proven_safe, a.loads_total),
        "ratio",
    );
    out.count("analysis.rounds", a.rounds);
    out.count("analysis.sinks_patched", a.sinks_patched);
    out.count("analysis.sinks_skipped", a.sinks_skipped);

    let natives: Vec<(u64, u64)> = rounds.iter().filter_map(|r| r.native).collect();
    let (native_s, guest_insts) = match natives.first() {
        Some(&(_, insts)) => (
            median(&natives.iter().map(|n| secs(n.0)).collect::<Vec<_>>()),
            insts,
        ),
        None => (0.0, 0),
    };
    out.real("machine.native_s", native_s, "s");
    out.count("machine.guest_insts", guest_insts);
    out.real(
        "machine.ns_per_guest_inst",
        native_s * 1e9 / guest_insts.max(1) as f64,
        "ns",
    );
    out.count("machine.sblock_built", l0.sblock_built);
    out.count("machine.sblock_dispatches", l0.sblock_dispatches);
    out.real(
        "machine.sblock_inst_share",
        share(l0.block_insts, l0.icount),
        "ratio",
    );
    // Self time of the `Fpvm::run` spans outside the engine's timed stages
    // (trap frames, ext-calls), the correctness-trap handler and GC; arith
    // time is nested in those.
    let traced_run = |r: &Round| r.traced.as_ref().map_or(0, |p| p.run_ns);
    out.real(
        "machine.interp_s",
        of(&|r| {
            let l = layers(r);
            let inside = stage(l, MetricStage::Frame)
                + stage(l, MetricStage::ExtCall)
                + l.correctness_ns
                + l.gc_ns;
            secs(traced_run(r).saturating_sub(inside))
        }),
        "s",
    );

    out.count("core.fp_traps", l0.fp_traps);
    out.count("core.correctness_traps", l0.correctness_traps);
    out.count(
        "core.ext_calls",
        l0.stage_samples[MetricStage::ExtCall.index()],
    );
    out.real(
        "core.decode_hit_rate",
        share(l0.decode_hits, l0.decode_hits + l0.decode_misses),
        "ratio",
    );
    for s in MetricStage::ALL {
        let v = med(&|l| secs(stage(l, s)));
        out.real(&format!("core.{}_s", s.label()), v, "s");
    }
    out.real("core.correctness_s", med(&|l| secs(l.correctness_ns)), "s");
    out.real("core.gc_s", med(&|l| secs(l.gc_ns)), "s");
    out.count("core.gc_passes", l0.gc_passes);
    out.real(
        "core.gc_freed_share",
        share(l0.gc_freed, l0.gc_before),
        "ratio",
    );
    out.count("core.boxes_created", l0.boxes_created);

    let mut arith_total = 0.0;
    for c in OpClass::ALL {
        let k = c as usize;
        out.count(&format!("arith.{}_calls", c.label()), l0.arith_calls[k]);
        let v = med(&|l| secs(l.arith_ns[k]));
        arith_total += v;
        out.real(&format!("arith.{}_s", c.label()), v, "s");
    }
    let emu_ext = med(&|l| secs(stage(l, MetricStage::Emulate) + stage(l, MetricStage::ExtCall)));
    out.real(
        "arith.share_of_emulate_ext",
        if emu_ext > 0.0 {
            arith_total / emu_ext
        } else {
            0.0
        },
        "ratio",
    );
    let plain_s = of(&|r| secs(r.plain.run_ns));
    let traced_s = of(&|r| secs(traced_run(r)));
    out.real("trace.overhead_share", traced_s / plain_s - 1.0, "ratio");
    out.notes.push(format!(
        "untraced run_s median {plain_s:.6} s, traced {traced_s:.6} s"
    ));
    out.notes.push(format!(
        "arith.*_s total / (core.emulate_s + core.ext_call_s) = {arith_total:.6} s / {emu_ext:.6} s"
    ));
}

/// Run one `paper-bf200` pass at seed 0 and render the digest file the
/// checks compare against. Fails if a job does not halt or two runs of
/// the same job disagree.
pub fn record_digests() -> Result<String, String> {
    let built = build(Kind::PaperBf200, 0);
    let s = setup(&built, None, &mut RefClock::new());
    let mut entries = Vec::new();
    for job in &s.jobs {
        let mut ds = Vec::new();
        for _ in 0..2 {
            let (report, m, vm, _, _) = run_job(
                job,
                BigFloatCtx::new(200),
                FpvmConfig::default(),
                &mut RefClock::new(),
            );
            if report.exit != ExitReason::Halted {
                return Err(format!("{}: exit {}", job.prog.key(), report.exit));
            }
            ds.push(check::digest(&m.output, vm.rendered_output()));
        }
        if ds[0] != ds[1] {
            return Err(format!("{}: output differs between runs", job.prog.key()));
        }
        entries.push((job.prog.key(), ds[0]));
    }
    Ok(check::format_digests(&entries))
}
