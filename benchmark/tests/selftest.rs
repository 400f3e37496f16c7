//! Self-tests of the benchmark: seeding, the Lorenz seed-0 identity, the
//! arith wrapper's transparency, and that a wrong expected digest fails
//! the command.

use fpvm_analysis::analyze_and_patch;
use fpvm_arith::{ArithSystem, BigFloatCtx, PositCtx, Vanilla};
use fpvm_benchmark::calib::{Kernel, RefClock, REF_KERNEL_S};
use fpvm_benchmark::check;
use fpvm_benchmark::jobs::{pass_order, Kind};
use fpvm_benchmark::measure::{self, Bench};
use fpvm_benchmark::timed::{OpClass, Timed};
use fpvm_core::{Fpvm, FpvmConfig, RunReport};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Machine, OutputEvent};
use fpvm_workloads::{fbench, lorenz, Size, Workload};

fn one_pass(kind: Kind, seed: u64, pass: u64) -> measure::Pass {
    let digests = check::parse_digests(check::BF200_DIGESTS).unwrap();
    let built = measure::build(kind, seed);
    let mut clock = RefClock::new();
    let s = measure::setup(&built, None, &mut clock);
    let bench = Bench {
        kind,
        seed,
        jobs: &s.jobs,
        digests: &digests,
    };
    bench.pass(&pass_order(seed, pass, s.jobs.len()), None, &mut clock)
}

#[test]
fn same_seed_same_order_and_modeled_cycles() {
    for pass in 0..4 {
        assert_eq!(pass_order(7, pass, 10), pass_order(7, pass, 10));
        let mut sorted = pass_order(7, pass, 10);
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "a permutation");
    }
    assert!(
        (0..8).any(|p| pass_order(7, p, 10) != pass_order(8, p, 10)),
        "the seed changes the order"
    );
    let a = one_pass(Kind::VanillaTrapdense, 7, 0);
    let b = one_pass(Kind::VanillaTrapdense, 7, 0);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.modeled_cycles, b.modeled_cycles);
    assert_eq!(a.jobs, b.jobs);
    // The order does not move the modeled cost.
    let c = one_pass(Kind::VanillaTrapdense, 7, 3);
    assert_eq!(a.modeled_cycles, c.modeled_cycles);
}

#[test]
fn seed_zero_lorenz_is_the_paper_workload() {
    let seeded = lorenz::workload_seeded(Size::S, 0);
    let paper = lorenz::workload(Size::S);
    let (a, b) = (
        compile(&seeded.module, CompileMode::Native).program,
        compile(&paper.module, CompileMode::Native).program,
    );
    assert_eq!(a.code, b.code);
    assert_eq!(a.data, b.data);
    assert_eq!(seeded.reference, paper.reference);
    assert_ne!(
        lorenz::workload_seeded(Size::S, 1).reference,
        paper.reference
    );
}

/// Run a Tiny program; returns what must not change under the wrapper.
fn run<A: ArithSystem>(
    w: &Workload,
    arith: A,
) -> (Vec<OutputEvent>, Vec<String>, RunReport, Fpvm<A>) {
    let p = analyze_and_patch(&compile(&w.module, CompileMode::Native).program);
    let mut m = Machine::new(CostModel::r815());
    m.load_program(&p.program);
    let mut vm = Fpvm::new(arith, FpvmConfig::default());
    vm.set_side_table(p.side_table);
    let report = vm.run(&mut m);
    let rendered = vm.rendered_output().to_vec();
    (m.output, rendered, report, vm)
}

fn assert_transparent<A: ArithSystem + Clone>(arith: A) {
    let w = fbench::workload(Size::Tiny);
    let (out, rendered, report, _) = run(&w, arith.clone());
    let (tout, trendered, treport, tvm) = run(&w, Timed::new(arith));
    let name = tvm.arith().name();
    assert_eq!(out, tout, "{name}: output");
    assert_eq!(rendered, trendered, "{name}: rendered output");
    assert_eq!(
        report.stats.deterministic_view(),
        treport.stats.deterministic_view(),
        "{name}: deterministic stats"
    );
    assert_eq!(
        measure::modeled_cycles(&report),
        measure::modeled_cycles(&treport),
        "{name}: modeled cycles"
    );
    let ledger = tvm.arith().ledger();
    assert!(
        ledger.calls(OpClass::Basic) > 0,
        "{name}: basic ops counted"
    );
    assert!(
        ledger.calls(OpClass::Transcendental) > 0,
        "{name}: libm counted"
    );
}

#[test]
fn wrapper_is_transparent_on_every_backend() {
    assert_transparent(Vanilla);
    assert_transparent(BigFloatCtx::new(200));
    assert_transparent(PositCtx::<64, 3>);
}

#[test]
fn wrapper_forwards_overridden_defaults() {
    // BigFloat renders at full precision and answers `is_nan` itself; a
    // wrapper that fell back to the trait defaults would print the
    // demoted double instead.
    let bf = BigFloatCtx::new(200);
    let t = Timed::new(bf);
    let third = bf
        .div(
            &bf.from_f64(1.0),
            &bf.from_f64(3.0),
            fpvm_arith::Round::NearestEven,
        )
        .0;
    assert_eq!(t.render(&third), bf.render(&third));
    assert!(
        t.render(&third).len() > 40,
        "full precision: {}",
        t.render(&third)
    );
    let nan = bf.from_f64(f64::NAN);
    assert!(t.is_nan(&nan));
    assert_eq!(t.ledger().calls(OpClass::Render), 2);
    assert_eq!(t.ledger().calls(OpClass::Compare), 1);
}

#[test]
fn checks_reject_a_changed_output() {
    let w = lorenz::workload_seeded(Size::S, 5);
    let (out, rendered, _, _) = run(&w, BigFloatCtx::new(200));
    let ok = check::Expect::LorenzPrefix(&w.reference);
    assert_eq!(check::check_output(ok, &out, &rendered), Ok(()));
    let mut bad = out.clone();
    if let OutputEvent::F64(bits) = &mut bad[1] {
        *bits = (f64::from_bits(*bits) * 1.001).to_bits();
    }
    assert!(check::check_output(ok, &bad, &rendered).is_err());
    let exact = check::Expect::Reference(&w.reference);
    assert!(check::check_output(exact, &w.reference, &[]).is_ok());
    assert!(check::check_output(exact, &bad, &[]).is_err());
    let d = check::digest(&out, &rendered);
    assert!(check::check_output(check::Expect::Digest(d), &out, &rendered).is_ok());
    assert!(check::check_output(check::Expect::Digest(d), &bad, &rendered).is_err());
}

#[test]
fn the_kernel_s_own_work_measures_one_kernel_run() {
    // Whatever the host's speed, a call doing exactly the kernel's work
    // takes about REF_KERNEL_S reference seconds.
    let mut clock = RefClock::new();
    let mut kernel = Kernel::new();
    let mut ref_s: Vec<f64> = (0..9)
        .map(|_| {
            clock.begin();
            let (_, at, scale) = clock.time(|| kernel.run());
            at.cpu_ns as f64 * scale / 1e9
        })
        .collect();
    ref_s.sort_by(f64::total_cmp);
    let ratio = ref_s[4] / REF_KERNEL_S;
    assert!((0.7..1.4).contains(&ratio), "median {ratio} x REF_KERNEL_S");
}

#[test]
fn corrupted_expected_digest_fails_the_command() {
    let digests = check::parse_digests(check::BF200_DIGESTS).unwrap();
    let corrupted = digests
        .iter()
        .map(|(k, &d)| (k.clone(), if k == "three_body" { d ^ 1 } else { d }))
        .collect();
    let out = measure::run(Kind::PaperBf200, 0, 1, false, &corrupted);
    assert_eq!(
        out.exit_code(),
        1,
        "a corrupted digest must fail the command"
    );
    assert!(
        out.failures
            .iter()
            .any(|f| f.starts_with("three_body: digest")),
        "{:?}",
        out.failures
    );
    assert!(out.failed >= 1, "the Three-Body job of every pass fails");
    assert!(out.result_json().starts_with("{\"correct\": false,"));
}
