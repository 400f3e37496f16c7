//! `reproduce` — regenerate every table and figure from the paper's
//! evaluation (§5) and the §6 projections.
//!
//! ```text
//! reproduce --exp all            # everything (a few minutes)
//! reproduce --exp fig12          # one experiment
//! reproduce --exp fig12 --tiny   # reduced problem sizes (seconds)
//! reproduce --trace              # trace/profile mode: stream
//!                                # target/experiments/trace.jsonl and
//!                                # render the top-N hot-site report
//! reproduce --smoke --trace      # CI smoke: tiny sizes, trace mode
//! reproduce --list
//! ```
//!
//! Tables print to stdout; JSON records are archived under
//! `target/experiments/`.

use fpvm_bench::json::ToJson;
use fpvm_bench::{experiments as exp, loc, trajectory};
use fpvm_workloads::Size;
use std::path::PathBuf;

fn archive<T: ToJson>(name: &str, data: &T) {
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join(format!("{name}.json")), data.to_json());
}

const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "validate",
        "§5.2 validation: FPVM(Vanilla) bit-identical to native",
    ),
    ("fig9", "Fig. 9: per-trap virtualization cost breakdown"),
    ("fig10", "Fig. 10: garbage collector statistics"),
    (
        "fig11",
        "Fig. 11: BigFloat op cost vs precision + crossovers",
    ),
    (
        "fig12",
        "Fig. 12: benchmark slowdowns on three machine profiles",
    ),
    (
        "fig13",
        "Fig. 13: Lorenz IEEE vs Vanilla vs BigFloat divergence",
    ),
    ("fig14", "Fig. 14: user vs kernel trap delivery overhead"),
    (
        "approaches",
        "Fig. 3 (measured): the four virtualization approaches",
    ),
    ("tpatch", "§3.2: trap-and-patch proof-of-concept costs"),
    ("analysis", "§4.2: static analysis sink/demotion profile"),
    (
        "prospects",
        "§6: overhead under proposed kernel/hardware support",
    ),
    ("posits", "§5.4 companion: three-body under posits"),
    (
        "conform",
        "E4b: per-operation conformance across arithmetic backends",
    ),
    (
        "audit",
        "E14: dynamic taint oracle vs static sink set (soundness gate)",
    ),
    ("vsa2", "E19: VSA ablation — flow-sensitive memory typing"),
    ("loc", "§5.5: lines-of-code inventory"),
    (
        "trace",
        "trace/profile mode: JSONL trap trace + hot-site profile",
    ),
    (
        "pguided",
        "profiler-guided patch-site selection vs the heuristic",
    ),
    (
        "fleet",
        "E15: sharded fleet scaling — guests/sec per worker count",
    ),
    (
        "obs",
        "E16: observability — stage wall-clock timing, exporters, overhead",
    ),
    (
        "sblock",
        "E18: superblock dispatch — ns/guest-inst, blocks on/off",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut exp_name: Option<String> = None;
    let mut size = Size::S;
    let mut max_log2 = 14u32;
    let mut trace_mode = false;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => exp_name = it.next().cloned(),
            "--tiny" => size = Size::Tiny,
            "--smoke" => {
                // CI-friendly: tiny problem sizes and a short Fig. 11 sweep.
                size = Size::Tiny;
                max_log2 = 8;
            }
            "--trace" | "--profile" => trace_mode = true,
            "--max-log2" => max_log2 = it.next().and_then(|s| s.parse().ok()).unwrap_or(14),
            "--list" => {
                for (name, desc) in EXPERIMENTS {
                    println!("{name:<12} {desc}");
                }
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --list)");
                std::process::exit(2);
            }
        }
    }
    // `--trace` alone means "just the trace/profile mode"; with `--exp` it
    // rides along as an extra.
    let exp_name = exp_name.unwrap_or_else(|| {
        if trace_mode {
            "none".to_string()
        } else {
            "all".to_string()
        }
    });
    let want = |n: &str| exp_name == "all" || exp_name == n;
    let mut ran = false;
    if want("validate") {
        ran = true;
        let ok = exp::validate(size);
        archive("validate", &ok);
        if !ok {
            eprintln!("VALIDATION FAILED");
            std::process::exit(1);
        }
    }
    if want("fig9") {
        ran = true;
        archive("fig9", &exp::fig9(size));
    }
    if want("fig10") {
        ran = true;
        archive("fig10", &exp::fig10(size));
    }
    if want("fig11") {
        ran = true;
        archive("fig11", &exp::fig11(max_log2));
    }
    if want("fig12") {
        ran = true;
        archive("fig12", &exp::fig12(size));
    }
    if want("fig13") {
        ran = true;
        archive("fig13", &exp::fig13());
    }
    if want("fig14") {
        ran = true;
        archive("fig14", &exp::fig14());
    }
    if want("approaches") {
        ran = true;
        archive("approaches", &exp::approaches());
    }
    if want("tpatch") {
        ran = true;
        archive("tpatch", &exp::trap_and_patch_poc());
    }
    if want("analysis") {
        ran = true;
        archive("analysis", &exp::analysis_table(size));
    }
    if want("prospects") {
        ran = true;
        archive("prospects", &exp::prospects());
    }
    if want("posits") {
        ran = true;
        archive("posits", &exp::posit_effects());
    }
    if want("conform") {
        ran = true;
        let rows = exp::conform(size);
        let ok = rows.iter().all(|r| r.clean);
        archive("conform", &rows);
        if !ok {
            eprintln!("CONFORMANCE FAILED (reproducers in target/experiments/conform_repro.jsonl)");
            std::process::exit(1);
        }
    }
    if want("audit") {
        ran = true;
        let rows = exp::audit_table(size);
        let missed: usize = rows.iter().map(|r| r.missed).sum();
        archive("audit", &rows);
        // Flat per-SinkReason precision/recall table — diffable across PRs.
        let reasons = exp::flatten_reasons(rows.iter().map(|r| (r.heap_model.as_str(), r)));
        archive("audit_reasons", &reasons);
        if missed > 0 {
            eprintln!("AUDIT FAILED: {missed} missed sink(s) — static analysis soundness hole");
            std::process::exit(1);
        }
    }
    if want("vsa2") {
        ran = true;
        let r = exp::vsa2(size);
        archive("vsa2", &r);
        let reasons: Vec<_> = r
            .rows
            .iter()
            .flat_map(|row| {
                row.per_reason
                    .iter()
                    .map(move |m| (row.workload.clone(), row.config.clone(), m.clone()))
            })
            .collect();
        let flat: Vec<exp::ReasonFlatRow> = reasons
            .into_iter()
            .map(|(workload, config, m)| exp::ReasonFlatRow {
                workload,
                config,
                reason: m.reason,
                confirmed: m.confirmed,
                spurious: m.spurious,
                unexercised: m.unexercised,
                missed: m.missed,
                precision: m.precision,
                recall: m.recall,
            })
            .collect();
        archive("vsa2_reasons", &flat);
        let _ = trajectory::append_entry(
            std::path::Path::new("BENCH_analysis.json"),
            "vsa2",
            &trajectory::run_meta(size == Size::Tiny),
            &r.to_json(),
        );
        if r.missed_total > 0 {
            eprintln!(
                "VSA2 SOUNDNESS FAILED: {} missed sink(s) across ablation configs",
                r.missed_total
            );
            std::process::exit(1);
        }
        if r.skipped_total > 0 {
            eprintln!(
                "VSA2 PATCH-COVERAGE FAILED: {} sink(s) skipped by the patcher — the \
                 flow_mem demotion model requires every sink patched",
                r.skipped_total
            );
            std::process::exit(1);
        }
        if !r.outputs_identical {
            eprintln!("VSA2 OUTPUT DRIFT: guest outputs moved with the analysis config");
            std::process::exit(1);
        }
        if !r.accounting_identical {
            eprintln!("VSA2 ACCOUNTING DRIFT: deterministic Fig. 9 accounting moved with the analysis config");
            std::process::exit(1);
        }
        if r.enzo_flow_sinks > r.enzo_baseline_sinks {
            eprintln!(
                "VSA2 REFINEMENT FAILED: Enzo sinks grew under +flow ({} -> {})",
                r.enzo_baseline_sinks, r.enzo_flow_sinks
            );
            std::process::exit(1);
        }
        // The headline precision win is only meaningful at full problem
        // size (Tiny runs exercise fewer sites).
        if size == Size::S && r.enzo_flow_spurious >= 15 {
            eprintln!(
                "VSA2 PRECISION FAILED: Enzo spurious sinks did not drop below 15 (got {})",
                r.enzo_flow_spurious
            );
            std::process::exit(1);
        }
    }
    if want("loc") {
        ran = true;
        let r = loc::loc_table(&PathBuf::from("."));
        archive("loc", &r);
        // Code size is a trajectory like the performance records.
        let _ = trajectory::append_entry(
            std::path::Path::new("BENCH_loc.json"),
            "loc",
            &trajectory::run_meta(false),
            &r.to_json(),
        );
    }
    if want("trace") || trace_mode {
        ran = true;
        archive("trace_profile", &exp::trace_profile(size));
    }
    if want("pguided") {
        ran = true;
        archive("pguided", &exp::profiler_guided(size));
    }
    if want("fleet") {
        ran = true;
        let r = exp::fleet(size == Size::Tiny);
        archive("fleet", &r);
        // The perf trajectory is a first-class artifact at the invocation
        // root, where CI uploads it — appended per run, never overwritten.
        let _ = trajectory::append_entry(
            std::path::Path::new("BENCH_fleet.json"),
            "fleet",
            &trajectory::run_meta(size == Size::Tiny),
            &r.to_json(),
        );
        if !r.deterministic {
            eprintln!("FLEET DETERMINISM FAILED: merged results depend on worker count");
            std::process::exit(1);
        }
    }
    if want("obs") {
        ran = true;
        let r = exp::obs(size == Size::Tiny);
        archive("obs", &r);
        let _ = trajectory::append_entry(
            std::path::Path::new("BENCH_obs.json"),
            "obs",
            &trajectory::run_meta(size == Size::Tiny),
            &r.to_json(),
        );
        if !r.deterministic {
            eprintln!("OBS DETERMINISM FAILED: merged metrics depend on worker count");
            std::process::exit(1);
        }
        if !r.fig9_pinned {
            eprintln!("OBS FIG9 PIN FAILED: the metrics plane perturbed deterministic stats");
            std::process::exit(1);
        }
    }
    if want("sblock") {
        ran = true;
        let r = exp::sblock(size == Size::Tiny);
        archive("sblock", &r);
        // The ns/guest-inst trend lives in BENCH_speed.json, which also
        // holds older E17 rows; the record's `experiment` field tells
        // them apart.
        let _ = trajectory::append_entry(
            std::path::Path::new("BENCH_speed.json"),
            "speed",
            &trajectory::run_meta(size == Size::Tiny),
            &r.to_json(),
        );
        if !r.deterministic {
            eprintln!("SBLOCK DETERMINISM FAILED: a superblock mode changed results");
            std::process::exit(1);
        }
        if !r.fig9_pinned || !r.patch_pinned {
            eprintln!("SBLOCK FIG9 PIN FAILED: cycle accounting moved with superblock dispatch");
            std::process::exit(1);
        }
        if !r.fleet_pinned {
            eprintln!("SBLOCK FLEET PIN FAILED: merged views moved with superblocks/worker count");
            std::process::exit(1);
        }
    }
    if !ran {
        eprintln!("unknown experiment '{exp_name}' (try --list)");
        std::process::exit(2);
    }
}
