//! Trap-cache microbenchmarks: the per-lookup cost of the engine's
//! direct-mapped [`TrapCache`] against a `HashMap` keyed by rip, plus the
//! end-to-end effect of the cache (and the `decode_cache: false`
//! ablation) on a real trapping workload.
//!
//! The direct-mapped cache indexes one slot per guest code byte, so a hit
//! is a bounds-checked vector load instead of a hash-and-probe; this bench
//! demonstrates the hit path is no slower than the `HashMap` baseline.

use fpvm_arith::Vanilla;
use fpvm_bench::microbench::{bench_ns, black_box};
use fpvm_core::runtime::{cache::TrapEntry, Fpvm, FpvmConfig, TrapCache};
use fpvm_ir::{compile, CompileMode};
use fpvm_machine::{CostModel, Inst, Machine, TrapKind, CODE_BASE};
use fpvm_workloads::{lorenz, Size};
use std::collections::HashMap;

const CODE_LEN: usize = 4096;
const SITES: u64 = 256;

/// The lookup surface both layouts share.
trait Layout {
    fn lookup(&self, rip: u64) -> Option<&TrapEntry>;
    fn insert(&mut self, rip: u64, entry: TrapEntry);
}

impl Layout for TrapCache {
    fn lookup(&self, rip: u64) -> Option<&TrapEntry> {
        TrapCache::lookup(self, rip)
    }
    fn insert(&mut self, rip: u64, entry: TrapEntry) {
        TrapCache::insert(self, rip, entry);
    }
}

/// The baseline: a `HashMap` keyed by rip.
#[derive(Default)]
struct HashMapCache(HashMap<u64, TrapEntry>);

impl Layout for HashMapCache {
    fn lookup(&self, rip: u64) -> Option<&TrapEntry> {
        self.0.get(&rip)
    }
    fn insert(&mut self, rip: u64, entry: TrapEntry) {
        self.0.insert(rip, entry);
    }
}

/// A representative cached entry.
fn entry(id: u16) -> TrapEntry {
    (
        Inst::Trap {
            kind: TrapKind::Correctness,
            id,
        },
        3,
        None,
    )
}

fn bench_layout(name: &str, cache: &mut impl Layout) -> f64 {
    for i in 0..SITES {
        cache.insert(CODE_BASE + i * 5, entry(i as u16));
    }
    let hits = bench_ns(&format!("decode_cache/{name}/lookup_hit_x256"), || {
        let mut found = 0u32;
        for i in 0..SITES {
            if cache.lookup(CODE_BASE + i * 5).is_some() {
                found += 1;
            }
        }
        found
    });
    bench_ns(&format!("decode_cache/{name}/lookup_miss_x256"), || {
        let mut found = 0u32;
        for i in 0..SITES {
            // Offset by one byte: valid code range, never inserted.
            if cache.lookup(CODE_BASE + i * 5 + 1).is_some() {
                found += 1;
            }
        }
        found
    });
    bench_ns(&format!("decode_cache/{name}/insert_x256"), || {
        for i in 0..SITES {
            cache.insert(CODE_BASE + i * 5, entry(i as u16));
        }
    });
    hits
}

fn main() {
    println!("== trap cache: per-lookup cost (256 sites, 4 KiB code) ==");
    let mut dm = TrapCache::new();
    dm.prepare(CODE_LEN, 0x5eed);
    let dm = bench_layout("direct_mapped", &mut dm);
    let hm = bench_layout("hashmap", &mut HashMapCache::default());
    println!(
        "direct-mapped hit path is {:.2}x the HashMap cost (<= 1.0 means no slower)",
        dm / hm
    );

    println!();
    println!("== trap cache: end-to-end (lorenz/tiny, Vanilla, R815) ==");
    let w = lorenz::workload(Size::Tiny);
    let compiled = compile(&w.module, CompileMode::Native);
    let run = |name: &str, cfg: FpvmConfig| {
        let mut last = (0u64, 0u64, 0u64);
        bench_ns(&format!("decode_cache/{name}/lorenz_tiny_run"), || {
            let mut m = Machine::new(CostModel::r815());
            m.load_program(&compiled.program);
            let mut fpvm = Fpvm::new(Vanilla, cfg);
            let r = fpvm.run(&mut m);
            last = (
                r.stats.decode_hits,
                r.stats.decode_misses,
                r.stats.cycles.decode,
            );
            black_box(r.cycles)
        });
        println!(
            "    {name}: {} hits / {} misses, {} decode cycles",
            last.0, last.1, last.2
        );
    };
    run("direct_mapped", FpvmConfig::default());
    run(
        "no_cache_ablation",
        FpvmConfig {
            decode_cache: false,
            ..FpvmConfig::default()
        },
    );
}
