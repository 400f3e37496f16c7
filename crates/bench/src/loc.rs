//! §5.5 "software engineering complexity": lines-of-code inventory.

use crate::json::json_struct;
use std::path::Path;

/// LoC for one component.
#[derive(Debug, Clone)]
pub struct LocRow {
    /// Component (crate) name.
    pub component: String,
    /// Role in the reproduction.
    pub role: &'static str,
    /// Non-blank lines of Rust.
    pub lines: usize,
}

json_struct!(LocRow {
    component,
    role,
    lines,
});

/// The whole inventory (one `BENCH_loc.json` trajectory entry).
#[derive(Debug, Clone)]
pub struct LocResult {
    /// Non-blank lines of Rust across every component.
    pub total: usize,
    /// Per-component counts.
    pub components: Vec<LocRow>,
}

json_struct!(LocResult { total, components });

fn count_dir(dir: &Path) -> usize {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                total += count_dir(&p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(s) = std::fs::read_to_string(&p) {
                    total += s.lines().filter(|l| !l.trim().is_empty()).count();
                }
            }
        }
    }
    total
}

/// The role of each component in the reproduction.
fn role(component: &str) -> &'static str {
    match component {
        "crates/core" => "trap-and-emulate runtime + GC + trap-and-patch",
        "crates/analysis" => "static analysis (VSA) + binary patcher",
        "crates/arith" => "arithmetic systems (vanilla/bigfloat/posit) + softfp",
        "crates/machine" => "x64-FP machine substrate",
        "crates/ir" => "IR + compiler (incl. compiler-based FPVM)",
        "crates/nanbox" => "NaN-boxing",
        "crates/workloads" => "benchmark suite + references",
        "crates/bench" => "experiment harness",
        "crates/conformance" => "differential arithmetic conformance engine",
        "crates/fleet" => "sharded fleet runner",
        "crates/obs" => "observability plane (metrics registry + exporters)",
        "tests" => "cross-crate integration tests",
        _ => "",
    }
}

/// Count lines per crate — every directory under `crates/` plus the
/// top-level `tests/` (paper §5.5 reports 6,300 lines of C/C++ for the
/// trap-and-emulate component + 1,484 lines of Python for the analyzer +
/// ~350 lines per arithmetic binding).
pub fn loc_table(repo_root: &Path) -> LocResult {
    println!("== §5.5 software engineering complexity (non-blank Rust lines) ==");
    let mut components: Vec<String> = std::fs::read_dir(repo_root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| format!("crates/{}", e.file_name().to_string_lossy()))
        .collect();
    components.sort();
    components.push("tests".to_string());
    let mut rows = Vec::new();
    for dir in components {
        let lines = count_dir(&repo_root.join(&dir));
        let role = role(&dir);
        println!("{dir:<20} {lines:>7}  {role}");
        rows.push(LocRow {
            component: dir,
            role,
            lines,
        });
    }
    let total: usize = rows.iter().map(|r| r.lines).sum();
    println!("{:<20} {total:>7}", "total");
    println!("(paper: 6,300 C/C++ trap-and-emulate, 1,484 Python analyzer, ~350/binding)\n");
    LocResult {
        total,
        components: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_crate_and_the_integration_tests() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let inv = loc_table(&root);
        let rows = &inv.components;
        let names: Vec<&str> = rows.iter().map(|r| r.component.as_str()).collect();
        for want in ["crates/conformance", "crates/fleet", "crates/obs", "tests"] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
        assert!(rows.iter().all(|r| r.lines > 0 && !r.role.is_empty()));
        assert_eq!(inv.total, rows.iter().map(|r| r.lines).sum::<usize>());
    }
}
