//! Command line of the FPVM benchmark.
//!
//! ```text
//! fpvm-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! fpvm-benchmark --record-digests <file>
//! ```
//!
//! Prints human-readable notes, one `name value unit` line per metric,
//! and as its last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any job's output is
//! wrong, 2 on a usage error.

use fpvm_benchmark::check;
use fpvm_benchmark::jobs::Kind;
use fpvm_benchmark::measure::{self, Value};
use std::process::ExitCode;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    Record(String),
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            "--record-digests" => return Ok(Command::Record(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Command::Run(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

fn spans_path(a: &Args) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", a.kind.name(), a.seed))
}

fn run(a: Args) -> Result<u8, String> {
    let digests = check::parse_digests(check::BF200_DIGESTS)?;
    let mut out = measure::run(a.kind, a.seed, a.seconds, a.trace, &digests);
    for line in &out.notes {
        println!("# {line}");
    }
    for f in &out.failures {
        println!("# FAILED {f}");
    }
    for m in &out.metrics {
        let v = match m.value {
            Value::Count(c) => c.to_string(),
            Value::Real(r) => format!("{r:.6}"),
        };
        println!("{:<36} {v:>16} {}", m.name, m.unit);
    }
    if let Some(log) = &out.spans {
        let path = spans_path(&a);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, log.to_jsonl()));
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                log.spans().len(),
                path.display()
            ),
            Err(e) => out.failures.push(format!("writing spans: {e}")),
        }
    }
    println!("{}", out.result_json());
    Ok(out.exit_code())
}

fn main() -> ExitCode {
    let cmd = match parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fpvm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Command::Record(path) => measure::record_digests()
            .and_then(|text| std::fs::write(&path, text).map_err(|e| format!("{path}: {e}")))
            .map(|()| 0),
        Command::Run(a) => run(a),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("fpvm-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
