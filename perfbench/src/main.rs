//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload static-rmat12|churn-rmat10|serve-rmat10 \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a report line (context, the workload's named metrics, the count
//! fingerprint) and then, as the last line, the result object. With
//! `--trace 1` the metrics are the per-layer ones and the spans are written
//! to `<target dir>/perfbench/trace-<workload>-<seed>.jsonl`. Exits 1 when a
//! correctness gate fails and 2 on bad arguments.

use perfbench::inputs::{probe_partition, PROBE_FLAG};
use perfbench::report::{report_line, result_line};
use perfbench::run::run;
use perfbench::{work_dir, Size};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn write_trace(run: &perfbench::run::Run) -> Result<String, String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.jsonl", run.workload, run.seed));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?,
    );
    run.tracer
        .write_jsonl(&mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(PROBE_FLAG) {
        let parsed = (
            argv.get(2).map(|s| s.parse()),
            argv.get(3).map(|s| s.parse()),
        );
        let (Some(Ok(scale)), Some(Ok(input))) = parsed else {
            eprintln!("perfbench: {PROBE_FLAG} <scale> <input seed>");
            return ExitCode::from(2);
        };
        probe_partition(scale, input);
        return ExitCode::SUCCESS;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: locate own binary: {e}");
            return ExitCode::from(1);
        }
    };
    let run = match run(
        &args.workload,
        &Size::FULL,
        args.seed,
        args.seconds,
        args.trace,
        &exe,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_file = if args.trace {
        match write_trace(&run) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    for e in run.errors() {
        eprintln!("perfbench: gate failed: {e}");
    }
    println!("{}", report_line(&run, trace_file.as_deref()));
    let (line, correct) = result_line(&run, args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
