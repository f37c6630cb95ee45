//! The repository's benchmark: four closed-loop workloads × six
//! concurrency-control schemes, an output oracle, and — with
//! `--trace 1` — a cost ladder and per-layer counters. See `README.md`
//! beside this file for the metric tables and how to read them.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
//! benchmark --compare <a.json|dir> <b.json|dir>
//! ```

mod api;
mod compare;
mod driver;
mod json;
mod layers;
mod ledger;
mod measure;
mod oracle;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed used when none is given (the held-out seed for later
/// claims is named in the README and never used while developing).
pub const DEFAULT_SEED: u64 = 1993;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 18;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("target/benchmark"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    let w = workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload must be one of {names:?}")
    })?;
    // Thirteen environment knobs change the program's behaviour; a
    // number measured under any of them is not this benchmark's number.
    if let Some((knob, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("FINECC_"))
    {
        return Err(format!(
            "{} is set: unset every FINECC_* variable before benchmarking",
            knob.to_string_lossy()
        ));
    }
    let stamp = format!(
        "{}-seed{}-trace{}-{}",
        w.name,
        args.seed,
        u8::from(args.trace),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let report = if args.trace {
        layers::run(w, args.seed, args.seconds, &args.out, &stamp)
    } else {
        measure::run(w, args.seed, args.seconds, &args.out)
    };
    report.check_names()?;
    let f = &report.fingerprint;
    println!("# {}: {}", w.name, w.why);
    println!(
        "# {} seed={} trace={} clients={} rounds={} slice={}ms",
        f.workload,
        f.seed,
        u8::from(f.trace),
        workload::CLIENTS,
        f.rounds,
        f.slice_ms
    );
    report.print_table();
    let path = report
        .write(&args.out, &stamp)
        .map_err(|e| format!("writing the result file: {e}"))?;
    println!("# result file: {}", path.display());
    println!("{}", report.last_line());
    Ok(report.correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
