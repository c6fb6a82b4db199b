//! The benchmark's command-line entry point.
//!
//! ```text
//! perfbench --workload <falsify|falsify_major|attack|soak|all>
//!           [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Prints per-repetition diagnostics, a metric table and, as its last
//! line, the result object (`correct`, `attempted`, `failed`, `metrics`).
//! Raw output (and the span log of a traced run) goes to `out/` beside
//! this package's manifest. `--workload all` runs every workload in its
//! own process, so each reports its own peak memory. Exit status: 0 when
//! every output check passed, 1 when one failed, 2 on bad arguments.

use majorcan_perfbench::run::{traced, untraced, RunResult};
use majorcan_perfbench::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <falsify|falsify_major|attack|soak|all> \
         [--seed <u64>] [--seconds <n>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut workload_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    ),
                };
            }
            "--seed" => {
                args.seed = Some(parse_u64(&value).ok_or_else(|| format!("bad seed {value:?}"))?)
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| {
                        format!("--seconds wants a duration in (0, 3600], got {value:?}")
                    })?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload_given {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_outputs(workload: Workload, seed: u64, trace: bool, result: &RunResult) {
    let dir = out_dir();
    let stem = format!("{}-seed{seed}-trace{}", workload.name(), trace as u8);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.json")),
                format!("{}\n", result.raw),
            )
        })
        .and_then(|()| {
            if trace {
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), &result.spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: raw output not written to {}: {e}", dir.display());
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or(workload.default_seed());
    let size = workload.default_size();
    let result = if args.trace {
        traced(workload, seed, size, args.seconds)
    } else {
        untraced(workload, seed, size, args.seconds)
    };
    write_outputs(workload, seed, args.trace, &result);
    for line in &result.lines {
        println!("{line}");
    }
    for p in &result.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", result.result_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process of its own and waits for each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate the benchmark binary: {e}")),
    };
    let mut ok = true;
    for workload in Workload::ALL {
        println!("== {}", workload.name());
        let mut cmd = Command::new(&exe);
        cmd.arg("--workload")
            .arg(workload.name())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .arg("--trace")
            .arg(if args.trace { "1" } else { "0" })
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        if let Some(seed) = args.seed {
            cmd.arg("--seed").arg(seed.to_string());
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: exited with {status}", workload.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
