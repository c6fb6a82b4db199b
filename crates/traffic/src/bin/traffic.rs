//! The E17 soak campaign: sustained mixed traffic over CAN, MinorCAN and
//! MajorCAN_5 at rising bus loads, checked online by the incremental
//! windowed checker, optionally under error bursts and with bus-log
//! export.
//!
//! ```text
//! cargo run --release -p majorcan-traffic --bin traffic -- \
//!     [<frames> [n_nodes]] [--seed <u64>] [--jobs <n>] [--out e17.jsonl] \
//!     [--loads 30,60,90] [--sporadic <permille>] [--window <bits>] \
//!     [--bursts] [--burst-period <bits>] [--burst-len <bits>] [--burst-ber <p>] \
//!     [--attack-victim <node>] [--attack-budget <bits>] \
//!     [--export <dir>] [--csv] [--allow-violations] [--quiet] \
//!     [--shard <k/n> --shard-dir <dir>] [--merge] [--scavenge]
//! ```
//!
//! `--attack-victim` rides a sustained bus-off attacker on every cell
//! (dominant injections on the victim's CRC-delimiter view, re-knocking
//! it after each recovery until `--attack-budget` runs dry) and reports
//! the victim's bus-off residency under load. Mutually exclusive with
//! `--bursts`.
//!
//! Exit codes: `0` — every cell's online verdict is `consistent`;
//! `2` — bad arguments, or the configured `--window` was exceeded (a
//! message recurred after retiring, so the online verdicts are not
//! trustworthy — rerun with a larger window; never suppressed, since an
//! inexact verdict is a measurement error, not a finding); `3` — some
//! cell violated an Atomic Broadcast property (suppressed by
//! `--allow-violations`, for impairment studies where violations are the
//! measurement).
//!
//! With `--shard k/n --shard-dir d` the soak grid runs as one shard of a
//! crash-tolerant fleet (see `docs/FLEET.md`); the fleet verdict gates on
//! the merged `verdict/*` counters, honouring `--allow-violations`.

use majorcan_bench::cli::{self, exit_code, CliArgs, ExtraFlag};
use majorcan_campaign::{FaultSpec, Job, JobResult, ProtocolSpec, WorkloadSpec};
use majorcan_traffic::{run_soak, ExportFormat, SoakSpec, TraceExporter, DEFAULT_WINDOW};
use std::path::PathBuf;

struct Cell {
    job_id: u64,
    protocol: ProtocolSpec,
    load_pct: u64,
}

struct ExportPlan {
    dir: PathBuf,
    format: ExportFormat,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(exit_code::USAGE);
}

fn main() {
    let extras = [
        ExtraFlag::value("--loads", "<pct,pct,...>"),
        ExtraFlag::value("--sporadic", "<permille>"),
        ExtraFlag::value("--window", "<bits>"),
        ExtraFlag::switch("--bursts", ""),
        ExtraFlag::value("--burst-period", "<bits>"),
        ExtraFlag::value("--burst-len", "<bits>"),
        ExtraFlag::value("--burst-ber", "<prob>"),
        ExtraFlag::value("--attack-victim", "<node>"),
        ExtraFlag::value("--attack-budget", "<bits>"),
        ExtraFlag::value("--export", "<dir>"),
        ExtraFlag::switch("--csv", ""),
        ExtraFlag::switch("--allow-violations", ""),
    ];
    let mut cli = CliArgs::parse_with_extras(0x7AF1C, &cli::with_shard_flags(&extras));
    let frames: u64 = cli.positional(1_500);
    let n_nodes: usize = cli.positional(8);

    let loads: Vec<u64> = match cli.extra("--loads") {
        None => vec![30, 60, 90],
        Some(text) => text
            .split(',')
            .map(|p| match p.trim().parse::<u64>() {
                Ok(pct) if (1..=100).contains(&pct) => pct,
                _ => die(&format!("--loads wants percentages in 1..=100, got {p:?}")),
            })
            .collect(),
    };
    let sporadic = cli.extra_u64("--sporadic", 250);
    if sporadic > 1000 {
        die("--sporadic is a per-mille (0..=1000)");
    }
    let window = cli.extra_u64("--window", DEFAULT_WINDOW);
    let bursty = cli.extra_flag("--bursts")
        || cli.extra("--burst-period").is_some()
        || cli.extra("--burst-len").is_some()
        || cli.extra("--burst-ber").is_some();
    let attacked = cli.extra("--attack-victim").is_some() || cli.extra("--attack-budget").is_some();
    if bursty && attacked {
        die("--bursts and --attack-victim are mutually exclusive: one channel shape per cell");
    }
    let fault = if attacked {
        let victim = cli.extra_u64("--attack-victim", 0) as usize;
        if victim >= n_nodes {
            die(&format!(
                "--attack-victim {victim} is outside the {n_nodes}-node bus"
            ));
        }
        FaultSpec::BusOffAttack {
            victim,
            budget: cli.extra_u64("--attack-budget", 4_000),
        }
    } else if bursty {
        FaultSpec::ErrorBursts {
            period: cli.extra_u64("--burst-period", 2_000),
            len: cli.extra_u64("--burst-len", 30),
            ber_star: match cli.extra("--burst-ber") {
                None => 0.5,
                Some(text) => text
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .unwrap_or_else(|| die("--burst-ber wants a probability in [0,1]")),
            },
        }
    } else {
        FaultSpec::None
    };
    let export = cli.extra("--export").map(|dir| ExportPlan {
        dir: PathBuf::from(dir),
        format: if cli.extra_flag("--csv") {
            ExportFormat::Csv
        } else {
            ExportFormat::Jsonl
        },
    });
    if let Some(plan) = &export {
        std::fs::create_dir_all(&plan.dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", plan.dir.display())));
    }

    let protocols = [
        ProtocolSpec::StandardCan,
        ProtocolSpec::MinorCan,
        ProtocolSpec::MajorCan { m: 5 },
    ];
    let mut cells: Vec<Cell> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for &load_pct in &loads {
        for &protocol in &protocols {
            let id = jobs.len() as u64;
            jobs.push(Job::new(
                id,
                cli.seed,
                protocol,
                fault.clone(),
                WorkloadSpec::SustainedTraffic {
                    load: load_pct as f64 / 100.0,
                    frames,
                    sporadic_permille: sporadic as u16,
                },
                n_nodes,
                frames,
            ));
            cells.push(Cell {
                job_id: id,
                protocol,
                load_pct,
            });
        }
    }

    let run_one = |job: &Job| -> JobResult {
        let mut spec = SoakSpec::for_job(job);
        spec.window = window;
        let mut exporter = export.as_ref().map(|plan| {
            let ext = match plan.format {
                ExportFormat::Jsonl => "jsonl",
                ExportFormat::Csv => "csv",
            };
            let path = plan.dir.join(format!("cell-{:02}.{ext}", job.id));
            TraceExporter::create(&path, plan.format).expect("create trace export")
        });
        let outcome = run_soak(&spec, exporter.as_mut()).expect("trace export I/O");
        if let Some(x) = exporter {
            x.finish().expect("flush trace export");
        }
        outcome.to_result(job)
    };

    // Fleet (sharded) execution: the verdict is read off the merged
    // `verdict/*` counters, mirroring the per-cell gate below.
    let allow_violations = cli.extra_flag("--allow-violations");
    if let Some(code) = cli::fleet(
        &cli,
        "traffic-soak",
        &jobs,
        || (),
        |_, job| run_one(job),
        |totals| {
            // Window exceedances invalidate the verdicts themselves, so
            // they gate even under --allow-violations (exit 2, not 3 —
            // the run's configuration was wrong, not the protocol).
            let exceeded = totals.counters.get("window_exceeded");
            if exceeded > 0 {
                eprintln!(
                    "error: the checker window was exceeded {exceeded} time(s) across the fleet; \
                     the merged verdicts are unreliable — rerun with a larger --window"
                );
                std::process::exit(exit_code::USAGE);
            }
            if allow_violations {
                return None;
            }
            let violating: u64 = ["double", "omission", "validity"]
                .iter()
                .map(|t| totals.counters.get(&format!("verdict/{t}")))
                .sum();
            (violating > 0).then(|| {
                format!("online checker flagged {violating} violating verdict(s) in the merged counters")
            })
        },
    ) {
        std::process::exit(code);
    }

    let report = cli.run_campaign("traffic-soak", &jobs, || (), |_, job| run_one(job));

    println!(
        "{:<12} {:>5} {:>9} {:>9} {:>7} {:>7} {:>7} {:>8} {:>8} {:>9} {:>8}  verdict",
        "protocol",
        "load",
        "released",
        "delivered",
        "retx",
        "errors",
        "arb",
        "lat_p50",
        "lat_p99",
        "passive‰",
        "busoff‰"
    );
    let mut violations: Vec<String> = Vec::new();
    let mut exceedances: Vec<String> = Vec::new();
    for cell in &cells {
        let Some(r) = report.results.iter().find(|r| r.job_id == cell.job_id) else {
            continue;
        };
        let c = &r.counters;
        if c.get("window_exceeded") > 0 {
            exceedances.push(format!(
                "{} at {}% load: {} recurrence(s) after retirement (max gap {})",
                cell.protocol,
                cell.load_pct,
                c.get("window_exceeded"),
                c.get("max_gap"),
            ));
        }
        let verdict = ["consistent", "double", "omission", "validity"]
            .iter()
            .find(|t| c.get(&format!("verdict/{t}")) > 0)
            .copied()
            .unwrap_or("?");
        let regime_bits = c.get("active_bits") + c.get("passive_bits") + c.get("busoff_bits");
        let passive_permille = ((c.get("passive_bits") + c.get("busoff_bits")) * 1000)
            .checked_div(regime_bits)
            .unwrap_or(0);
        let busoff_permille = (c.get("busoff_bits") * 1000)
            .checked_div(regime_bits)
            .unwrap_or(0);
        println!(
            "{:<12} {:>4}% {:>9} {:>9} {:>7} {:>7} {:>7} {:>8} {:>8} {:>9} {:>8}  {}",
            cell.protocol.to_string(),
            cell.load_pct,
            c.get("released"),
            c.get("deliveries"),
            c.get("retx"),
            c.get("errors"),
            c.get("arb_lost"),
            c.get("lat_p50"),
            c.get("lat_p99"),
            passive_permille,
            busoff_permille,
            verdict,
        );
        if verdict != "consistent" {
            violations.push(format!(
                "{} at {}% load: {} (imo={} double={} validity={} order={})",
                cell.protocol,
                cell.load_pct,
                verdict,
                c.get("imo"),
                c.get("double"),
                c.get("validity"),
                c.get("order"),
            ));
        }
    }

    if !exceedances.is_empty() {
        eprintln!(
            "error: the checker window ({window} bits) was exceeded in {} cell(s); \
             those verdicts are unreliable — rerun with a larger --window:",
            exceedances.len()
        );
        for x in &exceedances {
            eprintln!("  {x}");
        }
        std::process::exit(exit_code::USAGE);
    }

    if !violations.is_empty() {
        eprintln!(
            "online checker flagged {} violating cell(s):",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        if !cli.extra_flag("--allow-violations") {
            std::process::exit(exit_code::FINDING);
        }
    }
}
