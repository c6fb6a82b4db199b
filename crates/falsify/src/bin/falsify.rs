//! Adversarial fault-schedule falsifier.
//!
//! Synthesizes thousands of seeded disturbance schedules per protocol
//! target, hunts Atomic Broadcast violations, shrinks every finding to
//! its causal core and (with `--corpus`) archives the minima as
//! replayable JSON repros.
//!
//! ```text
//! falsify [schedules_per_target] [--seed <u64>] [--jobs <n>] [--out <f.jsonl>]
//!         [--quiet] [--corpus <dir>] [--targets <csv>] [--max-errors <n>]
//!         [--nodes <n>] [--probe <entry.json>]
//!         [--shard <k/n> --shard-dir <dir>] [--merge] [--scavenge]
//! ```
//!
//! Results are bit-identical for any `--jobs`. The process exits with
//! status 3 if any MajorCAN target yields a finding — the falsifier
//! doubles as a regression gate for the protocol under test. `--probe`
//! replays one archived corpus entry — a benign disturbance repro or a
//! `corpus/attack/` cheapest-attack certificate — through its oracle
//! before the verdict: a probe that falsifies (or breaks) a MajorCAN
//! target trips the same exit-3 gate as a search finding.
//!
//! With `--shard k/n --shard-dir d` the same campaign runs as one shard
//! of a crash-tolerant fleet (see `docs/FLEET.md`): per-shard transcripts
//! carry content anchors, and the merged artifact is verified
//! bit-identical to a single-process run. The fleet verdict gates on the
//! merged outcome counters; shrinking and `--corpus` archiving remain
//! single-process concerns.

use majorcan_bench::cli::{exit_code, fleet, open_sink, with_shard_flags, CliArgs, ExtraFlag};
use majorcan_campaign::{json, Manifest, ProtocolSpec, Totals};
use majorcan_falsify::{
    build_jobs, execute_search_job, run_search, write_corpus, AttackCorpusEntry, CorpusEntry,
    Engine, Oracle, SearchConfig, SearchReport,
};
use std::path::Path;

const DEFAULT_SEED: u64 = 0xFA15;
const DEFAULT_SCHEDULES: u64 = 400;

const EXTRAS: &[ExtraFlag] = &[
    ExtraFlag::value("--corpus", "<dir: archive shrunk repros>"),
    ExtraFlag::value("--targets", "<csv: default CAN,MinorCAN,MajorCAN_5,TOTCAN>"),
    ExtraFlag::value("--max-errors", "<n: disturbances per schedule, default 4>"),
    ExtraFlag::value("--nodes", "<n: bus size, default 3>"),
    ExtraFlag::value("--probe", "<entry.json: replay one archived repro>"),
    ExtraFlag::switch("--scalar", "(evaluate schedule-by-schedule, not laned)"),
];

/// Replays one archived corpus entry — benign disturbance repro or
/// cheapest-attack certificate — through its oracle and reports whether
/// it counts as a finding against a MajorCAN target.
fn run_probe(path: &str) -> bool {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading probe {path}: {e}");
        std::process::exit(exit_code::IO);
    });
    let value = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: parsing probe {path}: {e}");
        std::process::exit(exit_code::IO);
    });
    if let Some(entry) = CorpusEntry::from_json(&value) {
        let outcome = entry.replay();
        println!(
            "probe {}: {} on {} (expected {}) {}",
            path,
            outcome.token(),
            entry.protocol,
            entry.expected,
            entry.schedule
        );
        return outcome.is_finding() && matches!(entry.protocol, ProtocolSpec::MajorCan { .. });
    }
    if let Some(entry) = AttackCorpusEntry::from_json(&value) {
        let outcome = entry.replay();
        println!(
            "probe {}: attack {} on {} (expected {}, cost {}) {}",
            path,
            outcome.token(),
            entry.protocol,
            entry.expected,
            entry.provenance.cost,
            entry.schedule
        );
        return outcome.is_break() && matches!(entry.protocol, ProtocolSpec::MajorCan { .. });
    }
    eprintln!("error: {path} is not a corpus entry");
    std::process::exit(exit_code::IO);
}

fn parse_targets(text: &str) -> Vec<ProtocolSpec> {
    text.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            ProtocolSpec::from_name(t).unwrap_or_else(|| {
                eprintln!("error: unknown protocol target {t:?}");
                std::process::exit(exit_code::USAGE);
            })
        })
        .collect()
}

fn print_summary(cfg: &SearchConfig, report: &SearchReport) {
    for &target in &cfg.targets {
        let prefix = format!("outcome/{target}/");
        let mut parts: Vec<String> = report
            .totals
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| format!("{} {v}", &k[prefix.len()..]))
            .collect();
        if parts.is_empty() {
            parts.push("none explored".to_string());
        }
        println!(
            "{target:>11}: {} schedules, {} distinct findings ({})",
            report.explored_for(target),
            report.findings_for(target),
            parts.join(", ")
        );
    }
    println!(
        "shrunk {} corpus entries ({} shrink evaluations, {} simulator runs, {} findings dropped by class caps)",
        report.entries.len(),
        report.shrink_evaluations,
        report.shrink_runs,
        report.dropped
    );
    for entry in &report.entries {
        println!(
            "  {} [{}] {}",
            entry.file_name(),
            entry.expected,
            entry.schedule
        );
    }
}

/// The fleet-mode verdict, read off merged outcome counters: any
/// finding-class outcome (`double`, `omission`, `validity`, `panic`)
/// against a MajorCAN target falsifies the protocol under test.
fn merged_majorcan_findings(totals: &Totals) -> Option<String> {
    let findings: u64 = totals
        .counters
        .iter()
        .filter(|(key, _)| {
            let Some(rest) = key.strip_prefix("outcome/") else {
                return false;
            };
            let Some((target, token)) = rest.split_once('/') else {
                return false;
            };
            target.starts_with("MajorCAN")
                && matches!(token, "double" | "omission" | "validity" | "panic")
        })
        .map(|(_, v)| v)
        .sum();
    (findings > 0).then(|| {
        format!("FALSIFIED: {findings} MajorCAN finding(s) in the merged outcome counters")
    })
}

fn main() {
    let mut cli = CliArgs::parse_with_extras(DEFAULT_SEED, &with_shard_flags(EXTRAS));
    let schedules_per_target = cli.positional(DEFAULT_SCHEDULES);
    let mut cfg = SearchConfig::new(cli.seed, schedules_per_target);
    cfg.targets = parse_targets(
        cli.extra("--targets")
            .unwrap_or("CAN,MinorCAN,MajorCAN_5,TOTCAN"),
    );
    cfg.max_errors = cli.extra_u64("--max-errors", 4) as usize;
    cfg.n_nodes = cli.extra_u64("--nodes", 3) as usize;
    cfg.engine = if cli.extra_flag("--scalar") {
        Engine::Scalar
    } else {
        Engine::Lanes
    };

    let engine = cfg.engine;
    let factory = move || Oracle::with_engine(engine);
    if let Some(code) = fleet(
        &cli,
        "falsify",
        &build_jobs(&cfg),
        factory,
        execute_search_job,
        merged_majorcan_findings,
    ) {
        std::process::exit(code);
    }

    let opts = cli.campaign_options();
    let report = match &cli.out {
        Some(path) => {
            let manifest = Manifest::for_jobs("falsify", cli.seed, &build_jobs(&cfg));
            let mut sink = open_sink(path, &manifest);
            run_search(&cfg, &opts, Some(&mut sink))
        }
        None => run_search(&cfg, &opts, None),
    }
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(exit_code::IO);
    });

    print_summary(&cfg, &report);

    let probe_finding = cli.extra("--probe").is_some_and(run_probe);

    if let Some(dir) = cli.extra("--corpus") {
        let written = write_corpus(Path::new(dir), &report.entries).unwrap_or_else(|e| {
            eprintln!("error: writing corpus to {dir}: {e}");
            std::process::exit(exit_code::IO);
        });
        println!("archived {} repros under {dir}/", written.len());
    }

    let protected: Vec<&ProtocolSpec> = cfg
        .targets
        .iter()
        .filter(|t| matches!(t, ProtocolSpec::MajorCan { .. }))
        .collect();
    for target in protected {
        let n = report.findings_for(*target);
        if n > 0 {
            eprintln!("FALSIFIED: {n} finding(s) against {target} — see the corpus entries above");
            std::process::exit(exit_code::FINDING);
        }
    }
    if probe_finding {
        eprintln!("FALSIFIED: the probed repro falsifies its MajorCAN target — see above");
        std::process::exit(exit_code::FINDING);
    }
}
