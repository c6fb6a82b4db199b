//! The E18 attack-surface campaign: cost-to-break per protocol variant.
//!
//! Synthesizes budgeted dominant-injection attack schedules against CAN,
//! MinorCAN and MajorCAN_3/4/5, shrinks every break to its cheapest form
//! and prints a cost-to-break table: the minimum attack cost found per
//! `(variant, outcome class)`. Archived entries (with `--corpus`) are
//! cheapest-attack certificates carrying cost and strategy in provenance.
//!
//! ```text
//! attack_surface [attacks_per_target] [--seed <u64>] [--jobs <n>]
//!                [--out <f.jsonl>] [--quiet] [--corpus <dir>]
//!                [--targets <csv>] [--max-cost <n>] [--nodes <n>]
//!                [--shard <k/n> --shard-dir <dir>] [--merge] [--scavenge]
//! ```
//!
//! Results are bit-identical for any `--jobs`. Exit codes: `0` — MajorCAN's
//! cheapest Agreement break (if any) costs strictly more than standard
//! CAN's; `2` — bad arguments; `3` — some MajorCAN target broke at a cost
//! less than or equal to CAN's cheapest Agreement break (the voting window
//! buys no attack-cost margin — a reproduction regression).
//!
//! With `--shard k/n --shard-dir d` the exploration runs as one shard of
//! a crash-tolerant fleet (see `docs/FLEET.md`). The fleet merge is an
//! integrity gate only: break *costs* live in the in-process shrink/side
//! channel, not the counters, so the cost-margin verdict remains a
//! single-process concern — a verified merge exits 0, any transcript
//! tampering or incomplete shard exits 3.

use majorcan_bench::cli::{exit_code, fleet, open_sink, with_shard_flags, CliArgs, ExtraFlag};
use majorcan_campaign::{Manifest, ProtocolSpec};
use majorcan_falsify::{
    build_attack_jobs, execute_attack_search_job, run_attack_search, write_attack_corpus,
    AttackOracle, AttackSearchConfig, AttackSearchReport,
};
use std::path::Path;

const DEFAULT_SEED: u64 = 0xA77AC4;
const DEFAULT_ATTACKS: u64 = 400;

/// The verdict classes of the paper's Agreement/Validity argument.
const AGREEMENT_CLASSES: &[&str] = &["double", "omission", "validity"];

const EXTRAS: &[ExtraFlag] = &[
    ExtraFlag::value("--corpus", "<dir: archive cheapest-attack certificates>"),
    ExtraFlag::value(
        "--targets",
        "<csv: default CAN,MinorCAN,MajorCAN_3,MajorCAN_4,MajorCAN_5>",
    ),
    ExtraFlag::value(
        "--max-cost",
        "<n: nominal cost cap per schedule, default 40>",
    ),
    ExtraFlag::value("--nodes", "<n: bus size, default 3>"),
];

fn parse_targets(text: &str) -> Vec<ProtocolSpec> {
    text.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| match ProtocolSpec::from_name(t) {
            Some(spec) if !spec.is_hlp() => spec,
            Some(_) => {
                eprintln!("error: {t} is a higher-level protocol; attacks target the link layer");
                std::process::exit(exit_code::USAGE);
            }
            None => {
                eprintln!("error: unknown protocol target {t:?}");
                std::process::exit(exit_code::USAGE);
            }
        })
        .collect()
}

/// The minimum archived cost for `target` in `class`, if that class broke.
fn min_cost(report: &AttackSearchReport, target: ProtocolSpec, class: &str) -> Option<u64> {
    report
        .cheapest_for(target, class)
        .map(|e| e.provenance.cost)
}

/// The minimum archived Agreement-class break cost for `target`.
fn min_agreement_cost(report: &AttackSearchReport, target: ProtocolSpec) -> Option<u64> {
    AGREEMENT_CLASSES
        .iter()
        .filter_map(|class| min_cost(report, target, class))
        .min()
}

fn print_table(cfg: &AttackSearchConfig, report: &AttackSearchReport) {
    println!(
        "{:<11} {:>8} {:>7} {:>7} {:>7} {:>9} {:>9} {:>6}  cheapest agreement break",
        "protocol", "attacks", "breaks", "busoff", "double", "omission", "validity", "panic"
    );
    for &target in &cfg.targets {
        let cell = |class: &str| {
            min_cost(report, target, class)
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".to_string())
        };
        let cheapest = AGREEMENT_CLASSES
            .iter()
            .filter_map(|class| report.cheapest_for(target, class))
            .min_by_key(|e| e.provenance.cost)
            .map(|e| {
                format!(
                    "cost {} ({}: {})",
                    e.provenance.cost, e.provenance.strategy, e.schedule
                )
            })
            .unwrap_or_else(|| "none found".to_string());
        println!(
            "{:<11} {:>8} {:>7} {:>7} {:>7} {:>9} {:>9} {:>6}  {}",
            target.to_string(),
            report.explored_for(target),
            report.findings_for(target),
            cell("busoff"),
            cell("double"),
            cell("omission"),
            cell("validity"),
            cell("panic"),
            cheapest,
        );
    }
    println!(
        "archived {} certificates ({} shrink evaluations, {} simulator runs, {} findings dropped by class caps)",
        report.entries.len(),
        report.shrink_evaluations,
        report.shrink_runs,
        report.dropped
    );
    for entry in &report.entries {
        println!(
            "  {} [{} cost {} strategy {}] {}",
            entry.file_name(),
            entry.expected,
            entry.provenance.cost,
            entry.provenance.strategy,
            entry.schedule
        );
    }
}

fn main() {
    let mut cli = CliArgs::parse_with_extras(DEFAULT_SEED, &with_shard_flags(EXTRAS));
    let attacks_per_target = cli.positional(DEFAULT_ATTACKS);
    let mut cfg = AttackSearchConfig::new(cli.seed, attacks_per_target);
    if let Some(text) = cli.extra("--targets") {
        cfg.targets = parse_targets(text);
    }
    cfg.max_cost = cli.extra_u64("--max-cost", 40);
    cfg.n_nodes = cli.extra_u64("--nodes", 3) as usize;

    // Fleet mode: integrity gate only — break costs live in the
    // in-process shrink channel, so the cost-margin verdict stays
    // single-process (see the module docs).
    if let Some(code) = fleet(
        &cli,
        "attack-surface",
        &build_attack_jobs(&cfg),
        AttackOracle::new,
        execute_attack_search_job,
        |_| None,
    ) {
        std::process::exit(code);
    }

    let opts = cli.campaign_options();
    let report = match &cli.out {
        Some(path) => {
            let manifest = Manifest::for_jobs("attack-surface", cli.seed, &build_attack_jobs(&cfg));
            let mut sink = open_sink(path, &manifest);
            run_attack_search(&cfg, &opts, Some(&mut sink))
        }
        None => run_attack_search(&cfg, &opts, None),
    }
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(exit_code::IO);
    });

    print_table(&cfg, &report);

    if let Some(dir) = cli.extra("--corpus") {
        let written = write_attack_corpus(Path::new(dir), &report.entries).unwrap_or_else(|e| {
            eprintln!("error: writing attack corpus to {dir}: {e}");
            std::process::exit(exit_code::IO);
        });
        println!("archived {} certificates under {dir}/", written.len());
    }

    // The reproduction claim under attack: MajorCAN's voting window must
    // raise the Agreement break cost strictly above standard CAN's. Only
    // meaningful when CAN itself was searched for the baseline.
    if !cfg.targets.contains(&ProtocolSpec::StandardCan) {
        return;
    }
    let can_floor = min_agreement_cost(&report, ProtocolSpec::StandardCan);
    let mut regression = false;
    for &target in &cfg.targets {
        let ProtocolSpec::MajorCan { .. } = target else {
            continue;
        };
        let Some(major_cost) = min_agreement_cost(&report, target) else {
            continue; // no Agreement break found — the strongest outcome
        };
        match can_floor {
            Some(floor) if major_cost > floor => {
                println!(
                    "{target}: cheapest agreement break costs {major_cost} > CAN's {floor} — margin holds"
                );
            }
            Some(floor) => {
                eprintln!(
                    "ATTACK-SURFACE REGRESSION: {target} breaks at cost {major_cost} <= CAN's {floor}"
                );
                regression = true;
            }
            None => {
                eprintln!(
                    "ATTACK-SURFACE REGRESSION: {target} breaks (cost {major_cost}) while CAN did not break at all"
                );
                regression = true;
            }
        }
    }
    if regression {
        std::process::exit(exit_code::FINDING);
    }
}
