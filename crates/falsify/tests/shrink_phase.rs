//! The shrink phase's verdict memo and worker pool must be invisible.
//!
//! Each search is compared with a sequential reference that admits and
//! archives its findings the plain way — one after another, each shrunk on
//! its own fresh oracle, so no judgement is ever answered by a memo. The
//! archive, the drop count and the judgement count must match exactly at
//! 1, 2 and 4 workers; only the simulator-run count may fall.

use majorcan_campaign::{CampaignOptions, ProtocolSpec};
use majorcan_falsify::{
    budget_for, run_attack_search, run_search, shrink_attack_with, shrink_with, AttackCorpusEntry,
    AttackOracle, AttackProvenance, AttackSearchConfig, AttackSearchReport, CorpusEntry, Oracle,
    Provenance, SearchConfig, SearchReport,
};
use std::collections::{BTreeMap, BTreeSet};

/// What the reference produces: archive, drops, judgements, runs.
type Reference<E> = (Vec<E>, usize, usize, usize);

/// Asserts `findings` is in `(job id, trial)` order with no schedule
/// repeated against one target — the admission the reference relies on.
fn assert_admission_order(coords: &[(String, u64, u64, String)]) {
    let mut seen = BTreeSet::new();
    for pair in coords.windows(2) {
        assert!((pair[0].1, pair[0].2) < (pair[1].1, pair[1].2), "{pair:?}");
    }
    for (target, _, _, key) in coords {
        assert!(seen.insert((target, key)), "{target} {key} repeated");
    }
}

fn reference_search(cfg: &SearchConfig, report: &SearchReport) -> Reference<CorpusEntry> {
    let coords: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.target.to_string(), f.job_id, f.trial, f.schedule.key()))
        .collect();
    assert_admission_order(&coords);
    let shrink_cap = cfg.keep_per_class * 4;
    let mut queued: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut archived: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut archived_seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    let (mut entries, mut dropped, mut evaluations, mut runs) = (Vec::new(), 0, 0, 0);
    for finding in &report.findings {
        let class = (
            finding.target.to_string(),
            finding.outcome.token().to_string(),
        );
        let in_queue = queued.entry(class.clone()).or_insert(0);
        if *in_queue >= shrink_cap {
            dropped += 1;
            continue;
        }
        *in_queue += 1;
        let budget = budget_for(finding.target);
        let shrunk = shrink_with(
            &mut Oracle::new(),
            finding.target,
            &finding.schedule,
            cfg.n_nodes,
            budget,
        );
        evaluations += shrunk.evaluations;
        runs += shrunk.runs;
        if !archived_seen.insert((class.0.clone(), class.1.clone(), shrunk.schedule.key())) {
            continue;
        }
        let kept = archived.entry(class).or_insert(0);
        if *kept >= cfg.keep_per_class {
            dropped += 1;
            continue;
        }
        *kept += 1;
        entries.push(CorpusEntry {
            protocol: finding.target,
            n_nodes: cfg.n_nodes,
            budget,
            expected: finding.outcome.token().to_string(),
            schedule: shrunk.schedule,
            provenance: Provenance {
                campaign_seed: cfg.campaign_seed,
                job_id: finding.job_id,
                trial: finding.trial,
            },
        });
    }
    (entries, dropped, evaluations, runs)
}

fn reference_attack(
    cfg: &AttackSearchConfig,
    report: &AttackSearchReport,
) -> Reference<AttackCorpusEntry> {
    let coords: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.target.to_string(), f.job_id, f.trial, f.schedule.key()))
        .collect();
    assert_admission_order(&coords);
    let shrink_cap = cfg.keep_per_class * 4;
    let mut queued: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut shrunk_seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut candidates = Vec::new();
    let (mut dropped, mut evaluations, mut runs) = (0, 0, 0);
    for finding in &report.findings {
        let class = (
            finding.target.to_string(),
            finding.outcome.token().to_string(),
        );
        let in_queue = queued.entry(class.clone()).or_insert(0);
        if *in_queue >= shrink_cap {
            dropped += 1;
            continue;
        }
        *in_queue += 1;
        let shrunk = shrink_attack_with(
            &mut AttackOracle::new(),
            finding.target,
            &finding.schedule,
            cfg.n_nodes,
        );
        evaluations += shrunk.evaluations;
        runs += shrunk.runs;
        if !shrunk_seen.insert((class.0, class.1, shrunk.schedule.key())) {
            continue;
        }
        candidates.push(AttackCorpusEntry {
            protocol: finding.target,
            n_nodes: cfg.n_nodes,
            expected: shrunk.outcome.token().to_string(),
            provenance: AttackProvenance {
                campaign_seed: cfg.campaign_seed,
                job_id: finding.job_id,
                trial: finding.trial,
                strategy: shrunk.schedule.strategy_name().to_string(),
                cost: shrunk.schedule.cost(),
            },
            schedule: shrunk.schedule,
        });
    }
    candidates.sort_by_key(|e| {
        (
            e.protocol.to_string(),
            e.expected.clone(),
            e.provenance.cost,
            e.schedule.key(),
        )
    });
    let mut kept_per_class: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut entries = Vec::new();
    for entry in candidates {
        let kept = kept_per_class
            .entry((entry.protocol.to_string(), entry.expected.clone()))
            .or_insert(0);
        if *kept >= cfg.keep_per_class {
            dropped += 1;
            continue;
        }
        *kept += 1;
        entries.push(entry);
    }
    (entries, dropped, evaluations, runs)
}

#[test]
fn search_shrink_phase_matches_the_sequential_reference() {
    let mut cfg = SearchConfig::new(0xFA15, 200);
    // TOTCAN carries an HLP budget into the memo key.
    cfg.targets = vec![
        ProtocolSpec::StandardCan,
        ProtocolSpec::MinorCan,
        ProtocolSpec::TotCan,
    ];
    let mut reference = None;
    for workers in [1, 2, 4] {
        let report = run_search(&cfg, &CampaignOptions::quiet(workers), None).unwrap();
        let (entries, dropped, evaluations, runs) =
            reference.get_or_insert_with(|| reference_search(&cfg, &report));
        for target in &cfg.targets {
            assert!(
                report.entries.iter().any(|e| e.protocol == *target),
                "{target} archived nothing: the comparison would not cover it"
            );
        }
        assert_eq!(&report.entries, entries, "{workers} workers");
        assert_eq!(report.dropped, *dropped, "{workers} workers");
        assert_eq!(report.shrink_evaluations, *evaluations, "{workers} workers");
        assert!(
            report.shrink_runs < *runs,
            "the memo saved no run: {} of {runs}",
            report.shrink_runs
        );
    }
}

#[test]
fn attack_shrink_phase_matches_the_sequential_reference() {
    let mut cfg = AttackSearchConfig::new(0x00DE_7E12, 60);
    cfg.targets = vec![ProtocolSpec::StandardCan, ProtocolSpec::MajorCan { m: 5 }];
    let mut reference = None;
    for workers in [1, 2, 4] {
        let report = run_attack_search(&cfg, &CampaignOptions::quiet(workers), None).unwrap();
        let (entries, dropped, evaluations, runs) =
            reference.get_or_insert_with(|| reference_attack(&cfg, &report));
        for target in &cfg.targets {
            assert!(
                report.entries.iter().any(|e| e.protocol == *target),
                "{target} archived nothing: the comparison would not cover it"
            );
        }
        assert_eq!(&report.entries, entries, "{workers} workers");
        assert_eq!(report.dropped, *dropped, "{workers} workers");
        assert_eq!(report.shrink_evaluations, *evaluations, "{workers} workers");
        assert!(
            report.shrink_runs < *runs,
            "the memo saved no run: {} of {runs}",
            report.shrink_runs
        );
    }
}
