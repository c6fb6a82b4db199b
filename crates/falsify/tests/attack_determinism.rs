//! Determinism and exit-code contract of the attack search.
//!
//! The cost-to-break table in EXPERIMENTS.md §E18 is only evidence if it
//! is reproducible: the attack campaign must explore the identical
//! schedule space and archive identical cheapest-attack certificates for
//! any `--jobs` worker count, and the spawned bins must honour the
//! repo-wide exit contract (0 clean, 3 on a MajorCAN break).

use majorcan_bench::cli::exit_code;
use majorcan_campaign::{CampaignOptions, ProtocolSpec};
use majorcan_can::Field;
use majorcan_falsify::{
    run_attack_search, write_attack_corpus, AttackCorpusEntry, AttackProvenance, AttackSchedule,
    AttackSearchConfig,
};
use majorcan_faults::AttackAction;
use std::process::Command;

fn small_config() -> AttackSearchConfig {
    let mut cfg = AttackSearchConfig::new(0x00DE_7E12, 60);
    cfg.targets = vec![ProtocolSpec::StandardCan, ProtocolSpec::MajorCan { m: 5 }];
    cfg
}

#[test]
fn attack_search_is_bit_identical_across_worker_counts() {
    let cfg = small_config();
    let one = run_attack_search(&cfg, &CampaignOptions::quiet(1), None).unwrap();
    let four = run_attack_search(&cfg, &CampaignOptions::quiet(4), None).unwrap();
    assert_eq!(
        one.totals.counters, four.totals.counters,
        "outcome counters must not depend on the worker count"
    );
    assert_eq!(one.findings, four.findings, "findings order is canonical");
    assert_eq!(one.dropped, four.dropped);
    assert_eq!(one.shrink_evaluations, four.shrink_evaluations);
    assert_eq!(one.shrink_runs, four.shrink_runs);
    assert!(
        one.shrink_runs < one.shrink_evaluations,
        "the verdict memo saved no run: {} of {}",
        one.shrink_runs,
        one.shrink_evaluations
    );
    let render = |r: &majorcan_falsify::AttackSearchReport| -> Vec<String> {
        r.entries.iter().map(|e| e.to_json().to_string()).collect()
    };
    assert_eq!(
        render(&one),
        render(&four),
        "archived certificates are bit-identical"
    );
    assert!(
        !one.entries.is_empty(),
        "the small campaign still finds and archives CAN breaks"
    );
}

#[test]
fn attack_surface_bin_is_deterministic_and_honours_the_cost_gate() {
    let run = |jobs: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_attack_surface"))
            .args([
                "60",
                "--seed",
                "77",
                "--targets",
                "CAN,MajorCAN_5",
                "--jobs",
                jobs,
                "--quiet",
            ])
            .output()
            .expect("spawning attack_surface");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    let (code1, stdout1, stderr1) = run("1");
    let (code2, stdout2, stderr2) = run("2");
    assert_eq!(
        stdout1, stdout2,
        "one worker vs two: tables must be bit-identical"
    );
    assert_eq!(code1, code2);
    assert_eq!(
        code1,
        Some(exit_code::CONSISTENT),
        "MajorCAN must out-price CAN\nstdout:\n{stdout1}\nstderr:\n{stderr1}\n{stderr2}"
    );
    assert!(
        stdout1.contains("CAN") && stdout1.contains("cheapest agreement break"),
        "cost-to-break table missing:\n{stdout1}"
    );
}

/// A certificate breaking CAN is historical record, not a regression:
/// probing it exits 0.
#[test]
fn attack_probe_of_a_can_break_exits_zero() {
    let entry = AttackCorpusEntry {
        protocol: ProtocolSpec::StandardCan,
        n_nodes: 3,
        expected: "double".to_string(),
        schedule: AttackSchedule::new(vec![AttackAction::Pulse {
            node: 1,
            field: Field::Eof,
            index: 5,
            occurrence: 1,
        }]),
        provenance: AttackProvenance {
            campaign_seed: 0,
            job_id: 0,
            trial: 0,
            strategy: "pulse".to_string(),
            cost: 1,
        },
    };
    let dir = std::env::temp_dir().join(format!("majorcan-attack-probe0-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written = write_attack_corpus(&dir, &[entry]).expect("writing probe entry");
    let out = Command::new(env!("CARGO_BIN_EXE_falsify"))
        .args(["0", "--targets", "CAN", "--jobs", "1", "--quiet", "--probe"])
        .arg(&written[0])
        .output()
        .expect("spawning falsify");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(exit_code::CONSISTENT),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("attack double on CAN"),
        "attack probe verdict missing:\n{stdout}"
    );
}

/// A certificate breaking a MajorCAN target trips the same exit-3 gate
/// as a live search finding.
#[test]
fn attack_probe_of_a_majorcan_break_exits_three() {
    let entry = AttackCorpusEntry {
        protocol: ProtocolSpec::MajorCan { m: 5 },
        n_nodes: 3,
        expected: "busoff".to_string(),
        schedule: AttackSchedule::new(vec![AttackAction::Hammer {
            node: 0,
            field: Field::CrcDelim,
            index: 0,
            reps: 32,
        }]),
        provenance: AttackProvenance {
            campaign_seed: 0,
            job_id: 0,
            trial: 0,
            strategy: "busoff".to_string(),
            cost: 32,
        },
    };
    let dir = std::env::temp_dir().join(format!("majorcan-attack-probe3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written = write_attack_corpus(&dir, &[entry]).expect("writing probe entry");
    let out = Command::new(env!("CARGO_BIN_EXE_falsify"))
        .args(["0", "--targets", "CAN", "--jobs", "1", "--quiet", "--probe"])
        .arg(&written[0])
        .output()
        .expect("spawning falsify");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(exit_code::FINDING),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("attack busoff on MajorCAN_5"), "{stdout}");
    assert!(stderr.contains("FALSIFIED"), "{stderr}");
}
