//! End-to-end falsifier run: a fixed-seed search must rediscover the
//! paper's inconsistency scenarios against CAN and MinorCAN, find nothing
//! against MajorCAN_5, and produce bit-identical results for any worker
//! count.

use majorcan_campaign::{CampaignOptions, ProtocolSpec};
use majorcan_falsify::{run_search, SearchConfig, SearchReport};

/// The fixed campaign of this test: 120 schedules per protagonist at the
/// falsifier's default seed — empirically enough to rediscover dozens of
/// CAN violations and a handful of MinorCAN ones.
fn fixed_search(workers: usize) -> SearchReport {
    let cfg = SearchConfig::new(0xFA15, 120);
    run_search(&cfg, &CampaignOptions::quiet(workers), None).unwrap()
}

#[test]
fn fixed_seed_rediscovers_counterexamples_and_majorcan_survives() {
    let report = fixed_search(3);

    assert_eq!(report.explored_for(ProtocolSpec::StandardCan), 120);
    assert_eq!(report.explored_for(ProtocolSpec::MinorCan), 120);
    assert_eq!(report.explored_for(ProtocolSpec::MajorCan { m: 5 }), 120);

    assert!(
        report.findings_for(ProtocolSpec::StandardCan) >= 1,
        "the search must rediscover a CAN inconsistency: {:?}",
        report.totals.counters
    );
    assert!(
        report.findings_for(ProtocolSpec::MinorCan) >= 1,
        "the search must rediscover a MinorCAN inconsistency: {:?}",
        report.totals.counters
    );
    assert_eq!(
        report.findings_for(ProtocolSpec::MajorCan { m: 5 }),
        0,
        "an adversarial schedule broke MajorCAN_5: {:?}",
        report
            .findings
            .iter()
            .filter(|f| matches!(f.target, ProtocolSpec::MajorCan { .. }))
            .map(|f| f.schedule.to_string())
            .collect::<Vec<_>>()
    );

    // The shrunk archive holds entries for both broken protocols, and each
    // entry replays to its recorded verdict.
    let archived = |p: ProtocolSpec| report.entries.iter().filter(|e| e.protocol == p).count();
    assert!(archived(ProtocolSpec::StandardCan) >= 1);
    assert!(archived(ProtocolSpec::MinorCan) >= 1);
    for entry in &report.entries {
        assert_eq!(
            entry.replay().token(),
            entry.expected,
            "shrunk entry must replay: {}",
            entry.schedule
        );
    }
}

#[test]
fn results_are_identical_for_any_worker_count() {
    let a = fixed_search(1);
    let b = fixed_search(3);
    assert_eq!(a.totals.counters, b.totals.counters);
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.entries, b.entries);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.shrink_evaluations, b.shrink_evaluations);
    assert_eq!(a.shrink_runs, b.shrink_runs);
    assert!(
        a.shrink_runs < a.shrink_evaluations,
        "the verdict memo saved no run: {} of {}",
        a.shrink_runs,
        a.shrink_evaluations
    );
}
