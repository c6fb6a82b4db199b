//! Cross-crate integration: every catalogued paper scenario × every
//! protocol variant, graded by the Atomic Broadcast checker — the
//! repository's single-table summary of the paper's claims.

use majorcan::abcast::{trace_from_can_events, Report};
use majorcan::can::{StandardCan, Variant};
use majorcan::faults::Scenario;
use majorcan::protocols::{MajorCan, MinorCan};
use majorcan::testbed::{spec_of, Testbed};

fn grade<V: Variant>(variant: &V, scenario: &Scenario) -> Report {
    let run = Testbed::builder(spec_of(variant))
        .nodes(scenario.n_nodes)
        .budget(1_500)
        .build()
        .run_scenario(scenario);
    assert!(
        run.fully_applied(),
        "{} under {}: the disturbance script must fire",
        scenario.name,
        variant.name()
    );
    trace_from_can_events(&run.events, run.n_nodes).check()
}

#[test]
fn fig1a_consistent_under_all_variants() {
    for report in [
        grade(&StandardCan, &Scenario::fig1a()),
        grade(&MinorCan, &Scenario::fig1a()),
        grade(&MajorCan::proposed(), &Scenario::fig1a()),
    ] {
        assert!(report.atomic_broadcast(), "{report}");
    }
}

#[test]
fn fig1b_breaks_only_standard_can() {
    let can = grade(&StandardCan, &Scenario::fig1b());
    assert!(!can.at_most_once.holds, "double reception on CAN");
    assert!(can.agreement.holds);

    assert!(grade(&MinorCan, &Scenario::fig1b()).atomic_broadcast());
    assert!(grade(&MajorCan::proposed(), &Scenario::fig1b()).atomic_broadcast());
}

#[test]
fn fig1c_omission_only_on_standard_can() {
    let can = grade(&StandardCan, &Scenario::fig1c());
    assert!(!can.agreement.holds, "IMO on CAN under tx crash");
    assert_eq!(can.imo_messages.len(), 1);

    // MinorCAN: consistent non-delivery (nobody accepted the first copy).
    let minor = grade(&MinorCan, &Scenario::fig1c());
    assert!(minor.agreement.holds, "{minor}");

    // MajorCAN: the single disturbance lands in the second sub-field, the
    // frame is accepted everywhere before any retransmission is needed, so
    // the crash never happens.
    let major = grade(&MajorCan::proposed(), &Scenario::fig1c());
    assert!(major.atomic_broadcast(), "{major}");
}

#[test]
fn fig3a_defeats_can_and_minorcan_but_not_majorcan() {
    let can = grade(&StandardCan, &Scenario::fig3a());
    assert!(!can.agreement.holds, "CAN2' reproduced");

    let minor = grade(&MinorCan, &Scenario::fig3a());
    assert!(!minor.agreement.holds, "Fig. 3b reproduced");

    let major = grade(&MajorCan::proposed(), &Scenario::fig3a());
    assert!(major.atomic_broadcast(), "{major}");
}

#[test]
fn fig5_is_majorcans_showcase() {
    let major = grade(&MajorCan::proposed(), &Scenario::fig5());
    assert!(major.atomic_broadcast(), "{major}");
    assert!(major.imo_messages.is_empty());
    assert!(major.double_deliveries.is_empty());
}

#[test]
fn scenarios_scale_to_wider_buses() {
    // Same verdicts with six nodes (one X, four Y members).
    let can = grade(&StandardCan, &Scenario::fig3a().with_nodes(6));
    assert!(!can.agreement.holds);
    let major = grade(&MajorCan::proposed(), &Scenario::fig3a().with_nodes(6));
    assert!(major.atomic_broadcast(), "{major}");
}

#[test]
fn majorcan_m_parameter_sweeps_cleanly() {
    // The protocol is parametrisable in m "to make the upgrade simpler" —
    // each geometry must pass its own Fig. 3a analogue.
    for m in [3usize, 4, 5, 6, 8] {
        let v = MajorCan::new(m).expect("valid m");
        let report = grade(&v, &Scenario::fig1b());
        assert!(report.atomic_broadcast(), "m={m}: {report}");
    }
}
