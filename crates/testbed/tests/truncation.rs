//! Regression tests for the quiescence-vs-budget-exhaustion distinction.
//!
//! A budget-exhausted run and a genuinely quiescent run used to fall out
//! of a batch engine identically, so a budget landing after the frame's
//! delivery but before the bus drained (e.g. mid-intermission) classified
//! as a confident `Consistent` — and a shortcut classifying every
//! untripped schedule from one shared run stamped that verdict onto all
//! of them. These tests pin the fix: a run whose budget elapses while the
//! bus is still active is [`Outcome::Truncated`], on the scalar, batch
//! and attack paths alike.

use majorcan_can::Field;
use majorcan_faults::Disturbance;
use majorcan_testbed::{budget_for, Outcome, ProtocolSpec, Testbed};

const LINK_PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// The largest budget at which the fault-free run still classifies
/// `Truncated` — one bit inside the bus wind-down, where every delivery
/// has happened but the cluster has not drained yet. Before the fix this
/// window classified `Consistent`.
fn last_truncated_budget(protocol: ProtocolSpec) -> u64 {
    let mut tb = Testbed::builder(protocol).nodes(3).build();
    for budget in 1..=budget_for(protocol) {
        tb.set_budget(budget);
        if tb.run_schedule(&[]) == Outcome::Consistent {
            // The first budget that classifies clean is the drain bit;
            // one bit earlier every delivery has happened but the bus is
            // still winding down.
            tb.set_budget(budget - 1);
            assert_eq!(
                tb.run_schedule(&[]),
                Outcome::Truncated { unfired: 0 },
                "{protocol}: the last pre-drain bit must classify truncated"
            );
            return budget - 1;
        }
    }
    panic!("{protocol}: the fault-free run never classifies consistent")
}

#[test]
fn scalar_budget_landing_mid_wind_down_truncates() {
    for protocol in LINK_PROTOCOLS {
        // `last_truncated_budget` itself asserts the window exists; pin
        // the boundary semantics around it too.
        let cut = last_truncated_budget(protocol);
        let mut tb = Testbed::builder(protocol).nodes(3).budget(cut + 1).build();
        assert_eq!(
            tb.run_schedule(&[]),
            Outcome::Consistent,
            "{protocol}: one bit past the wind-down the run is complete"
        );
        // A budget landing mid-frame is also budget-cut; the partial
        // trace grades as a missing delivery, and truncation must not
        // upgrade it to a clean verdict either.
        tb.set_budget(40);
        let mid_frame = tb.run_schedule(&[]);
        assert!(
            mid_frame.token() == "truncated" || mid_frame.is_finding(),
            "{protocol}: mid-frame cut classified clean: {mid_frame:?}"
        );
    }
}

/// A budget cut must reach every schedule of a batch, whichever way the
/// schedule finishes. No entry below ever fires on the fault-free run,
/// and the group mixes both exits: schedules carrying the shared CRC
/// entry (its third occurrence) peel where the transmitter enters its
/// CRC field and replay on the scalar path, while the error-flag-only
/// schedules never peel and are classified straight from the fault-free
/// trunk — the shortcut that once stamped the trunk's clean verdict on
/// every member even when the budget cut it. With the budget inside the
/// wind-down window every member must come back `Truncated`, exactly
/// like the scalar path.
#[test]
fn lanes_report_truncation_for_every_member_of_a_budget_cut_group() {
    for protocol in LINK_PROTOCOLS {
        let mut prefix = Disturbance::first(0, Field::Crc, 0);
        prefix.occurrence = 3;
        let schedules: Vec<Vec<Disturbance>> = vec![
            vec![prefix.clone(), Disturbance::first(1, Field::ErrorFlag, 0)],
            vec![prefix.clone(), Disturbance::first(2, Field::ErrorFlag, 3)],
            vec![prefix, Disturbance::first(1, Field::ErrorFlag, 5)],
            vec![
                Disturbance::first(1, Field::ErrorFlag, 0),
                Disturbance::first(2, Field::ErrorFlag, 3),
            ],
            vec![
                Disturbance::first(0, Field::ErrorFlag, 1),
                Disturbance::first(2, Field::ErrorFlag, 5),
            ],
        ];
        let refs: Vec<&[Disturbance]> = schedules.iter().map(Vec::as_slice).collect();

        let cut = last_truncated_budget(protocol);
        let mut tb = Testbed::builder(protocol).nodes(3).budget(cut).build();
        let scalar: Vec<Outcome> = schedules.iter().map(|s| tb.run_schedule(s)).collect();
        let laned = tb.run_lanes(&refs);

        assert_eq!(laned, scalar, "{protocol}: laned diverges from scalar");
        for (i, outcome) in laned.iter().enumerate() {
            assert_eq!(
                outcome,
                &Outcome::Truncated { unfired: 2 },
                "{protocol}: member {i} of a budget-cut group classified {outcome:?}"
            );
        }
    }
}

/// Truncation never hides an observed violation: demotion applies only
/// to clean classifications, so a verdict found on the executed prefix
/// survives even if the budget then cuts the run.
#[test]
fn truncation_does_not_demote_violations() {
    use majorcan_abcast::Verdict;
    assert_eq!(
        Outcome::Violation(Verdict::Omission).truncate_if(true),
        Outcome::Violation(Verdict::Omission)
    );
    assert_eq!(
        Outcome::Vacuous { unfired: 2 }.truncate_if(true),
        Outcome::Truncated { unfired: 2 }
    );
}

/// An attack run takes the same grade as a scripted one. Eight CRC
/// delimiter strikes against MajorCAN_3's transmitter keep it
/// retransmitting; a 625-bit budget cuts the run after the fault-free
/// prefix it has seen so far grades consistent, but while the bus is
/// still busy. That prefix certifies nothing, so `run_attack` and a
/// re-grade through `Testbed::outcome` must both say `truncated`.
#[test]
fn attack_run_cut_on_a_busy_bus_truncates() {
    use majorcan_faults::Strategy;
    let actions = Strategy::BusOffAttack { victim: 0, reps: 8 }.actions();
    let mut tb = Testbed::builder(ProtocolSpec::MajorCan { m: 3 })
        .nodes(3)
        .budget(625)
        .shutoff_at_warning(false)
        .build();
    let outcome = tb.run_attack(&actions, 8);
    assert!(!tb.is_drained(), "the budget must cut a busy bus");
    assert_eq!(outcome, Outcome::Truncated { unfired: 0 });
    assert_eq!(tb.outcome(), outcome);
}
