//! Regression tests for the quiescence-vs-budget-exhaustion distinction.
//!
//! A budget-exhausted run and a genuinely quiescent run used to fall out
//! of a batch engine identically, so a budget landing after the frame's
//! delivery but before the bus drained (e.g. mid-intermission) classified
//! as a confident `Consistent` — and a shortcut classifying every
//! untripped schedule from one shared run stamped that verdict onto all
//! of them. These tests pin the fix: a run whose budget elapses while the
//! bus is still active is [`Outcome::Truncated`], on the scalar, batch
//! and attack paths alike, and on all six stacks: a higher-level-protocol
//! bus is still active while a CONFIRM or ACCEPT round, or the timeout
//! that stands in for one, is pending.

use majorcan_can::{CanEvent, Field};
use majorcan_faults::Disturbance;
use majorcan_hlp::HlpEvent;
use majorcan_sim::NodeId;
use majorcan_testbed::{budget_for, Outcome, ProtocolSpec, Testbed, HLP_PROBE_PAYLOAD};

const PROTOCOLS: [ProtocolSpec; 6] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
    ProtocolSpec::EdCan,
    ProtocolSpec::RelCan,
    ProtocolSpec::TotCan,
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
    for protocol in PROTOCOLS {
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
/// and the group takes every exit a schedule that never fires can take:
/// schedules carrying the shared CRC entry (its fourth occurrence; node
/// 0 sees at most three CRC fields, EDCAN's DATA frame and its two
/// duplicates) are matched on the trunk bit by bit from the transmitter's
/// first CRC bit, the error-flag-only schedules never show a position of
/// theirs, and the schedule with a `Crashed` entry runs scalar whole.
/// The trunk grades the first two kinds straight from itself — the
/// shortcut that once stamped the trunk's clean verdict on every member
/// even when the budget cut it. With the budget inside the wind-down
/// window every member must come back `Truncated`, exactly like the
/// scalar path.
#[test]
fn lanes_report_truncation_for_every_member_of_a_budget_cut_group() {
    for protocol in PROTOCOLS {
        let mut prefix = Disturbance::first(0, Field::Crc, 0);
        prefix.occurrence = 4;
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
            vec![
                Disturbance::first(1, Field::Crashed, 0),
                Disturbance::first(2, Field::ErrorFlag, 3),
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

/// A scripted run takes the same grade: `ScenarioRun::outcome` demotes a
/// clean verdict when the budget cut the run before the bus drained. At
/// budgets 1–10 the CAN bus is still integrating and nothing has been
/// sent; at the last pre-drain bit every delivery has happened; one bit
/// later the run is complete.
#[test]
fn scripted_run_cut_before_the_bus_drains_truncates() {
    let protocol = ProtocolSpec::StandardCan;
    let cut = last_truncated_budget(protocol);
    let mut tb = Testbed::builder(protocol).nodes(3).build();
    for budget in (1..=10).chain([cut, cut + 1]) {
        tb.set_budget(budget);
        let scripted = tb.run_script(&[]).outcome();
        assert_eq!(scripted, tb.run_schedule(&[]), "budget {budget}");
        let complete = budget > cut;
        assert_eq!(
            scripted,
            Outcome::Consistent.truncate_if(!complete),
            "budget {budget}"
        );
    }
}

/// The drain test reads the nodes' own quiescence promises, so it holds
/// on a higher-level-protocol cluster too, layer timers included. The
/// transmitter crashes right after its DATA frame succeeds: the bus falls
/// silent while each receiver waits out its CONFIRM (RELCAN) or ACCEPT
/// (TOTCAN) timeout. The cluster is not drained during that wait, and a
/// budget ending in it grades `truncated`, because the timeout still has
/// to act; once the timeout's reaction has run, the cluster is drained.
#[test]
fn a_pending_layer_timer_keeps_an_hlp_bus_undrained() {
    for protocol in [ProtocolSpec::RelCan, ProtocolSpec::TotCan] {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        let budget = tb.budget();
        let run_probe = |tb: &mut Testbed, fail_at: Option<u64>, bits: u64| {
            tb.load_script(&[]);
            tb.set_fail_at(0, fail_at);
            tb.broadcast(0, HLP_PROBE_PAYLOAD);
            tb.run(bits);
        };
        run_probe(&mut tb, None, budget);
        assert!(tb.is_drained(), "{protocol}: the clean run drains");
        let data_sent = tb
            .hlp_events()
            .iter()
            .find(|e| matches!(e.event, HlpEvent::Link(CanEvent::TxSucceeded { .. })))
            .expect("the DATA frame went out")
            .at;

        run_probe(&mut tb, Some(data_sent + 1), budget);
        assert!(tb.is_drained(), "{protocol}: the timeout's recovery drains");
        let timeout = tb
            .hlp_events()
            .iter()
            .find(|e| {
                e.node != NodeId(0)
                    && matches!(
                        e.event,
                        HlpEvent::Dropped { .. } | HlpEvent::Link(CanEvent::TxStarted { .. })
                    )
            })
            .expect("a receiver's timeout acts")
            .at;

        let wait = timeout - 1;
        run_probe(&mut tb, Some(data_sent + 1), wait);
        let silent_since = tb.hlp_events().last().expect("the run logged events").at;
        assert!(
            silent_since + 100 < wait,
            "{protocol}: the bus is silent from bit {silent_since} to {wait}"
        );
        assert!(
            !tb.is_drained(),
            "{protocol}: a receiver's timer is pending at bit {wait}"
        );
        tb.set_budget(wait);
        assert_eq!(
            tb.outcome(),
            Outcome::Truncated { unfired: 0 },
            "{protocol}: a budget ending inside the wait certifies nothing"
        );
    }
}
