//! Execution tests for the catalogued paper scenarios, run through the
//! testbed facade (migrated from `majorcan-faults` when execution moved
//! here).

use majorcan_campaign::ProtocolSpec;
use majorcan_can::Variant;
use majorcan_can::{CanEvent, Field, StandardCan};
use majorcan_faults::{scenario_frame, CrashRule, Disturbance, Scenario};
use majorcan_sim::NodeId;
use majorcan_testbed::{budget_for, spec_of, Outcome, ScenarioRun, Testbed, HLP_PROBE_PAYLOAD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Assembles a fresh testbed through the builder (the one assembly path)
/// and executes `scenario` on it.
fn run_scenario<V: Variant>(variant: &V, scenario: &Scenario, budget: u64) -> ScenarioRun {
    Testbed::builder(spec_of(variant))
        .nodes(scenario.n_nodes)
        .budget(budget)
        .build()
        .run_scenario(scenario)
}

/// [`run_scenario`] + [`ScenarioRun::assert_fully_applied`].
fn run_scenario_strict<V: Variant>(variant: &V, scenario: &Scenario, budget: u64) -> ScenarioRun {
    let run = run_scenario(variant, scenario, budget);
    run.assert_fully_applied();
    run
}

/// An ad-hoc disturbance script on a fresh builder-assembled testbed.
fn run_script<V: Variant>(
    variant: &V,
    disturbances: Vec<Disturbance>,
    n_nodes: usize,
    budget: u64,
) -> ScenarioRun {
    Testbed::builder(spec_of(variant))
        .nodes(n_nodes)
        .budget(budget)
        .build()
        .run_script(&disturbances)
}

/// A deterministic pool shaped like the falsifier's schedules: mostly
/// small scripts against the data, EOF and error-flag fields, with
/// fault-free runs and the paper's fig1b and fig3a scripts mixed in.
fn schedule_pool(seed: u64, count: usize) -> Vec<Vec<Disturbance>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| match i % 8 {
            0 => Vec::new(),
            1 => Scenario::fig1b().disturbances,
            2 => Scenario::fig3a().disturbances,
            _ => (0..rng.gen_range(1..=3))
                .map(|_| {
                    let node = rng.gen_range(0..3);
                    match rng.gen_range(0..3) {
                        0 => Disturbance::eof(node, rng.gen_range(1..=7)),
                        1 => Disturbance::first(node, Field::Data, rng.gen_range(0..16)),
                        _ => Disturbance::first(node, Field::ErrorFlag, rng.gen_range(0..6)),
                    }
                })
                .collect(),
        })
        .collect()
}

/// One schedule evaluated on a fresh cluster with the bit-level trace
/// on: the shape every evaluation had before the reused, untraced
/// [`Testbed::run_schedule`] hot loop.
fn rebuild_and_run(protocol: ProtocolSpec, schedule: &[Disturbance]) -> Outcome {
    let mut tb = Testbed::builder(protocol).trace(true).build();
    tb.load_script(schedule);
    if protocol.is_hlp() {
        tb.broadcast(0, HLP_PROBE_PAYLOAD);
    } else {
        tb.enqueue(0, scenario_frame());
    }
    tb.run(budget_for(protocol));
    tb.outcome()
}

#[test]
fn fig1b_run_shows_double_reception_on_standard_can() {
    let run = run_scenario(&StandardCan, &Scenario::fig1b(), 800);
    assert!(run.fully_applied(), "disturbance must have fired");
    assert_eq!(run.remaining(), 0);
    assert_eq!(run.deliveries(2).len(), 2, "Y delivers twice");
    assert_eq!(run.deliveries(1).len(), 1);
    assert!(!run.consistent_single_delivery());
    assert!(!run.trace.is_empty());
}

#[test]
fn fig1c_run_crashes_tx_and_omits_x() {
    let run = run_scenario(&StandardCan, &Scenario::fig1c(), 800);
    assert!(run.fully_applied());
    assert_eq!(run.deliveries(2).len(), 1);
    assert_eq!(run.deliveries(1).len(), 0, "X omitted");
    assert!(run
        .events
        .iter()
        .any(|e| e.node == NodeId(0) && matches!(e.event, CanEvent::Crashed)));
}

#[test]
fn fig1a_run_is_consistent() {
    let run = run_scenario(&StandardCan, &Scenario::fig1a(), 800);
    assert!(run.fully_applied());
    assert!(run.consistent_single_delivery());
    assert_eq!(run.retransmissions(0), 0);
}

#[test]
fn fig3a_run_violates_agreement_with_correct_tx() {
    let run = run_scenario(&StandardCan, &Scenario::fig3a(), 800);
    assert!(run.fully_applied());
    assert_eq!(run.tx_successes(0), 1);
    assert_eq!(run.deliveries(2).len(), 1);
    assert_eq!(run.deliveries(1).len(), 0);
    assert!(!run.consistent_single_delivery());
}

#[test]
fn wider_networks_supported() {
    let run = run_scenario(&StandardCan, &Scenario::fig1a().with_nodes(6), 900);
    assert!(run.consistent_single_delivery());
    assert_eq!(run.n_nodes, 6);
}

#[test]
fn at_bit_crash_rule_fires_at_the_given_time() {
    let mut scenario = Scenario::fig1b();
    scenario.crash = Some(CrashRule::AtBit { node: 2, at: 30 });
    let run = run_scenario(&StandardCan, &scenario, 800);
    let crash = run
        .events
        .iter()
        .find(|e| matches!(e.event, CanEvent::Crashed))
        .expect("crash fired");
    assert_eq!(crash.node, NodeId(2));
    assert_eq!(crash.at, 30);
    // Node 2 crashed mid-frame: it never delivers anything.
    assert!(run.deliveries(2).is_empty());
}

#[test]
fn run_script_matches_run_scenario_on_the_same_disturbances() {
    let scenario = Scenario::fig1b();
    let via_scenario = run_scenario(&StandardCan, &scenario, 800);
    let via_script = run_script(&StandardCan, scenario.disturbances.clone(), 3, 800);
    assert_eq!(via_script.events, via_scenario.events);
    assert!(via_script.fully_applied());
}

#[test]
fn unfired_disturbances_are_reported_not_swallowed() {
    // A MajorCAN-only position run under standard CAN never fires:
    // the run must say so instead of passing vacuously.
    let ghost = Disturbance::first(1, Field::AgreementHold, 13);
    let run = run_script(&StandardCan, vec![ghost.clone()], 3, 800);
    assert!(!run.fully_applied());
    assert_eq!(run.remaining(), 1);
    assert_eq!(run.unfired, vec![ghost]);
    // The broadcast itself still completed cleanly.
    assert!(run.consistent_single_delivery());
    assert_eq!(run.outcome(), Outcome::Vacuous { unfired: 1 });
}

#[test]
fn strict_runner_accepts_fully_applied_scripts() {
    let run = run_scenario_strict(&StandardCan, &Scenario::fig1b(), 800);
    assert!(run.fully_applied());
}

#[test]
#[should_panic(expected = "did not fully apply")]
fn strict_runner_rejects_scripts_that_missed() {
    let mut scenario = Scenario::fig1b();
    // EOF bit 20 does not exist in a 7-bit EOF.
    scenario.disturbances = vec![Disturbance::eof(1, 20)];
    run_scenario_strict(&StandardCan, &scenario, 800);
}

#[test]
fn after_resched_rule_is_a_no_op_when_nothing_is_rescheduled() {
    let mut scenario = Scenario::fig1a(); // no retransmission occurs
    scenario.crash = Some(CrashRule::AfterRetransmissionScheduled { node: 0 });
    let run = run_scenario(&StandardCan, &scenario, 800);
    assert!(
        !run.events
            .iter()
            .any(|e| matches!(e.event, CanEvent::Crashed)),
        "no retransmission, no crash"
    );
    assert!(run.consistent_single_delivery());
}

#[test]
fn reused_testbed_replays_a_scenario_identically_to_a_fresh_one() {
    let mut reused = Testbed::builder(ProtocolSpec::StandardCan)
        .budget(800)
        .build();
    // Warm the testbed on unrelated scenarios, then replay fig1b.
    reused.run_scenario(&Scenario::fig1a());
    reused.run_scenario(&Scenario::fig3a());
    let warm = reused.run_scenario(&Scenario::fig1b());
    let fresh = run_scenario(&StandardCan, &Scenario::fig1b(), 800);
    assert_eq!(warm.events, fresh.events);
    assert_eq!(warm.trace.len(), fresh.trace.len());
    assert_eq!(warm.unfired, fresh.unfired);

    // The campaign hot loop: one reused, untraced testbed classifies a
    // whole schedule pool like a fresh traced build, on a link variant,
    // the paper's protocol and a higher-level protocol.
    let pool = schedule_pool(0xBEEF, 12);
    for protocol in [
        ProtocolSpec::StandardCan,
        ProtocolSpec::MajorCan { m: 5 },
        ProtocolSpec::TotCan,
    ] {
        let mut reused = Testbed::builder(protocol).build();
        for schedule in &pool {
            assert_eq!(
                reused.run_schedule(schedule),
                rebuild_and_run(protocol, schedule),
                "{protocol}: {schedule:?}"
            );
        }
    }
}

#[test]
fn run_schedule_classifies_like_the_scenario_path() {
    let mut tb = Testbed::builder(ProtocolSpec::StandardCan).build();
    assert_eq!(
        tb.run_schedule(&Scenario::fig1b().disturbances),
        tb.run_script(&Scenario::fig1b().disturbances).outcome()
    );
    assert_eq!(tb.run_schedule(&[]), Outcome::Consistent);
}

#[test]
#[should_panic(expected = "needs a link-layer cluster")]
fn link_operations_panic_on_hlp_testbeds() {
    let mut tb = Testbed::builder(ProtocolSpec::EdCan).build();
    tb.enqueue(0, majorcan_faults::scenario_frame());
}

#[test]
#[should_panic(expected = "invalid MajorCAN tolerance")]
fn invalid_majorcan_tolerance_panics_at_build() {
    Testbed::builder(ProtocolSpec::MajorCan { m: 2 }).build();
}
