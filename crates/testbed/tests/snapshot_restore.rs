//! Snapshot/restore round trips: a [`Testbed::snapshot`] → mutate →
//! [`Testbed::restore`] cycle must resume bit-identically to a fresh
//! replay — across every protocol variant and with the attacker channel
//! attached. `Testbed::run_lanes` peels schedules off its fault-free
//! trunk with the simulator-level capture underneath, so these round
//! trips are the ground the peel stands on.

use majorcan_campaign::ProtocolSpec;
use majorcan_can::Field;
use majorcan_faults::{AttackAction, Disturbance};
use majorcan_testbed::{budget_for, Testbed};
use proptest::prelude::*;

const ALL_PROTOCOLS: [ProtocolSpec; 6] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
    ProtocolSpec::EdCan,
    ProtocolSpec::RelCan,
    ProtocolSpec::TotCan,
];

const LINK_PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// Every field class the falsifier's generator reaches, plus the
/// drive-phase-transition fields `Idle` and `Sof`.
const FIELDS: [Field; 12] = [
    Field::Idle,
    Field::Sof,
    Field::Id,
    Field::Data,
    Field::Crc,
    Field::CrcDelim,
    Field::AckSlot,
    Field::AckDelim,
    Field::Eof,
    Field::Intermission,
    Field::ErrorFlag,
    Field::AgreementHold,
];

fn arb_disturbance() -> impl Strategy<Value = Disturbance> {
    (0usize..3, 0usize..FIELDS.len(), 0u16..16, 0u32..20).prop_map(|(node, field, index, salt)| {
        let mut d = if salt % 7 == 0 {
            Disturbance::stuff_bit(node, FIELDS[field], index)
        } else {
            Disturbance::first(node, FIELDS[field], index)
        };
        if salt % 5 == 0 {
            d.occurrence = 2;
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // snapshot() → mutate → restore() → run is bit-identical to a fresh
    // `reset_with` replay of the same schedule, for every variant.
    #[test]
    fn snapshot_restore_resumes_bit_identically_to_a_fresh_replay(
        schedule in proptest::collection::vec(arb_disturbance(), 0..5),
        pause in 1u64..600,
    ) {
        for protocol in ALL_PROTOCOLS {
            let budget = budget_for(protocol);
            let mut tb = Testbed::builder(protocol).nodes(3).build();

            // Reference: one uninterrupted run.
            run_stimulus(&mut tb, &schedule);
            tb.run(budget);
            let ref_events = events_of(&tb);
            let ref_unfired = tb.unfired();
            let ref_outcome = tb.outcome();

            // Snapshot mid-run, wreck the state, restore, resume.
            let pause = pause.min(budget);
            run_stimulus(&mut tb, &schedule);
            tb.run(pause);
            let snap = tb.snapshot();
            prop_assert_eq!(snap.protocol(), protocol);
            tb.run(budget); // mutate: run the cluster way past the snapshot
            tb.restore(&snap);
            prop_assert_eq!(tb.now(), pause);
            tb.run(budget - pause);
            prop_assert_eq!(events_of(&tb), ref_events, "{}", protocol);
            prop_assert_eq!(tb.unfired(), ref_unfired, "{}", protocol);
            prop_assert_eq!(tb.outcome(), ref_outcome, "{}", protocol);
        }
    }
}

/// The run's event log rendered comparably for any cluster kind (the
/// link log for link clusters, the host-level log for HLP clusters).
fn events_of(tb: &Testbed) -> String {
    if tb.protocol().is_hlp() {
        format!("{:?}", tb.hlp_events())
    } else {
        format!("{:?}", tb.can_events())
    }
}

/// Loads `schedule` and queues the per-protocol canonical stimulus (the
/// same shape `run_schedule` uses).
fn run_stimulus(tb: &mut Testbed, schedule: &[Disturbance]) {
    tb.load_script(schedule);
    if tb.protocol().is_hlp() {
        tb.broadcast(0, majorcan_testbed::HLP_PROBE_PAYLOAD);
    } else {
        tb.enqueue(0, majorcan_faults::scenario_frame());
    }
}

/// The restore path must also round-trip a cluster under an armed
/// attacker channel (the attack searcher holds snapshots across forks).
#[test]
fn snapshot_restore_round_trips_with_the_attacker_channel_attached() {
    let actions = vec![
        AttackAction::Pulse {
            node: 1,
            field: Field::Eof,
            index: 2,
            occurrence: 1,
        },
        AttackAction::Hammer {
            node: 2,
            field: Field::AckDelim,
            index: 0,
            reps: 2,
        },
    ];
    for protocol in LINK_PROTOCOLS {
        let mut tb = Testbed::builder(protocol).nodes(3).build();

        tb.load_attack(&actions, 8);
        tb.enqueue(0, majorcan_faults::scenario_frame());
        tb.run(2_000);
        let ref_events = tb.can_events().to_vec();
        let ref_outcome = tb.outcome();

        tb.load_attack(&actions, 8);
        tb.enqueue(0, majorcan_faults::scenario_frame());
        tb.run(90);
        let snap = tb.snapshot();
        tb.run(2_000); // mutate well past the snapshot point
        tb.restore(&snap);
        assert_eq!(tb.now(), 90, "{protocol}");
        tb.run(2_000 - 90);
        assert_eq!(tb.can_events(), &ref_events[..], "{protocol}");
        assert_eq!(tb.outcome(), ref_outcome, "{protocol}");
    }
}

/// Restoring a snapshot into a testbed of a different shape must be
/// rejected loudly, never silently corrupt the cluster.
#[test]
#[should_panic(expected = "cannot restore")]
fn snapshot_of_one_protocol_cannot_restore_another() {
    let can = Testbed::builder(ProtocolSpec::StandardCan).nodes(3).build();
    let snap = can.snapshot();
    let mut minor = Testbed::builder(ProtocolSpec::MinorCan).nodes(3).build();
    minor.restore(&snap);
}
