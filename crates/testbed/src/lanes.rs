//! Batch execution over scripted schedules: one fault-free trunk per
//! [`Testbed::run_lanes`] call, checked against the scalar
//! [`Testbed::run_schedule`] reference path. Both finish a schedule
//! through this module's `run_one`, the one link-layer
//! load → run → grade function.
//!
//! The falsifier's random fault models produce mostly prefix-free
//! schedules, yet every one of them shares something: until a
//! schedule's first disturbance can possibly fire, its run is
//! **bit-identical to the fault-free run**. A batch exploits exactly
//! that:
//!
//! 1. **Scalar first.** Schedules targeting a field in
//!    [`NO_FORK_FIELDS`] (a pre-step look could miss a match there) or a
//!    node that is not on the bus run scalar whole.
//! 2. **Trunk** — every other schedule rides one run of the *fault-free*
//!    cluster. Before each bit, the trunk records the `(node, field)`
//!    pairs the nodes' pre-step tags show for the first time; a riding
//!    schedule with an entry on such a pair **peels** there: a snapshot
//!    is taken at that bit (shared by everything peeling there), and the
//!    schedule finishes later on the scalar path with its full script
//!    reloaded from the snapshot.
//! 3. **Survivors** — schedules still riding when the trunk stops are
//!    classified straight from the trunk: their script never fired
//!    (every entry unfired), so the trunk's verdict, quiescence cut and
//!    truncation status are exactly theirs.
//!
//! Why the peel is sound: a scripted disturbance fires only on a full
//! `(node, field, index, stuff)` match, and for every field outside
//! [`NO_FORK_FIELDS`] the disturb-time field equals the pre-step field
//! (checked bit by bit by this module's unit test). The peel bit is the
//! *first* bit where any of the schedule's `(node, field)` pairs matches
//! pre-step — so at that bit none of the schedule's entries has matched
//! (let alone fired), the trunk state equals the schedule's scalar state
//! bit-for-bit, and `restore + reload(full schedule) + run` is the
//! scalar run. Peeling earlier than strictly necessary (the peel is
//! field-granular, ignoring index/stuff) only costs trunk sharing, never
//! correctness. Runs finish through [`Simulator::run`], which leaps the
//! bus fixpoint, and every frame sent once the schedule's script has
//! fully fired, exactly as the scalar path does. Gated by
//! `tests/lane_equivalence.rs` and the batch-vs-scalar diffs in
//! `scripts/check.sh`.
//!
//! [`Testbed::run_lanes`]: crate::Testbed::run_lanes
//! [`Testbed::run_schedule`]: crate::Testbed::run_schedule
//! [`Simulator::run`]: majorcan_sim::Simulator::run

use crate::channel::BusChannel;
use crate::outcome::{classify, Outcome};
use majorcan_abcast::check_can_events;
use majorcan_can::{Controller, Field, Variant};
use majorcan_faults::{scenario_frame, Disturbance};
use majorcan_sim::{BitNode, NodeId, SimSnapshot, Simulator};

/// Fields that keep a schedule off the trunk: `drive` can enter them
/// (`Sof` from `Idle` as a queued frame starts, `Crashed` from any field
/// under a scheduled crash), so a node's disturb-time field may be one of
/// these while its pre-step field is not, and the pre-step look would
/// miss the match. The unit test below checks that `drive` enters no
/// other field.
const NO_FORK_FIELDS: &[Field] = &[Field::Sof, Field::Crashed];

type LinkSim<V> = Simulator<Controller<V>, BusChannel>;

/// Rewinds the cluster onto `schedule` and queues the canonical stimulus
/// (node 0 transmits the scenario frame) — the engine-local equivalent
/// of `Testbed::load_script` + `enqueue`.
fn load<V: Variant>(sim: &mut LinkSim<V>, schedule: &[Disturbance]) {
    if let BusChannel::Scripted(script) = sim.channel_mut() {
        script.reload(schedule);
        sim.reset();
    } else {
        sim.reset_with_channel(BusChannel::scripted(schedule.to_vec()));
    }
    for node in sim.nodes_mut() {
        node.set_fail_at(None);
        node.reset();
    }
    sim.node_mut(NodeId(0)).enqueue(scenario_frame());
}

/// `true` when every node is idle with an empty queue or crashed — the
/// one drain predicate behind `Testbed::is_drained`, and the condition
/// the truncation distinction rests on: a run whose budget elapses while
/// `!drained` executed a *prefix* of its schedule's consequences.
pub(crate) fn drained<V: Variant>(sim: &LinkSim<V>) -> bool {
    sim.nodes()
        .all(|n| (n.is_idle() && n.pending() == 0) || n.is_crashed())
}

/// `true` when the run that just ended was cut by the bit budget rather
/// than by quiescence: the budget elapsed while the bus was still active.
/// A trunk that settled before the budget is drained by construction; a
/// drained-at-budget run is complete either way.
fn truncated<V: Variant>(sim: &LinkSim<V>, budget: u64) -> bool {
    sim.now() >= budget && !drained(sim)
}

fn outcome_of<V: Variant>(sim: &LinkSim<V>, n_nodes: usize, budget: u64) -> Outcome {
    let verdict = check_can_events(sim.events(), n_nodes).verdict();
    classify(verdict, sim.channel().unfired_len()).truncate_if(truncated(sim, budget))
}

/// One scalar evaluation: loads `schedule`, runs the budget and grades
/// the run. The link branch of `Testbed::run_schedule`.
pub(crate) fn run_one<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    schedule: &[Disturbance],
) -> Outcome {
    load(sim, schedule);
    sim.run(budget);
    outcome_of(sim, n_nodes, budget)
}

/// Evaluates every schedule in `schedules` and returns their outcomes in
/// input order, each bit-identical to `Testbed::run_schedule` on the same
/// (reused) testbed: scalar-only schedules first, then the shared
/// fault-free trunk, survivor classification, and peeled-schedule
/// replays.
pub(crate) fn run_lanes_link<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    schedules: &[&[Disturbance]],
) -> Vec<Outcome> {
    sim.set_record_trace(false);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; schedules.len()];
    let mut riding = Vec::with_capacity(schedules.len());
    for (i, schedule) in schedules.iter().enumerate() {
        if schedule
            .iter()
            .any(|d| NO_FORK_FIELDS.contains(&d.field) || d.node >= n_nodes)
        {
            outcomes[i] = Some(run_one(sim, n_nodes, budget, schedule));
        } else {
            riding.push(i);
        }
    }

    // The trunk: the fault-free run every riding schedule shares. A
    // riding schedule has no entry on a pair seen at an earlier bit (it
    // would have peeled there), so "an entry on a seen pair" picks out
    // exactly the schedules with an entry on a pair first seen now.
    let pair = |node: usize, field: Field| node * Field::ALL.len() + field.ordinal();
    let mut seen = vec![false; n_nodes * Field::ALL.len()];
    let mut snapshots: Vec<SimSnapshot<Controller<V>, BusChannel>> = Vec::new();
    let mut peeled: Vec<(usize, usize)> = Vec::new(); // (snapshot, schedule)
    load(sim, &[]);
    while !riding.is_empty() && sim.now() < budget {
        let mut fresh = false;
        for (node, n) in sim.nodes().enumerate() {
            let slot = &mut seen[pair(node, n.tag().field)];
            fresh |= !*slot;
            *slot = true;
        }
        if fresh {
            let before = peeled.len();
            riding.retain(|&i| {
                let peels = schedules[i].iter().any(|d| seen[pair(d.node, d.field)]);
                if peels {
                    peeled.push((snapshots.len(), i));
                }
                !peels
            });
            if peeled.len() > before {
                snapshots.push(sim.snapshot());
            }
            if riding.is_empty() {
                break;
            }
        }
        sim.step();
        if sim.quiet_horizon() >= budget {
            break;
        }
    }

    // Survivors first — their verdict lives in the trunk's event log,
    // which the replays below clobber. No entry of theirs ever fired, so
    // the whole schedule counts unfired, and the trunk's truncation
    // status is theirs too.
    if !riding.is_empty() {
        let verdict = check_can_events(sim.events(), n_nodes).verdict();
        let cut = truncated(sim, budget);
        for &i in &riding {
            outcomes[i] = Some(classify(verdict, schedules[i].len()).truncate_if(cut));
        }
    }

    // Peeled schedules, grouped by snapshot: each replays from its peel
    // bit with its full schedule (nothing has fired yet at the peel bit,
    // so a fresh reload is the scalar run).
    for &(snap, i) in &peeled {
        sim.restore_from(&snapshots[snap]);
        match sim.channel_mut() {
            BusChannel::Scripted(script) => script.reload(schedules[i]),
            _ => unreachable!("the trunk loaded a scripted channel"),
        }
        sim.run(budget - sim.now());
        outcomes[i] = Some(outcome_of(sim, n_nodes, budget));
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every schedule classified"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{spec_of, LINK_BUDGET};
    use majorcan_can::{ControllerConfig, StandardCan, WirePos};
    use majorcan_core::{MajorCan, MinorCan};
    use majorcan_falsify::{generate, Geometry};
    use majorcan_faults::ScriptedFaults;
    use majorcan_sim::{ChannelModel, Level};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    const N_NODES: usize = 3;

    /// A scripted channel that records the field every node reports at
    /// disturb time, one entry per node per stepped bit. With `ack_hammer`
    /// it also flips node 0's view of every ACK slot.
    struct Recording {
        script: ScriptedFaults,
        ack_hammer: bool,
        fields: Vec<Field>,
    }

    impl ChannelModel<WirePos> for Recording {
        fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
            self.fields.push(tag.field);
            let hammered = self.ack_hammer && node == NodeId(0) && tag.field == Field::AckSlot;
            self.script.disturb(bit, node, tag, wire) || hammered
        }

        fn quiet_until(&self, now: u64) -> u64 {
            self.script.quiet_until(now)
        }
    }

    /// Steps one run bit by bit (node 0 sends the scenario frame under
    /// `schedule`, `crash` arms a scheduled crash) until it settles or the
    /// budget elapses. At every bit, a node's disturb-time field must be
    /// its pre-step field or a [`NO_FORK_FIELDS`] member; the fields
    /// `drive` entered go into `entered`.
    fn check_run<V: Variant>(
        variant: &V,
        config: &ControllerConfig,
        schedule: &[Disturbance],
        crash: Option<(usize, u64)>,
        ack_hammer: bool,
        entered: &mut BTreeSet<Field>,
    ) {
        let mut sim = Simulator::new(Recording {
            script: ScriptedFaults::new(schedule.to_vec()),
            ack_hammer,
            fields: Vec::new(),
        });
        for _ in 0..N_NODES {
            sim.attach(Controller::with_config(variant.clone(), config.clone()));
        }
        if let Some((node, at)) = crash {
            sim.node_mut(NodeId(node)).set_fail_at(Some(at));
        }
        sim.node_mut(NodeId(0)).enqueue(scenario_frame());
        let mut pre = Vec::with_capacity(N_NODES);
        while sim.now() < LINK_BUDGET && sim.quiet_horizon() < LINK_BUDGET {
            pre.clear();
            pre.extend(sim.nodes().map(|n| n.tag().field));
            sim.channel_mut().fields.clear();
            let bit = sim.now();
            sim.step();
            for (node, (&before, &at)) in pre.iter().zip(&sim.channel().fields).enumerate() {
                if before != at {
                    assert!(
                        NO_FORK_FIELDS.contains(&at),
                        "{}: drive moved node {node} from {before} to {at} at bit {bit} \
                         under {schedule:?}, crash {crash:?}",
                        variant.name()
                    );
                    entered.insert(at);
                }
            }
        }
    }

    /// The schedules and crash scripts of the property, on one protocol.
    fn check_protocol<V: Variant>(variant: V, entered: &mut BTreeSet<Field>) {
        let config = ControllerConfig::default();
        let geo = Geometry::for_protocol(spec_of(&variant), N_NODES);
        let mut rng = StdRng::seed_from_u64(0x5EED_F1E1D);
        for _ in 0..300 {
            let schedule = generate(&mut rng, &geo, 4);
            check_run(
                &variant,
                &config,
                schedule.disturbances(),
                None,
                false,
                entered,
            );
        }
        for node in 0..N_NODES {
            for at in (0..200).step_by(3) {
                check_run(&variant, &config, &[], Some((node, at)), false, entered);
            }
        }
        // The ACK-slot hammer: the transmitter's every attempt loses its
        // ACK, walking its error counter to the warning shutoff and, with
        // the shutoff off, through error-passive to bus-off and recovery.
        for shutoff_at_warning in [true, false] {
            let config = ControllerConfig {
                shutoff_at_warning,
                fail_at: None,
            };
            check_run(&variant, &config, &[], None, true, entered);
        }
    }

    /// The invariant the trunk's peel rests on, and the reason
    /// [`NO_FORK_FIELDS`] lists what it lists: outside those fields, a
    /// node's field at disturb time is its field before the step. Every
    /// listed field must also be seen entered, so the list stays minimal.
    #[test]
    fn drive_enters_only_no_fork_fields() {
        let mut entered = BTreeSet::new();
        check_protocol(StandardCan, &mut entered);
        check_protocol(MinorCan, &mut entered);
        for m in [3, 5] {
            check_protocol(MajorCan::new(m).expect("valid tolerance"), &mut entered);
        }
        let listed: BTreeSet<Field> = NO_FORK_FIELDS.iter().copied().collect();
        assert_eq!(entered, listed, "every no-fork field is entered by drive");
    }
}
