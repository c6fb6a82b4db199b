//! Batch execution over scripted schedules: one fault-free trunk per
//! [`Testbed::run_lanes`] call, checked against the scalar
//! [`Testbed::run_schedule`] reference path. Both finish a schedule
//! through this module's `run_one`, the one load → run → grade function
//! of all six stacks: link clusters and higher-level-protocol clusters
//! differ only in their [`Stack`] stimulus and grade.
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
//! (checked bit by bit on every stack by this module's unit test,
//! including the frames higher-level-protocol layers queue from
//! `observe`). The peel bit is the *first* bit where any of the
//! schedule's `(node, field)` pairs matches pre-step — so at that bit
//! none of the schedule's entries has matched (let alone fired), the
//! trunk state equals the schedule's scalar state bit-for-bit, and
//! `restore + reload(full schedule) + run` is the scalar run. Peeling
//! earlier than strictly necessary (the peel is field-granular, ignoring
//! index/stuff) only costs trunk sharing, never correctness. Runs finish
//! through [`Simulator::run`], which leaps the bus fixpoint, and every
//! frame sent once the schedule's script has fully fired, exactly as the
//! scalar path does. Gated by `tests/lane_equivalence.rs` and the
//! batch-vs-scalar diffs in `scripts/check.sh`.
//!
//! [`Testbed::run_lanes`]: crate::Testbed::run_lanes
//! [`Testbed::run_schedule`]: crate::Testbed::run_schedule
//! [`Simulator::run`]: majorcan_sim::Simulator::run

use crate::channel::BusChannel;
use crate::outcome::{classify, Outcome};
use crate::testbed::HLP_PROBE_PAYLOAD;
use majorcan_abcast::{check_can_events, Verdict};
use majorcan_can::{Controller, Field, Variant, WirePos};
use majorcan_faults::{scenario_frame, Disturbance};
use majorcan_hlp::{trace_from_hlp_events, HlpLayer, HlpNode};
use majorcan_sim::{BitNode, NodeId, SimSnapshot, Simulator};

/// Fields that keep a schedule off the trunk: `drive` can enter them
/// (`Sof` from `Idle` as a queued frame starts, `Crashed` from any field
/// under a scheduled crash), so a node's disturb-time field may be one of
/// these while its pre-step field is not, and the pre-step look would
/// miss the match. The unit test below checks that `drive` enters no
/// other field.
const NO_FORK_FIELDS: &[Field] = &[Field::Sof, Field::Crashed];

pub(crate) type Sim<N> = Simulator<N, BusChannel>;

/// A node type the testbed assembles clusters from: a link-layer
/// controller, or a higher-level-protocol node over one. The stimulus
/// and the grade are all that differs between the six stacks.
pub(crate) trait Stack: BitNode<Tag = WirePos, Event: Clone> + Clone {
    /// Rewinds the node to its just-built state, crash script cleared.
    fn rewind(&mut self);

    /// Queues the canonical stimulus on this node, node 0 of a rewound
    /// cluster.
    fn stimulus(&mut self);

    /// The Atomic Broadcast verdict on the run's event log.
    fn verdict(sim: &Sim<Self>, n_nodes: usize) -> Verdict;

    /// `true` when the run that just ended was cut by the bit budget
    /// rather than by quiescence, so its verdict covers a prefix.
    fn truncated(sim: &Sim<Self>, budget: u64) -> bool;
}

impl<V: Variant> Stack for Controller<V> {
    #[inline]
    fn rewind(&mut self) {
        self.set_fail_at(None);
        self.reset();
    }

    /// The scenario frame.
    #[inline]
    fn stimulus(&mut self) {
        self.enqueue(scenario_frame());
    }

    #[inline]
    fn verdict(sim: &Sim<Self>, n_nodes: usize) -> Verdict {
        check_can_events(sim.events(), n_nodes).verdict()
    }

    /// The budget elapsed while the bus was still active. A trunk that
    /// settled before the budget is drained by construction; a
    /// drained-at-budget run is complete either way.
    #[inline]
    fn truncated(sim: &Sim<Self>, budget: u64) -> bool {
        sim.now() >= budget && !drained(sim)
    }
}

impl<L: HlpLayer + Clone> Stack for HlpNode<L> {
    #[inline]
    fn rewind(&mut self) {
        self.set_fail_at(None);
        self.reset();
    }

    /// A broadcast of the probe payload.
    #[inline]
    fn stimulus(&mut self) {
        self.broadcast(HLP_PROBE_PAYLOAD);
    }

    #[inline]
    fn verdict(sim: &Sim<Self>, n_nodes: usize) -> Verdict {
        trace_from_hlp_events(sim.events(), n_nodes)
            .check()
            .verdict()
    }

    /// Never: higher-level-protocol runs are graded without a
    /// truncation check (ROADMAP item 2).
    #[inline]
    fn truncated(_sim: &Sim<Self>, _budget: u64) -> bool {
        false
    }
}

/// Rewinds the cluster onto `schedule` as its scripted channel, reusing
/// the previous script's allocation when there is one — the body of
/// `Testbed::load_script`.
#[inline]
pub(crate) fn rewind<N: Stack>(sim: &mut Sim<N>, schedule: &[Disturbance]) {
    if let BusChannel::Scripted(script) = sim.channel_mut() {
        script.reload(schedule);
        sim.reset();
    } else {
        sim.reset_with_channel(BusChannel::scripted(schedule.to_vec()));
    }
    for node in sim.nodes_mut() {
        node.rewind();
    }
}

/// Rewinds the cluster onto `schedule` and queues the canonical
/// stimulus.
#[inline]
fn load<N: Stack>(sim: &mut Sim<N>, schedule: &[Disturbance]) {
    rewind(sim, schedule);
    sim.node_mut(NodeId(0)).stimulus();
}

/// `true` when every node is idle with an empty queue or crashed — the
/// one drain predicate behind `Testbed::is_drained`, and the condition
/// the truncation distinction rests on: a run whose budget elapses while
/// `!drained` executed a *prefix* of its schedule's consequences.
pub(crate) fn drained<V: Variant>(sim: &Sim<Controller<V>>) -> bool {
    sim.nodes()
        .all(|n| (n.is_idle() && n.pending() == 0) || n.is_crashed())
}

#[inline]
fn outcome_of<N: Stack>(sim: &Sim<N>, n_nodes: usize, budget: u64) -> Outcome {
    classify(N::verdict(sim, n_nodes), sim.channel().unfired_len())
        .truncate_if(N::truncated(sim, budget))
}

/// One scalar evaluation: loads `schedule`, runs the budget and grades
/// the run. The body of `Testbed::run_schedule`.
#[inline]
pub(crate) fn run_one<N: Stack>(
    sim: &mut Sim<N>,
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
pub(crate) fn run_lanes<N: Stack>(
    sim: &mut Sim<N>,
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
    let mut snapshots: Vec<SimSnapshot<N, BusChannel>> = Vec::new();
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
        let verdict = N::verdict(sim, n_nodes);
        let cut = N::truncated(sim, budget);
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
    use crate::testbed::{budget_for, spec_of};
    use majorcan_campaign::ProtocolSpec;
    use majorcan_can::{CanEvent, ControllerConfig, StandardCan};
    use majorcan_core::{MajorCan, MinorCan};
    use majorcan_falsify::{generate, Geometry};
    use majorcan_faults::ScriptedFaults;
    use majorcan_hlp::{EdCan, HlpEvent, HlpMessage, MsgKind, RelCan, TotCan};
    use majorcan_sim::{ChannelModel, Level, TimedEvent};
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

    /// One stack: its protocol, and how to build node `i` with a given
    /// controller configuration.
    struct Cluster<F> {
        spec: ProtocolSpec,
        make: F,
    }

    impl<N: Stack, F: Fn(usize, ControllerConfig) -> N> Cluster<F> {
        /// Steps one run bit by bit (node 0 sends the stack's stimulus
        /// under `schedule`, `crash` arms a scheduled crash) until it
        /// settles or the budget elapses. At every bit, a node's
        /// disturb-time field must be its pre-step field or a
        /// [`NO_FORK_FIELDS`] member; the fields `drive` entered go into
        /// `entered`. Returns the finished run.
        fn check_run(
            &self,
            shutoff_at_warning: bool,
            schedule: &[Disturbance],
            crash: Option<(usize, u64)>,
            ack_hammer: bool,
            entered: &mut BTreeSet<Field>,
        ) -> Simulator<N, Recording> {
            let mut sim = Simulator::new(Recording {
                script: ScriptedFaults::new(schedule.to_vec()),
                ack_hammer,
                fields: Vec::new(),
            });
            for i in 0..N_NODES {
                let config = ControllerConfig {
                    shutoff_at_warning,
                    fail_at: crash.and_then(|(node, at)| (node == i).then_some(at)),
                };
                sim.attach((self.make)(i, config));
            }
            sim.node_mut(NodeId(0)).stimulus();
            let budget = budget_for(self.spec);
            let mut pre = Vec::with_capacity(N_NODES);
            while sim.now() < budget && sim.quiet_horizon() < budget {
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
                            self.spec
                        );
                        entered.insert(at);
                    }
                }
            }
            sim
        }

        /// The generated schedules and crash scripts of the property,
        /// and the ACK-slot hammer.
        fn check(&self, entered: &mut BTreeSet<Field>) {
            let geo = Geometry::for_protocol(self.spec, N_NODES);
            let mut rng = StdRng::seed_from_u64(0x5EED_F1E1D);
            for _ in 0..300 {
                let schedule = generate(&mut rng, &geo, 4);
                self.check_run(true, schedule.disturbances(), None, false, entered);
            }
            for node in 0..N_NODES {
                for at in (0..200).step_by(3) {
                    self.check_run(true, &[], Some((node, at)), false, entered);
                }
            }
            // The ACK-slot hammer: the transmitter's every attempt loses
            // its ACK, walking its error counter to the warning shutoff
            // and, with the shutoff off, through error-passive to bus-off
            // and recovery.
            for shutoff_at_warning in [true, false] {
                self.check_run(shutoff_at_warning, &[], None, true, entered);
            }
        }
    }

    fn check_link<V: Variant>(variant: V, entered: &mut BTreeSet<Field>) {
        let make = |_, config| Controller::with_config(variant.clone(), config);
        let spec = spec_of(&variant);
        Cluster { spec, make }.check(entered);
    }

    /// [`Cluster::check`] on a higher-level-protocol stack, plus a
    /// transmitter that crashes right after its DATA frame succeeds.
    /// Returns the host events of that run.
    fn check_hlp<L: HlpLayer + Clone>(
        spec: ProtocolSpec,
        layer: fn() -> L,
        entered: &mut BTreeSet<Field>,
    ) -> Vec<TimedEvent<HlpEvent>> {
        let make = |i, config| HlpNode::with_config(layer(), i, config);
        let cluster = Cluster { spec, make };
        cluster.check(entered);
        let clean = cluster.check_run(true, &[], None, false, entered);
        let data_sent = clean
            .events()
            .iter()
            .find(|e| matches!(e.event, HlpEvent::Link(CanEvent::TxSucceeded { .. })))
            .expect("the DATA frame went out")
            .at;
        let crashed = cluster.check_run(true, &[], Some((0, data_sent + 1)), false, entered);
        crashed.events().to_vec()
    }

    /// `true` when a node other than the transmitter sent a duplicate.
    fn receiver_duplicated(events: &[TimedEvent<HlpEvent>]) -> bool {
        events.iter().any(|e| {
            e.node != NodeId(0)
                && matches!(&e.event, HlpEvent::Link(CanEvent::TxSucceeded { frame, .. })
                    if HlpMessage::decode(frame).is_some_and(|m| m.kind == MsgKind::Dup))
        })
    }

    /// The invariant the trunk's peel rests on, and the reason
    /// [`NO_FORK_FIELDS`] lists what it lists: outside those fields, a
    /// node's field at disturb time is its field before the step, on all
    /// six stacks (higher-level-protocol layers queue frames from
    /// `observe`: ACCEPT, CONFIRM, duplicates). Every listed field must
    /// also be seen entered, so the list stays minimal.
    #[test]
    fn drive_enters_only_no_fork_fields() {
        let mut entered = BTreeSet::new();
        check_link(StandardCan, &mut entered);
        check_link(MinorCan, &mut entered);
        for m in [3, 5] {
            check_link(MajorCan::new(m).expect("valid tolerance"), &mut entered);
        }
        let edcan = check_hlp(ProtocolSpec::EdCan, EdCan::new, &mut entered);
        assert!(receiver_duplicated(&edcan), "EDCAN receivers flood");
        let relcan = check_hlp(ProtocolSpec::RelCan, RelCan::new, &mut entered);
        assert!(
            receiver_duplicated(&relcan),
            "RELCAN receivers time out on the CONFIRM and send duplicates"
        );
        let totcan = check_hlp(ProtocolSpec::TotCan, TotCan::new, &mut entered);
        let dropped = totcan
            .iter()
            .filter(|e| matches!(e.event, HlpEvent::Dropped { .. }))
            .count();
        assert_eq!(
            dropped,
            N_NODES - 1,
            "TOTCAN receivers time out on the ACCEPT"
        );
        let listed: BTreeSet<Field> = NO_FORK_FIELDS.iter().copied().collect();
        assert_eq!(entered, listed, "every no-fork field is entered by drive");
    }
}
