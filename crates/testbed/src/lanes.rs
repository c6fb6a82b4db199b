//! Batch execution over scripted schedules: one fault-free trunk per
//! [`Testbed::run_lanes`] call, checked against the scalar
//! [`Testbed::run_schedule`] reference path. Both finish a schedule
//! through this module's `run_one`, the one load → run → grade function
//! of all six stacks and of both fault kinds: link clusters and
//! higher-level-protocol clusters differ only in their [`Stack`]
//! stimulus and verdict, and a disturbance script and an attack only in
//! the [`Load`] installed on the channel ([`Testbed::run_attack`] runs
//! the latter). Every path grades through [`grade`], whose drain test,
//! [`drained`], reads the nodes' own quiescence promises and so holds
//! for every stack alike.
//!
//! The falsifier's random fault models produce mostly prefix-free
//! schedules, yet every one of them shares something: until a
//! schedule's first disturbance fires, its run is **bit-identical to the
//! fault-free run**. A batch exploits exactly that:
//!
//! 1. **Scalar first.** Schedules with an entry on a field in
//!    [`NO_FORK_FIELDS`] (a pre-step look could miss a visit there, or
//!    count one that never happens) or on a node that is not on the bus
//!    run scalar whole.
//! 2. **Trunk** — every other schedule rides one run of the *fault-free*
//!    cluster. Before each bit, the trunk reads every node's pre-step
//!    tag. Once one of a riding schedule's `(node, field)` pairs has
//!    shown, the trunk matches the schedule's entries against those tags
//!    in full (field, index and stuff) and counts each entry's visits
//!    exactly as [`ScriptedFaults`] would before anything fires. At the
//!    bit where one of its entries would fire, the schedule **peels**: it
//!    resumes from the trunk's state at that bit with its script reloaded
//!    with the counted visits ([`ScriptedFaults::reload_visited`]) and
//!    finishes on the scalar path. Schedules that fire at the same bit
//!    share one snapshot, from which the trunk itself resumes afterwards.
//! 3. **Survivors** — schedules still riding when the trunk stops (the
//!    bus settled, or the budget elapsed) never fired, and are classified
//!    straight from the trunk: every entry unfired, and the trunk's
//!    verdict and truncation status are exactly theirs. A settled trunk
//!    leaps to the budget first, as a survivor's scalar run would.
//!
//! Why the peel is exact: a scripted entry counts a visit, or fires,
//! only on a full `(node, field, index, stuff)` match with the tag its
//! node shows the channel at disturb time. On a fault-free run, that tag
//! is the node's pre-step tag wherever either lies outside
//! [`NO_FORK_FIELDS`]: the one exception is a node starting a queued
//! frame, which shows `Idle` before the step and `Sof` to the channel.
//! `AgreementHold` and `ExtendedFlag` take their index from the drive
//! clock, so their pre-step index lags by one bit; the trunk is sound
//! only because a fault-free run never shows them. This module's unit
//! test checks all of it bit by bit on every stack, including the frames
//! higher-level-protocol layers queue from `observe`. So until a riding
//! schedule's first entry fires, the trunk's state is the schedule's
//! scalar state bit for bit and the trunk's counts are its script's, and
//! `restore + reload_visited + run` from the firing bit is the scalar
//! run. A settled trunk ends the ride: no rider has an entry an idle
//! (`Idle`) or crashed node could match, so the scalar run of a
//! survivor leaps the rest of the budget too. Runs finish through
//! [`Simulator::run`], which leaps the bus fixpoint, and every frame sent
//! once the schedule's script has fully fired, exactly as the scalar
//! path does. Gated by `tests/lane_equivalence.rs` and the
//! batch-vs-scalar diffs in `scripts/check.sh`.
//!
//! [`Testbed::run_lanes`]: crate::Testbed::run_lanes
//! [`Testbed::run_schedule`]: crate::Testbed::run_schedule
//! [`Testbed::run_attack`]: crate::Testbed::run_attack
//! [`Simulator::run`]: majorcan_sim::Simulator::run
//! [`ScriptedFaults`]: majorcan_faults::ScriptedFaults
//! [`ScriptedFaults::reload_visited`]: majorcan_faults::ScriptedFaults::reload_visited

use crate::channel::BusChannel;
use crate::outcome::{classify, Outcome};
use crate::testbed::HLP_PROBE_PAYLOAD;
use majorcan_abcast::{check_can_events, Verdict};
use majorcan_can::{Controller, Field, Variant, WirePos};
use majorcan_faults::{scenario_frame, AttackAction, Disturbance};
use majorcan_hlp::{trace_from_hlp_events, HlpLayer, HlpNode};
use majorcan_sim::{BitNode, ChannelModel, NodeId, Simulator};

/// Fields that keep a schedule off the trunk: a node's pre-step tag and
/// the tag it shows the channel can differ there, so a pre-step look
/// could miss a visit or count one that never happens. `drive` enters
/// `Sof` from `Idle` as a queued frame starts, and `Crashed` from any
/// field under a scheduled crash; on a fault-free run, `Idle` is the one
/// field it leaves. The unit test below checks that `drive` enters and,
/// fault-free, leaves no other field.
const NO_FORK_FIELDS: &[Field] = &[Field::Sof, Field::Crashed, Field::Idle];

pub(crate) type Sim<N> = Simulator<N, BusChannel>;

/// A node type the testbed assembles clusters from: a link-layer
/// controller, or a higher-level-protocol node over one. The stimulus
/// and the reading of the event log are all that differs between the
/// six stacks; the drain test is the nodes' [`BitNode`] promise.
pub(crate) trait Stack: BitNode<Tag = WirePos, Event: Clone> + Clone {
    /// Rewinds the node to its just-built state, crash script cleared.
    fn rewind(&mut self);

    /// Queues the canonical stimulus on this node, node 0 of a rewound
    /// cluster.
    fn stimulus(&mut self);

    /// The Atomic Broadcast verdict on the run's event log.
    fn verdict(sim: &Sim<Self>, n_nodes: usize) -> Verdict;
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
}

/// What a run installs on the bus channel.
#[derive(Clone, Copy)]
pub(crate) enum Load<'a> {
    /// A disturbance script.
    Script(&'a [Disturbance]),
    /// Attack actions with the attacker's cost budget.
    Attack(&'a [AttackAction], u64),
}

/// Rewinds the cluster onto `faults`, reloading the channel in place
/// when it already holds the same kind — the body of
/// `Testbed::load_script` and `Testbed::load_attack`.
#[inline]
pub(crate) fn rewind<N: Stack>(sim: &mut Sim<N>, faults: Load<'_>) {
    match (sim.channel_mut(), faults) {
        (BusChannel::Scripted(script), Load::Script(schedule)) => script.reload(schedule),
        (BusChannel::Attack(attacker), Load::Attack(actions, budget)) => {
            attacker.reload(actions, budget)
        }
        (channel, Load::Script(schedule)) => *channel = BusChannel::scripted(schedule.to_vec()),
        (channel, Load::Attack(actions, budget)) => {
            *channel = BusChannel::attack(actions.to_vec(), budget)
        }
    }
    sim.reset();
    for node in sim.nodes_mut() {
        node.rewind();
    }
}

/// Rewinds the cluster onto `faults` and queues the canonical stimulus.
#[inline]
fn load<N: Stack>(sim: &mut Sim<N>, faults: Load<'_>) {
    rewind(sim, faults);
    sim.node_mut(NodeId(0)).stimulus();
}

/// `true` when every node promises to stay quiet forever (the
/// [`BitNode::quiescent_until`] promise [`Simulator::run`] leaps on):
/// nothing queued or on the wire, no layer timer pending, no event or
/// crash still to come. The one drain predicate of every stack: a run
/// whose budget elapses while `!drained` executed a *prefix* of its
/// schedule's consequences.
pub(crate) fn drained<N: BitNode, C: ChannelModel<N::Tag>>(sim: &Simulator<N, C>) -> bool {
    let now = sim.now();
    sim.nodes().all(|n| n.quiescent_until(now) == u64::MAX)
}

/// `true` when the run reached `budget` before the bus [`drained`]: it
/// executed a prefix, so a clean verdict on it is truncated.
pub(crate) fn cut_short<N: BitNode, C: ChannelModel<N::Tag>>(
    sim: &Simulator<N, C>,
    budget: u64,
) -> bool {
    sim.now() >= budget && !drained(sim)
}

/// The one grade of a run: `verdict` classified with `unfired` scripted
/// entries, demoted to truncated when the budget [`cut_short`] the run.
#[inline]
fn grade<N: Stack>(sim: &Sim<N>, verdict: Verdict, unfired: usize, budget: u64) -> Outcome {
    classify(verdict, unfired).truncate_if(cut_short(sim, budget))
}

/// [`grade`] with the verdict on the run's event log and the channel's
/// unfired count. The body of `Testbed::outcome`.
#[inline]
pub(crate) fn outcome_of<N: Stack>(sim: &Sim<N>, n_nodes: usize, budget: u64) -> Outcome {
    let unfired = sim.channel().unfired_len();
    grade(sim, N::verdict(sim, n_nodes), unfired, budget)
}

/// One scalar evaluation: loads `faults`, runs the budget and grades the
/// run. The body of `Testbed::run_schedule` and `Testbed::run_attack`.
#[inline]
pub(crate) fn run_one<N: Stack>(
    sim: &mut Sim<N>,
    n_nodes: usize,
    budget: u64,
    faults: Load<'_>,
) -> Outcome {
    load(sim, faults);
    sim.run(budget);
    outcome_of(sim, n_nodes, budget)
}

/// Evaluates every schedule in `schedules` and returns their outcomes in
/// input order, each bit-identical to `Testbed::run_schedule` on the same
/// (reused) testbed: scalar-only schedules first, then the shared
/// fault-free trunk with each rider peeled off at its first firing bit,
/// then the survivors, graded from the trunk.
pub(crate) fn run_lanes<N: Stack>(
    sim: &mut Sim<N>,
    n_nodes: usize,
    budget: u64,
    schedules: &[&[Disturbance]],
) -> Vec<Outcome> {
    sim.set_record_trace(false);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; schedules.len()];
    // A rider is `(schedule, offset of its entries' counts in visits)`.
    let mut riding: Vec<(usize, usize)> = Vec::with_capacity(schedules.len());
    let mut entries = 0;
    for (i, schedule) in schedules.iter().enumerate() {
        if schedule
            .iter()
            .any(|d| NO_FORK_FIELDS.contains(&d.field) || d.node >= n_nodes)
        {
            outcomes[i] = Some(run_one(sim, n_nodes, budget, Load::Script(schedule)));
        } else {
            riding.push((i, entries));
            entries += schedule.len();
        }
    }
    let mut visits = vec![0u32; entries];

    // The trunk: the fault-free run every rider shares. A rider is
    // `watched` (its entries matched bit by bit) from the first bit one of
    // its `(node, field)` pairs shows; before that none of its entries
    // can match.
    let pair = |node: usize, field: Field| node * Field::ALL.len() + field.ordinal();
    let mut seen = vec![false; n_nodes * Field::ALL.len()];
    let mut tags: Vec<WirePos> = Vec::with_capacity(n_nodes);
    let mut watched: Vec<(usize, usize)> = Vec::with_capacity(riding.len());
    let mut firing: Vec<(usize, usize)> = Vec::new();
    load(sim, Load::Script(&[]));
    while !(riding.is_empty() && watched.is_empty()) && sim.now() < budget {
        tags.clear();
        let mut fresh = false;
        for (node, n) in sim.nodes().enumerate() {
            let tag = n.tag();
            let slot = &mut seen[pair(node, tag.field)];
            fresh |= !*slot;
            *slot = true;
            tags.push(tag);
        }
        if fresh {
            riding.retain(|&(i, at)| {
                let shown = schedules[i].iter().any(|d| seen[pair(d.node, d.field)]);
                if shown {
                    watched.push((i, at));
                }
                !shown
            });
        }
        // Match every watched rider's entries against this bit's tags:
        // a rider with an entry that fires here peels with its counts as
        // they stand before this bit; every other rider counts the visits.
        watched.retain(|&(i, at)| {
            let schedule = schedules[i];
            let counts = &mut visits[at..at + schedule.len()];
            let hit = |d: &Disturbance| {
                let tag = &tags[d.node];
                d.field == tag.field && d.index == tag.index && d.stuff == tag.stuff
            };
            let fires = schedule
                .iter()
                .zip(counts.iter())
                .any(|(d, &count)| hit(d) && count + 1 >= d.occurrence);
            if fires {
                firing.push((i, at));
            } else {
                for (d, count) in schedule.iter().zip(counts.iter_mut()) {
                    *count += u32::from(hit(d));
                }
            }
            !fires
        });
        if !firing.is_empty() {
            // The trunk's state is every firing rider's state: the first
            // resumes on it in place, the others, and then the trunk,
            // from one snapshot.
            let rest = !(riding.is_empty() && watched.is_empty());
            let snapshot = (rest || firing.len() > 1).then(|| sim.snapshot());
            for (k, &(i, at)) in firing.iter().enumerate() {
                if k > 0 {
                    sim.restore_from(snapshot.as_ref().expect("taken for a second rider"));
                }
                let schedule = schedules[i];
                outcomes[i] = Some(resume(
                    sim,
                    n_nodes,
                    budget,
                    schedule,
                    &visits[at..at + schedule.len()],
                ));
            }
            firing.clear();
            if !rest {
                break;
            }
            sim.restore_from(snapshot.as_ref().expect("taken while riders remain"));
        }
        sim.step();
        if sim.quiet_horizon() >= budget {
            break;
        }
    }

    // Survivors: no entry of theirs ever fired, so the whole schedule
    // counts unfired, and the trunk's verdict and truncation status are
    // theirs too. A settled trunk leaps the rest of the budget first, as
    // a survivor's scalar run does.
    if !(riding.is_empty() && watched.is_empty()) {
        sim.run(budget - sim.now());
        let verdict = N::verdict(sim, n_nodes);
        for &(i, _) in riding.iter().chain(&watched) {
            outcomes[i] = Some(grade(sim, verdict, schedules[i].len(), budget));
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every schedule classified"))
        .collect()
}

/// Finishes a rider peeled at the trunk's current bit: reloads its
/// script with the visits the trunk counted for it, runs out the budget
/// and grades the run.
fn resume<N: Stack>(
    sim: &mut Sim<N>,
    n_nodes: usize,
    budget: u64,
    schedule: &[Disturbance],
    visits: &[u32],
) -> Outcome {
    match sim.channel_mut() {
        BusChannel::Scripted(script) => script.reload_visited(schedule, visits),
        _ => unreachable!("the trunk loaded a scripted channel"),
    }
    sim.run(budget - sim.now());
    outcome_of(sim, n_nodes, budget)
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

    /// A scripted channel that records the tag every node shows at
    /// disturb time, one entry per node per stepped bit. With
    /// `ack_hammer` it also flips node 0's view of every ACK slot.
    struct Recording {
        script: ScriptedFaults,
        ack_hammer: bool,
        tags: Vec<WirePos>,
    }

    impl ChannelModel<WirePos> for Recording {
        fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
            self.tags.push(*tag);
            let hammered = self.ack_hammer && node == NodeId(0) && tag.field == Field::AckSlot;
            self.script.disturb(bit, node, tag, wire) || hammered
        }

        fn quiet_until(&self, now: u64) -> u64 {
            self.script.quiet_until(now)
        }
    }

    /// Where `drive` moved the nodes' tags over the checked runs, and
    /// how the drain predicate compared on link clusters.
    #[derive(Default)]
    struct Moves {
        /// Fields `drive` moved a node into, on any run.
        entered: BTreeSet<Field>,
        /// Fields `drive` moved a node out of, on fault-free runs.
        left: BTreeSet<Field>,
        /// Stepped link-cluster bits where [`drained`] was compared with
        /// the link reference.
        drain_bits: usize,
        /// Of those, the bits where they differed because a scheduled
        /// crash was still due.
        crash_due_bits: usize,
    }

    /// One stack: its protocol, how to build node `i` with a given
    /// controller configuration, and the drain check run after every
    /// stepped bit (given the run's crash script).
    struct Cluster<F, D> {
        spec: ProtocolSpec,
        make: F,
        drain: D,
    }

    impl<N, F, D> Cluster<F, D>
    where
        N: Stack,
        F: Fn(usize, ControllerConfig) -> N,
        D: Fn(&Simulator<N, Recording>, Option<(usize, u64)>, &mut Moves),
    {
        /// Steps one run bit by bit (node 0 sends the stack's stimulus
        /// under `schedule`, `crash` arms a scheduled crash) until it
        /// settles or the budget elapses. At every bit, a node's
        /// disturb-time field must be its pre-step field or a
        /// [`NO_FORK_FIELDS`] member. A fault-free run (no schedule, no
        /// crash, no hammer) is the trunk, and holds more: the full
        /// disturb-time tag is the pre-step tag unless both lie in
        /// [`NO_FORK_FIELDS`], and no node ever shows `AgreementHold` or
        /// `ExtendedFlag`, whose pre-step index lags the drive clock.
        /// Returns the finished run.
        fn check_run(
            &self,
            shutoff_at_warning: bool,
            schedule: &[Disturbance],
            crash: Option<(usize, u64)>,
            ack_hammer: bool,
            moves: &mut Moves,
        ) -> Simulator<N, Recording> {
            let mut sim = Simulator::new(Recording {
                script: ScriptedFaults::new(schedule.to_vec()),
                ack_hammer,
                tags: Vec::new(),
            });
            for i in 0..N_NODES {
                let config = ControllerConfig {
                    shutoff_at_warning,
                    fail_at: crash.and_then(|(node, at)| (node == i).then_some(at)),
                };
                sim.attach((self.make)(i, config));
            }
            sim.node_mut(NodeId(0)).stimulus();
            let fault_free = schedule.is_empty() && crash.is_none() && !ack_hammer;
            let budget = budget_for(self.spec);
            let mut pre = Vec::with_capacity(N_NODES);
            while sim.now() < budget && sim.quiet_horizon() < budget {
                pre.clear();
                pre.extend(sim.nodes().map(|n| n.tag()));
                sim.channel_mut().tags.clear();
                let bit = sim.now();
                sim.step();
                for (node, (before, at)) in pre.iter().zip(&sim.channel().tags).enumerate() {
                    let moved = || {
                        format!(
                            "{}: drive moved node {node} from {before:?} to {at:?} at bit {bit} \
                             under {schedule:?}, crash {crash:?}",
                            self.spec
                        )
                    };
                    if before.field != at.field {
                        assert!(NO_FORK_FIELDS.contains(&at.field), "{}", moved());
                        moves.entered.insert(at.field);
                    }
                    if fault_free {
                        for tag in [before, at] {
                            assert!(
                                !matches!(tag.field, Field::AgreementHold | Field::ExtendedFlag),
                                "{}: a fault-free run shows {}",
                                moved(),
                                tag.field
                            );
                        }
                        if before != at {
                            assert!(
                                NO_FORK_FIELDS.contains(&before.field)
                                    && NO_FORK_FIELDS.contains(&at.field),
                                "{}: the fault-free trunk would count this visit wrong",
                                moved()
                            );
                            moves.left.insert(before.field);
                        }
                    }
                }
                (self.drain)(&sim, crash, moves);
            }
            sim
        }

        /// The generated schedules and crash scripts of the property,
        /// the fault-free run and the ACK-slot hammer.
        fn check(&self, moves: &mut Moves) {
            let geo = Geometry::for_protocol(self.spec, N_NODES);
            let mut rng = StdRng::seed_from_u64(0x5EED_F1E1D);
            for _ in 0..300 {
                let schedule = generate(&mut rng, &geo, 4);
                self.check_run(true, schedule.disturbances(), None, false, moves);
            }
            for node in 0..N_NODES {
                for at in (0..200).step_by(3) {
                    self.check_run(true, &[], Some((node, at)), false, moves);
                }
            }
            // The ACK-slot hammer: the transmitter's every attempt loses
            // its ACK, walking its error counter to the warning shutoff
            // and, with the shutoff off, through error-passive to bus-off
            // and recovery.
            for shutoff_at_warning in [true, false] {
                self.check_run(shutoff_at_warning, &[], None, false, moves);
                self.check_run(shutoff_at_warning, &[], None, true, moves);
            }
        }
    }

    fn check_link<V: Variant>(variant: V, moves: &mut Moves) {
        let make = |_, config| Controller::with_config(variant.clone(), config);
        let spec = spec_of(&variant);
        let drain = link_drain::<V>;
        Cluster { spec, make, drain }.check(moves);
    }

    /// Compares [`drained`] with the link reference, every controller
    /// `(idle && queue empty) || crashed`, after one stepped bit. They
    /// may differ only where an idle node's scheduled crash is still
    /// due: the reference calls the bus drained, the promise waits for
    /// the crash, which changes the nodes the checker counts as correct,
    /// so a run cut before it is a prefix. The one other event a
    /// controller promise waits for and the reference misses, a warning
    /// shutoff raised in `observe` and announced at the next bit, never
    /// meets an otherwise drained bus on these runs; this would name the
    /// bit where it did.
    fn link_drain<V: Variant>(
        sim: &Simulator<Controller<V>, Recording>,
        crash: Option<(usize, u64)>,
        moves: &mut Moves,
    ) {
        let settled = |n: &Controller<V>| (n.is_idle() && n.pending() == 0) || n.is_crashed();
        let reference = sim.nodes().all(settled);
        moves.drain_bits += 1;
        if drained(sim) == reference {
            return;
        }
        let now = sim.now();
        assert!(
            reference,
            "bit {now}: drained, but not by the link reference"
        );
        for (i, n) in sim.nodes().enumerate() {
            let due = crash.is_some_and(|(node, _)| node == i) && !n.is_crashed();
            assert!(
                n.quiescent_until(now) == u64::MAX || due,
                "bit {now}: node {i} withholds its promise with no crash due: {n:?}"
            );
        }
        moves.crash_due_bits += 1;
    }

    /// [`Cluster::check`] on a higher-level-protocol stack, plus a
    /// transmitter that crashes right after its DATA frame succeeds.
    /// Returns the host events of that run.
    fn check_hlp<L: HlpLayer + Clone>(
        spec: ProtocolSpec,
        layer: fn() -> L,
        moves: &mut Moves,
    ) -> Vec<TimedEvent<HlpEvent>> {
        let make = |i, config| HlpNode::with_config(layer(), i, config);
        let drain = |_: &Simulator<HlpNode<L>, Recording>, _, _: &mut Moves| {};
        let cluster = Cluster { spec, make, drain };
        cluster.check(moves);
        let clean = cluster.check_run(true, &[], None, false, moves);
        let data_sent = clean
            .events()
            .iter()
            .find(|e| matches!(e.event, HlpEvent::Link(CanEvent::TxSucceeded { .. })))
            .expect("the DATA frame went out")
            .at;
        let crashed = cluster.check_run(true, &[], Some((0, data_sent + 1)), false, moves);
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
    /// [`NO_FORK_FIELDS`] lists what it lists: on a fault-free run, a
    /// node's tag at disturb time is its tag before the step wherever
    /// either lies outside those fields, on all six stacks
    /// (higher-level-protocol layers queue frames from `observe`: ACCEPT,
    /// CONFIRM, duplicates); on any run, a node's disturb-time field is
    /// its pre-step field or one of them. Every listed field must also be
    /// seen entered, or left on a fault-free run, so the list stays
    /// minimal. On link clusters, every stepped bit also checks the drain
    /// predicate against the link reference ([`link_drain`]).
    #[test]
    fn drive_enters_only_no_fork_fields() {
        let mut moves = Moves::default();
        check_link(StandardCan, &mut moves);
        check_link(MinorCan, &mut moves);
        for m in [3, 5] {
            check_link(MajorCan::new(m).expect("valid tolerance"), &mut moves);
        }
        let edcan = check_hlp(ProtocolSpec::EdCan, EdCan::new, &mut moves);
        assert!(receiver_duplicated(&edcan), "EDCAN receivers flood");
        let relcan = check_hlp(ProtocolSpec::RelCan, RelCan::new, &mut moves);
        assert!(
            receiver_duplicated(&relcan),
            "RELCAN receivers time out on the CONFIRM and send duplicates"
        );
        let totcan = check_hlp(ProtocolSpec::TotCan, TotCan::new, &mut moves);
        let dropped = totcan
            .iter()
            .filter(|e| matches!(e.event, HlpEvent::Dropped { .. }))
            .count();
        assert_eq!(
            dropped,
            N_NODES - 1,
            "TOTCAN receivers time out on the ACCEPT"
        );
        assert!(
            moves.crash_due_bits > 0 && moves.crash_due_bits < moves.drain_bits,
            "the crash scripts reach the drain test's one difference from the link reference"
        );
        let listed: BTreeSet<Field> = NO_FORK_FIELDS.iter().copied().collect();
        let moved: BTreeSet<Field> = moves.entered.union(&moves.left).copied().collect();
        assert_eq!(
            moved, listed,
            "every no-fork field is entered by drive, or left on a fault-free run"
        );
    }
}
