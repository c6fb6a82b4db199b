//! The leaps' correctness gate. `Simulator::run` leaps every stretch its
//! quiet horizon proves inert, and every frame the channel promises
//! clean (a script that has fully fired), so every testbed run path —
//! `run_schedule` on link and higher-level-protocol clusters,
//! `run_attack`, and plain `Testbed::run` — ends at the bus fixpoint
//! instead of stepping its whole budget. Each leaping run here is
//! compared with a stepped reference (the same cluster driven by a plain
//! `step()` loop) on the event log, the unfired count, the attacker's
//! spend, the clock and the graded outcome.
//!
//! At every stepped bit the reference also checks the fact the channels'
//! quiet promises rest on: a node promising quiescence reports only the
//! `Idle` or `Crashed` field, so a script entry or attack action on any
//! other field cannot match while the whole bus is quiescent.
//!
//! The second part pins the early exit itself: a pass-through channel
//! counts `disturb` calls (one per node per stepped bit) and shows that
//! clean runs and a bus-off attack step far fewer bits than their
//! budgets, so a state that loses its quiescence promise fails here, and
//! that a retransmission is leapt exactly when the script has fully
//! fired and no trace records.
//!
//! The third part gates the clean-frame leap of the soak driver
//! (`drive_source`): random traffic, whole soak cells, and the share of
//! the benchmark cell's bits it still steps.
//!
//! The fourth gates the same leap inside `Simulator::run` on arbitrary
//! queued frames (identifiers, data payloads of 0–8 bytes, remote frames,
//! 2–7 nodes), the inputs of the `can` crate's clean-bus suites, which
//! run through that leap.
//!
//! The fifth gates the higher-level-protocol frame leap, which replays
//! the controllers' leapt link events through each node's layer: EDCAN,
//! RELCAN and TOTCAN buses with several broadcasters, crashed
//! transmitters and short scripts, checked after every chunk, and
//! required to leap every receiver's EDCAN duplicate, a RELCAN CONFIRM,
//! a TOTCAN ACCEPT, and a frame before each crashed transmitter's
//! CONFIRM or ACCEPT timeout.

use majorcan_abcast::trace_from_can_events;
use majorcan_abcast::{msg_id_of, MsgId, WindowedChecker};
use majorcan_campaign::{derive_trial_seed, ProtocolSpec};
use majorcan_can::{CanEvent, Controller, ControllerConfig, Field, StandardCan, Variant, WirePos};
use majorcan_can::{Frame, FrameId};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_falsify::{generate_attack, AttackSchedule, Geometry, ATTACK_BUDGET};
use majorcan_faults::{scenario_frame, AttackAction, Disturbance, Strategy as Attack};
use majorcan_hlp::{trace_from_hlp_events, EdCan, HlpEvent, HlpLayer, HlpNode, RelCan, TotCan};
use majorcan_hlp::{HlpMessage, MsgKind};
use majorcan_sim::{BitNode, ChannelModel, Level, NodeId, Simulator, TimedEvent};
use majorcan_testbed::{
    budget_for, classify, BusChannel, Outcome, Testbed, HLP_BUDGET, HLP_PROBE_PAYLOAD, LINK_BUDGET,
};
use majorcan_traffic::{
    run_soak, Histogram, LatencyTracker, Residency, ResidencyTracker, SoakOutcome, SoakSpec,
};
use majorcan_traffic::{
    BurstSpec, SenderPattern, SenderSpec, TrafficSpec, TrafficStream, DEFAULT_FRAME_BITS,
};
use majorcan_workload::{drive_source, FrameSink, Release, ReleaseSource};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const N_NODES: usize = 3;

const ALL_PROTOCOLS: [ProtocolSpec; 6] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
    ProtocolSpec::EdCan,
    ProtocolSpec::RelCan,
    ProtocolSpec::TotCan,
];

const LINK_PROTOCOLS: [ProtocolSpec; 4] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 3 },
    ProtocolSpec::MajorCan { m: 5 },
];

/// Frame fields the falsifier reaches.
const FIELDS: [Field; 11] = [
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

/// An entry only a quiescent node can match (`Idle` or `Crashed`, bit
/// 0, never a stuff bit), on its `occurrence`-th such bit: the script
/// must withhold its promise until it fires, which for an occurrence
/// past the first frame is on the otherwise quiet bus.
fn idle_bus_entry(node: usize, crashed: bool, occurrence: u32) -> Disturbance {
    let field = if crashed { Field::Crashed } else { Field::Idle };
    Disturbance {
        occurrence,
        ..Disturbance::first(node, field, 0)
    }
}

fn arb_disturbance() -> impl Strategy<Value = Disturbance> {
    (
        0usize..N_NODES,
        0usize..FIELDS.len() + 4,
        0u16..16,
        0u32..20,
    )
        .prop_map(|(node, field, index, salt)| {
            if field >= FIELDS.len() {
                return idle_bus_entry(node, field % 2 == 1, [1, 2, 3, 50][salt as usize % 4]);
            }
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

fn arb_schedule() -> impl Strategy<Value = Vec<Disturbance>> {
    proptest::collection::vec(arb_disturbance(), 0..5)
}

/// The falsifier's attacks for campaign seed `seed`: the first four it
/// generates plus, where they are not among those, its first two floods
/// and its first bus-off hammer, so every case covers both shapes.
fn attack_mix(seed: u64, geo: &Geometry) -> Vec<AttackSchedule> {
    let mut mix = Vec::new();
    let (mut floods, mut busoff) = (0, false);
    for trial in 0.. {
        let mut rng = StdRng::seed_from_u64(derive_trial_seed(seed, trial));
        let schedule = generate_attack(&mut rng, geo, 40);
        let name = schedule.strategy_name();
        let wanted = trial < 4 || (name == "flood" && floods < 2) || (name == "busoff" && !busoff);
        floods += usize::from(name == "flood");
        busoff |= name == "busoff";
        if wanted {
            mix.push(schedule);
        }
        if trial >= 4 && floods >= 2 && busoff {
            return mix;
        }
    }
    unreachable!("the trial loop only ends by returning")
}

/// Everything a run leaves behind that a wrong leap could corrupt.
#[derive(Debug, PartialEq)]
struct Run<E> {
    events: Vec<TimedEvent<E>>,
    unfired: usize,
    spent: Option<u64>,
    now: u64,
    outcome: Outcome,
}

impl<E: Clone> Run<E> {
    fn of<N: BitNode<Tag = WirePos, Event = E>>(
        sim: &Simulator<N, BusChannel>,
        outcome: Outcome,
    ) -> Run<E> {
        Run {
            events: sim.events().to_vec(),
            unfired: sim.channel().unfired_len(),
            spent: sim.channel().attacker().map(|a| a.spent()),
            now: sim.now(),
            outcome,
        }
    }
}

/// The leaping side: what `tb` holds after a run graded as `outcome`,
/// with `events` its link or host event log.
fn testbed_run<E: Clone>(tb: &Testbed, events: &[TimedEvent<E>], outcome: Outcome) -> Run<E> {
    Run {
        events: events.to_vec(),
        unfired: tb.unfired_len(),
        spent: tb.attacker().map(|a| a.spent()),
        now: tb.now(),
        outcome,
    }
}

/// Steps `sim` one bit at a time up to `budget`, never leaping, and
/// checks before every bit that each node promising quiescence reports
/// an idle-bus field.
fn step_to<N: BitNode<Tag = WirePos>>(sim: &mut Simulator<N, BusChannel>, budget: u64) {
    while sim.now() < budget {
        let now = sim.now();
        for (i, node) in sim.nodes().enumerate() {
            let field = node.tag().field;
            assert!(
                node.quiescent_until(now) <= now || matches!(field, Field::Idle | Field::Crashed),
                "node {i} promises quiescence at bit {now} while reporting {field}"
            );
        }
        sim.step();
    }
}

/// The stepped twin of a link-layer testbed run: node 0 sends the
/// scenario frame over `channel`. `truncation` applies the demotion
/// `run_schedule` grades with (`run_attack` does not).
fn stepped_link<V: Variant>(
    variant: V,
    shutoff_at_warning: bool,
    channel: BusChannel,
    budget: u64,
    truncation: bool,
) -> Run<CanEvent> {
    let config = ControllerConfig {
        shutoff_at_warning,
        fail_at: None,
    };
    let mut sim = Simulator::new(channel);
    for _ in 0..N_NODES {
        sim.attach(Controller::with_config(variant.clone(), config.clone()));
    }
    sim.node_mut(NodeId(0)).enqueue(scenario_frame());
    step_to(&mut sim, budget);
    let verdict = trace_from_can_events(sim.events(), N_NODES)
        .check()
        .verdict();
    let outcome = classify(verdict, sim.channel().unfired_len())
        .truncate_if(truncation && !link_drained(&sim));
    Run::of(&sim, outcome)
}

/// The testbed's higher-level-protocol cluster shape on `channel`.
fn hlp_cluster<L: HlpLayer>(
    make: fn() -> L,
    channel: BusChannel,
) -> Simulator<HlpNode<L>, BusChannel> {
    let mut sim = Simulator::new(channel);
    for i in 0..N_NODES {
        sim.attach(HlpNode::new(make(), i));
    }
    sim
}

/// Grades a finished higher-level-protocol run as `run_schedule` does.
fn hlp_run<L: HlpLayer>(sim: &Simulator<HlpNode<L>, BusChannel>) -> Run<HlpEvent> {
    let verdict = trace_from_hlp_events(sim.events(), N_NODES)
        .check()
        .verdict();
    Run::of(sim, classify(verdict, sim.channel().unfired_len()))
}

/// The stepped twin of a higher-level-protocol testbed run: node 0
/// broadcasts the probe payload and, with `fail_at`, crashes then.
fn stepped_hlp<L: HlpLayer>(
    make: fn() -> L,
    channel: BusChannel,
    fail_at: Option<u64>,
    budget: u64,
) -> Run<HlpEvent> {
    let mut sim = hlp_cluster(make, channel);
    sim.node_mut(NodeId(0)).set_fail_at(fail_at);
    sim.node_mut(NodeId(0)).broadcast(HLP_PROBE_PAYLOAD);
    step_to(&mut sim, budget);
    hlp_run(&sim)
}

fn testbed(protocol: ProtocolSpec) -> Testbed {
    Testbed::builder(protocol).nodes(N_NODES).build()
}

/// `run_schedule` on `tb` against its stepped twin.
fn check_schedule(tb: &mut Testbed, schedule: &[Disturbance]) {
    let outcome = tb.run_schedule(schedule);
    let channel = BusChannel::scripted(schedule.to_vec());
    let budget = budget_for(tb.protocol());
    let ctx = format!("{} under {schedule:?}", tb.protocol());
    match tb.protocol() {
        ProtocolSpec::StandardCan => assert_eq!(
            testbed_run(tb, tb.can_events(), outcome),
            stepped_link(StandardCan, true, channel, budget, true),
            "{ctx}"
        ),
        ProtocolSpec::MinorCan => assert_eq!(
            testbed_run(tb, tb.can_events(), outcome),
            stepped_link(MinorCan, true, channel, budget, true),
            "{ctx}"
        ),
        ProtocolSpec::MajorCan { m } => assert_eq!(
            testbed_run(tb, tb.can_events(), outcome),
            stepped_link(MajorCan::new(m).unwrap(), true, channel, budget, true),
            "{ctx}"
        ),
        ProtocolSpec::EdCan => assert_eq!(
            testbed_run(tb, tb.hlp_events(), outcome),
            stepped_hlp(EdCan::new, channel, None, budget),
            "{ctx}"
        ),
        ProtocolSpec::RelCan => assert_eq!(
            testbed_run(tb, tb.hlp_events(), outcome),
            stepped_hlp(RelCan::new, channel, None, budget),
            "{ctx}"
        ),
        ProtocolSpec::TotCan => assert_eq!(
            testbed_run(tb, tb.hlp_events(), outcome),
            stepped_hlp(TotCan::new, channel, None, budget),
            "{ctx}"
        ),
    }
}

/// `run_attack` on `tb` (built as the attack oracle builds it) against
/// its stepped twin.
fn check_attack(tb: &mut Testbed, actions: &[AttackAction], cost: u64) {
    let outcome = tb.run_attack(actions, cost);
    let leapt = testbed_run(tb, tb.can_events(), outcome);
    let channel = BusChannel::attack(actions.to_vec(), cost);
    let stepped = match tb.protocol() {
        ProtocolSpec::StandardCan => {
            stepped_link(StandardCan, false, channel, ATTACK_BUDGET, false)
        }
        ProtocolSpec::MinorCan => stepped_link(MinorCan, false, channel, ATTACK_BUDGET, false),
        ProtocolSpec::MajorCan { m } => stepped_link(
            MajorCan::new(m).unwrap(),
            false,
            channel,
            ATTACK_BUDGET,
            false,
        ),
        other => panic!("attacks target link-layer clusters, not {other}"),
    };
    assert_eq!(leapt, stepped, "{} under {actions:?}", tb.protocol());
}

fn attack_testbed(protocol: ProtocolSpec) -> Testbed {
    Testbed::builder(protocol)
        .nodes(N_NODES)
        .budget(ATTACK_BUDGET)
        .shutoff_at_warning(false)
        .build()
}

/// A pulse or hammer on a field only a quiescent node reports: the
/// attacker must withhold its promise while it is armed.
fn idle_bus_action(node: usize, crashed: bool, reps: u32) -> AttackAction {
    let field = if crashed { Field::Crashed } else { Field::Idle };
    if reps == 1 {
        AttackAction::Pulse {
            node,
            field,
            index: 0,
            occurrence: 40,
        }
    } else {
        AttackAction::Hammer {
            node,
            field,
            index: 0,
            reps,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random scripts on all six stacks, each reusing one testbed so the
    // reset path is covered too.
    #[test]
    fn scripted_runs_leap_bit_identically(
        schedules in proptest::collection::vec(arb_schedule(), 1..4),
    ) {
        for protocol in ALL_PROTOCOLS {
            let mut tb = testbed(protocol);
            for schedule in &schedules {
                check_schedule(&mut tb, schedule);
            }
        }
    }

    // The falsifier's own attack generator (floods, bus-off and counter
    // hammers, translated paper archetypes); two of the first four also
    // carry an idle-bus action, which withholds the attacker's promise.
    #[test]
    fn attack_runs_leap_bit_identically(
        seed in 0u64..u64::MAX,
        extra in 0u32..6,
        victim in 0usize..N_NODES,
    ) {
        for protocol in LINK_PROTOCOLS {
            let mut tb = attack_testbed(protocol);
            let mix = attack_mix(seed, &Geometry::for_protocol(protocol, N_NODES));
            for (i, schedule) in mix.iter().enumerate() {
                let mut actions = schedule.to_vec();
                let mut cost = schedule.cost();
                if extra > 0 && i < 4 && i % 2 == 1 {
                    actions.push(idle_bus_action(victim, extra % 2 == 0, extra));
                    cost += u64::from(extra);
                }
                check_attack(&mut tb, &actions, cost);
            }
        }
    }

    // The transmitter crashes at `fail_at`, typically between its DATA
    // and the ACCEPT/CONFIRM that should follow: the receivers then idle
    // until their timer, so the leap lands right on the deadline bit.
    // A late entry on the transmitter's own `Crashed` bits keeps the
    // script's promise withheld across the receivers' idle wait.
    #[test]
    fn crashed_transmitter_timeouts_fire_after_a_leap(
        fail_at in 0u64..400,
        schedule in arb_schedule(),
        crashed_hit in 0usize..4,
    ) {
        let mut schedule = schedule;
        if crashed_hit > 0 {
            schedule.push(idle_bus_entry(0, true, [30, 300, 900][crashed_hit - 1]));
        }
        for protocol in [ProtocolSpec::TotCan, ProtocolSpec::RelCan] {
            let mut tb = testbed(protocol);
            tb.set_record_trace(false);
            tb.load_script(&schedule);
            tb.set_fail_at(0, Some(fail_at));
            tb.broadcast(0, HLP_PROBE_PAYLOAD);
            tb.run(HLP_BUDGET);
            let leapt = testbed_run(&tb, tb.hlp_events(), tb.outcome());
            let channel = BusChannel::scripted(schedule.clone());
            let stepped = match protocol {
                ProtocolSpec::TotCan => stepped_hlp(TotCan::new, channel, Some(fail_at), HLP_BUDGET),
                _ => stepped_hlp(RelCan::new, channel, Some(fail_at), HLP_BUDGET),
            };
            prop_assert_eq!(leapt, stepped);
        }
    }
}

/// The crash window is wide enough to hit the timers it is meant for:
/// some crash time leaves TOTCAN receivers dropping on ACCEPT timeout
/// and RELCAN receivers duplicating on CONFIRM timeout.
#[test]
fn crash_window_reaches_both_timeouts() {
    let mut dropped = false;
    let mut duplicated = false;
    for fail_at in (0..400).step_by(5) {
        for protocol in [ProtocolSpec::TotCan, ProtocolSpec::RelCan] {
            let mut tb = testbed(protocol);
            tb.load_script(&[]);
            tb.set_fail_at(0, Some(fail_at));
            tb.broadcast(0, HLP_PROBE_PAYLOAD);
            tb.run(HLP_BUDGET);
            for e in tb.hlp_events() {
                match &e.event {
                    HlpEvent::Dropped { .. } => dropped = true,
                    HlpEvent::Link(CanEvent::TxStarted { .. }) if e.node != NodeId(0) => {
                        duplicated = true
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(
        dropped,
        "some crash leaves TOTCAN dropping on ACCEPT timeout"
    );
    assert!(
        duplicated,
        "some crash leaves a RELCAN receiver sending its duplicate"
    );
}

/// A broadcast requested on a crashed node queues a host event while
/// its controller promises quiet forever: the node withholds its own
/// promise until the event is flushed, so the event lands on the same
/// bit as in a stepped run instead of vanishing into a leap.
#[test]
fn host_events_on_a_quiet_bus_are_flushed_not_leapt() {
    const AT: u64 = 500;
    let mut tb = testbed(ProtocolSpec::EdCan);
    tb.load_script(&[]);
    tb.set_fail_at(1, Some(0));
    tb.run(AT);
    tb.broadcast(1, HLP_PROBE_PAYLOAD);
    tb.run(HLP_BUDGET - AT);
    let leapt = testbed_run(&tb, tb.hlp_events(), tb.outcome());

    let mut sim = hlp_cluster(EdCan::new, BusChannel::scripted(Vec::new()));
    sim.node_mut(NodeId(1)).set_fail_at(Some(0));
    step_to(&mut sim, AT);
    sim.node_mut(NodeId(1)).broadcast(HLP_PROBE_PAYLOAD);
    step_to(&mut sim, HLP_BUDGET);
    assert_eq!(leapt, hlp_run(&sim));
    assert!(
        leapt
            .events
            .iter()
            .any(|e| e.at == AT && matches!(e.event, HlpEvent::Broadcast { .. })),
        "the broadcast event was flushed on its bit"
    );
}

/// Forwards a channel and counts its `disturb` calls: one per node per
/// stepped bit, none per leapt bit.
struct Counting<C> {
    inner: C,
    calls: u64,
}

impl<C: ChannelModel<WirePos>> ChannelModel<WirePos> for Counting<C> {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
        self.calls += 1;
        self.inner.disturb(bit, node, tag, wire)
    }

    fn quiet_until(&self, now: u64) -> u64 {
        self.inner.quiet_until(now)
    }

    fn clean_until(&self, now: u64) -> u64 {
        self.inner.clean_until(now)
    }
}

/// Bits `sim` actually stepped.
fn stepped_bits<N: BitNode<Tag = WirePos>>(sim: &Simulator<N, Counting<BusChannel>>) -> u64 {
    sim.channel().calls / sim.node_count() as u64
}

fn counted_link<V: Variant>(
    variant: V,
    shutoff_at_warning: bool,
    channel: BusChannel,
) -> Simulator<Controller<V>, Counting<BusChannel>> {
    let config = ControllerConfig {
        shutoff_at_warning,
        fail_at: None,
    };
    let mut sim = Simulator::new(Counting {
        inner: channel,
        calls: 0,
    });
    for _ in 0..N_NODES {
        sim.attach(Controller::with_config(variant.clone(), config.clone()));
    }
    sim.node_mut(NodeId(0)).enqueue(scenario_frame());
    sim
}

#[test]
fn clean_can_run_steps_only_its_frame() {
    let mut sim = counted_link(StandardCan, true, BusChannel::scripted(Vec::new()));
    sim.run(LINK_BUDGET);
    assert_eq!(sim.now(), LINK_BUDGET, "the clock still reaches the budget");
    let delivered = sim
        .events()
        .iter()
        .filter(|e| matches!(e.event, CanEvent::Delivered { .. }))
        .count();
    assert_eq!(delivered, N_NODES - 1, "every receiver delivered");
    // Measured: 11 bits, the bus integration; the empty script promises
    // a clean bus, so the frame and its intermission are leapt.
    let stepped = stepped_bits(&sim);
    assert!(
        stepped <= 20,
        "a clean CAN run stepped {stepped} of {LINK_BUDGET} bits"
    );
}

/// A MajorCAN_5 schedule that forces a retransmission: two receivers see
/// a dominant first EOF bit, and both flips fire in the first attempt.
fn forced_retransmission() -> Vec<Disturbance> {
    vec![Disturbance::eof(1, 1), Disturbance::eof(2, 1)]
}

/// Runs node 0's scenario frame over `schedule` on MajorCAN_5 up to bit
/// `split`, then on to the budget; returns the event log and the bits
/// stepped after `split`.
fn steps_after(schedule: &[Disturbance], split: u64) -> (Vec<TimedEvent<CanEvent>>, u64) {
    let channel = BusChannel::scripted(schedule.to_vec());
    let mut sim = counted_link(MajorCan::new(5).expect("m in range"), true, channel);
    sim.run(split);
    let before = stepped_bits(&sim);
    sim.run(LINK_BUDGET - split);
    (sim.events().to_vec(), stepped_bits(&sim) - before)
}

#[test]
fn a_fully_fired_script_leaps_the_retransmission() {
    let schedule = forced_retransmission();
    let channel = BusChannel::scripted(schedule.clone());
    let mut traced = counted_link(MajorCan::new(5).expect("m in range"), true, channel);
    traced.record_trace();
    traced.run(LINK_BUDGET);
    assert_eq!(traced.channel().inner.unfired_len(), 0, "both flips fired");
    assert_eq!(
        stepped_bits(&traced),
        LINK_BUDGET,
        "a trace-recording run steps every bit"
    );
    let at = |event: fn(&CanEvent) -> bool| {
        traced
            .events()
            .iter()
            .find(|e| e.node == NodeId(0) && event(&e.event))
            .map(|e| e.at)
            .expect("the transmitter logged it")
    };
    let sof = at(|e| matches!(e, CanEvent::TxStarted { attempt: 2, .. }));
    let last = at(|e| matches!(e, CanEvent::TxSucceeded { .. }));

    // Fully fired before the retransmission: its SOF..EOF is leapt, and
    // the drained bus after it too.
    let (events, stepped) = steps_after(&schedule, sof);
    assert_eq!(events, traced.events(), "the leap is bit-identical");
    assert_eq!(stepped, 0, "the retransmission stepped {stepped} bits");

    // An entry still pending (one that never fires) withholds the clean
    // promise: every bit of the retransmission is stepped.
    let never = Disturbance {
        occurrence: 9,
        ..Disturbance::eof(2, 7)
    };
    let (events, stepped) = steps_after(&[schedule, vec![never]].concat(), sof);
    assert_eq!(events, traced.events(), "the pending entry never fired");
    assert!(
        stepped > last - sof,
        "the retransmission stepped only {stepped} of its {} bits",
        last + 1 - sof
    );
}

#[test]
fn clean_totcan_broadcast_steps_only_the_bus_integration() {
    let mut sim = Simulator::new(Counting {
        inner: BusChannel::scripted(Vec::new()),
        calls: 0,
    });
    for i in 0..N_NODES {
        sim.attach(HlpNode::new(TotCan::new(), i));
    }
    sim.node_mut(NodeId(0)).broadcast(HLP_PROBE_PAYLOAD);
    sim.run(HLP_BUDGET);
    assert_eq!(sim.now(), HLP_BUDGET, "the clock still reaches the budget");
    let delivered = sim
        .events()
        .iter()
        .filter(|e| matches!(e.event, HlpEvent::Delivered { .. }))
        .count();
    assert_eq!(delivered, N_NODES, "every node delivered on ACCEPT");
    // Measured: 11 bits, the bus integration; the DATA and ACCEPT
    // frames are leapt, the drained bus after them too.
    let stepped = stepped_bits(&sim);
    assert!(
        stepped <= 11,
        "a clean TOTCAN broadcast stepped {stepped} of {HLP_BUDGET} bits"
    );
}

#[test]
fn bus_off_attack_steps_only_until_recovery() {
    let hammer = Attack::BusOffAttack {
        victim: 0,
        reps: 32,
    };
    let mut sim = counted_link(StandardCan, false, BusChannel::attack(hammer.actions(), 32));
    sim.run(ATTACK_BUDGET);
    assert_eq!(
        sim.now(),
        ATTACK_BUDGET,
        "the clock still reaches the budget"
    );
    assert!(
        sim.events()
            .iter()
            .any(|e| e.node == NodeId(0) && matches!(e.event, CanEvent::WentBusOff)),
        "the hammer drove the victim bus-off"
    );
    // Measured: 3,590 bits — 32 struck attempts, the 128 × 11-bit
    // recovery and the successful retransmission are all stepped.
    let stepped = stepped_bits(&sim);
    assert!(
        stepped <= 4_000,
        "a bus-off hammer stepped {stepped} of {ATTACK_BUDGET} bits"
    );
}

// ---------------------------------------------------------------------
// The clean-frame leap. `drive_source` carries the whole bus across every
// frame it can prove undisturbed (`Simulator::leap_frame`). On random
// traffic it must leave the event log, the clock, the release count and
// every controller's state exactly where a plain stepping driver does.

/// The soak's chunk between event-log drains; no leap may cross it.
const CHUNK: u64 = 2_048;

/// `Simulator::run` without the frame leap: quiet stretches are leapt
/// (pinned against plain stepping above), every other bit is stepped.
fn run_stepping_frames<N: BitNode, C: ChannelModel<N::Tag>>(sim: &mut Simulator<N, C>, bits: u64) {
    let end = sim.now() + bits;
    while sim.now() < end {
        let horizon = sim.quiet_horizon();
        if horizon > sim.now() {
            sim.run(horizon.min(end) - sim.now());
        } else {
            sim.step();
        }
    }
}

/// The reference driver: queue the releases due, then run to the next
/// release, stepping every frame bit and leaping only the quiet
/// stretches between frames, so the reference leaves every controller
/// field, `bit_now` included, where a frame-by-frame stepped run does.
fn drive_stepped<N, C, S>(sim: &mut Simulator<N, C>, source: &mut S, horizon: u64) -> usize
where
    N: BitNode + FrameSink,
    C: ChannelModel<N::Tag>,
    S: ReleaseSource + ?Sized,
{
    let mut queued = 0;
    let end = sim.now() + horizon;
    while sim.now() < end {
        let now = sim.now();
        while source.next_at().is_some_and(|at| at <= now) {
            let release = source.pop().expect("next_at announced a release");
            sim.node_mut(NodeId(release.node))
                .enqueue_frame(release.frame);
            queued += 1;
        }
        let next_release = source.next_at().unwrap_or(u64::MAX).min(end);
        run_stepping_frames(sim, next_release - now);
    }
    queued
}

type CountedLink<V> = Simulator<Controller<V>, Counting<BusChannel>>;

/// Every node idle with nothing queued, or crashed: the testbed's drain
/// test.
fn link_drained<V: Variant, C: ChannelModel<WirePos>>(sim: &Simulator<Controller<V>, C>) -> bool {
    sim.nodes()
        .all(|c| (c.is_idle() && c.pending() == 0) || c.is_crashed())
}

/// Every controller's full state, field by field.
fn states<V: Variant, C: ChannelModel<WirePos>>(sim: &Simulator<Controller<V>, C>) -> String {
    format!("{:?}", sim.nodes().collect::<Vec<_>>())
}

/// One random-traffic case of the frame-leap gate.
#[derive(Debug, Clone)]
struct TrafficCase {
    protocol: ProtocolSpec,
    traffic: TrafficSpec,
    burst: Option<BurstSpec>,
    shutoff_at_warning: bool,
    frames: u64,
    seed: u64,
}

/// What the leaping side of a case did.
#[derive(Debug, Default, Clone, Copy)]
struct LeapStats {
    /// Transmission attempts.
    frames: usize,
    /// Bits the clock advanced.
    bits: u64,
    /// Bits actually stepped.
    stepped: u64,
}

impl TrafficCase {
    /// 2–8 nodes at a joint load of 0.3–1.2, `senders` senders per node
    /// on random identifiers (a quarter of the cases put two nodes on one
    /// identifier), periodic or sporadic, over a clean or bursty bus.
    fn random(protocol: ProtocolSpec, senders: usize, bursty: bool, seed: u64) -> TrafficCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nodes = rng.gen_range(2..=8usize);
        let load: f64 = rng.gen_range(0.3..1.2);
        let gap = (n_nodes * senders) as f64 * DEFAULT_FRAME_BITS as f64 / load;
        let mut senders: Vec<SenderSpec> = (0..n_nodes * senders)
            .map(|k| SenderSpec {
                node: k % n_nodes,
                id: FrameId::new(rng.gen_range(0..0x7F0)).expect("id in range"),
                pattern: if rng.gen_bool(0.5) {
                    SenderPattern::Periodic {
                        period: gap as u64,
                        phase: rng.gen_range(0..gap as u64),
                        jitter: gap as u64 / 8,
                    }
                } else {
                    SenderPattern::Sporadic { mean_gap: gap }
                },
                extra_max: rng.gen_range(0..=4),
            })
            .collect();
        if rng.gen_bool(0.25) {
            senders[1].id = senders[0].id;
        }
        let burst = bursty.then(|| BurstSpec {
            period: rng.gen_range(600..3_000),
            len: rng.gen_range(10..120),
            ber_star: rng.gen_range(0.05..0.5),
        });
        TrafficCase {
            protocol,
            traffic: TrafficSpec { n_nodes, senders },
            burst,
            shutoff_at_warning: rng.gen_bool(0.5),
            frames: if cfg!(debug_assertions) { 60 } else { 150 },
            seed,
        }
    }

    fn cluster<V: Variant>(&self, variant: V) -> CountedLink<V> {
        let config = ControllerConfig {
            shutoff_at_warning: self.shutoff_at_warning,
            fail_at: None,
        };
        let inner = match &self.burst {
            None => BusChannel::NoFaults,
            Some(b) => BusChannel::bursts(b.period, b.len, b.ber_star, self.seed),
        };
        let mut sim = Simulator::new(Counting { inner, calls: 0 });
        for _ in 0..self.traffic.n_nodes {
            sim.attach(Controller::with_config(variant.clone(), config.clone()));
        }
        sim
    }

    /// Drives the case chunk by chunk through `drive_source` and through
    /// the stepping reference, comparing the two after every chunk.
    fn check<V: Variant>(&self, variant: V) -> LeapStats {
        let stream = || TrafficStream::new(self.traffic.clone(), self.seed, self.frames);
        let (mut fast, mut slow) = (self.cluster(variant.clone()), self.cluster(variant));
        let (mut fast_src, mut slow_src) = (stream(), stream());
        let cap = 40 * self.frames * DEFAULT_FRAME_BITS + 20_000;
        while !(fast_src.is_exhausted() && link_drained(&fast)) && fast.now() < cap {
            let fq = drive_source(&mut fast, &mut fast_src, CHUNK);
            let sq = drive_stepped(&mut slow, &mut slow_src, CHUNK);
            let at = slow.now();
            assert_eq!((fq, fast.now()), (sq, at), "{self:?}: queued, clock");
            assert_eq!(fast.events(), slow.events(), "{self:?}: events by bit {at}");
            assert_eq!(states(&fast), states(&slow), "{self:?}: states at bit {at}");
        }
        LeapStats {
            frames: fast
                .events()
                .iter()
                .filter(|e| matches!(e.event, CanEvent::TxStarted { .. }))
                .count(),
            bits: fast.now(),
            stepped: stepped_bits(&fast),
        }
    }

    fn run(&self) -> LeapStats {
        match self.protocol {
            ProtocolSpec::StandardCan => self.check(StandardCan),
            ProtocolSpec::MinorCan => self.check(MinorCan),
            ProtocolSpec::MajorCan { m } => self.check(MajorCan::new(m).expect("m in range")),
            other => unreachable!("{other} is not a link-layer protocol"),
        }
    }
}

const FRAME_LEAP_PROTOCOLS: [ProtocolSpec; 5] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 3 },
    ProtocolSpec::MajorCan { m: 4 },
    ProtocolSpec::MajorCan { m: 5 },
];

/// Cases per (protocol, senders per node, channel) combination: 480 in
/// all.
const CASES: u64 = 24;

/// Runs every case of one channel shape; returns the leaping side's
/// totals.
fn check_traffic(bursty: bool) -> LeapStats {
    let mut total = LeapStats::default();
    for (p, protocol) in FRAME_LEAP_PROTOCOLS.into_iter().enumerate() {
        for senders in [1, 3] {
            for k in 0..CASES {
                let seed = derive_trial_seed(0x1EA9, (p as u64 * 10 + senders as u64) * 100 + k);
                let stats = TrafficCase::random(protocol, senders, bursty, seed).run();
                total.frames += stats.frames;
                total.bits += stats.bits;
                total.stepped += stats.stepped;
            }
        }
    }
    total
}

#[test]
fn frame_leap_matches_stepping_on_clean_random_traffic() {
    let total = check_traffic(false);
    assert!(total.frames > 0);
    assert!(
        total.stepped * 2 < total.bits,
        "the clean cases leapt little: {total:?}"
    );
}

#[test]
fn frame_leap_matches_stepping_on_bursty_random_traffic() {
    let total = check_traffic(true);
    assert!(total.frames > 0);
    assert!(
        total.stepped < total.bits,
        "the bursty cases never leapt: {total:?}"
    );
}

/// Hands out a stream's releases and logs each one, as `run_soak` does.
struct Tap<'a> {
    inner: &'a mut TrafficStream,
    log: &'a mut Vec<(u64, MsgId)>,
}

impl ReleaseSource for Tap<'_> {
    fn next_at(&self) -> Option<u64> {
        self.inner.next_at()
    }

    fn pop(&mut self) -> Option<Release> {
        let release = self.inner.pop()?;
        self.log.push((release.at, msg_id_of(&release.frame)));
        Some(release)
    }
}

/// `run_soak` with the reference driver: the same cluster, stream,
/// checker, trackers and counters, chunk by chunk.
fn stepped_soak<V: Variant>(variant: V, spec: &SoakSpec) -> SoakOutcome {
    let config = ControllerConfig {
        shutoff_at_warning: spec.shutoff_at_warning,
        fail_at: None,
    };
    let channel = match &spec.burst {
        None => BusChannel::NoFaults,
        Some(b) => BusChannel::bursts(b.period, b.len, b.ber_star, derive_trial_seed(spec.seed, 1)),
    };
    let mut sim = Simulator::new(channel);
    for _ in 0..spec.n_nodes {
        sim.attach(Controller::with_config(variant.clone(), config.clone()));
    }
    let traffic = TrafficSpec::mixed_load(
        spec.n_nodes,
        spec.load,
        DEFAULT_FRAME_BITS,
        spec.sporadic_permille,
    );
    let mut stream = TrafficStream::new(traffic, derive_trial_seed(spec.seed, 0), spec.frames);
    let mut checker = WindowedChecker::new(spec.n_nodes, spec.window);
    let mut latency = LatencyTracker::new(spec.window);
    let mut residency = ResidencyTracker::new(spec.n_nodes);
    let mut out = SoakOutcome {
        released: 0,
        attempts: 0,
        successes: 0,
        retransmissions: 0,
        deliveries: 0,
        arb_losses: 0,
        errors: 0,
        bits: 0,
        drained: false,
        report: None,
        first_violation: None,
        peak_live: 0,
        max_gap: 0,
        delivery_latency: Histogram::new(),
        commit_latency: Histogram::new(),
        unmatched: 0,
        residency: Residency::default(),
        attack_spent: None,
    };
    let span = (spec.frames as f64 * DEFAULT_FRAME_BITS as f64 / spec.load) as u64;
    let cap = span * 2 + 500_000;
    let mut log = Vec::new();
    loop {
        let mut tap = Tap {
            inner: &mut stream,
            log: &mut log,
        };
        drive_stepped(&mut sim, &mut tap, CHUNK);
        for (at, msg) in log.drain(..) {
            latency.note_release(at, msg);
        }
        for e in sim.take_events() {
            checker.push_can(&e);
            latency.observe(&e);
            residency.observe(&e);
            match &e.event {
                CanEvent::TxStarted { .. } => out.attempts += 1,
                CanEvent::TxSucceeded { .. } => out.successes += 1,
                CanEvent::RetransmissionScheduled { .. } => out.retransmissions += 1,
                CanEvent::Delivered { .. } => out.deliveries += 1,
                CanEvent::ArbitrationLost { .. } => out.arb_losses += 1,
                CanEvent::ErrorDetected { .. } => out.errors += 1,
                _ => {}
            }
        }
        if stream.is_exhausted() && link_drained(&sim) {
            out.drained = true;
            break;
        }
        if sim.now() >= cap {
            break;
        }
    }
    out.released = stream.released();
    out.bits = sim.now();
    out.delivery_latency = latency.delivery.clone();
    out.commit_latency = latency.commit.clone();
    out.unmatched = latency.unmatched();
    out.residency = residency.finish(out.bits);
    out.peak_live = checker.peak_live();
    out.max_gap = checker.max_observed_gap();
    out.first_violation = checker.first_violation().cloned();
    out.report = Some(checker.finish());
    out
}

/// `run_soak` (which drives through `drive_source`) against its stepped
/// twin: every counter, histogram, residency figure and the online
/// verdict.
fn check_soak(spec: &SoakSpec) -> SoakOutcome {
    let leapt = run_soak(spec, None).expect("no exporter, no I/O");
    let stepped = match spec.protocol {
        ProtocolSpec::StandardCan => stepped_soak(StandardCan, spec),
        ProtocolSpec::MinorCan => stepped_soak(MinorCan, spec),
        ProtocolSpec::MajorCan { m } => stepped_soak(MajorCan::new(m).expect("m in range"), spec),
        other => unreachable!("{other} is not a link-layer protocol"),
    };
    assert_eq!(format!("{leapt:?}"), format!("{stepped:?}"), "{spec:?}");
    leapt
}

const SOAK_FRAMES: u64 = if cfg!(debug_assertions) {
    2_000
} else {
    10_000
};

#[test]
fn clean_soak_cell_counts_and_verdict_match_stepping() {
    // The benchmark cell's shape: MajorCAN_5, 8 nodes, 90 % load.
    let spec = SoakSpec::new(ProtocolSpec::MajorCan { m: 5 }, 8, 0.9, SOAK_FRAMES, 0x50AC);
    let out = check_soak(&spec);
    assert!(out.drained && out.report.expect("online").atomic_broadcast());
    assert!(out.arb_losses > 0, "the cell contends");
}

#[test]
fn bursty_soak_cell_counts_and_verdict_match_stepping() {
    // An E17 impaired cell's shape: CAN under the default bursts, no
    // shutoff, so nodes go error-passive and bus-off mid-stream.
    let mut spec = SoakSpec::new(ProtocolSpec::StandardCan, 8, 0.6, SOAK_FRAMES, 0x50AD);
    spec.burst = Some(BurstSpec {
        period: 2_000,
        len: 30,
        ber_star: 0.5,
    });
    let out = check_soak(&spec);
    assert!(out.errors > 0 && out.retransmissions > 0, "the bursts bit");
    assert!(
        out.residency.passive_bits > 0,
        "some node went error-passive"
    );
}

/// The leap fires where it should: on the benchmark's soak cell
/// (MajorCAN_5, 8 nodes, 90 % load, clean bus) the counting channel sees
/// at most 5 % of the simulated bits stepped. The frame leap covers the
/// frames, the quiet-stretch leap the idle gaps; what is left is mostly
/// the frames that straddle a chunk end.
#[test]
fn benchmark_soak_cell_steps_at_most_five_percent_of_its_bits() {
    let case = TrafficCase {
        protocol: ProtocolSpec::MajorCan { m: 5 },
        traffic: TrafficSpec::mixed_load(8, 0.9, DEFAULT_FRAME_BITS, 250),
        burst: None,
        shutoff_at_warning: false,
        frames: SOAK_FRAMES,
        seed: derive_trial_seed(0x50AC, 0),
    };
    // Measured: 4.3 % of 1,224,704 bits at 10,000 frames, the same
    // share at the 2,000 frames of a debug run.
    let stats = case.run();
    assert!(
        stats.stepped * 20 <= stats.bits,
        "stepped {} of {} bits",
        stats.stepped,
        stats.bits
    );
}

// ---------------------------------------------------------------------
// The frame leap inside `Simulator::run` on the frames the `can` suites
// send over a clean bus: any identifier, data payloads of 0–8 bytes,
// remote frames, 2–7 nodes. The scripted runs above always carry the
// one-byte scenario frame from node 0; here the queues vary and a third
// of the buses also run a short script.

/// Fields every frame carries, with their bit counts (the EOF's shortest,
/// CAN's): a script on them usually fires within the first frames, and
/// the frames after it are leapt.
const FRAME_FIELDS: [(Field, u16); 4] = [
    (Field::Id, 11),
    (Field::Crc, 15),
    (Field::AckDelim, 1),
    (Field::Eof, 7),
];

/// One bus of the `run` frame-leap gate.
#[derive(Debug, Clone)]
struct FrameCase {
    queues: Vec<Vec<Frame>>,
    /// `None` runs the fault-free channel.
    script: Option<Vec<Disturbance>>,
    shutoff_at_warning: bool,
    /// The bits of each `run` call; their ends cap the leaps.
    chunks: Vec<u64>,
}

impl FrameCase {
    /// 2–7 nodes holding up to three frames each. A third of the
    /// identifiers come from four neighbours (ties, late arbitration
    /// losses) and a quarter of the frames are remote.
    fn random(seed: u64) -> FrameCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nodes = rng.gen_range(2..=7usize);
        let mut queues = vec![Vec::new(); n_nodes];
        for queue in &mut queues {
            for _ in 0..rng.gen_range(0..=3) {
                let raw = if rng.gen_bool(1.0 / 3.0) {
                    0x120 + rng.gen_range(0..4u16)
                } else {
                    rng.gen_range(0..0x7F0u16)
                };
                let id = FrameId::new(raw).expect("id in range");
                let len = rng.gen_range(0..=8u8);
                let frame = if rng.gen_bool(0.25) {
                    Frame::new_remote(id, len)
                } else {
                    let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
                    Frame::new(id, &data)
                };
                queue.push(frame.expect("at most 8 bytes"));
            }
        }
        let script = rng.gen_bool(1.0 / 3.0).then(|| {
            (0..rng.gen_range(1..=3))
                .map(|_| {
                    let (field, bits) = FRAME_FIELDS[rng.gen_range(0..FRAME_FIELDS.len())];
                    Disturbance::first(rng.gen_range(0..n_nodes), field, rng.gen_range(0..bits))
                })
                .collect()
        });
        let mut chunks = Vec::new();
        let mut left = LINK_BUDGET;
        while left > 0 {
            let bits = rng.gen_range(1..=1_500u64).min(left);
            chunks.push(bits);
            left -= bits;
        }
        FrameCase {
            queues,
            script,
            shutoff_at_warning: rng.gen_bool(0.5),
            chunks,
        }
    }

    fn channel(&self) -> BusChannel {
        match &self.script {
            None => BusChannel::NoFaults,
            Some(script) => BusChannel::scripted(script.clone()),
        }
    }

    fn cluster<V: Variant, C: ChannelModel<WirePos>>(
        &self,
        variant: V,
        channel: C,
    ) -> Simulator<Controller<V>, C> {
        let config = ControllerConfig {
            shutoff_at_warning: self.shutoff_at_warning,
            fail_at: None,
        };
        let mut sim = Simulator::new(channel);
        for queue in &self.queues {
            let id = sim.attach(Controller::with_config(variant.clone(), config.clone()));
            for frame in queue {
                sim.node_mut(id).enqueue(frame.clone());
            }
        }
        sim
    }

    /// `Simulator::run` against stepping every frame bit (quiet stretches
    /// leapt) after every chunk, on the clock, the events and every
    /// controller's full state, and against a plain `step()` loop on the
    /// events at the end. Returns the bits each of the first two stepped.
    fn check<V: Variant>(&self, variant: V) -> (u64, u64) {
        let counted = || Counting {
            inner: self.channel(),
            calls: 0,
        };
        let mut fast = self.cluster(variant.clone(), counted());
        let mut slow = self.cluster(variant.clone(), counted());
        for &bits in &self.chunks {
            fast.run(bits);
            run_stepping_frames(&mut slow, bits);
            let at = slow.now();
            assert_eq!(fast.now(), at, "{self:?}: clock");
            assert_eq!(fast.events(), slow.events(), "{self:?}: events by bit {at}");
            assert_eq!(states(&fast), states(&slow), "{self:?}: states at bit {at}");
        }
        let mut stepped = self.cluster(variant, self.channel());
        step_to(&mut stepped, LINK_BUDGET);
        assert_eq!(fast.events(), stepped.events(), "{self:?}: stepped events");
        (stepped_bits(&fast), stepped_bits(&slow))
    }
}

/// Buses in the `run` frame-leap gate, each run on four link protocols.
const FRAME_CASES: u64 = 48;

#[test]
fn run_leaps_arbitrary_frames_bit_identically() {
    let (mut runs, mut leapt) = (0, 0);
    for k in 0..FRAME_CASES {
        let case = FrameCase::random(derive_trial_seed(0xF4A3E, k));
        for protocol in LINK_PROTOCOLS {
            let (fast, slow) = match protocol {
                ProtocolSpec::StandardCan => case.check(StandardCan),
                ProtocolSpec::MinorCan => case.check(MinorCan),
                ProtocolSpec::MajorCan { m } => case.check(MajorCan::new(m).expect("m in range")),
                other => unreachable!("{other} is not a link-layer protocol"),
            };
            runs += 1;
            leapt += usize::from(fast < slow);
        }
    }
    // Measured: 171 of 192 runs leap a frame. The others never may, for
    // example when nothing is queued, the queue heads tie or the script
    // stays pending.
    assert!(
        leapt * 4 >= runs * 3,
        "the frame leap fired in only {leapt} of {runs} runs"
    );
}

// ---------------------------------------------------------------------
// The frame leap on higher-level-protocol clusters. `HlpNode::leap_frame`
// runs the controllers' leap, then replays its link events through each
// node's layer; the reactions (EDCAN duplicates, RELCAN's CONFIRM,
// TOTCAN's ACCEPT, deliveries, armed timers) must land where stepping
// puts them.

/// Forwards a channel and records each bit it is asked about once: the
/// bits stepped. An event on any other bit came from a frame leap.
struct Marking<C> {
    inner: C,
    stepped: Vec<u64>,
}

impl<C: ChannelModel<WirePos>> ChannelModel<WirePos> for Marking<C> {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
        if self.stepped.last() != Some(&bit) {
            self.stepped.push(bit);
        }
        self.inner.disturb(bit, node, tag, wire)
    }

    fn quiet_until(&self, now: u64) -> u64 {
        self.inner.quiet_until(now)
    }

    fn clean_until(&self, now: u64) -> u64 {
        self.inner.clean_until(now)
    }
}

impl<C> Marking<C> {
    fn leapt(&self, bit: u64) -> bool {
        self.stepped.binary_search(&bit).is_err()
    }
}

/// One bus of the higher-level-protocol frame-leap gate.
#[derive(Debug, Clone)]
struct HlpCase {
    n_nodes: usize,
    /// `(chunk, node, payload)`: `node` requests a broadcast of
    /// `payload` before chunk `chunk` runs. The first is node 0's, before
    /// the first chunk.
    broadcasts: Vec<(usize, usize, Vec<u8>)>,
    /// Node 0's scheduled crash.
    fail_at: Option<u64>,
    /// `None` runs the fault-free channel.
    script: Option<Vec<Disturbance>>,
    /// The bits of each `run` call; their ends cap the leaps.
    chunks: Vec<u64>,
}

type HlpSim<L, C> = Simulator<HlpNode<L>, C>;

impl HlpCase {
    /// 2–5 nodes and one to three broadcasts of 0–4 bytes; a third of the
    /// cases crash node 0 within its first 400 bits (typically between
    /// its DATA and the CONFIRM or ACCEPT that should follow), and a
    /// third run a short script on fields every frame carries.
    fn random(seed: u64) -> HlpCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nodes = rng.gen_range(2..=5usize);
        let mut chunks = Vec::new();
        let mut left = HLP_BUDGET;
        while left > 0 {
            let bits = rng.gen_range(1..=1_500u64).min(left);
            chunks.push(bits);
            left -= bits;
        }
        let payload = |rng: &mut StdRng| -> Vec<u8> {
            (0..rng.gen_range(0..=4))
                .map(|_| rng.gen_range(0..=u8::MAX))
                .collect()
        };
        let mut broadcasts = vec![(0, 0, payload(&mut rng))];
        for _ in 0..rng.gen_range(0..=2) {
            let chunk = rng.gen_range(0..chunks.len());
            let node = rng.gen_range(0..n_nodes);
            broadcasts.push((chunk, node, payload(&mut rng)));
        }
        let fail_at = rng.gen_bool(1.0 / 3.0).then(|| rng.gen_range(0..400));
        let script = rng.gen_bool(1.0 / 3.0).then(|| {
            (0..rng.gen_range(1..=3))
                .map(|_| {
                    let (field, bits) = FRAME_FIELDS[rng.gen_range(0..FRAME_FIELDS.len())];
                    Disturbance::first(rng.gen_range(0..n_nodes), field, rng.gen_range(0..bits))
                })
                .collect()
        });
        HlpCase {
            n_nodes,
            broadcasts,
            fail_at,
            script,
            chunks,
        }
    }

    fn channel(&self) -> BusChannel {
        match &self.script {
            None => BusChannel::NoFaults,
            Some(script) => BusChannel::scripted(script.clone()),
        }
    }

    fn cluster<L: HlpLayer, C: ChannelModel<WirePos>>(
        &self,
        layer: fn() -> L,
        channel: C,
    ) -> HlpSim<L, C> {
        let mut sim = Simulator::new(channel);
        for i in 0..self.n_nodes {
            sim.attach(HlpNode::new(layer(), i));
        }
        sim.node_mut(NodeId(0)).set_fail_at(self.fail_at);
        sim
    }

    /// Requests the broadcasts due before chunk `chunk`.
    fn request<L: HlpLayer, C: ChannelModel<WirePos>>(&self, sim: &mut HlpSim<L, C>, chunk: usize) {
        for (at, node, payload) in &self.broadcasts {
            if *at == chunk {
                sim.node_mut(NodeId(*node)).broadcast(payload);
            }
        }
    }

    /// `Simulator::run` against a plain `step()` loop on the clock and
    /// the events, and against stepping every frame bit (quiet stretches
    /// leapt, which skip the drive phase and so leave `bit_now` behind)
    /// on every node's full state, after every chunk. Returns the leaping
    /// run.
    fn check<L: HlpLayer + Clone>(&self, layer: fn() -> L) -> HlpSim<L, Marking<BusChannel>> {
        let marking = Marking {
            inner: self.channel(),
            stepped: Vec::new(),
        };
        let mut fast = self.cluster(layer, marking);
        let mut frames = self.cluster(layer, self.channel());
        let mut plain = self.cluster(layer, self.channel());
        for (chunk, &bits) in self.chunks.iter().enumerate() {
            self.request(&mut fast, chunk);
            self.request(&mut frames, chunk);
            self.request(&mut plain, chunk);
            fast.run(bits);
            run_stepping_frames(&mut frames, bits);
            for _ in 0..bits {
                plain.step();
            }
            let at = plain.now();
            let name = layer().name();
            assert_eq!(fast.now(), at, "{name} {self:?}: clock");
            assert_eq!(
                fast.events(),
                plain.events(),
                "{name} {self:?}: events by bit {at}"
            );
            assert_eq!(
                format!("{:?}", fast.nodes().collect::<Vec<_>>()),
                format!("{:?}", frames.nodes().collect::<Vec<_>>()),
                "{name} {self:?}: states at bit {at}"
            );
        }
        fast
    }
}

/// The protocol message a link event carries, if it is `want` and
/// names a protocol frame.
fn hlp_kind(event: &HlpEvent, want: fn(&CanEvent) -> Option<&Frame>) -> Option<MsgKind> {
    match event {
        HlpEvent::Link(link) => want(link).and_then(HlpMessage::decode).map(|m| m.kind),
        _ => None,
    }
}

fn succeeded(event: &CanEvent) -> Option<&Frame> {
    match event {
        CanEvent::TxSucceeded { frame, .. } => Some(frame),
        _ => None,
    }
}

fn started(event: &CanEvent) -> Option<&Frame> {
    match event {
        CanEvent::TxStarted { frame, .. } => Some(frame),
        _ => None,
    }
}

/// The first bit of `sim`'s log that a frame leap produced.
fn first_leapt<L: HlpLayer>(sim: &HlpSim<L, Marking<BusChannel>>) -> Option<u64> {
    sim.events()
        .iter()
        .map(|e| e.at)
        .find(|&at| sim.channel().leapt(at))
}

/// Buses in the higher-level-protocol frame-leap gate, each run on the
/// three protocols.
const HLP_CASES: u64 = 24;

#[test]
fn hlp_runs_leap_frames_bit_identically() {
    let (mut runs, mut leapt) = (0, 0);
    let mut edcan_every_dup_leapt = false;
    let mut relcan_confirm_leapt = false;
    let mut totcan_accept_leapt = false;
    let mut relcan_timeout_after_leap = false;
    let mut totcan_timeout_after_leap = false;
    for k in 0..HLP_CASES {
        let case = HlpCase::random(derive_trial_seed(0x41C9, k));
        let crashed = case.fail_at.is_some();

        let sim = case.check(EdCan::new);
        let dup_senders: BTreeSet<NodeId> = sim
            .events()
            .iter()
            .filter(|e| sim.channel().leapt(e.at))
            .filter(|e| hlp_kind(&e.event, succeeded) == Some(MsgKind::Dup))
            .map(|e| e.node)
            .collect();
        edcan_every_dup_leapt |= case.n_nodes >= 3 && dup_senders.len() == case.n_nodes - 1;
        runs += 1;
        leapt += usize::from(first_leapt(&sim).is_some());

        let sim = case.check(RelCan::new);
        relcan_confirm_leapt |= sim.events().iter().any(|e| {
            sim.channel().leapt(e.at) && hlp_kind(&e.event, succeeded) == Some(MsgKind::Confirm)
        });
        // A receiver that starts its duplicate timed out on the CONFIRM.
        let timeout = sim
            .events()
            .iter()
            .find(|e| e.node != NodeId(0) && hlp_kind(&e.event, started) == Some(MsgKind::Dup));
        relcan_timeout_after_leap |=
            crashed && timeout.is_some_and(|t| first_leapt(&sim).is_some_and(|at| at < t.at));
        runs += 1;
        leapt += usize::from(first_leapt(&sim).is_some());

        let sim = case.check(TotCan::new);
        totcan_accept_leapt |= sim.events().iter().any(|e| {
            e.node != NodeId(0)
                && sim.channel().leapt(e.at)
                && matches!(e.event, HlpEvent::Delivered { .. })
        });
        let timeout = sim
            .events()
            .iter()
            .find(|e| matches!(e.event, HlpEvent::Dropped { .. }));
        totcan_timeout_after_leap |=
            crashed && timeout.is_some_and(|t| first_leapt(&sim).is_some_and(|at| at < t.at));
        runs += 1;
        leapt += usize::from(first_leapt(&sim).is_some());
    }
    assert!(
        edcan_every_dup_leapt,
        "no EDCAN bus leapt every receiver's duplicate"
    );
    assert!(relcan_confirm_leapt, "no RELCAN CONFIRM was leapt");
    assert!(totcan_accept_leapt, "no TOTCAN ACCEPT delivery was leapt");
    assert!(
        relcan_timeout_after_leap,
        "no RELCAN CONFIRM timeout fired after a leap"
    );
    assert!(
        totcan_timeout_after_leap,
        "no TOTCAN ACCEPT timeout fired after a leap"
    );
    assert!(
        leapt * 4 >= runs * 3,
        "the frame leap fired in only {leapt} of {runs} runs"
    );
    eprintln!("hlp leap: {leapt} of {runs} runs leapt a frame");
}
