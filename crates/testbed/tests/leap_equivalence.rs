//! The quiet-stretch leap's correctness gate. `Simulator::run` leaps
//! every stretch its quiet horizon proves inert, so every testbed run
//! path — `run_schedule` on link and higher-level-protocol clusters,
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
//! The second half pins the early exit itself: a pass-through channel
//! counts `disturb` calls (one per node per stepped bit) and shows that
//! clean runs and a bus-off attack step far fewer bits than their
//! budgets, so a state that loses its quiescence promise fails here.

use majorcan_abcast::trace_from_can_events;
use majorcan_campaign::{derive_trial_seed, ProtocolSpec};
use majorcan_can::{CanEvent, Controller, ControllerConfig, Field, StandardCan, Variant, WirePos};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_falsify::{generate_attack, AttackSchedule, Geometry, ATTACK_BUDGET};
use majorcan_faults::{scenario_frame, AttackAction, Disturbance, Strategy as Attack};
use majorcan_hlp::{trace_from_hlp_events, EdCan, HlpEvent, HlpLayer, HlpNode, RelCan, TotCan};
use majorcan_sim::{BitNode, ChannelModel, Level, NodeId, Simulator, TimedEvent};
use majorcan_testbed::{
    budget_for, classify, BusChannel, Outcome, Testbed, HLP_BUDGET, HLP_PROBE_PAYLOAD, LINK_BUDGET,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let drained = sim
        .nodes()
        .all(|c| (c.is_idle() && c.pending() == 0) || c.is_crashed());
    let outcome =
        classify(verdict, sim.channel().unfired_len()).truncate_if(truncation && !drained);
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
    // Measured: 67 bits (integration, the frame, intermission).
    let stepped = stepped_bits(&sim);
    assert!(
        stepped <= 100,
        "a clean CAN run stepped {stepped} of {LINK_BUDGET} bits"
    );
}

#[test]
fn clean_totcan_broadcast_steps_only_data_and_accept() {
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
    // Measured: 195 bits (integration, DATA, ACCEPT).
    let stepped = stepped_bits(&sim);
    assert!(
        stepped <= 260,
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
