//! Pass-through `BitNode` and `ChannelModel` adapters that split a
//! simulator's host time between the engine itself (`sim`), the
//! controllers (`can`) and the fault channel (`faults`).
//!
//! A per-bit call is too short to time one at a time without the timer
//! dominating (a timed call costs about as much as a node-bit of
//! controller work), so the adapters time only bits whose index is a
//! multiple of `k`, and each sample subtracts the reading of an empty
//! span taken just before it, in the same host and cache state; the
//! cost of the timers themselves is taken out of enclosing timings with
//! [`crate::measure::span_cost`]. The adapters forward
//! `quiescent_until` and `quiet_until`, so the soak's quiet-stretch leap
//! behaves exactly as on the testbed's own simulator, and every adapter
//! run is checked against the testbed's result for the same input.

use crate::measure::SpanCost;
use crate::trace::{Stat, Tracer};
use crate::workloads::soak_counters;
use majorcan_abcast::{msg_id_of, trace_from_can_events, MsgId, WindowedChecker};
use majorcan_campaign::{derive_trial_seed, ProtocolSpec};
use majorcan_can::{CanEvent, Controller, ControllerConfig, Frame, StandardCan, Variant};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_faults::{scenario_frame, AttackAction, Disturbance};
use majorcan_sim::{BitNode, ChannelModel, Level, NodeId, Simulator, TimedEvent};
use majorcan_testbed::{classify, BusChannel, Outcome};
use majorcan_traffic::{
    Histogram, LatencyTracker, Residency, ResidencyTracker, SoakOutcome, SoakSpec, TrafficSpec,
    TrafficStream, DEFAULT_FRAME_BITS,
};
use majorcan_workload::{FrameSink, Release, ReleaseSource};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f`, adding its time net of an adjacent empty span to `acc`.
fn timed<R>(acc: &mut i64, f: impl FnOnce() -> R) -> R {
    let floor = Instant::now().elapsed();
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_nanos() as i64 - floor.as_nanos() as i64;
    r
}

/// A controller behind a sampling timer.
#[derive(Debug)]
pub struct TimedNode<N> {
    inner: N,
    /// `k - 1` for a power-of-two `k`: a mask test costs nothing on the
    /// untimed bits, where a division would.
    mask: u64,
    steps: u64,
    sampled: u64,
    ns: i64,
}

impl<N: BitNode> BitNode for TimedNode<N> {
    type Tag = N::Tag;
    type Event = N::Event;

    fn drive(&mut self, now: u64) -> Level {
        self.steps += 1;
        if now & self.mask != 0 {
            return self.inner.drive(now);
        }
        timed(&mut self.ns, || self.inner.drive(now))
    }

    fn tag(&self) -> N::Tag {
        self.inner.tag()
    }

    fn observe(&mut self, now: u64, seen: Level, events: &mut Vec<N::Event>) {
        if now & self.mask != 0 {
            return self.inner.observe(now, seen, events);
        }
        timed(&mut self.ns, || self.inner.observe(now, seen, events));
        self.sampled += 1;
    }

    fn quiescent_until(&self, now: u64) -> u64 {
        self.inner.quiescent_until(now)
    }
}

impl<N: FrameSink> FrameSink for TimedNode<N> {
    fn enqueue_frame(&mut self, frame: Frame) {
        self.inner.enqueue_frame(frame);
    }
}

/// A fault channel behind a sampling timer.
#[derive(Debug)]
pub struct TimedChannel<C> {
    inner: C,
    mask: u64,
    sampled: u64,
    ns: i64,
}

impl<Tag, C: ChannelModel<Tag>> ChannelModel<Tag> for TimedChannel<C> {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &Tag, wire: Level) -> bool {
        if bit & self.mask != 0 {
            return self.inner.disturb(bit, node, tag, wire);
        }
        self.sampled += 1;
        timed(&mut self.ns, || self.inner.disturb(bit, node, tag, wire))
    }

    fn quiet_until(&self, now: u64) -> u64 {
        self.inner.quiet_until(now)
    }
}

type LinkSim<V> = Simulator<TimedNode<Controller<V>>, TimedChannel<BusChannel>>;

/// Host time of adapter-driven runs, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitSplit {
    /// Bits the clock advanced.
    pub bits: u64,
    /// Bits actually stepped (the rest were leapt).
    pub stepped: u64,
    /// Nodes on the bus.
    pub nodes: u64,
    /// Wall time of the driving calls, ns.
    pub run_ns: f64,
    /// Sampled controller time (`drive` + `observe`), ns.
    pub node_ns: f64,
    /// Sampled node-bits.
    pub node_samples: u64,
    /// Sampled channel time (`disturb`), ns.
    pub chan_ns: f64,
    /// Sampled `disturb` calls.
    pub chan_samples: u64,
    /// Host time the driving loop spent outside the simulator (release
    /// generation during a soak), ns.
    pub outside_ns: f64,
}

impl BitSplit {
    fn harvest<V: Variant>(&mut self, sim: &mut LinkSim<V>, run_ns: f64, bits: u64) {
        self.bits += bits;
        self.run_ns += run_ns;
        self.nodes = sim.node_count() as u64;
        for (i, node) in sim.nodes_mut().enumerate() {
            if i == 0 {
                self.stepped += node.steps;
            }
            self.node_ns += node.ns as f64;
            self.node_samples += node.sampled;
            node.steps = 0;
            node.ns = 0;
            node.sampled = 0;
        }
        let ch = sim.channel_mut();
        self.chan_ns += ch.ns as f64;
        self.chan_samples += ch.sampled;
        ch.ns = 0;
        ch.sampled = 0;
    }

    /// Controller ns per node-bit (`drive` + `observe`).
    pub fn controller(&self) -> Stat {
        Stat::from_total(self.node_ns, self.node_samples)
    }

    /// Channel ns per node-bit.
    pub fn disturb(&self) -> Stat {
        Stat::from_total(self.chan_ns, self.chan_samples)
    }

    /// Whole-step ns per stepped bit, instrumentation removed: every
    /// sampled call ran two timed spans (the empty one and its own).
    pub fn step(&self, span: SpanCost) -> Stat {
        let timed_spans = 2 * (2 * self.node_samples + self.chan_samples);
        Stat::from_total(
            self.run_ns - self.outside_ns - span.cost_ns * timed_spans as f64,
            self.stepped,
        )
    }

    /// The engine's own ns per stepped bit: the step minus the nodes'
    /// controller and channel shares.
    pub fn engine_self(&self, span: SpanCost) -> Stat {
        let per_bit = self.step(span).mean()
            - self.nodes as f64 * (self.controller().mean() + self.disturb().mean());
        Stat::from_total(per_bit * self.stepped as f64, self.stepped)
    }

    /// Share of the clock that was leapt, not stepped.
    pub fn leap_share(&self) -> Stat {
        Stat::ratio(self.bits - self.stepped, self.bits)
    }
}

fn link_sim<V: Variant>(
    variant: V,
    n_nodes: usize,
    shutoff_at_warning: bool,
    k: u64,
) -> LinkSim<V> {
    assert!(
        k.is_power_of_two(),
        "the sampling period must be a power of two"
    );
    let mask = k - 1;
    let config = ControllerConfig {
        shutoff_at_warning,
        fail_at: None,
    };
    let mut sim = Simulator::new(TimedChannel {
        inner: BusChannel::NoFaults,
        mask,
        sampled: 0,
        ns: 0,
    });
    for _ in 0..n_nodes {
        sim.attach(TimedNode {
            inner: Controller::with_config(variant.clone(), config.clone()),
            mask,
            steps: 0,
            sampled: 0,
            ns: 0,
        });
    }
    sim
}

fn rewind<V: Variant>(sim: &mut LinkSim<V>, channel: BusChannel) {
    sim.channel_mut().inner = channel;
    sim.reset();
    for node in sim.nodes_mut() {
        node.inner.set_fail_at(None);
        node.inner.reset();
    }
}

fn drained<V: Variant>(sim: &LinkSim<V>) -> bool {
    sim.nodes()
        .all(|n| (n.inner.is_idle() && n.inner.pending() == 0) || n.inner.is_crashed())
}

fn bus_off_node(events: &[TimedEvent<CanEvent>]) -> Option<usize> {
    events
        .iter()
        .find(|e| matches!(e.event, CanEvent::WentBusOff))
        .map(|e| e.node.index())
}

/// Runs `$body` with `$v` bound to the link-layer variant of `$spec`.
macro_rules! with_variant {
    ($spec:expr, $v:ident => $body:expr) => {
        match $spec {
            ProtocolSpec::StandardCan => {
                let $v = StandardCan;
                $body
            }
            ProtocolSpec::MinorCan => {
                let $v = MinorCan;
                $body
            }
            ProtocolSpec::MajorCan { m } => {
                let $v = MajorCan::new(m).expect("valid MajorCAN tolerance");
                $body
            }
            other => panic!("adapter runs drive link-layer clusters, not {other}"),
        }
    };
}

/// Replays `schedules` as `Testbed::run_schedule` does on a link cluster
/// (node 0 sends the scenario frame, `budget` bits, graded with the
/// truncation demotion) and returns each outcome with the layer split.
pub fn scripted_runs(
    target: ProtocolSpec,
    n_nodes: usize,
    budget: u64,
    schedules: &[&[Disturbance]],
    k: u64,
    split: &mut BitSplit,
) -> Vec<Outcome> {
    with_variant!(target, v => {
        let mut sim = link_sim(v, n_nodes, true, k);
        schedules
            .iter()
            .map(|schedule| {
                rewind(&mut sim, BusChannel::scripted(schedule.to_vec()));
                sim.node_mut(NodeId(0)).inner.enqueue(scenario_frame());
                let t = Instant::now();
                sim.run(budget);
                split.harvest(&mut sim, t.elapsed().as_nanos() as f64, budget);
                let verdict = trace_from_can_events(sim.events(), n_nodes).check().verdict();
                let unfired = sim.channel().inner.unfired_len();
                classify(verdict, unfired).truncate_if(!drained(&sim))
            })
            .collect()
    })
}

/// Replays attack schedules as `Testbed::run_attack` does (warning
/// shutoff off, `budget` bits, cost budget equal to each schedule's
/// nominal cost) and returns each outcome with the bus-off node.
pub fn attack_runs(
    target: ProtocolSpec,
    n_nodes: usize,
    budget: u64,
    attacks: &[(Vec<AttackAction>, u64)],
    k: u64,
    split: &mut BitSplit,
) -> Vec<(Outcome, Option<usize>)> {
    with_variant!(target, v => {
        let mut sim = link_sim(v, n_nodes, false, k);
        attacks
            .iter()
            .map(|(actions, cost)| {
                rewind(&mut sim, BusChannel::attack(actions.clone(), *cost));
                sim.node_mut(NodeId(0)).inner.enqueue(scenario_frame());
                let t = Instant::now();
                sim.run(budget);
                split.harvest(&mut sim, t.elapsed().as_nanos() as f64, budget);
                let verdict = trace_from_can_events(sim.events(), n_nodes).check().verdict();
                let unfired = sim.channel().inner.unfired_len();
                (classify(verdict, unfired), bus_off_node(sim.events()))
            })
            .collect()
    })
}

/// Forwards a [`TrafficStream`], noting each release for the latency
/// tracker and timing the generator.
struct Tap<'a> {
    inner: &'a mut TrafficStream,
    log: &'a mut Vec<(u64, MsgId)>,
    pop_ns: &'a mut u64,
}

impl ReleaseSource for Tap<'_> {
    fn next_at(&self) -> Option<u64> {
        self.inner.next_at()
    }

    fn pop(&mut self) -> Option<Release> {
        let t = Instant::now();
        let release = self.inner.pop();
        *self.pop_ns += t.elapsed().as_nanos() as u64;
        let release = release?;
        self.log.push((release.at, msg_id_of(&release.frame)));
        Some(release)
    }
}

/// Bits simulated per soak chunk between event-log drains (the value
/// `run_soak` uses; the digest comparison catches any drift).
const SOAK_CHUNK: u64 = 2_048;

/// The soak layers' measurements.
#[derive(Debug, Clone, Default)]
pub struct SoakTrace {
    /// The cell's counters (the digest input).
    pub counters: BTreeMap<String, u64>,
    /// Wall time of the whole cell, ns.
    pub wall_ns: f64,
    /// `drive_source` calls.
    pub drive: Stat,
    /// `WindowedChecker::push_can` per event.
    pub push: Stat,
    /// Latency and residency tracker `observe` per event.
    pub observe: Stat,
    /// `TrafficStream::pop` per release.
    pub pop: Stat,
    /// The simulator split.
    pub split: BitSplit,
    /// Checker live-set high-water mark.
    pub peak_live: u64,
}

/// Re-drives `run_soak` chunk by chunk on an adapter-assembled simulator,
/// with a span around every `drive_source`, `WindowedChecker::push_can`
/// pass and tracker `observe` pass. Clean-bus, online-checked cells only.
pub fn traced_soak(spec: &SoakSpec, k: u64, tracer: &Tracer, parent: u32) -> SoakTrace {
    assert!(
        spec.burst.is_none() && spec.attack.is_none() && spec.online_check,
        "the traced soak drives clean, online-checked cells"
    );
    with_variant!(spec.protocol, v => soak_cell(v, spec, k, tracer, parent))
}

fn soak_cell<V: Variant>(
    variant: V,
    spec: &SoakSpec,
    k: u64,
    tracer: &Tracer,
    parent: u32,
) -> SoakTrace {
    let cell = tracer.open("soak_cell", parent);
    let t0 = Instant::now();
    let mut sim = link_sim(variant, spec.n_nodes, spec.shutoff_at_warning, k);
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

    let mut trace = SoakTrace::default();
    let mut release_log: Vec<(u64, MsgId)> = Vec::new();
    let mut pop_ns = 0u64;
    let mut split = BitSplit::default();
    loop {
        let released_before = stream.released();
        let pop_before = pop_ns;
        let before = sim.now();
        let s = tracer.open("drive_source", cell.id);
        {
            let mut tap = Tap {
                inner: &mut stream,
                log: &mut release_log,
                pop_ns: &mut pop_ns,
            };
            majorcan_workload::drive_source(&mut sim, &mut tap, SOAK_CHUNK);
        }
        let drive_ns = tracer.close(s);
        trace.drive.add(drive_ns, 1);
        let advanced = sim.now() - before;
        split.harvest(&mut sim, drive_ns, advanced);
        split.outside_ns += (pop_ns - pop_before) as f64;
        trace.pop.add(
            (pop_ns - pop_before) as f64,
            stream.released() - released_before,
        );

        let events = sim.take_events();
        let s = tracer.open("WindowedChecker::push_can", cell.id);
        for e in &events {
            checker.push_can(e);
        }
        trace.push.add(tracer.close(s), events.len() as u64);

        let s = tracer.open("observe", cell.id);
        for (at, msg) in release_log.drain(..) {
            latency.note_release(at, msg);
        }
        for e in &events {
            latency.observe(e);
            residency.observe(e);
        }
        trace.observe.add(tracer.close(s), events.len() as u64);

        for e in &events {
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
        if stream.is_exhausted() && drained(&sim) {
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
    trace.wall_ns = t0.elapsed().as_nanos() as f64;
    tracer.close(cell);

    trace.counters = soak_counters(spec, &out);
    trace.split = split;
    trace.peak_live = out.peak_live as u64;
    trace
}
