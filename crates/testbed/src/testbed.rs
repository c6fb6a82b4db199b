//! The [`Testbed`]: build a cluster once, run it thousands of times.

use crate::channel::BusChannel;
use crate::lanes::{self, Stack};
use crate::outcome::{classify, Outcome};
use crate::scenario_run::ScenarioRun;
use majorcan_campaign::ProtocolSpec;
use majorcan_can::{CanEvent, Controller, ControllerConfig, Frame, Variant};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_faults::{scenario_frame, AttackAction, Attacker, CrashRule, Disturbance, Scenario};
use majorcan_hlp::{BroadcastId, EdCan, HlpEvent, HlpNode, RelCan, TotCan};
use majorcan_sim::{NodeId, SimSnapshot, Simulator, TimedEvent};
use majorcan_workload::ReleaseSource;

/// Bit budget for one link-layer schedule evaluation (matches the
/// scripted-trial budget of the bench interpreter).
pub const LINK_BUDGET: u64 = 5_000;

/// Bit budget for one higher-level-protocol evaluation (CONFIRM/ACCEPT
/// rounds and timeout recovery need more bus time than a bare frame).
pub const HLP_BUDGET: u64 = 8_000;

/// The canonical payload of a higher-level-protocol probe broadcast.
pub const HLP_PROBE_PAYLOAD: &[u8] = &[0x5A];

/// The default evaluation budget appropriate for `protocol`.
pub fn budget_for(protocol: ProtocolSpec) -> u64 {
    if protocol.is_hlp() {
        HLP_BUDGET
    } else {
        LINK_BUDGET
    }
}

/// Maps a link-layer variant to its [`ProtocolSpec`] (the names match by
/// construction — see [`ProtocolSpec::from_name`]).
pub fn spec_of<V: Variant>(variant: &V) -> ProtocolSpec {
    let name = variant.name();
    ProtocolSpec::from_name(&name)
        .unwrap_or_else(|| panic!("variant {name:?} has no campaign protocol spec"))
}

/// The assembled cluster: one concrete simulator type per protocol, all
/// sharing the [`BusChannel`] fault model so a run can swap channels
/// without changing the cluster type.
#[derive(Debug)]
enum Cluster {
    Can(Simulator<Controller<majorcan_can::StandardCan>, BusChannel>),
    Minor(Simulator<Controller<MinorCan>, BusChannel>),
    Major(Simulator<Controller<MajorCan>, BusChannel>),
    Ed(Simulator<HlpNode<EdCan>, BusChannel>),
    Rel(Simulator<HlpNode<RelCan>, BusChannel>),
    Tot(Simulator<HlpNode<TotCan>, BusChannel>),
}

/// Dispatches over every cluster kind. The body must compile for both
/// `Controller` and `HlpNode` nodes: it sees them through their
/// [`Stack`] methods and their intentionally parallel `set_fail_at`.
macro_rules! each_sim {
    ($cluster:expr, $sim:ident => $body:expr) => {
        match $cluster {
            Cluster::Can($sim) => $body,
            Cluster::Minor($sim) => $body,
            Cluster::Major($sim) => $body,
            Cluster::Ed($sim) => $body,
            Cluster::Rel($sim) => $body,
            Cluster::Tot($sim) => $body,
        }
    };
}

/// Dispatches over the link-layer cluster kinds, panicking (with the
/// operation name) on a higher-level-protocol testbed.
macro_rules! link_sim {
    ($cluster:expr, $proto:expr, $op:literal, $sim:ident => $body:expr) => {
        match $cluster {
            Cluster::Can($sim) => $body,
            Cluster::Minor($sim) => $body,
            Cluster::Major($sim) => $body,
            _ => panic!(
                concat!($op, " needs a link-layer cluster; this testbed runs {}"),
                $proto
            ),
        }
    };
}

/// Dispatches over the higher-level-protocol cluster kinds, panicking on a
/// link-layer testbed.
macro_rules! hlp_sim {
    ($cluster:expr, $proto:expr, $op:literal, $sim:ident => $body:expr) => {
        match $cluster {
            Cluster::Ed($sim) => $body,
            Cluster::Rel($sim) => $body,
            Cluster::Tot($sim) => $body,
            _ => panic!(
                concat!(
                    $op,
                    " needs a higher-level-protocol cluster; this testbed runs {}"
                ),
                $proto
            ),
        }
    };
}

/// The per-kind payload of a [`Snapshot`] (mirrors [`Cluster`]).
#[derive(Debug, Clone)]
enum ClusterSnapshot {
    Can(SimSnapshot<Controller<majorcan_can::StandardCan>, BusChannel>),
    Minor(SimSnapshot<Controller<MinorCan>, BusChannel>),
    Major(SimSnapshot<Controller<MajorCan>, BusChannel>),
    Ed(SimSnapshot<HlpNode<EdCan>, BusChannel>),
    Rel(SimSnapshot<HlpNode<RelCan>, BusChannel>),
    Tot(SimSnapshot<HlpNode<TotCan>, BusChannel>),
}

/// A point-in-time capture of a [`Testbed`]'s complete mid-run state:
/// every controller (or HLP node), the fault channel (including script
/// progress), the bit clock and the event log the checker grades.
///
/// Produced by [`Testbed::snapshot`]; [`Testbed::restore`] rewinds the
/// *same-shaped* testbed to this instant, after which continuing the run
/// is bit-identical to never having left it. The simulator-level capture
/// underneath ([`SimSnapshot`]) is what [`Testbed::run_lanes`] peels
/// schedules with: each resumes from the shared fault-free trunk at the
/// first bit its script could fire instead of replaying from bit zero.
#[derive(Debug, Clone)]
pub struct Snapshot {
    protocol: ProtocolSpec,
    n_nodes: usize,
    state: ClusterSnapshot,
}

impl Snapshot {
    /// The protocol of the testbed this snapshot was taken from.
    pub fn protocol(&self) -> ProtocolSpec {
        self.protocol
    }

    /// The bit time at which this snapshot was taken.
    pub fn now(&self) -> u64 {
        match &self.state {
            ClusterSnapshot::Can(s) => s.now(),
            ClusterSnapshot::Minor(s) => s.now(),
            ClusterSnapshot::Major(s) => s.now(),
            ClusterSnapshot::Ed(s) => s.now(),
            ClusterSnapshot::Rel(s) => s.now(),
            ClusterSnapshot::Tot(s) => s.now(),
        }
    }
}

/// Configures and assembles a [`Testbed`].
#[derive(Debug, Clone)]
pub struct TestbedBuilder {
    protocol: ProtocolSpec,
    n_nodes: usize,
    budget: u64,
    trace: bool,
    shutoff_at_warning: bool,
}

impl TestbedBuilder {
    /// Number of nodes on the bus (default 3: transmitter + the X and Y
    /// set representatives).
    pub fn nodes(mut self, n: usize) -> TestbedBuilder {
        self.n_nodes = n;
        self
    }

    /// Bit budget of one run (default [`budget_for`] the protocol).
    pub fn budget(mut self, bits: u64) -> TestbedBuilder {
        self.budget = bits;
        self
    }

    /// Record a bit-level trace during runs (default off; scenario runs
    /// turn it on themselves, the campaign hot loop keeps it off).
    pub fn trace(mut self, on: bool) -> TestbedBuilder {
        self.trace = on;
        self
    }

    /// Warning-shutoff policy of the controllers (default `true`, the
    /// paper's fail-silent policy).
    pub fn shutoff_at_warning(mut self, on: bool) -> TestbedBuilder {
        self.shutoff_at_warning = on;
        self
    }

    /// Assembles the cluster on a fault-free bus.
    ///
    /// # Panics
    ///
    /// Panics on an invalid MajorCAN tolerance (`m` outside the protocol's
    /// range). Oracle callers evaluate builds under `catch_unwind` and
    /// classify the panic as a finding.
    pub fn build(self) -> Testbed {
        let config = ControllerConfig {
            shutoff_at_warning: self.shutoff_at_warning,
            fail_at: None,
        };
        let channel = BusChannel::NoFaults;
        let cluster = match self.protocol {
            ProtocolSpec::StandardCan => Cluster::Can(link_cluster(
                majorcan_can::StandardCan,
                self.n_nodes,
                &config,
                channel,
            )),
            ProtocolSpec::MinorCan => {
                Cluster::Minor(link_cluster(MinorCan, self.n_nodes, &config, channel))
            }
            ProtocolSpec::MajorCan { m } => {
                let variant = MajorCan::new(m)
                    .unwrap_or_else(|e| panic!("invalid MajorCAN tolerance for testbed: {e}"));
                Cluster::Major(link_cluster(variant, self.n_nodes, &config, channel))
            }
            ProtocolSpec::EdCan => Cluster::Ed(hlp_cluster(EdCan::new, self.n_nodes, channel)),
            ProtocolSpec::RelCan => Cluster::Rel(hlp_cluster(RelCan::new, self.n_nodes, channel)),
            ProtocolSpec::TotCan => Cluster::Tot(hlp_cluster(TotCan::new, self.n_nodes, channel)),
        };
        let mut testbed = Testbed {
            protocol: self.protocol,
            n_nodes: self.n_nodes,
            budget: self.budget,
            cluster,
        };
        testbed.set_record_trace(self.trace);
        testbed
    }
}

fn link_cluster<V: Variant>(
    variant: V,
    n_nodes: usize,
    config: &ControllerConfig,
    channel: BusChannel,
) -> Simulator<Controller<V>, BusChannel> {
    let mut sim = Simulator::new(channel);
    for _ in 0..n_nodes {
        sim.attach(Controller::with_config(variant.clone(), config.clone()));
    }
    sim
}

fn hlp_cluster<L: majorcan_hlp::HlpLayer, F: Fn() -> L>(
    make: F,
    n_nodes: usize,
    channel: BusChannel,
) -> Simulator<HlpNode<L>, BusChannel> {
    let mut sim = Simulator::new(channel);
    for i in 0..n_nodes {
        sim.attach(HlpNode::new(make(), i));
    }
    sim
}

/// A reusable protocol cluster: controllers (or HLP nodes), fault channel,
/// event buffers and trace storage assembled once and recycled across
/// runs.
///
/// `Testbed` is the one way every experiment path builds and runs a bus:
/// the paper scenarios, the falsifier's oracle, the Monte-Carlo campaign
/// jobs, the periodic-load workload driver and the HLP probes all route
/// through it. Reuse is the performance core — [`Testbed::reset_with`] /
/// [`Testbed::load_script`] rewind the cluster without reallocating, so a
/// campaign worker amortizes one allocation over thousands of runs.
///
/// # Examples
///
/// ```
/// use majorcan_campaign::ProtocolSpec;
/// use majorcan_faults::Scenario;
/// use majorcan_testbed::Testbed;
///
/// let mut tb = Testbed::builder(ProtocolSpec::StandardCan).build();
/// let run = tb.run_scenario(&Scenario::fig1b());
/// assert!(!run.consistent_single_delivery(), "CAN double reception");
/// // The same testbed replays another scenario without reallocating.
/// let run = tb.run_scenario(&Scenario::fig1a());
/// assert!(run.consistent_single_delivery());
/// ```
#[derive(Debug)]
pub struct Testbed {
    protocol: ProtocolSpec,
    n_nodes: usize,
    budget: u64,
    cluster: Cluster,
}

impl Testbed {
    /// Starts building a testbed for `protocol` with the defaults: 3
    /// nodes, [`budget_for`]`(protocol)` bits per run, no trace, warning
    /// shutoff on.
    pub fn builder(protocol: ProtocolSpec) -> TestbedBuilder {
        TestbedBuilder {
            protocol,
            n_nodes: 3,
            budget: budget_for(protocol),
            trace: false,
            shutoff_at_warning: true,
        }
    }

    /// The protocol this testbed runs.
    pub fn protocol(&self) -> ProtocolSpec {
        self.protocol
    }

    /// Number of nodes on the bus.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Bit budget of one run.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Changes the per-run bit budget.
    pub fn set_budget(&mut self, bits: u64) {
        self.budget = bits;
    }

    /// Current bit time of the cluster.
    pub fn now(&self) -> u64 {
        each_sim!(&self.cluster, sim => sim.now())
    }

    /// Enables or disables bit-level trace recording for subsequent runs.
    pub fn set_record_trace(&mut self, on: bool) {
        each_sim!(&mut self.cluster, sim => sim.set_record_trace(on));
    }

    /// Changes the controllers' warning-shutoff policy; takes effect at
    /// the next reset. Link-layer clusters only.
    pub fn set_shutoff_at_warning(&mut self, on: bool) {
        link_sim!(&mut self.cluster, self.protocol, "set_shutoff_at_warning", sim => {
            for node in sim.nodes_mut() {
                node.set_shutoff_at_warning(on);
            }
        });
    }

    /// Rewinds the cluster for a fresh run: every node returns to its
    /// just-constructed state, the clock/event log/trace rewind to zero
    /// (keeping allocations), crash scripts are cleared and `channel`
    /// becomes the fault model.
    pub fn reset_with(&mut self, channel: BusChannel) {
        each_sim!(&mut self.cluster, sim => {
            sim.reset_with_channel(channel);
            sim.nodes_mut().for_each(Stack::rewind);
        });
    }

    /// [`Testbed::reset_with`] borrowing the channel: clones `channel`'s
    /// contents into the existing channel slot via `clone_from`, so a hot
    /// loop resetting onto the same scripted channel shape reuses the
    /// script's backing storage instead of building a fresh channel per
    /// run.
    pub fn reset_with_ref(&mut self, channel: &BusChannel) {
        each_sim!(&mut self.cluster, sim => {
            sim.channel_mut().clone_from(channel);
            sim.reset();
            sim.nodes_mut().for_each(Stack::rewind);
        });
    }

    /// Rewinds the cluster onto a fault-free bus.
    pub fn reset(&mut self) {
        self.reset_with(BusChannel::NoFaults);
    }

    /// Captures the cluster's complete mid-run state. See [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let state = match &self.cluster {
            Cluster::Can(sim) => ClusterSnapshot::Can(sim.snapshot()),
            Cluster::Minor(sim) => ClusterSnapshot::Minor(sim.snapshot()),
            Cluster::Major(sim) => ClusterSnapshot::Major(sim.snapshot()),
            Cluster::Ed(sim) => ClusterSnapshot::Ed(sim.snapshot()),
            Cluster::Rel(sim) => ClusterSnapshot::Rel(sim.snapshot()),
            Cluster::Tot(sim) => ClusterSnapshot::Tot(sim.snapshot()),
        };
        Snapshot {
            protocol: self.protocol,
            n_nodes: self.n_nodes,
            state,
        }
    }

    /// Rewinds the cluster to the instant captured by `snap`, reusing the
    /// cluster's existing allocations. Continuing the run afterwards is
    /// bit-identical to an uninterrupted run. Any recorded trace is
    /// cleared (it belonged to the abandoned timeline).
    ///
    /// # Panics
    ///
    /// Panics when `snap` was taken from a testbed of a different
    /// protocol or node count.
    pub fn restore(&mut self, snap: &Snapshot) {
        assert_eq!(
            (self.protocol, self.n_nodes),
            (snap.protocol, snap.n_nodes),
            "snapshot of {} × {} nodes cannot restore a {} × {} testbed",
            snap.protocol,
            snap.n_nodes,
            self.protocol,
            self.n_nodes
        );
        match (&mut self.cluster, &snap.state) {
            (Cluster::Can(sim), ClusterSnapshot::Can(s)) => sim.restore_from(s),
            (Cluster::Minor(sim), ClusterSnapshot::Minor(s)) => sim.restore_from(s),
            (Cluster::Major(sim), ClusterSnapshot::Major(s)) => sim.restore_from(s),
            (Cluster::Ed(sim), ClusterSnapshot::Ed(s)) => sim.restore_from(s),
            (Cluster::Rel(sim), ClusterSnapshot::Rel(s)) => sim.restore_from(s),
            (Cluster::Tot(sim), ClusterSnapshot::Tot(s)) => sim.restore_from(s),
            _ => unreachable!("protocol equality implies matching cluster kinds"),
        }
    }

    /// Rewinds the cluster and installs `disturbances` as the scripted
    /// fault channel, reusing the previous script's allocation when the
    /// testbed already ran one.
    pub fn load_script(&mut self, disturbances: &[Disturbance]) {
        each_sim!(&mut self.cluster, sim => lanes::rewind(sim, disturbances));
    }

    /// Rewinds the cluster and arms `actions` as a budgeted attack
    /// channel, reusing the previous attacker's allocation when the
    /// testbed already ran one (mirrors [`Testbed::load_script`]).
    pub fn load_attack(&mut self, actions: &[AttackAction], budget: u64) {
        each_sim!(&mut self.cluster, sim => {
            if let BusChannel::Attack(attacker) = sim.channel_mut() {
                attacker.reload(actions, budget);
                sim.reset();
            } else {
                sim.reset_with_channel(BusChannel::attack(actions.to_vec(), budget));
            }
            sim.nodes_mut().for_each(Stack::rewind);
        });
    }

    /// The armed attacker, if the current channel is an attack channel.
    pub fn attacker(&self) -> Option<&Attacker> {
        each_sim!(&self.cluster, sim => sim.channel().attacker())
    }

    /// `(TEC, REC)` of `node`'s fault-confinement entity, for observing
    /// attack-driven counter trajectories. Link-layer clusters only.
    pub fn fault_counters(&self, node: usize) -> (u16, u16) {
        link_sim!(&self.cluster, self.protocol, "fault_counters", sim => {
            let fc = sim.node(NodeId(node)).fault_confinement();
            (fc.tec(), fc.rec())
        })
    }

    /// Arms (or clears) a scripted fail-silent crash on `node` for the
    /// current run. Call after a reset — resets clear crash scripts.
    pub fn set_fail_at(&mut self, node: usize, at: Option<u64>) {
        each_sim!(&mut self.cluster, sim => sim.node_mut(NodeId(node)).set_fail_at(at));
    }

    /// Queues `frame` for transmission on `node`. Link-layer clusters
    /// only.
    pub fn enqueue(&mut self, node: usize, frame: Frame) {
        link_sim!(&mut self.cluster, self.protocol, "enqueue", sim => {
            sim.node_mut(NodeId(node)).enqueue(frame)
        });
    }

    /// Requests a host-level broadcast of `payload` on `node`.
    /// Higher-level-protocol clusters only.
    pub fn broadcast(&mut self, node: usize, payload: &[u8]) -> BroadcastId {
        hlp_sim!(&mut self.cluster, self.protocol, "broadcast", sim => {
            sim.node_mut(NodeId(node)).broadcast(payload)
        })
    }

    /// Simulates `bits` bit times, leaping stretches the bus provably
    /// idles through and every frame the channel promises clean (see
    /// [`Simulator::run`]).
    pub fn run(&mut self, bits: u64) {
        each_sim!(&mut self.cluster, sim => sim.run(bits));
    }

    /// Steps the cluster until `stop` returns `true` over the event log so
    /// far, or until `max_bits` elapse. Returns the number of bits
    /// simulated. Link-layer clusters only.
    pub fn run_until_link(
        &mut self,
        max_bits: u64,
        mut stop: impl FnMut(&[TimedEvent<CanEvent>]) -> bool,
    ) -> u64 {
        link_sim!(&mut self.cluster, self.protocol, "run_until_link", sim => {
            sim.run_until(max_bits, |s| stop(s.events()))
        })
    }

    /// Steps the cluster until every controller is idle with an empty
    /// queue (or crashed) and the bus has stayed that way for `settle`
    /// consecutive bits, or until `max_bits` elapse. Returns the number of
    /// bits simulated. Link-layer clusters only.
    ///
    /// Scenario measurements use this instead of fixed budgets so slow
    /// error recoveries are never truncated (a truncated run would look
    /// like a message omission and corrupt the statistics).
    pub fn run_until_quiescent(&mut self, settle: u64, max_bits: u64) -> u64 {
        link_sim!(&mut self.cluster, self.protocol, "run_until_quiescent", sim => {
            let mut calm = 0u64;
            for done in 0..max_bits {
                sim.step();
                calm = if lanes::drained(sim) { calm + 1 } else { 0 };
                if calm >= settle {
                    return done + 1;
                }
            }
            max_bits
        })
    }

    /// Steps the cluster for `horizon` bits, queueing every due release of
    /// `source` on its node — a planned
    /// [`Workload`](majorcan_workload::Workload) or a lazy soak stream —
    /// and leaping every frame it can prove clean. Returns the number of
    /// frames queued. Link-layer clusters only.
    pub fn drive_source<S: ReleaseSource + ?Sized>(
        &mut self,
        source: &mut S,
        horizon: u64,
    ) -> usize {
        link_sim!(&mut self.cluster, self.protocol, "drive_source", sim => {
            majorcan_workload::drive_source(sim, source, horizon)
        })
    }

    /// `true` when every node is idle with an empty queue (or crashed) —
    /// the bus has drained. Link-layer clusters only.
    pub fn is_drained(&self) -> bool {
        link_sim!(&self.cluster, self.protocol, "is_drained", sim => lanes::drained(sim))
    }

    /// The scripted disturbances that have not fired (empty for
    /// non-scripted channels).
    pub fn unfired(&self) -> Vec<Disturbance> {
        each_sim!(&self.cluster, sim => sim.channel().unfired())
    }

    /// Number of scripted disturbances that have not fired.
    pub fn unfired_len(&self) -> usize {
        each_sim!(&self.cluster, sim => sim.channel().unfired_len())
    }

    /// The link-layer event log of the current run. Link-layer clusters
    /// only.
    pub fn can_events(&self) -> &[TimedEvent<CanEvent>] {
        link_sim!(&self.cluster, self.protocol, "can_events", sim => sim.events())
    }

    /// Drains and returns the link-layer event log. Link-layer clusters
    /// only.
    pub fn take_can_events(&mut self) -> Vec<TimedEvent<CanEvent>> {
        link_sim!(&mut self.cluster, self.protocol, "take_can_events", sim => sim.take_events())
    }

    /// The host-level event log of the current run.
    /// Higher-level-protocol clusters only.
    pub fn hlp_events(&self) -> &[TimedEvent<HlpEvent>] {
        hlp_sim!(&self.cluster, self.protocol, "hlp_events", sim => sim.events())
    }

    /// Grades the current run with the Atomic Broadcast checker and
    /// classifies it into the shared [`Outcome`] vocabulary.
    pub fn outcome(&self) -> Outcome {
        let verdict = each_sim!(&self.cluster, sim => Stack::verdict(sim, self.n_nodes));
        classify(verdict, self.unfired_len())
    }

    /// The campaign hot loop: rewinds the cluster, loads `schedule`,
    /// applies the canonical stimulus (node 0 transmits
    /// [`scenario_frame`] on a link cluster, or broadcasts
    /// [`HLP_PROBE_PAYLOAD`] on an HLP cluster), runs the clock to the
    /// configured budget without trace recording and classifies the run.
    /// Bits after the run settles — every node idle or crashed, no timer
    /// pending, no script entry an idle bus could still match — are
    /// leapt, not stepped. So is every frame sent after the script has
    /// fully fired (typically the retransmission the script forced, and
    /// on an HLP cluster the protocol frames that follow it, where no
    /// layer timer can fall due inside the frame): only the disturbed
    /// attempts are stepped.
    ///
    /// On a link cluster, a run whose budget elapses while the bus is
    /// still active (not [`Testbed::is_drained`]) classifies as
    /// [`Outcome::Truncated`] instead of a clean verdict: the trace is a
    /// prefix, and "no violation on a prefix" is not "no violation".
    /// Higher-level-protocol runs are graded without that check.
    pub fn run_schedule(&mut self, schedule: &[Disturbance]) -> Outcome {
        self.set_record_trace(false);
        let (n_nodes, budget) = (self.n_nodes, self.budget);
        each_sim!(&mut self.cluster, sim => lanes::run_one(sim, n_nodes, budget, schedule))
    }

    /// Forwards to [`Testbed::run_lanes`]. Kept only because the pinned
    /// repo benchmark (`perfbench/src/profile.rs`) calls it.
    #[doc(hidden)]
    pub fn run_batch(&mut self, schedules: &[&[Disturbance]]) -> Vec<Outcome> {
        self.run_lanes(schedules)
    }

    /// Evaluates a whole batch of scripted schedules, returning one
    /// [`Outcome`] per schedule in input order — each identical to what
    /// [`Testbed::run_schedule`] would return for it on this testbed.
    ///
    /// The batch shares one fault-free trunk, on link and
    /// higher-level-protocol clusters alike: while a schedule's script
    /// cannot have fired, its run is bit-identical to the fault-free run,
    /// so the trunk is stepped once for all of them and each schedule is
    /// peeled off to the scalar path (from a snapshot) at the first bit
    /// where its script could fire.
    pub fn run_lanes(&mut self, schedules: &[&[Disturbance]]) -> Vec<Outcome> {
        let (n_nodes, budget) = (self.n_nodes, self.budget);
        each_sim!(&mut self.cluster, sim => lanes::run_lanes(sim, n_nodes, budget, schedules))
    }

    /// The attack-campaign hot loop: rewinds the cluster, arms `actions`
    /// as a budgeted attack channel, applies the canonical link stimulus
    /// (node 0 transmits [`scenario_frame`]), runs the clock to the
    /// configured budget without trace recording and classifies the run.
    /// Once the bus settles and the attacker can no longer strike it (its
    /// cost budget spent, or nothing left but positions a settled bus
    /// never shows), the rest of the budget is leapt. Link-layer clusters
    /// only — attacks target the frame format itself.
    pub fn run_attack(&mut self, actions: &[AttackAction], cost_budget: u64) -> Outcome {
        self.set_record_trace(false);
        self.load_attack(actions, cost_budget);
        self.enqueue(0, scenario_frame());
        self.run(self.budget);
        self.outcome()
    }

    /// Executes an ad-hoc disturbance schedule (node 0 transmits
    /// [`scenario_frame`], full trace recording, unfired-disturbance
    /// reporting) and returns the owned [`ScenarioRun`]. Link-layer
    /// clusters only.
    pub fn run_script(&mut self, disturbances: &[Disturbance]) -> ScenarioRun {
        self.run_script_with_crashes(disturbances, &[])
    }

    /// Executes `scenario`: loads its disturbance script (node 0 transmits
    /// [`scenario_frame`]), runs the configured budget with trace
    /// recording, and resolves crash rules (running a fault-free probe
    /// pass when needed). Link-layer clusters only.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's node count differs from the testbed's.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> ScenarioRun {
        assert_eq!(
            scenario.n_nodes, self.n_nodes,
            "scenario {} needs {} nodes but the testbed has {}",
            scenario.name, scenario.n_nodes, self.n_nodes
        );
        let crash_at: Option<(usize, u64)> = match scenario.crash {
            None => None,
            Some(CrashRule::AtBit { node, at }) => Some((node, at)),
            Some(CrashRule::AfterRetransmissionScheduled { node }) => {
                // Probe pass without the crash to find the scheduling time.
                let probe = self.run_script(&scenario.disturbances);
                probe
                    .events
                    .iter()
                    .find(|e| {
                        e.node == NodeId(node)
                            && matches!(e.event, CanEvent::RetransmissionScheduled { .. })
                    })
                    .map(|e| (node, e.at + 1))
            }
        };
        let crashes: Vec<(usize, u64)> = crash_at.into_iter().collect();
        self.run_script_with_crashes(&scenario.disturbances, &crashes)
    }

    fn run_script_with_crashes(
        &mut self,
        disturbances: &[Disturbance],
        crashes: &[(usize, u64)],
    ) -> ScenarioRun {
        self.set_record_trace(true);
        self.load_script(disturbances);
        for &(node, at) in crashes {
            self.set_fail_at(node, Some(at));
        }
        self.enqueue(0, scenario_frame());
        self.run(self.budget);
        link_sim!(&mut self.cluster, self.protocol, "run_script", sim => {
            let unfired = sim.channel().unfired();
            let trace = sim.trace().cloned().unwrap_or_default();
            ScenarioRun {
                events: sim.take_events(),
                trace,
                script_exhausted: unfired.is_empty(),
                unfired,
                n_nodes: self.n_nodes,
            }
        })
    }
}
