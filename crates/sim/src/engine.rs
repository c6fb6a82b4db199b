//! The bit-synchronous simulation engine.

use crate::{BitNode, BitRecord, BitTrace, ChannelModel, Level, NodeBit, NodeId, TimedEvent};

/// A bit-synchronous simulation of `N` protocol controllers sharing one
/// wired-AND bus through a fault channel.
///
/// Each call to [`Simulator::step`] advances one bit time:
///
/// 1. every node [drives](BitNode::drive) a level; the wire resolves to the
///    wired-AND of all driven levels;
/// 2. the [`ChannelModel`] decides per node whether that node's *view* of the
///    wire is inverted (the paper's spatial error model — an error somewhere
///    on the network is seen only by some nodes);
/// 3. every node [observes](BitNode::observe) its view and may emit protocol
///    events, which are collected into a timestamped [event log](Simulator::events).
///
/// The engine is single-threaded and fully deterministic: the same nodes,
/// channel and seed replay bit-for-bit, which is what lets the scripted
/// figure scenarios reproduce the paper's diagrams exactly.
///
/// # Examples
///
/// ```
/// use majorcan_sim::{BitNode, Level, NoFaults, Simulator};
///
/// /// A node that drives dominant on even bits and counts dominant samples.
/// struct Blinker { seen_dominant: u32 }
///
/// impl BitNode for Blinker {
///     type Tag = ();
///     type Event = ();
///     fn drive(&mut self, now: u64) -> Level {
///         if now % 2 == 0 { Level::Dominant } else { Level::Recessive }
///     }
///     fn tag(&self) {}
///     fn observe(&mut self, _now: u64, seen: Level, _ev: &mut Vec<()>) {
///         if seen.is_dominant() { self.seen_dominant += 1; }
///     }
/// }
///
/// let mut sim = Simulator::new(NoFaults);
/// sim.attach(Blinker { seen_dominant: 0 });
/// sim.attach(Blinker { seen_dominant: 0 });
/// sim.run(10);
/// assert_eq!(sim.node(majorcan_sim::NodeId(0)).seen_dominant, 5);
/// ```
#[derive(Debug)]
pub struct Simulator<N: BitNode, C: ChannelModel<N::Tag>> {
    nodes: Vec<N>,
    channel: C,
    now: u64,
    events: Vec<TimedEvent<N::Event>>,
    trace: Option<BitTrace>,
    scratch: Vec<N::Event>,
    driven: Vec<Level>,
}

impl<N: BitNode, C: ChannelModel<N::Tag>> Simulator<N, C> {
    /// Creates an engine with no nodes attached, using `channel` as the
    /// fault model.
    pub fn new(channel: C) -> Self {
        Simulator {
            nodes: Vec::new(),
            channel,
            now: 0,
            events: Vec::new(),
            trace: None,
            scratch: Vec::new(),
            driven: Vec::new(),
        }
    }

    /// Attaches a node to the bus and returns its assigned [`NodeId`].
    pub fn attach(&mut self, node: N) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Enables bit-level trace recording (off by default; costs
    /// `O(bits × nodes)` memory).
    pub fn record_trace(&mut self) -> &mut Self {
        if self.trace.is_none() {
            self.trace = Some(BitTrace::new());
        }
        self
    }

    /// Enables or disables trace recording in place. Enabling keeps any
    /// previously allocated (cleared) trace storage; disabling drops it.
    pub fn set_record_trace(&mut self, enabled: bool) {
        match (enabled, self.trace.is_some()) {
            (true, false) => {
                self.trace = Some(BitTrace::new());
            }
            (false, true) => {
                self.trace = None;
            }
            _ => {}
        }
    }

    /// The recorded trace, if [`Simulator::record_trace`] was enabled.
    pub fn trace(&self) -> Option<&BitTrace> {
        self.trace.as_ref()
    }

    /// Rewinds the engine to bit time zero for another run on the same
    /// bus: clears the event log and any recorded trace, keeping their
    /// allocations. The fault channel and attached nodes are untouched —
    /// reset them separately (see
    /// [`Simulator::channel_mut`] / [`Simulator::nodes_mut`]).
    pub fn reset(&mut self) {
        self.now = 0;
        self.events.clear();
        if let Some(trace) = self.trace.as_mut() {
            trace.clear();
        }
    }

    /// [`Simulator::reset`], additionally installing `channel` as the new
    /// fault model.
    pub fn reset_with_channel(&mut self, channel: C) {
        self.channel = channel;
        self.reset();
    }

    /// Current bit time (the index of the next bit to simulate).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Shared access to an attached node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Simulator::attach`] on this
    /// engine.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Exclusive access to an attached node (e.g. to enqueue a frame for
    /// transmission between steps).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Simulator::attach`] on this
    /// engine.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Iterates over all attached nodes.
    pub fn nodes(&self) -> std::slice::Iter<'_, N> {
        self.nodes.iter()
    }

    /// Exclusive iteration over all attached nodes.
    pub fn nodes_mut(&mut self) -> std::slice::IterMut<'_, N> {
        self.nodes.iter_mut()
    }

    /// The accumulated event log (all nodes, time order).
    pub fn events(&self) -> &[TimedEvent<N::Event>] {
        &self.events
    }

    /// Drains and returns the accumulated event log, leaving it empty.
    pub fn take_events(&mut self) -> Vec<TimedEvent<N::Event>> {
        std::mem::take(&mut self.events)
    }

    /// The fault channel (e.g. to inspect an adaptive model mid-run).
    pub fn channel(&self) -> &C {
        &self.channel
    }

    /// Exclusive access to the fault channel (e.g. to arm a scripted
    /// disturbance mid-run).
    pub fn channel_mut(&mut self) -> &mut C {
        &mut self.channel
    }

    /// Captures the complete mid-run simulation state — nodes, fault
    /// channel, bit clock and event log — so a later
    /// [`Simulator::restore_from`] resumes bit-identically from this
    /// instant. The bit-level trace is deliberately *not* captured: the
    /// lane peel that snapshots on the hot path runs trace-off, and a
    /// trace spanning a restore would be misleading anyway.
    pub fn snapshot(&self) -> SimSnapshot<N, C>
    where
        N: Clone,
        C: Clone,
        N::Event: Clone,
    {
        SimSnapshot {
            nodes: self.nodes.clone(),
            channel: self.channel.clone(),
            now: self.now,
            events: self.events.clone(),
        }
    }

    /// Rewinds the engine to the instant captured by `snap`, reusing the
    /// existing allocations (`clone_from`) so replaying N peeled lanes from
    /// one snapshot does not reallocate N times. Any recorded trace is cleared:
    /// it belonged to the abandoned timeline.
    pub fn restore_from(&mut self, snap: &SimSnapshot<N, C>)
    where
        N: Clone,
        C: Clone,
        N::Event: Clone,
    {
        self.nodes.clone_from(&snap.nodes);
        self.channel.clone_from(&snap.channel);
        self.now = snap.now;
        self.events.clone_from(&snap.events);
        if let Some(trace) = self.trace.as_mut() {
            trace.clear();
        }
    }

    /// Simulates a single bit time and returns the fault-free resolved wire
    /// level of that bit.
    pub fn step(&mut self) -> Level {
        let now = self.now;
        self.driven.clear();
        for node in &mut self.nodes {
            self.driven.push(node.drive(now));
        }
        let wire = Level::resolve(self.driven.iter().copied());

        let mut record = self.trace.is_some().then(|| BitRecord {
            bit: now,
            wire,
            nodes: Vec::with_capacity(self.nodes.len()),
        });
        let mut labels = self
            .trace
            .is_some()
            .then(|| Vec::with_capacity(self.nodes.len()));

        for (i, node) in self.nodes.iter_mut().enumerate() {
            let id = NodeId(i);
            let tag = node.tag();
            let disturbed = self.channel.disturb(now, id, &tag, wire);
            let seen = if disturbed { !wire } else { wire };
            if let (Some(record), Some(labels)) = (record.as_mut(), labels.as_mut()) {
                record.nodes.push(NodeBit {
                    driven: self.driven[i],
                    seen,
                    disturbed,
                });
                labels.push(format!("{tag:?}"));
            }
            node.observe(now, seen, &mut self.scratch);
            for event in self.scratch.drain(..) {
                self.events.push(TimedEvent {
                    at: now,
                    node: id,
                    event,
                });
            }
        }

        if let (Some(trace), Some(record), Some(labels)) = (self.trace.as_mut(), record, labels) {
            trace.push(record, labels);
        }
        self.now += 1;
        wire
    }

    /// Simulates `bits` bit times.
    ///
    /// Stretches that [`Simulator::quiet_horizon`] proves inert are leapt
    /// in one clock update instead of being stepped bit by bit, so a run
    /// that settles early (every node idle or crashed, the channel quiet)
    /// costs time proportional to its busy bits, not to `bits`. The leap
    /// is bit-identical to stepping: state, events and timestamps are
    /// unchanged, and the clock still ends at `now + bits`.
    pub fn run(&mut self, bits: u64) {
        let end = self.now.saturating_add(bits);
        while self.now < end {
            let horizon = self.quiet_horizon();
            if horizon > self.now {
                self.now = horizon.min(end);
            } else {
                self.step();
            }
        }
    }

    /// First bit time at or after `now` where *anything* can happen: the
    /// minimum of the channel's [`quiet_until`](ChannelModel::quiet_until)
    /// and every node's [`quiescent_until`](BitNode::quiescent_until).
    /// Every bit in `now..quiet_horizon()` is a guaranteed no-op round —
    /// all nodes drive recessive, no view is disturbed, no state changes,
    /// no events — so [`Simulator::run`] skips straight over them.
    ///
    /// Returns `now` as soon as any promise does, so a run that can never
    /// leap (a busy bus, a random channel) pays about one cheap call per
    /// bit. Also returns `now` while trace recording is enabled: a leap
    /// records no per-bit samples, and traces must stay exact.
    pub fn quiet_horizon(&self) -> u64 {
        let now = self.now;
        if self.trace.is_some() {
            return now;
        }
        let mut horizon = self.channel.quiet_until(now);
        if horizon <= now {
            return now;
        }
        for node in &self.nodes {
            let until = node.quiescent_until(now);
            if until <= now {
                return now;
            }
            horizon = horizon.min(until);
        }
        horizon
    }

    /// Tries to advance the whole bus across the next frame in one call
    /// ([`BitNode::leap_frame`]), ending no later than bit `end`. The
    /// channel must promise a clean bus over the whole frame
    /// ([`ChannelModel::clean_until`]), whatever the nodes report, and
    /// trace recording must be off. Returns `true` if the clock moved;
    /// on `false` nothing changed and the caller steps instead.
    ///
    /// The workload driver calls this at every bit it would otherwise
    /// step. [`Simulator::run`] does not: it runs from one release to the
    /// next, and on a busy bus almost every frame has a release inside
    /// it, which the driver queues right after the leap.
    pub fn leap_frame(&mut self, end: u64) -> bool {
        if self.trace.is_some() {
            return false;
        }
        let limit = end.min(self.channel.clean_until(self.now));
        if limit <= self.now {
            return false;
        }
        match N::leap_frame(&mut self.nodes, self.now, limit, &mut self.events) {
            Some(at) => {
                debug_assert!(
                    at > self.now && at <= limit,
                    "a leap must end inside its limit"
                );
                self.now = at;
                true
            }
            None => false,
        }
    }

    /// Simulates until `stop` returns `true` (checked after each bit) or
    /// until `max_bits` have elapsed, whichever comes first. Returns the
    /// number of bits simulated.
    pub fn run_until(&mut self, max_bits: u64, mut stop: impl FnMut(&Self) -> bool) -> u64 {
        for done in 0..max_bits {
            self.step();
            if stop(self) {
                return done + 1;
            }
        }
        max_bits
    }
}

/// A point-in-time capture of a [`Simulator`]'s complete mid-run state
/// (nodes, channel, clock, event log), produced by [`Simulator::snapshot`].
///
/// Restoring with [`Simulator::restore_from`] and continuing is
/// bit-identical to having cloned the whole engine at the capture point —
/// the foundation of the lane peel (see [`LaneSim`](crate::LaneSim)), where
/// each lane leaving a cohort resumes from the shared trunk's state.
#[derive(Debug, Clone)]
pub struct SimSnapshot<N: BitNode, C: ChannelModel<N::Tag>> {
    nodes: Vec<N>,
    channel: C,
    now: u64,
    events: Vec<TimedEvent<N::Event>>,
}

impl<N: BitNode, C: ChannelModel<N::Tag>> SimSnapshot<N, C> {
    /// The bit time at which this snapshot was taken.
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnChannel, NoFaults};

    /// A node that drives a fixed script of levels, then recessive forever,
    /// and remembers everything it saw.
    #[derive(Clone)]
    struct Scripted {
        script: Vec<Level>,
        seen: Vec<Level>,
    }

    impl Scripted {
        fn new(script: Vec<Level>) -> Self {
            Scripted {
                script,
                seen: Vec::new(),
            }
        }
    }

    impl BitNode for Scripted {
        type Tag = usize;
        type Event = Level;

        fn drive(&mut self, now: u64) -> Level {
            self.script
                .get(now as usize)
                .copied()
                .unwrap_or(Level::Recessive)
        }

        fn tag(&self) -> usize {
            self.seen.len()
        }

        fn observe(&mut self, _now: u64, seen: Level, events: &mut Vec<Level>) {
            self.seen.push(seen);
            events.push(seen);
        }
    }

    const D: Level = Level::Dominant;
    const R: Level = Level::Recessive;

    #[test]
    fn wired_and_resolution() {
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Scripted::new(vec![R, D, R]));
        sim.attach(Scripted::new(vec![R, R, D]));
        assert_eq!(sim.step(), R);
        assert_eq!(sim.step(), D);
        assert_eq!(sim.step(), D);
        assert_eq!(sim.step(), R);
        // Every node saw the same resolved levels (fault-free channel).
        for node in sim.nodes() {
            assert_eq!(node.seen, vec![R, D, D, R]);
        }
    }

    #[test]
    fn channel_disturbs_only_target_view() {
        // Flip node 1's view of bit 0 only.
        let ch = FnChannel(|bit: u64, node: NodeId, _t: &usize, _w: Level| {
            bit == 0 && node == NodeId(1)
        });
        let mut sim = Simulator::new(ch);
        sim.attach(Scripted::new(vec![R]));
        sim.attach(Scripted::new(vec![R]));
        sim.run(2);
        assert_eq!(sim.node(NodeId(0)).seen, vec![R, R]);
        assert_eq!(
            sim.node(NodeId(1)).seen,
            vec![D, R],
            "node 1's view flipped"
        );
    }

    #[test]
    fn events_are_timestamped_and_attributed() {
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Scripted::new(vec![D]));
        sim.attach(Scripted::new(vec![R]));
        sim.run(2);
        let events = sim.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].at, 0);
        assert_eq!(events[0].node, NodeId(0));
        assert_eq!(events[0].event, D);
        assert_eq!(events[1].node, NodeId(1));
        assert_eq!(events[3].event, R);
        let drained = sim.take_events();
        assert_eq!(drained.len(), 4);
        assert!(sim.events().is_empty());
    }

    #[test]
    fn trace_records_driven_seen_and_disturbance() {
        let ch = FnChannel(|bit: u64, node: NodeId, _t: &usize, _w: Level| {
            bit == 1 && node == NodeId(0)
        });
        let mut sim = Simulator::new(ch);
        sim.attach(Scripted::new(vec![D, R]));
        sim.record_trace();
        sim.run(2);
        let trace = sim.trace().expect("trace enabled");
        assert_eq!(trace.len(), 2);
        let b0 = trace.get(0).unwrap();
        assert_eq!(b0.wire, D);
        assert_eq!(b0.nodes[0].driven, D);
        assert!(!b0.nodes[0].disturbed);
        let b1 = trace.get(1).unwrap();
        assert_eq!(b1.wire, R);
        assert_eq!(b1.nodes[0].seen, D, "disturbed view");
        assert!(b1.nodes[0].disturbed);
    }

    #[test]
    fn tag_passed_to_channel_reflects_pre_sample_state() {
        // The Scripted node's tag is the number of bits it has *already*
        // observed — i.e. the index of the bit in flight.
        let mut seen_tags = Vec::new();
        {
            let ch = FnChannel(|_bit: u64, _node: NodeId, tag: &usize, _w: Level| {
                // Record through a raw pointer-free channel: this closure
                // can't borrow seen_tags mutably while sim borrows it, so we
                // assert the invariant directly instead.
                assert!(*tag < 100);
                false
            });
            let mut sim = Simulator::new(ch);
            sim.attach(Scripted::new(vec![R; 4]));
            for expect in 0..4usize {
                assert_eq!(sim.node(NodeId(0)).tag(), expect);
                sim.step();
                seen_tags.push(expect);
            }
        }
        assert_eq!(seen_tags, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Scripted::new(vec![R, R, D, R]));
        let steps = sim.run_until(100, |s| s.events().iter().any(|e| e.event == D));
        assert_eq!(steps, 3);
        assert_eq!(sim.now(), 3);
    }

    #[test]
    fn run_until_respects_budget() {
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Scripted::new(vec![]));
        let steps = sim.run_until(10, |_| false);
        assert_eq!(steps, 10);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let build = || {
            let mut sim = Simulator::new(NoFaults);
            sim.attach(Scripted::new(vec![R, D, R, D, D, R]));
            sim.attach(Scripted::new(vec![R, R, D, D, R, R]));
            sim
        };
        let mut forked = build();
        forked.run(2);
        let snap = forked.snapshot();
        assert_eq!(snap.now(), 2);

        // Diverge, then restore and replay: must match an uninterrupted run.
        forked.run(4);
        forked.restore_from(&snap);
        assert_eq!(forked.now(), 2);
        forked.run(4);

        let mut straight = build();
        straight.run(6);
        assert_eq!(forked.events(), straight.events());
        assert_eq!(forked.node(NodeId(0)).seen, straight.node(NodeId(0)).seen);
        assert_eq!(forked.node(NodeId(1)).seen, straight.node(NodeId(1)).seen);
    }

    #[test]
    fn restore_clears_a_recorded_trace() {
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Scripted::new(vec![D, R]));
        sim.record_trace();
        sim.run(2);
        let snap = sim.snapshot();
        sim.run(1);
        sim.restore_from(&snap);
        assert_eq!(sim.trace().map(|t| t.len()), Some(0));
    }

    /// Sleeps (recessive, promised quiescent) until bit `wake`, pulls the
    /// bus dominant on that bit, then stays awake without promises.
    struct Sleeper {
        wake: u64,
        observed: u64,
    }

    impl BitNode for Sleeper {
        type Tag = ();
        type Event = u64;

        fn drive(&mut self, now: u64) -> Level {
            if now == self.wake {
                D
            } else {
                R
            }
        }

        fn tag(&self) {}

        fn observe(&mut self, now: u64, seen: Level, events: &mut Vec<u64>) {
            self.observed += 1;
            if seen.is_dominant() {
                events.push(now);
            }
        }

        fn quiescent_until(&self, now: u64) -> u64 {
            if now < self.wake {
                self.wake
            } else {
                now
            }
        }
    }

    #[test]
    fn run_leaps_promised_stretches_and_ends_at_the_budget() {
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Sleeper {
            wake: 40,
            observed: 0,
        });
        sim.run(100);
        assert_eq!(sim.now(), 100);
        assert_eq!(sim.events().len(), 1);
        assert_eq!(sim.events()[0].at, 40, "the wake-up bit was stepped");
        assert_eq!(sim.node(NodeId(0)).observed, 60, "bits 0..40 were leapt");

        // No leap without the channel's promise, nor with a trace on.
        let mut sim = Simulator::new(FnChannel(|_, _, _: &(), _| false));
        sim.attach(Sleeper {
            wake: 40,
            observed: 0,
        });
        sim.run(100);
        assert_eq!(sim.node(NodeId(0)).observed, 100);
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Sleeper {
            wake: 40,
            observed: 0,
        });
        sim.record_trace();
        sim.run(100);
        assert_eq!(sim.node(NodeId(0)).observed, 100);
        assert_eq!(sim.trace().map(|t| t.len()), Some(100));
    }

    #[test]
    fn empty_bus_floats_recessive() {
        let mut sim: Simulator<Scripted, NoFaults> = Simulator::new(NoFaults);
        assert_eq!(sim.step(), R);
        assert_eq!(sim.node_count(), 0);
    }
}
