//! The node wrapper combining a standard CAN controller with a
//! higher-level protocol layer.

use crate::{BroadcastId, HlpMessage};
use majorcan_can::{
    leap_clean_frame, CanEvent, Controller, ControllerConfig, Frame, StandardCan, WirePos,
};
use majorcan_sim::{BitNode, Level, TimedEvent};
use std::borrow::{Borrow, BorrowMut};
use std::{fmt, iter};

/// Host-visible events of a higher-level protocol node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HlpEvent {
    /// The local host initiated a broadcast.
    Broadcast {
        /// Broadcast identity (origin = this node).
        id: BroadcastId,
    },
    /// A broadcast message was delivered to the local host.
    Delivered {
        /// Broadcast identity.
        id: BroadcastId,
        /// User payload.
        payload: Vec<u8>,
    },
    /// TOTCAN discarded a queued message whose ACCEPT never arrived.
    Dropped {
        /// Broadcast identity.
        id: BroadcastId,
    },
    /// The node crashed.
    Crashed,
    /// A link-layer event (passed through for diagnostics).
    Link(CanEvent),
}

impl fmt::Display for HlpEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlpEvent::Broadcast { id } => write!(f, "broadcast {id}"),
            HlpEvent::Delivered { id, payload } => {
                write!(f, "delivered {id} ({} byte(s))", payload.len())
            }
            HlpEvent::Dropped { id } => write!(f, "dropped {id} (no ACCEPT)"),
            HlpEvent::Crashed => f.write_str("crashed"),
            HlpEvent::Link(e) => write!(f, "link: {e}"),
        }
    }
}

/// What a layer can do in reaction to link events: queue protocol frames
/// and emit host events.
#[derive(Debug, Default)]
pub struct LayerActions {
    /// Frames to enqueue on the local controller.
    pub outbox: Vec<Frame>,
    /// Host events to emit.
    pub events: Vec<HlpEvent>,
}

impl LayerActions {
    /// Queues `message` for transmission by `sender`.
    ///
    /// # Panics
    ///
    /// Panics if the message cannot be encoded (sender or payload out of
    /// range) — layer code always builds messages within range.
    pub fn send(&mut self, message: &HlpMessage, sender: usize) {
        self.outbox
            .push(message.encode(sender).expect("layer-built message encodes"));
    }

    /// Emits a delivery to the host.
    pub fn deliver(&mut self, id: BroadcastId, payload: Vec<u8>) {
        self.events.push(HlpEvent::Delivered { id, payload });
    }
}

/// A higher-level broadcast protocol running above the CAN data-link layer.
pub trait HlpLayer: fmt::Debug {
    /// Protocol name (e.g. `"EDCAN"`).
    fn name(&self) -> &'static str;

    /// The local host requests a broadcast. The layer builds and queues the
    /// protocol frames.
    fn broadcast(&mut self, id: BroadcastId, payload: &[u8], actions: &mut LayerActions);

    /// A link-layer event occurred (frame delivered, transmission
    /// succeeded, …).
    fn on_link_event(
        &mut self,
        now: u64,
        self_index: usize,
        event: &CanEvent,
        actions: &mut LayerActions,
    );

    /// Called once per bit time for timeout processing.
    fn on_tick(&mut self, now: u64, self_index: usize, actions: &mut LayerActions);

    /// First bit time at or after `now` where [`on_tick`](HlpLayer::on_tick)
    /// might act — the next timer deadline. Every `on_tick` call before it
    /// must be a no-op (no state change, no actions), which is what lets
    /// [`HlpNode::quiescent_until`](majorcan_sim::BitNode::quiescent_until)
    /// extend its controller's promise, and what the node's frame leap
    /// ([`HlpNode::leap_frame`](majorcan_sim::BitNode::leap_frame)) ends
    /// by.
    ///
    /// The default promises nothing (`now`), which is always sound.
    fn quiet_until(&self, now: u64) -> u64 {
        now
    }

    /// The shortest delay, in bits, of a timer a reaction can arm: every
    /// deadline that [`on_link_event`](HlpLayer::on_link_event) at bit
    /// `now` sets falls at `now + min_timer_delay()` or later. The node's
    /// frame leap relies on it to prove that no timer armed inside a
    /// leapt frame falls due inside it.
    ///
    /// The default, 0, promises nothing and makes every frame leap
    /// decline, which is always sound.
    fn min_timer_delay(&self) -> u64 {
        0
    }

    /// Rewinds the layer to its freshly-constructed state (same
    /// configuration, no delivery history) so a node can be reused across
    /// independent runs.
    fn reset(&mut self);
}

/// A CAN node running a higher-level broadcast protocol layer `L`.
///
/// Implements [`BitNode`], so it attaches to the same simulator as raw
/// controllers; experiment code assembles whole clusters through the
/// `majorcan-testbed` facade. Host-level activity is reported as
/// [`HlpEvent`]s.
///
/// # Examples
///
/// ```
/// use majorcan_hlp::HlpEvent;
/// use majorcan_testbed::{ProtocolSpec, Testbed};
///
/// let mut tb = Testbed::builder(ProtocolSpec::EdCan).build();
/// tb.broadcast(0, b"stop");
/// tb.run(1500);
/// let delivered = tb
///     .hlp_events()
///     .iter()
///     .filter(|e| matches!(e.event, HlpEvent::Delivered { .. }))
///     .count();
/// assert_eq!(delivered, 3, "all three nodes deliver (tx included)");
/// ```
#[derive(Debug, Clone)]
pub struct HlpNode<L: HlpLayer> {
    ctrl: Controller<StandardCan>,
    layer: L,
    index: usize,
    next_seq: u16,
    link_buf: Vec<CanEvent>,
    pending: Vec<HlpEvent>,
}

impl<L: HlpLayer> HlpNode<L> {
    /// Creates a node with index `index` (its protocol-level identity,
    /// 0–127) running `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 128` (the encoding limit of the sender field).
    pub fn new(layer: L, index: usize) -> HlpNode<L> {
        HlpNode::with_config(layer, index, ControllerConfig::default())
    }

    /// Creates a node with an explicit link-layer configuration (crash
    /// injection, confinement policy).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 128`.
    pub fn with_config(layer: L, index: usize, config: ControllerConfig) -> HlpNode<L> {
        assert!(
            index < crate::MAX_NODES,
            "node index {index} exceeds the 7-bit sender field"
        );
        HlpNode {
            ctrl: Controller::with_config(StandardCan, config),
            layer,
            index,
            next_seq: 0,
            link_buf: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Rewinds the node — controller, protocol layer, sequence counter and
    /// event buffers — to its freshly-constructed state, keeping heap
    /// allocations for reuse across runs.
    pub fn reset(&mut self) {
        self.ctrl.reset();
        self.layer.reset();
        self.next_seq = 0;
        self.link_buf.clear();
        self.pending.clear();
    }

    /// Re-arms (or clears) the scripted fail-silent bit time for the next
    /// run of a reused node.
    pub fn set_fail_at(&mut self, fail_at: Option<u64>) {
        self.ctrl.set_fail_at(fail_at);
    }

    /// The protocol layer (for inspection in tests).
    pub fn layer(&self) -> &L {
        &self.layer
    }

    /// The underlying CAN controller.
    pub fn controller(&self) -> &Controller<StandardCan> {
        &self.ctrl
    }

    /// This node's protocol-level index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Broadcasts `payload` (at most 4 bytes) to all nodes, returning the
    /// assigned identity.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_PAYLOAD`](crate::MAX_PAYLOAD).
    pub fn broadcast(&mut self, payload: &[u8]) -> BroadcastId {
        assert!(
            payload.len() <= crate::MAX_PAYLOAD,
            "payload of {} bytes exceeds the {}-byte protocol limit",
            payload.len(),
            crate::MAX_PAYLOAD
        );
        let id = BroadcastId {
            origin: self.index as u8,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let mut actions = LayerActions::default();
        self.layer.broadcast(id, payload, &mut actions);
        let host = self.apply(actions);
        self.pending.extend(host);
        self.pending.push(HlpEvent::Broadcast { id });
        id
    }

    /// Crashes the node (fail silent).
    pub fn crash(&mut self) {
        self.ctrl.crash();
    }

    /// Queues the layer's frames on the controller and returns its host
    /// events.
    fn apply(&mut self, actions: LayerActions) -> Vec<HlpEvent> {
        for frame in actions.outbox {
            self.ctrl.enqueue(frame);
        }
        actions.events
    }

    /// The layer's half of one sampled bit: each of the controller's
    /// `link` events at bit `now` reaches the layer and then the log (a
    /// crash also as [`HlpEvent::Crashed`]), the timers tick, the layer's
    /// frames are queued and its host events follow.
    fn react(
        &mut self,
        now: u64,
        link: impl Iterator<Item = CanEvent>,
        events: &mut Vec<HlpEvent>,
    ) {
        let mut actions = LayerActions::default();
        for ev in link {
            if matches!(ev, CanEvent::Crashed) {
                events.push(HlpEvent::Crashed);
            }
            self.layer.on_link_event(now, self.index, &ev, &mut actions);
            events.push(HlpEvent::Link(ev));
        }
        self.layer.on_tick(now, self.index, &mut actions);
        events.extend(self.apply(actions));
    }
}

/// The node's controller, so that the controllers' clean-frame leap
/// ([`leap_clean_frame`]) runs over a slice of these nodes.
impl<L: HlpLayer> Borrow<Controller<StandardCan>> for HlpNode<L> {
    fn borrow(&self) -> &Controller<StandardCan> {
        &self.ctrl
    }
}

impl<L: HlpLayer> BorrowMut<Controller<StandardCan>> for HlpNode<L> {
    fn borrow_mut(&mut self) -> &mut Controller<StandardCan> {
        &mut self.ctrl
    }
}

impl<L: HlpLayer> BitNode for HlpNode<L> {
    type Tag = WirePos;
    type Event = HlpEvent;

    fn drive(&mut self, now: u64) -> Level {
        self.ctrl.drive(now)
    }

    fn tag(&self) -> WirePos {
        self.ctrl.tag()
    }

    fn quiescent_until(&self, now: u64) -> u64 {
        // Host events still to flush make the next observe emit them.
        if !self.pending.is_empty() {
            return now;
        }
        self.ctrl
            .quiescent_until(now)
            .min(self.layer.quiet_until(now))
    }

    fn observe(&mut self, now: u64, seen: Level, events: &mut Vec<HlpEvent>) {
        events.append(&mut self.pending);
        let mut link = std::mem::take(&mut self.link_buf);
        self.ctrl.observe(now, seen, &mut link);
        self.react(now, link.drain(..), events);
        self.link_buf = link;
    }

    /// Runs the controllers' clean-frame leap ([`leap_clean_frame`]),
    /// then replays its link events through each node's layer in engine
    /// order (bit, then node), exactly as `observe` hands them over.
    /// Reactions are applied after the controllers' leap, which is
    /// exact: a queued frame joins no frame already under way, and a
    /// commit removes the in-flight entry, wherever new frames landed.
    ///
    /// Declines, changing nothing, when a node has host events to flush,
    /// or when some layer's `on_tick` could act inside the frame: the
    /// leap ends by every layer's [`quiet_until`](HlpLayer::quiet_until),
    /// and within every layer's
    /// [`min_timer_delay`](HlpLayer::min_timer_delay) of `now`, so no
    /// timer a reaction arms falls due inside it either.
    fn leap_frame(
        nodes: &mut [Self],
        now: u64,
        limit: u64,
        events: &mut Vec<TimedEvent<HlpEvent>>,
    ) -> Option<u64> {
        let mut limit = limit;
        for node in nodes.iter() {
            if !node.pending.is_empty() {
                return None;
            }
            limit = limit
                .min(node.layer.quiet_until(now))
                .min(now.saturating_add(node.layer.min_timer_delay()));
        }
        let mut link = Vec::new();
        let end = leap_clean_frame(nodes, now, limit, &mut link)?;
        let mut link = link.into_iter().peekable();
        let mut host = Vec::new();
        while let Some(&TimedEvent { at, node, .. }) = link.peek() {
            let bit = iter::from_fn(|| link.next_if(|e| e.at == at && e.node == node));
            nodes[node.index()].react(at, bit.map(|e| e.event), &mut host);
            events.extend(host.drain(..).map(|event| TimedEvent { at, node, event }));
        }
        Some(end)
    }
}

/// Convenience: decode a delivered link frame into a protocol message and
/// its sender, ignoring non-protocol traffic.
pub(crate) fn decode_delivery(event: &CanEvent) -> Option<(HlpMessage, usize)> {
    match event {
        CanEvent::Delivered { frame, .. } => {
            HlpMessage::decode(frame).map(|m| (m, HlpMessage::sender_of(frame)))
        }
        _ => None,
    }
}

/// Convenience: decode a successful own transmission into the protocol
/// message that was sent.
pub(crate) fn decode_tx_success(event: &CanEvent) -> Option<HlpMessage> {
    match event {
        CanEvent::TxSucceeded { frame, .. } => HlpMessage::decode(frame),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    //! The frame leap's own preconditions, one at a time: each must
    //! decline and leave every node untouched. Equivalence with stepping
    //! is checked in the testbed's `leap_equivalence` suite.

    use super::*;
    use crate::{HlpConfig, MsgKind, TotCan};
    use majorcan_sim::{NoFaults, Simulator};

    /// A layer with hand-set timers: its next deadline and the shortest
    /// delay its reactions arm. It reacts to nothing.
    #[derive(Debug, Clone)]
    struct Timers {
        deadline: u64,
        delay: u64,
    }

    /// Never due, never arming.
    const IDLE: Timers = Timers {
        deadline: u64::MAX,
        delay: u64::MAX,
    };

    impl HlpLayer for Timers {
        fn name(&self) -> &'static str {
            "TIMERS"
        }
        fn broadcast(&mut self, id: BroadcastId, payload: &[u8], actions: &mut LayerActions) {
            let data = HlpMessage {
                kind: MsgKind::Data,
                id,
                payload: payload.to_vec(),
            };
            actions.send(&data, id.origin as usize);
        }
        fn on_link_event(&mut self, _: u64, _: usize, _: &CanEvent, _: &mut LayerActions) {}
        fn on_tick(&mut self, _: u64, _: usize, _: &mut LayerActions) {}
        fn quiet_until(&self, _now: u64) -> u64 {
            self.deadline
        }
        fn min_timer_delay(&self) -> u64 {
            self.delay
        }
        fn reset(&mut self) {}
    }

    /// Never due, but keeps the default `min_timer_delay`.
    #[derive(Debug, Clone)]
    struct DefaultDelay;

    impl HlpLayer for DefaultDelay {
        fn name(&self) -> &'static str {
            "DEFAULT"
        }
        fn broadcast(&mut self, _: BroadcastId, _: &[u8], _: &mut LayerActions) {}
        fn on_link_event(&mut self, _: u64, _: usize, _: &CanEvent, _: &mut LayerActions) {}
        fn on_tick(&mut self, _: u64, _: usize, _: &mut LayerActions) {}
        fn quiet_until(&self, _now: u64) -> u64 {
            u64::MAX
        }
        fn reset(&mut self) {}
    }

    /// Three integrated nodes running `layers` on an idle bus, node 0
    /// holding a DATA frame; and the bit they are at.
    fn idle_bus<L: HlpLayer + Clone>(layers: [L; 3]) -> (Vec<HlpNode<L>>, u64) {
        let mut sim = Simulator::new(NoFaults);
        for (i, layer) in layers.into_iter().enumerate() {
            sim.attach(HlpNode::new(layer, i));
        }
        sim.run(20);
        let mut nodes: Vec<HlpNode<L>> = sim.nodes().cloned().collect();
        let data = HlpMessage {
            kind: MsgKind::Data,
            id: BroadcastId { origin: 0, seq: 0 },
            payload: vec![0x5A],
        };
        nodes[0].ctrl.enqueue(data.encode(0).expect("in range"));
        (nodes, sim.now())
    }

    /// Leaps `nodes` from `now`, checking that a decline changed nothing.
    fn leap<L: HlpLayer>(nodes: &mut [HlpNode<L>], now: u64) -> Option<u64> {
        let before = format!("{nodes:?}");
        let mut events = Vec::new();
        let end = HlpNode::leap_frame(nodes, now, u64::MAX, &mut events);
        if end.is_none() {
            assert!(events.is_empty(), "a declined leap logged events");
            assert_eq!(
                format!("{nodes:?}"),
                before,
                "a declined leap changed a node"
            );
        }
        end
    }

    #[test]
    fn each_broken_precondition_declines_and_changes_nothing() {
        let (mut nodes, now) = idle_bus([IDLE, IDLE, IDLE]);
        let end = leap(&mut nodes, now).expect("a ready bus leaps");

        // Host events still to flush: a broadcast just requested.
        let (mut nodes, _) = idle_bus([IDLE, IDLE, IDLE]);
        nodes[1].broadcast(&[1]);
        assert_eq!(leap(&mut nodes, now), None, "host events pending");

        // A timer already armed falls due inside the frame.
        let due = |deadline| Timers { deadline, ..IDLE };
        let (mut nodes, _) = idle_bus([IDLE, due(end - 1), IDLE]);
        assert_eq!(leap(&mut nodes, now), None, "a deadline inside the frame");
        let (mut nodes, _) = idle_bus([IDLE, due(end), IDLE]);
        assert_eq!(leap(&mut nodes, now), Some(end), "a deadline at its end");

        // A reaction could arm a timer that falls due inside the frame.
        let arming = |delay| Timers { delay, ..IDLE };
        let (mut nodes, _) = idle_bus([IDLE, IDLE, arming(end - now - 1)]);
        assert_eq!(leap(&mut nodes, now), None, "a delay inside the frame");
        let (mut nodes, _) = idle_bus([IDLE, IDLE, arming(end - now)]);
        assert_eq!(leap(&mut nodes, now), Some(end), "a delay to its end");

        // A layer that promises no delay at all.
        let (mut nodes, _) = idle_bus([DefaultDelay, DefaultDelay, DefaultDelay]);
        assert_eq!(leap(&mut nodes, now), None, "the default delay");
    }

    /// TOTCAN's ACCEPT timeout is a public field: a receiver that queues
    /// the DATA would time out inside the frame, so the leap declines.
    #[test]
    fn a_short_totcan_timeout_declines() {
        let (mut nodes, now) = idle_bus([TotCan::new(), TotCan::new(), TotCan::new()]);
        assert!(leap(&mut nodes, now).is_some(), "the default timeout leaps");
        let short = || {
            TotCan::with_config(HlpConfig {
                accept_timeout_bits: 10,
                ..HlpConfig::default()
            })
        };
        let (mut nodes, now) = idle_bus([short(), short(), short()]);
        assert_eq!(leap(&mut nodes, now), None);
    }
}
