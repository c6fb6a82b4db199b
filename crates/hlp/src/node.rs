//! The node wrapper combining a standard CAN controller with a
//! higher-level protocol layer.

use crate::{BroadcastId, HlpMessage};
use majorcan_can::{CanEvent, Controller, ControllerConfig, Frame, StandardCan, WirePos};
use majorcan_sim::{BitNode, Level};
use std::fmt;

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
    /// extend its controller's promise.
    ///
    /// The default promises nothing (`now`), which is always sound.
    fn quiet_until(&self, now: u64) -> u64 {
        now
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
        self.apply(actions);
        self.pending.push(HlpEvent::Broadcast { id });
        id
    }

    /// Crashes the node (fail silent).
    pub fn crash(&mut self) {
        self.ctrl.crash();
    }

    fn apply(&mut self, actions: LayerActions) {
        for frame in actions.outbox {
            self.ctrl.enqueue(frame);
        }
        self.pending.extend(actions.events);
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
        self.ctrl.observe(now, seen, &mut self.link_buf);
        let link_events = std::mem::take(&mut self.link_buf);
        let mut actions = LayerActions::default();
        for ev in &link_events {
            if matches!(ev, CanEvent::Crashed) {
                events.push(HlpEvent::Crashed);
            }
            self.layer.on_link_event(now, self.index, ev, &mut actions);
            events.push(HlpEvent::Link(ev.clone()));
        }
        self.link_buf = link_events;
        self.link_buf.clear();
        self.layer.on_tick(now, self.index, &mut actions);
        for frame in actions.outbox {
            self.ctrl.enqueue(frame);
        }
        events.extend(actions.events);
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
