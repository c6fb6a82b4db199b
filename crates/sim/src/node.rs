//! The interface a protocol controller exposes to the bit-synchronous engine.

use crate::Level;
use std::fmt;

/// Identifies a node (station) on the simulated bus.
///
/// Node ids are dense indices assigned by the [`Simulator`](crate::Simulator)
/// in attachment order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// A protocol controller attached to the simulated bus.
///
/// Every simulated bit time has two phases, mirroring how a CAN controller
/// transmits at the start of a bit and samples near its end:
///
/// 1. **Drive** — the engine calls [`BitNode::drive`] on every node and
///    resolves the wired-AND of the returned levels.
/// 2. **Sample** — the engine calls [`BitNode::observe`] on every node with
///    that node's (possibly channel-disturbed) view of the resolved level.
///
/// Consequently a node's *reaction* to bit `k` can influence the bus no
/// earlier than bit `k + 1` — exactly the CAN rule that an error flag starts
/// the bit after the error was detected.
pub trait BitNode {
    /// Frame-relative position metadata for the bit about to be sampled.
    ///
    /// The engine hands this to the [`ChannelModel`](crate::ChannelModel) so
    /// fault scripts can target bits symbolically ("EOF bit 6 of node 2")
    /// rather than by absolute bit time, and to the trace recorder so
    /// rendered figures can be labelled.
    type Tag: Clone + fmt::Debug;

    /// Protocol-level events emitted while observing bits (frame accepted,
    /// error detected, …). Collected by the engine into a timestamped log.
    type Event;

    /// Returns the level this node drives onto the bus for the current bit.
    fn drive(&mut self, now: u64) -> Level;

    /// Returns position metadata describing the bit currently in flight
    /// (valid between the drive and sample phases of one bit time).
    fn tag(&self) -> Self::Tag;

    /// Delivers this node's view of the resolved bus level for the current
    /// bit. Protocol events triggered by the bit are pushed into `events`.
    fn observe(&mut self, now: u64, seen: Level, events: &mut Vec<Self::Event>);

    /// First bit time at or after `now` where this node might do anything
    /// but drive recessive and ignore a recessive sample: for every bit in
    /// `now..quiescent_until(now)`, **provided the node sees recessive**,
    /// its drive/observe round is a guaranteed no-op (no state change, no
    /// events). The quiet-stretch leap in
    /// [`Simulator::run`](crate::Simulator::run) relies on this; the
    /// recessive-view proviso holds there because the leap requires every
    /// node quiescent (so the wired-AND is recessive) and the channel
    /// quiet (so no view is flipped).
    ///
    /// The default promises nothing (`now`), which is always sound.
    fn quiescent_until(&self, now: u64) -> u64 {
        now
    }

    /// Advances a whole bus of these nodes, starting at bit `now`, across
    /// the next frame in one call, provided every view of every bit up to
    /// `limit` is undisturbed. Returns the bit time the leap ends at (at
    /// most `limit`), having left every node in the state stepping would
    /// and pushed the events stepping would emit, stamped and in engine
    /// order (by bit, then node index). Returns `None` to decline, with
    /// nothing changed; [`Simulator::leap_frame`] then falls back to
    /// stepping.
    ///
    /// The default declines, which is always sound.
    ///
    /// [`Simulator::leap_frame`]: crate::Simulator::leap_frame
    fn leap_frame(
        nodes: &mut [Self],
        now: u64,
        limit: u64,
        events: &mut Vec<TimedEvent<Self::Event>>,
    ) -> Option<u64>
    where
        Self: Sized,
    {
        let _ = (nodes, now, limit, events);
        None
    }
}

/// An event stamped with the bit time and node that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent<E> {
    /// Bit time at which the event was emitted.
    pub at: u64,
    /// Node that emitted the event.
    pub node: NodeId,
    /// The protocol-level event payload.
    pub event: E,
}

impl<E: fmt::Display> fmt::Display for TimedEvent<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[bit {:>6}] {}: {}", self.at, self.node, self.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversions() {
        let n: NodeId = 7usize.into();
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "n7");
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    fn timed_event_display() {
        let e = TimedEvent {
            at: 42,
            node: NodeId(3),
            event: "hello",
        };
        assert_eq!(e.to_string(), "[bit     42] n3: hello");
    }
}
