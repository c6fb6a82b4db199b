//! TOTCAN — ACCEPT-based atomic broadcast (Rufino et al., FTCS'98).
//!
//! The only one of the three higher-level protocols claiming Total Order.
//! Receivers never deliver a DATA message directly: they queue it and wait.
//! After the transmitter sees its DATA succeed it sends an ACCEPT frame;
//! the bus order of ACCEPT frames *is* the total order, so receivers
//! deliver on ACCEPT. If no ACCEPT arrives within a timeout (transmitter
//! died), the queued message is discarded everywhere — agreement on
//! non-delivery.
//!
//! Properties: AB1–AB5 under the failure assumptions of FTCS'98. The
//! paper's Fig. 3 point: like RELCAN, TOTCAN's recovery is keyed to
//! transmitter failure. In the new scenarios the correct transmitter
//! ACCEPTs a message that some receivers never queued — they cannot deliver
//! what they do not have, and Agreement breaks.

use crate::node::{decode_delivery, decode_tx_success, HlpLayer, LayerActions};
use crate::{BroadcastId, HlpConfig, HlpMessage, MsgKind};
use majorcan_can::CanEvent;
use std::collections::{BTreeMap, BTreeSet};

/// The TOTCAN protocol layer.
#[derive(Debug, Clone)]
pub struct TotCan {
    config: HlpConfig,
    delivered: BTreeSet<BroadcastId>,
    /// Queued messages awaiting their ACCEPT: identity → (payload,
    /// deadline).
    pending: BTreeMap<BroadcastId, (Vec<u8>, u64)>,
    /// Own broadcasts whose ACCEPT is pending (for self-delivery).
    own_unaccepted: BTreeMap<BroadcastId, Vec<u8>>,
}

impl TotCan {
    /// Creates the layer with default timeouts.
    pub fn new() -> TotCan {
        TotCan::with_config(HlpConfig::default())
    }

    /// Creates the layer with explicit timeouts.
    pub fn with_config(config: HlpConfig) -> TotCan {
        TotCan {
            config,
            delivered: BTreeSet::new(),
            pending: BTreeMap::new(),
            own_unaccepted: BTreeMap::new(),
        }
    }

    /// Identities delivered so far (test introspection).
    pub fn delivered(&self) -> &BTreeSet<BroadcastId> {
        &self.delivered
    }

    /// Identities currently queued awaiting ACCEPT (test introspection).
    pub fn pending(&self) -> Vec<BroadcastId> {
        self.pending.keys().copied().collect()
    }
}

impl Default for TotCan {
    fn default() -> Self {
        TotCan::new()
    }
}

impl HlpLayer for TotCan {
    fn name(&self) -> &'static str {
        "TOTCAN"
    }

    fn broadcast(&mut self, id: BroadcastId, payload: &[u8], actions: &mut LayerActions) {
        self.own_unaccepted.insert(id, payload.to_vec());
        actions.send(
            &HlpMessage {
                kind: MsgKind::Data,
                id,
                payload: payload.to_vec(),
            },
            id.origin as usize,
        );
    }

    fn on_link_event(
        &mut self,
        now: u64,
        self_index: usize,
        event: &CanEvent,
        actions: &mut LayerActions,
    ) {
        if let Some(msg) = decode_tx_success(event) {
            match msg.kind {
                MsgKind::Data if msg.id.origin as usize == self_index => {
                    // DATA out: send the ACCEPT that fixes the order.
                    actions.send(
                        &HlpMessage {
                            kind: MsgKind::Accept,
                            id: msg.id,
                            payload: Vec::new(),
                        },
                        self_index,
                    );
                }
                MsgKind::Accept if msg.id.origin as usize == self_index => {
                    // Our ACCEPT is on the bus: deliver to self at the same
                    // point in the total order as everyone else.
                    if let Some(payload) = self.own_unaccepted.remove(&msg.id) {
                        if self.delivered.insert(msg.id) {
                            actions.deliver(msg.id, payload);
                        }
                    }
                }
                _ => {}
            }
            return;
        }
        let Some((msg, _sender)) = decode_delivery(event) else {
            return;
        };
        match msg.kind {
            MsgKind::Data | MsgKind::Dup => {
                if !self.delivered.contains(&msg.id) {
                    // Queue at the tail; the ACCEPT will fix the position.
                    self.pending
                        .entry(msg.id)
                        .or_insert((msg.payload, now + self.config.accept_timeout_bits));
                }
            }
            MsgKind::Accept => {
                if let Some((payload, _)) = self.pending.remove(&msg.id) {
                    if self.delivered.insert(msg.id) {
                        actions.deliver(msg.id, payload);
                    }
                }
                // ACCEPT for a message we never queued: nothing we can do —
                // this is exactly how the Fig. 3 omission persists.
            }
            MsgKind::Confirm => {}
        }
    }

    fn on_tick(&mut self, now: u64, _self_index: usize, actions: &mut LayerActions) {
        let expired: Vec<BroadcastId> = self
            .pending
            .iter()
            .filter(|(_, (_, deadline))| now >= *deadline)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.pending.remove(&id);
            actions.events.push(crate::HlpEvent::Dropped { id });
        }
    }

    fn quiet_until(&self, _now: u64) -> u64 {
        self.pending
            .values()
            .map(|&(_, deadline)| deadline)
            .min()
            .unwrap_or(u64::MAX)
    }

    fn min_timer_delay(&self) -> u64 {
        self.config.accept_timeout_bits
    }

    fn reset(&mut self) {
        self.delivered.clear();
        self.pending.clear();
        self.own_unaccepted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HlpEvent, HlpNode};
    use majorcan_sim::{NoFaults, NodeId, Simulator};

    #[test]
    fn delivery_waits_for_accept() {
        let mut sim = Simulator::new(NoFaults);
        for i in 0..3 {
            sim.attach(HlpNode::new(TotCan::new(), i));
        }
        let id = sim.node_mut(NodeId(0)).broadcast(&[5]);
        sim.run(3000);
        for n in 0..3 {
            assert!(
                sim.node(NodeId(n)).layer().delivered().contains(&id),
                "node {n}"
            );
            assert!(sim.node(NodeId(n)).layer().pending().is_empty());
        }
        // Receivers deliver strictly after the ACCEPT appears on the bus.
        let accept_at = sim
            .events()
            .iter()
            .find(|e| match &e.event {
                HlpEvent::Link(CanEvent::TxStarted { frame, .. }) => {
                    HlpMessage::decode(frame).is_some_and(|m| m.kind == MsgKind::Accept)
                }
                _ => false,
            })
            .expect("accept sent")
            .at;
        let rx_delivery_at = sim
            .events()
            .iter()
            .find(|e| e.node != NodeId(0) && matches!(e.event, HlpEvent::Delivered { .. }))
            .expect("rx delivered")
            .at;
        assert!(rx_delivery_at > accept_at);
    }

    #[test]
    fn missing_accept_drops_the_message_everywhere() {
        let mut sim = Simulator::new(NoFaults);
        for i in 0..3 {
            sim.attach(HlpNode::new(TotCan::new(), i));
        }
        sim.node_mut(NodeId(0)).broadcast(&[5]);
        // Crash the transmitter right after the DATA succeeds (before the
        // ACCEPT transmission completes).
        sim.run_until(5000, |s| {
            s.events()
                .iter()
                .any(|e| matches!(&e.event, HlpEvent::Link(CanEvent::TxSucceeded { .. })))
        });
        sim.node_mut(NodeId(0)).crash();
        sim.run(4000);
        for n in 1..3 {
            assert!(
                sim.node(NodeId(n)).layer().delivered().is_empty(),
                "node {n} must not deliver"
            );
            assert!(sim.node(NodeId(n)).layer().pending().is_empty());
        }
        let drops = sim
            .events()
            .iter()
            .filter(|e| matches!(e.event, HlpEvent::Dropped { .. }))
            .count();
        assert_eq!(
            drops, 2,
            "both receivers dropped: agreement on non-delivery"
        );
    }

    #[test]
    fn two_broadcasters_deliver_in_accept_order_everywhere() {
        let mut sim = Simulator::new(NoFaults);
        for i in 0..4 {
            sim.attach(HlpNode::new(TotCan::new(), i));
        }
        sim.node_mut(NodeId(0)).broadcast(&[0xA]);
        sim.node_mut(NodeId(1)).broadcast(&[0xB]);
        sim.run(6000);
        let mut orders: Vec<Vec<BroadcastId>> = Vec::new();
        for n in 0..4 {
            let order: Vec<BroadcastId> = sim
                .events()
                .iter()
                .filter(|e| e.node == NodeId(n))
                .filter_map(|e| match &e.event {
                    HlpEvent::Delivered { id, .. } => Some(*id),
                    _ => None,
                })
                .collect();
            assert_eq!(order.len(), 2, "node {n} delivered both");
            orders.push(order);
        }
        for w in orders.windows(2) {
            assert_eq!(w[0], w[1], "identical delivery order everywhere");
        }
    }

    #[test]
    fn layer_name() {
        assert_eq!(TotCan::new().name(), "TOTCAN");
    }
}
