//! EDCAN — Error-Detection-based reliable broadcast (Rufino et al.,
//! FTCS'98).
//!
//! The brute-force baseline: **every receiver retransmits every message it
//! receives**, so as long as one correct node got a copy, everyone
//! eventually does — transmitter failures and single-view acceptance
//! asymmetries alike are papered over by the flood of duplicates. Delivery
//! happens on first reception (no ordering), duplicates are recognised by
//! `(origin, seq)` and ignored.
//!
//! Properties: AB1–AB4 (Reliable Broadcast) but **not** AB5 Total Order.
//! Cost: each message is transmitted at least twice (once per receiver in
//! the worst case) — the paper's performance argument against it. It is
//! also the only one of the three higher-level protocols that still works
//! in the paper's new Fig. 3 scenarios, precisely because its recovery does
//! not depend on detecting a transmitter failure.

use crate::node::{decode_delivery, decode_tx_success, HlpLayer, LayerActions};
use crate::{BroadcastId, HlpMessage, MsgKind};
use majorcan_can::CanEvent;
use std::collections::BTreeSet;

/// The EDCAN protocol layer.
#[derive(Debug, Clone, Default)]
pub struct EdCan {
    delivered: BTreeSet<BroadcastId>,
    duplicated: BTreeSet<BroadcastId>,
}

impl EdCan {
    /// Creates the layer.
    pub fn new() -> EdCan {
        EdCan::default()
    }

    /// Identities delivered so far (test introspection).
    pub fn delivered(&self) -> &BTreeSet<BroadcastId> {
        &self.delivered
    }
}

impl HlpLayer for EdCan {
    fn name(&self) -> &'static str {
        "EDCAN"
    }

    fn broadcast(&mut self, id: BroadcastId, payload: &[u8], actions: &mut LayerActions) {
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
        _now: u64,
        self_index: usize,
        event: &CanEvent,
        actions: &mut LayerActions,
    ) {
        // Own DATA went out: deliver to self.
        if let Some(msg) = decode_tx_success(event) {
            if msg.kind == MsgKind::Data && self.delivered.insert(msg.id) {
                actions.deliver(msg.id, msg.payload);
            }
            return;
        }
        let Some((msg, _sender)) = decode_delivery(event) else {
            return;
        };
        match msg.kind {
            MsgKind::Data | MsgKind::Dup => {
                if self.delivered.insert(msg.id) {
                    actions.deliver(msg.id, msg.payload.clone());
                }
                // Every receiver retransmits each message once, whether the
                // copy it saw was the original or already a duplicate.
                if msg.id.origin as usize != self_index && self.duplicated.insert(msg.id) {
                    actions.send(
                        &HlpMessage {
                            kind: MsgKind::Dup,
                            id: msg.id,
                            payload: msg.payload,
                        },
                        self_index,
                    );
                }
            }
            MsgKind::Confirm | MsgKind::Accept => {}
        }
    }

    fn on_tick(&mut self, _now: u64, _self_index: usize, _actions: &mut LayerActions) {}

    fn quiet_until(&self, _now: u64) -> u64 {
        u64::MAX
    }

    fn reset(&mut self) {
        self.delivered.clear();
        self.duplicated.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HlpNode;
    use majorcan_sim::{NoFaults, NodeId, Simulator};

    #[test]
    fn every_node_delivers_once_and_duplicates_flood() {
        let mut sim = Simulator::new(NoFaults);
        for i in 0..4 {
            sim.attach(HlpNode::new(EdCan::new(), i));
        }
        let id = sim.node_mut(NodeId(0)).broadcast(&[0xAB]);
        sim.run(3000);
        for n in 0..4 {
            let delivered = sim.node(NodeId(n)).layer().delivered();
            assert!(delivered.contains(&id), "node {n} delivered");
            assert_eq!(delivered.len(), 1, "node {n} delivered exactly one id");
        }
        // Three receivers ⇒ three duplicates on the bus.
        let dups = sim
            .events()
            .iter()
            .filter(|e| match &e.event {
                crate::HlpEvent::Link(CanEvent::TxSucceeded { frame, .. }) => {
                    HlpMessage::decode(frame).is_some_and(|m| m.kind == MsgKind::Dup)
                }
                _ => false,
            })
            .count();
        assert_eq!(dups, 3, "each receiver retransmitted once");
    }

    #[test]
    fn layer_name() {
        assert_eq!(EdCan::new().name(), "EDCAN");
    }
}
