//! RELCAN — CONFIRM-based reliable broadcast (Rufino et al., FTCS'98).
//!
//! A cheaper take on EDCAN: the transmitter follows every successful DATA
//! transmission with a short CONFIRM frame. Receivers deliver on first
//! reception of DATA and arm a timeout: if the CONFIRM fails to arrive in
//! time (the transmitter must have died), *they* retransmit the message as
//! duplicates. In the failure-free case the cost is one extra (short)
//! frame, not one per receiver.
//!
//! Properties: AB1–AB4 (Reliable Broadcast), no Total Order. The paper's
//! Fig. 3 point: RELCAN's recovery triggers **only on transmitter
//! failure** — in the new scenarios the transmitter stays correct and
//! happily CONFIRMs a frame that part of the bus never accepted, so the
//! omission goes unrepaired and Agreement breaks.

use crate::node::{decode_delivery, decode_tx_success, HlpLayer, LayerActions};
use crate::{BroadcastId, HlpConfig, HlpMessage, MsgKind};
use majorcan_can::CanEvent;
use std::collections::{BTreeMap, BTreeSet};

/// The RELCAN protocol layer.
#[derive(Debug, Clone)]
pub struct RelCan {
    config: HlpConfig,
    delivered: BTreeSet<BroadcastId>,
    /// Messages delivered but not yet confirmed: identity → (payload,
    /// deadline).
    awaiting_confirm: BTreeMap<BroadcastId, (Vec<u8>, u64)>,
    /// Duplicates this node already pushed out on timeout.
    duplicated: BTreeSet<BroadcastId>,
}

impl RelCan {
    /// Creates the layer with default timeouts.
    pub fn new() -> RelCan {
        RelCan::with_config(HlpConfig::default())
    }

    /// Creates the layer with explicit timeouts.
    pub fn with_config(config: HlpConfig) -> RelCan {
        RelCan {
            config,
            delivered: BTreeSet::new(),
            awaiting_confirm: BTreeMap::new(),
            duplicated: BTreeSet::new(),
        }
    }

    /// Identities delivered so far (test introspection).
    pub fn delivered(&self) -> &BTreeSet<BroadcastId> {
        &self.delivered
    }
}

impl Default for RelCan {
    fn default() -> Self {
        RelCan::new()
    }
}

impl HlpLayer for RelCan {
    fn name(&self) -> &'static str {
        "RELCAN"
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
        now: u64,
        self_index: usize,
        event: &CanEvent,
        actions: &mut LayerActions,
    ) {
        if let Some(msg) = decode_tx_success(event) {
            if msg.kind == MsgKind::Data && msg.id.origin as usize == self_index {
                // Own DATA out: deliver to self and send the CONFIRM.
                if self.delivered.insert(msg.id) {
                    actions.deliver(msg.id, msg.payload);
                }
                actions.send(
                    &HlpMessage {
                        kind: MsgKind::Confirm,
                        id: msg.id,
                        payload: Vec::new(),
                    },
                    self_index,
                );
            }
            return;
        }
        let Some((msg, _sender)) = decode_delivery(event) else {
            return;
        };
        match msg.kind {
            MsgKind::Data => {
                if self.delivered.insert(msg.id) {
                    actions.deliver(msg.id, msg.payload.clone());
                    self.awaiting_confirm.insert(
                        msg.id,
                        (msg.payload, now + self.config.confirm_timeout_bits),
                    );
                }
            }
            MsgKind::Dup => {
                if self.delivered.insert(msg.id) {
                    actions.deliver(msg.id, msg.payload);
                }
                // A duplicate is as good as a CONFIRM: somebody recovered.
                self.awaiting_confirm.remove(&msg.id);
            }
            MsgKind::Confirm => {
                self.awaiting_confirm.remove(&msg.id);
            }
            MsgKind::Accept => {}
        }
    }

    fn on_tick(&mut self, now: u64, self_index: usize, actions: &mut LayerActions) {
        let expired: Vec<BroadcastId> = self
            .awaiting_confirm
            .iter()
            .filter(|(_, (_, deadline))| now >= *deadline)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            let (payload, _) = self
                .awaiting_confirm
                .remove(&id)
                .expect("expired entry present");
            // CONFIRM never came: the transmitter must have failed —
            // retransmit the main message ourselves (once).
            if self.duplicated.insert(id) {
                actions.send(
                    &HlpMessage {
                        kind: MsgKind::Dup,
                        id,
                        payload,
                    },
                    self_index,
                );
            }
        }
    }

    fn quiet_until(&self, _now: u64) -> u64 {
        self.awaiting_confirm
            .values()
            .map(|&(_, deadline)| deadline)
            .min()
            .unwrap_or(u64::MAX)
    }

    fn reset(&mut self) {
        self.delivered.clear();
        self.awaiting_confirm.clear();
        self.duplicated.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HlpEvent, HlpNode};
    use majorcan_sim::{NoFaults, NodeId, Simulator};

    #[test]
    fn failure_free_costs_one_confirm_and_no_duplicates() {
        let mut sim = Simulator::new(NoFaults);
        for i in 0..3 {
            sim.attach(HlpNode::new(RelCan::new(), i));
        }
        let id = sim.node_mut(NodeId(0)).broadcast(&[1, 2]);
        sim.run(3000);
        for n in 0..3 {
            assert!(sim.node(NodeId(n)).layer().delivered().contains(&id));
        }
        let kinds: Vec<MsgKind> = sim
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                HlpEvent::Link(CanEvent::TxSucceeded { frame, .. }) => {
                    HlpMessage::decode(frame).map(|m| m.kind)
                }
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![MsgKind::Data, MsgKind::Confirm]);
    }

    #[test]
    fn confirm_timeout_triggers_receiver_duplicates() {
        // Crash the transmitter right after its DATA succeeds, before the
        // CONFIRM goes out: receivers must time out and flood duplicates.
        let mut sim = Simulator::new(NoFaults);
        for i in 0..3 {
            sim.attach(HlpNode::new(RelCan::new(), i));
        }
        sim.node_mut(NodeId(0)).broadcast(&[7]);
        // Run until the DATA tx success, then crash node 0.
        sim.run_until(5000, |s| {
            s.events()
                .iter()
                .any(|e| matches!(&e.event, HlpEvent::Link(CanEvent::TxSucceeded { .. })))
        });
        sim.node_mut(NodeId(0)).crash();
        sim.run(4000);
        let dups = sim
            .events()
            .iter()
            .filter(|e| match &e.event {
                HlpEvent::Link(CanEvent::TxSucceeded { frame, .. }) => {
                    HlpMessage::decode(frame).is_some_and(|m| m.kind == MsgKind::Dup)
                }
                _ => false,
            })
            .count();
        assert!(dups >= 1, "at least one receiver retransmitted");
        // All surviving receivers delivered.
        for n in 1..3 {
            assert_eq!(sim.node(NodeId(n)).layer().delivered().len(), 1);
        }
    }

    #[test]
    fn layer_name() {
        assert_eq!(RelCan::new().name(), "RELCAN");
    }
}
