//! Adapter from higher-level protocol event logs to Atomic Broadcast
//! traces.

use crate::HlpEvent;
use majorcan_abcast::{AbTrace, MsgId};
use majorcan_sim::TimedEvent;

/// The message identity of a protocol broadcast, for the AB checker:
/// channel = origin node, payload = sequence number bytes followed by the
/// user payload, which therefore holds at most 6 bytes (a [`MsgId`]
/// payload holds 8).
///
/// # Panics
///
/// Panics if `payload` is longer than 6 bytes.
pub fn msg_id_of_broadcast(origin: u8, seq: u16, payload: &[u8]) -> MsgId {
    let mut bytes = seq.to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    MsgId::new(origin as u16, bytes)
}

/// Builds an [`AbTrace`] from a higher-level protocol event log:
/// `Broadcast` / `Delivered` / `Crashed` map one-to-one; link-layer
/// pass-through events are ignored (the HLP layer defines delivery).
pub fn trace_from_hlp_events(events: &[TimedEvent<HlpEvent>], n_nodes: usize) -> AbTrace {
    let mut trace = AbTrace::new(n_nodes);
    for e in events {
        let node = e.node.index();
        match &e.event {
            HlpEvent::Broadcast { id } => {
                // Payload is not part of the Broadcast event; identity by
                // (origin, seq) suffices — Deliver events must use the same
                // scheme, so both sides drop the payload component here.
                trace.broadcast(e.at, node, msg_id_of_broadcast(id.origin, id.seq, &[]));
            }
            HlpEvent::Delivered { id, .. } => {
                trace.deliver(e.at, node, msg_id_of_broadcast(id.origin, id.seq, &[]));
            }
            HlpEvent::Crashed => {
                trace.crash(e.at, node);
            }
            HlpEvent::Dropped { .. } | HlpEvent::Link(_) => {}
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BroadcastId;
    use majorcan_sim::NodeId;

    fn ev(at: u64, node: usize, event: HlpEvent) -> TimedEvent<HlpEvent> {
        TimedEvent {
            at,
            node: NodeId(node),
            event,
        }
    }

    #[test]
    fn maps_protocol_events() {
        let id = BroadcastId { origin: 0, seq: 3 };
        let events = vec![
            ev(0, 0, HlpEvent::Broadcast { id }),
            ev(
                10,
                0,
                HlpEvent::Delivered {
                    id,
                    payload: vec![1],
                },
            ),
            ev(
                11,
                1,
                HlpEvent::Delivered {
                    id,
                    payload: vec![1],
                },
            ),
            ev(20, 2, HlpEvent::Crashed),
        ];
        let trace = trace_from_hlp_events(&events, 3);
        assert_eq!(trace.correct_nodes(), vec![0, 1]);
        assert!(trace.check().atomic_broadcast());
    }

    #[test]
    fn identity_scheme_is_consistent() {
        assert_eq!(msg_id_of_broadcast(2, 7, &[]), MsgId::new(2, vec![0, 7]));
        assert_ne!(
            msg_id_of_broadcast(2, 7, &[]),
            msg_id_of_broadcast(2, 8, &[])
        );
        assert_ne!(
            msg_id_of_broadcast(2, 7, &[]),
            msg_id_of_broadcast(3, 7, &[])
        );
    }
}
