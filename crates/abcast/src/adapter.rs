//! Adapter from CAN controller event logs to Atomic Broadcast traces.

use crate::{AbEvent, AbTrace, MsgId, Report, TraceAccumulator};
use majorcan_can::{CanEvent, Frame};
use majorcan_sim::TimedEvent;
use std::collections::BTreeSet;

/// The message identity of a CAN frame: its 11-bit identifier plus payload.
///
/// Retransmissions of the same frame map to the same [`MsgId`], which is
/// what lets the checker recognise double receptions.
#[inline]
pub fn msg_id_of(frame: &Frame) -> MsgId {
    MsgId::new(frame.id().raw(), frame.data())
}

/// The *link-layer* reading of a controller event at `node`, which every
/// CAN / MinorCAN / MajorCAN grade applies (`TxSucceeded` is the
/// transmitter's self-delivery); the higher-level protocols read their
/// own events.
#[inline]
pub(crate) fn ab_event_of(node: usize, event: &CanEvent) -> Option<AbEvent> {
    Some(match event {
        CanEvent::TxStarted { frame, .. } => AbEvent::Broadcast {
            node,
            msg: msg_id_of(frame),
        },
        CanEvent::Delivered { frame, .. } | CanEvent::TxSucceeded { frame, .. } => {
            AbEvent::Deliver {
                node,
                msg: msg_id_of(frame),
            }
        }
        CanEvent::Crashed | CanEvent::WentBusOff => AbEvent::Crash { node },
        _ => return None,
    })
}

/// Builds an [`AbTrace`] from a raw controller event log through the
/// link-layer reading, keeping only the **first** `TxStarted` of a frame
/// at a node as a `Broadcast` (a retransmission is not a new broadcast).
pub fn trace_from_can_events(events: &[TimedEvent<CanEvent>], n_nodes: usize) -> AbTrace {
    let mut trace = AbTrace::new(n_nodes);
    let mut broadcast_seen: BTreeSet<(usize, MsgId)> = BTreeSet::new();
    for e in events {
        let Some(event) = ab_event_of(e.node.index(), &e.event) else {
            continue;
        };
        if let AbEvent::Broadcast { node, msg } = &event {
            if !broadcast_seen.insert((*node, msg.clone())) {
                continue;
            }
        }
        trace.push(e.at, event);
    }
    trace
}

/// Grades a raw controller event log against AB1–AB5: the report of
/// `trace_from_can_events(events, n_nodes).check()`, computed without
/// building the trace. The campaign hot paths grade every run through
/// this.
pub fn check_can_events(events: &[TimedEvent<CanEvent>], n_nodes: usize) -> Report {
    let mut acc = TraceAccumulator::new(n_nodes);
    for e in events {
        // Every start, not only each node's first: the accumulator keeps
        // a message's first broadcaster, the same either way.
        if let Some(event) = ab_event_of(e.node.index(), &e.event) {
            acc.push(&event);
        }
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_can::{DecisionBasis, FrameId};
    use majorcan_sim::NodeId;
    use proptest::prelude::*;

    fn frame(id: u16, data: &[u8]) -> Frame {
        Frame::new(FrameId::new(id).unwrap(), data).unwrap()
    }

    fn ev(at: u64, node: usize, event: CanEvent) -> TimedEvent<CanEvent> {
        TimedEvent {
            at,
            node: NodeId(node),
            event,
        }
    }

    #[test]
    fn maps_clean_broadcast() {
        let f = frame(0x42, &[1]);
        let events = vec![
            ev(
                0,
                0,
                CanEvent::TxStarted {
                    frame: f.clone(),
                    attempt: 1,
                },
            ),
            ev(
                50,
                1,
                CanEvent::Delivered {
                    frame: f.clone(),
                    basis: DecisionBasis::CleanEof,
                },
            ),
            ev(
                51,
                0,
                CanEvent::TxSucceeded {
                    frame: f.clone(),
                    attempts: 1,
                    basis: DecisionBasis::CleanEof,
                },
            ),
        ];
        let trace = trace_from_can_events(&events, 2);
        assert!(trace.check().atomic_broadcast());
        assert_eq!(trace.deliveries_of(0), vec![&msg_id_of(&f)]);
        assert_eq!(trace.deliveries_of(1), vec![&msg_id_of(&f)]);
    }

    #[test]
    fn retransmission_maps_to_single_broadcast() {
        let f = frame(0x42, &[1]);
        let events = vec![
            ev(
                0,
                0,
                CanEvent::TxStarted {
                    frame: f.clone(),
                    attempt: 1,
                },
            ),
            ev(
                100,
                0,
                CanEvent::TxStarted {
                    frame: f.clone(),
                    attempt: 2,
                },
            ),
        ];
        let trace = trace_from_can_events(&events, 1);
        let broadcasts = trace
            .events()
            .iter()
            .filter(|s| matches!(s.event, crate::AbEvent::Broadcast { .. }))
            .count();
        assert_eq!(broadcasts, 1, "retransmissions are not new broadcasts");
    }

    #[test]
    fn crash_and_bus_off_map_to_crash() {
        let events = vec![ev(5, 0, CanEvent::Crashed), ev(9, 1, CanEvent::WentBusOff)];
        let trace = trace_from_can_events(&events, 3);
        assert_eq!(trace.correct_nodes(), vec![2]);
    }

    /// A random three-node controller log: repeated starts, deliveries
    /// of frames nobody started, crashes, and events the mapping skips.
    fn arb_can_log() -> impl Strategy<Value = Vec<TimedEvent<CanEvent>>> {
        let event = (0u8..8, 0usize..3, 0u16..3, 0u8..2).prop_map(|(kind, node, id, data)| {
            let f = frame(0x40 + id, &[data]);
            let event = match kind {
                0 | 1 => CanEvent::TxStarted {
                    frame: f,
                    attempt: 1,
                },
                2 | 3 => CanEvent::Delivered {
                    frame: f,
                    basis: DecisionBasis::CleanEof,
                },
                4 => CanEvent::TxSucceeded {
                    frame: f,
                    attempts: 1,
                    basis: DecisionBasis::CleanEof,
                },
                5 => CanEvent::Crashed,
                6 => CanEvent::WentBusOff,
                _ => CanEvent::RetransmissionScheduled { frame: f },
            };
            ev(0, node, event)
        });
        proptest::collection::vec(event, 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn checking_a_log_directly_matches_checking_its_trace(events in arb_can_log()) {
            prop_assert_eq!(check_can_events(&events, 3), trace_from_can_events(&events, 3).check());
        }
    }

    #[test]
    fn msg_identity_distinguishes_payloads() {
        assert_ne!(msg_id_of(&frame(0x42, &[1])), msg_id_of(&frame(0x42, &[2])));
        assert_eq!(msg_id_of(&frame(0x42, &[1])), msg_id_of(&frame(0x42, &[1])));
    }
}
