//! The clean-frame leap: one call that carries a whole cluster across a
//! frame nothing disturbs.
//!
//! When every node is idle and error-active and no view of the coming
//! bits can be flipped, the next frame is a pure function of the queue
//! heads: the lowest identifier wins arbitration, every other contender
//! drops out at its first identifier bit that differs from the winner's,
//! every receiver acknowledges and delivers once, and the winner commits
//! at the last EOF bit. [`leap_clean_frame`] writes those events and
//! each controller's end state directly, so a saturated soak pays per
//! clean frame instead of per node-bit. Every other situation declines,
//! and the engine steps.

use super::{CState, Controller};
use crate::wire::stuffed_geometry;
use crate::{CanEvent, DecisionBasis, FaultState, FrameId, Role, Variant};
use majorcan_sim::{NodeId, TimedEvent};
use std::borrow::BorrowMut;

/// CRC delimiter, ACK slot and ACK delimiter: the fixed bits between the
/// stuffed region and the EOF.
const ACK_FIELD: u64 = 3;

/// The interframe space every node counts before it is idle again.
const INTERMISSION: u64 = 3;

impl<V: Variant> Controller<V> {
    /// `true` when nothing but the next frame can happen to this node: it
    /// is idle and error-active, and no drive event, crash announcement or
    /// deferred decision is pending.
    fn leap_ready(&self) -> bool {
        matches!(self.state, CState::Idle)
            && self.fc.state() == FaultState::ErrorActive
            && self.pending_drive_events.is_empty()
            && !self.announce_crash
            && self.deferred.is_none()
    }

    /// Runs `commit` with an event buffer and stamps what it pushed as
    /// this node's events at bit `at`. The drive-event buffer, empty on
    /// every leap-ready node, serves as the scratch.
    fn leap_emit(
        &mut self,
        node: usize,
        at: u64,
        events: &mut Vec<TimedEvent<CanEvent>>,
        commit: impl FnOnce(&mut Self, &mut Vec<CanEvent>),
    ) {
        let mut scratch = std::mem::take(&mut self.pending_drive_events);
        commit(self, &mut scratch);
        events.extend(scratch.drain(..).map(|event| TimedEvent {
            at,
            node: NodeId(node),
            event,
        }));
        self.pending_drive_events = scratch;
    }
}

/// Index (0 = most significant, sent first) of the first identifier bit
/// where `a` and `b` differ. Identifiers are 11 bits wide, so the top five
/// bits of the raw `u16` are zero.
fn first_difference(a: FrameId, b: FrameId) -> usize {
    ((a.raw() ^ b.raw()) << 5).leading_zeros() as usize
}

/// Advances the controllers of `nodes` (the controllers themselves, or
/// nodes that each own one, such as the higher-level-protocol nodes)
/// from bit `now` across the next frame and its intermission, as if each
/// bit were stepped with every view undisturbed, provided that ends by
/// `limit`. Returns the bit the leap ends at, with every controller idle
/// again, or `None` (nothing changed) unless:
///
/// - there are at least two nodes (a lone transmitter gets no ACK);
/// - every node is leap-ready and runs the same EOF geometry;
/// - exactly one queue head carries the lowest identifier;
/// - no node's scheduled crash falls before the leap ends.
///
/// The events are the stepped ones, in engine order: `TxStarted` for each
/// contender at SOF, `ArbitrationLost` at each loser's first differing
/// identifier bit, `Delivered` at the receivers' commit bit and
/// `TxSucceeded` at the last EOF bit, counters moving through the same
/// fault-confinement calls.
pub fn leap_clean_frame<V: Variant, N: BorrowMut<Controller<V>>>(
    nodes: &mut [N],
    now: u64,
    limit: u64,
    events: &mut Vec<TimedEvent<CanEvent>>,
) -> Option<u64> {
    if nodes.len() < 2 {
        return None;
    }
    let eof_len = nodes[0].borrow().variant.eof_len();
    let rx_commit = nodes[0].borrow().variant.commit_point(Role::Receiver);
    if !(1..=eof_len).contains(&rx_commit) {
        return None;
    }
    let mut best: Option<(usize, FrameId)> = None;
    let mut tie = false;
    for (i, node) in nodes.iter().enumerate() {
        let node = node.borrow();
        if !node.leap_ready()
            || node.variant.eof_len() != eof_len
            || node.variant.commit_point(Role::Receiver) != rx_commit
        {
            return None;
        }
        let Some(head) = node.queue.first() else {
            continue;
        };
        let id = head.frame.id();
        match best {
            Some((_, best_id)) if id == best_id => tie = true,
            Some((_, best_id)) if !id.outranks(best_id) => {}
            _ => {
                best = Some((i, id));
                tie = false;
            }
        }
    }
    let (winner, won) = best?;
    if tie {
        return None;
    }
    let frame = nodes[winner].borrow().queue[0].frame.clone();
    let (stuffed, id_at) = stuffed_geometry(&frame);
    let eof1 = now + stuffed as u64 + ACK_FIELD;
    let last = eof1 + eof_len as u64 - 1;
    let end = last + 1 + INTERMISSION;
    if end > limit
        || nodes
            .iter()
            .any(|n| n.borrow().config.fail_at.is_some_and(|t| t < end))
    {
        return None;
    }

    // SOF: every queue head contends (dropping any in-flight mark an
    // attempt cut short by bus-off left behind, as a stepped start does).
    for (i, node) in nodes.iter_mut().enumerate() {
        let node = node.borrow_mut();
        node.drop_in_flight();
        if let Some(head) = node.queue.first_mut() {
            head.attempts += 1;
            head.in_flight = i == winner;
            events.push(TimedEvent {
                at: now,
                node: NodeId(i),
                event: CanEvent::TxStarted {
                    frame: head.frame.clone(),
                    attempt: head.attempts,
                },
            });
        }
    }
    // Arbitration: the wire carries the winner's bits, so each loser reads
    // dominant against its own recessive at its first differing
    // identifier bit, and backs off there.
    for (bit, &at) in id_at.iter().enumerate() {
        for (i, node) in nodes.iter().enumerate() {
            match node.borrow().queue.first() {
                Some(head) if i != winner && first_difference(head.frame.id(), won) == bit => {
                    events.push(TimedEvent {
                        at: now + at as u64,
                        node: NodeId(i),
                        event: CanEvent::ArbitrationLost {
                            frame: head.frame.clone(),
                        },
                    });
                }
                _ => {}
            }
        }
    }
    // EOF: receivers deliver at their commit bit, the winner commits at the
    // last bit; on a shared bit, in node order.
    let rx_at = eof1 + rx_commit as u64 - 1;
    for (i, node) in nodes.iter_mut().enumerate() {
        let node = node.borrow_mut();
        if i != winner {
            node.leap_emit(i, rx_at, events, |n, ev| {
                n.deliver(frame.clone(), DecisionBasis::CleanEof, ev)
            });
        } else if rx_at == last {
            node.leap_emit(i, last, events, |n, ev| {
                n.commit_tx_success(DecisionBasis::CleanEof, ev)
            });
        }
    }
    if rx_at < last {
        nodes[winner]
            .borrow_mut()
            .leap_emit(winner, last, events, |n, ev| {
                n.commit_tx_success(DecisionBasis::CleanEof, ev)
            });
    }
    // Where stepping leaves every node: idle after the intermission, the
    // agreement clock still anchored at this frame's EOF bit 1.
    for (i, node) in nodes.iter_mut().enumerate() {
        let node = node.borrow_mut();
        node.state = CState::Idle;
        node.tx = None;
        node.pipe = None;
        node.eof_start = Some(eof1);
        node.delivered_this_frame = i != winner;
        node.bit_now = end - 1;
    }
    Some(end)
}

#[cfg(test)]
mod tests {
    //! The leap's preconditions, one at a time: each broken condition
    //! must decline and leave every node untouched. Equivalence with
    //! stepping on random traffic is checked in the testbed's
    //! `leap_equivalence` suite.

    use super::*;
    use crate::controller::Deferred;
    use crate::{FaultConfinement, Frame, StandardCan};

    fn frame(id: u16) -> Frame {
        Frame::new(FrameId::new(id).unwrap(), &[id as u8]).unwrap()
    }

    /// Three idle, error-active nodes; nodes 0 and 2 hold a frame each.
    fn idle_bus<V: Variant>(variant: V) -> Vec<Controller<V>> {
        let mut nodes: Vec<Controller<V>> =
            (0..3).map(|_| Controller::new(variant.clone())).collect();
        for node in &mut nodes {
            node.state = CState::Idle;
        }
        nodes[0].enqueue(frame(0x100));
        nodes[2].enqueue(frame(0x2A0));
        nodes
    }

    fn leap<V: Variant>(nodes: &mut [Controller<V>], limit: u64) -> Option<u64> {
        let mut events = Vec::new();
        let end = leap_clean_frame(nodes, 100, limit, &mut events);
        assert_eq!(end.is_some(), !events.is_empty(), "events iff leapt");
        end
    }

    /// The bit a leap of [`idle_bus`] from bit 100 ends at.
    fn clean_end() -> u64 {
        leap(&mut idle_bus(StandardCan), u64::MAX).expect("a ready bus leaps")
    }

    #[test]
    fn each_broken_precondition_declines_and_changes_nothing() {
        type Breaker = fn(&mut Vec<Controller<StandardCan>>);
        let breakers: [(&str, Breaker); 10] = [
            ("a lone node", |n| n.truncate(1)),
            ("a busy node", |n| {
                n[1].state = CState::Integrating { recessive_run: 3 }
            }),
            ("an error-passive node", |n| {
                let mut fc = FaultConfinement::new(false);
                for _ in 0..16 {
                    fc.on_receive_error_aggravated(&mut Vec::new());
                }
                assert_eq!(fc.state(), FaultState::ErrorPassive);
                n[1].fc = fc;
            }),
            ("a pending drive event", |n| {
                n[1].pending_drive_events.push(CanEvent::OverloadCondition)
            }),
            ("a crash announcement", |n| n[1].announce_crash = true),
            ("a deferred decision", |n| {
                n[1].deferred = Some(Deferred {
                    role: Role::Receiver,
                    frame: None,
                })
            }),
            ("an identifier tie", |n| n[1].enqueue(frame(0x100))),
            ("a crash due inside the frame", |n| {
                n[1].config.fail_at = Some(clean_end() - 1)
            }),
            ("a crash due before the frame", |n| {
                n[1].config.fail_at = Some(0)
            }),
            ("nothing queued", |n| {
                n.iter_mut().for_each(|c| c.queue.clear())
            }),
        ];
        for (what, break_it) in breakers {
            let mut nodes = idle_bus(StandardCan);
            break_it(&mut nodes);
            let before = format!("{nodes:?}");
            assert_eq!(leap(&mut nodes, u64::MAX), None, "{what}: leapt");
            assert_eq!(format!("{nodes:?}"), before, "{what}: state changed");
        }
    }

    #[test]
    fn the_leap_ends_by_its_limit_and_before_a_scheduled_crash() {
        let end = clean_end();
        assert_eq!(leap(&mut idle_bus(StandardCan), end), Some(end));
        assert_eq!(leap(&mut idle_bus(StandardCan), end - 1), None);
        let mut nodes = idle_bus(StandardCan);
        nodes[1].config.fail_at = Some(end);
        assert_eq!(
            leap(&mut nodes, u64::MAX),
            Some(end),
            "the crash comes after"
        );
    }

    /// A variant whose EOF geometry is a parameter, to put nodes that
    /// disagree on the bus.
    #[derive(Debug, Clone, Copy)]
    struct Geometry {
        eof_len: usize,
        rx_commit: usize,
    }

    impl Variant for Geometry {
        fn name(&self) -> String {
            format!("EOF{}/{}", self.eof_len, self.rx_commit)
        }
        fn eof_len(&self) -> usize {
            self.eof_len
        }
        fn delimiter_len(&self) -> usize {
            8
        }
        fn eof_reaction(&self, _role: Role, _eof_bit: usize) -> crate::EofReaction {
            crate::EofReaction::RejectAndFlag
        }
        fn commit_point(&self, role: Role) -> usize {
            match role {
                Role::Receiver => self.rx_commit,
                Role::Transmitter => self.eof_len,
            }
        }
    }

    #[test]
    fn nodes_that_disagree_on_the_eof_decline() {
        let can = Geometry {
            eof_len: 7,
            rx_commit: 6,
        };
        assert!(leap(&mut idle_bus(can), u64::MAX).is_some());
        for other in [
            Geometry {
                eof_len: 8,
                rx_commit: 6,
            },
            Geometry {
                eof_len: 7,
                rx_commit: 7,
            },
        ] {
            let mut nodes = idle_bus(can);
            nodes[1].variant = other;
            assert_eq!(leap(&mut nodes, u64::MAX), None, "{}", other.name());
        }
        let never_commits = Geometry {
            eof_len: 7,
            rx_commit: 8,
        };
        assert_eq!(leap(&mut idle_bus(never_commits), u64::MAX), None);
    }
}
