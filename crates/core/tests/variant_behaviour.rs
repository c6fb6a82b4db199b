//! Bit-level reproductions of the paper's MinorCAN and MajorCAN scenarios:
//! Fig. 2 (MinorCAN fixing the Fig. 1 inconsistencies), Fig. 3b (MinorCAN
//! failing the new two-disturbance scenario), Fig. 4 (MajorCAN_5 per-bit
//! behaviour) and Fig. 5 (MajorCAN_5 consistency under five errors).
//!
//! Node 0 is always the transmitter, node 1 the X set, node 2 the Y set.

use majorcan_can::{
    CanEvent, Controller, ControllerConfig, DecisionBasis, Field, FlagKind, Frame, FrameId,
    StandardCan, Variant, WirePos,
};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_sim::{BitNode, ChannelModel, FnChannel, Level, NodeId, Simulator, TimedEvent};

fn frame(id: u16, data: &[u8]) -> Frame {
    Frame::new(FrameId::new(id).unwrap(), data).unwrap()
}

fn build<V: Variant, C: ChannelModel<WirePos>>(
    variant: V,
    n: usize,
    channel: C,
) -> Simulator<Controller<V>, C> {
    let mut sim = Simulator::new(channel);
    for _ in 0..n {
        sim.attach(Controller::new(variant.clone()));
    }
    sim
}

fn deliveries(events: &[TimedEvent<CanEvent>], node: NodeId) -> Vec<Frame> {
    events
        .iter()
        .filter(|e| e.node == node)
        .filter_map(|e| match &e.event {
            CanEvent::Delivered { frame, .. } => Some(frame.clone()),
            _ => None,
        })
        .collect()
}

fn tx_successes(events: &[TimedEvent<CanEvent>], node: NodeId) -> usize {
    events
        .iter()
        .filter(|e| e.node == node && matches!(e.event, CanEvent::TxSucceeded { .. }))
        .count()
}

fn retransmissions(events: &[TimedEvent<CanEvent>], node: NodeId) -> usize {
    events
        .iter()
        .filter(|e| e.node == node && matches!(e.event, CanEvent::RetransmissionScheduled { .. }))
        .count()
}

/// Flips listed `(node, field, 0-based index)` views, each once, on their
/// first occurrence.
fn flips(
    targets: Vec<(usize, Field, u16)>,
) -> FnChannel<impl FnMut(u64, NodeId, &WirePos, Level) -> bool> {
    let mut remaining = targets;
    FnChannel(move |_bit, node, tag: &WirePos, _wire| {
        if let Some(i) = remaining.iter().position(|&(n, f, idx)| {
            NodeId(n) == node && tag.field == f && tag.index == idx && !tag.stuff
        }) {
            remaining.swap_remove(i);
            true
        } else {
            false
        }
    })
}

// ===========================================================================
// MinorCAN — Fig. 2 and the performance claims of Section 3.
// ===========================================================================

#[test]
fn minorcan_fig2_last_but_one_error_consistent_single_delivery() {
    // The Fig. 1b scenario under MinorCAN: X sees a dominant at EOF bit 6.
    // X rejects (bits before the last always reject); the transmitter and Y
    // detect X's flag at their LAST bit, defer, probe recessive (their flags
    // answered X's) and reject too. One retransmission, every receiver
    // delivers exactly once — the double reception of Fig. 1b is gone.
    let mut sim = build(MinorCan, 3, flips(vec![(1, Field::Eof, 5)]));
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(800);
    let ev = sim.events();
    assert_eq!(
        deliveries(ev, NodeId(1)),
        vec![f.clone()],
        "X delivers once"
    );
    assert_eq!(
        deliveries(ev, NodeId(2)),
        vec![f],
        "Y delivers once — no double reception"
    );
    assert_eq!(retransmissions(ev, NodeId(0)), 1);
    assert_eq!(tx_successes(ev, NodeId(0)), 1);
    // Y's rejection was reached through the Primary_error criterion.
    assert!(ev.iter().any(|e| e.node == NodeId(2)
        && matches!(
            e.event,
            CanEvent::Rejected {
                basis: DecisionBasis::PrimaryError {
                    dominant_after_flag: false
                }
            }
        )));
}

#[test]
fn minorcan_fig2_with_tx_crash_stays_consistent() {
    // Fig. 1c under MinorCAN: same disturbance, transmitter crashes before
    // the retransmission. Under MinorCAN *nobody* accepted the first copy
    // (Y rejected via Primary_error), so the crash leaves all receivers
    // equally empty — Agreement holds.
    let mut probe = build(MinorCan, 3, flips(vec![(1, Field::Eof, 5)]));
    let f = frame(0x0AA, &[0xCD]);
    probe.node_mut(NodeId(0)).enqueue(f.clone());
    probe.run(800);
    let resched_at = probe
        .events()
        .iter()
        .find(|e| matches!(e.event, CanEvent::RetransmissionScheduled { .. }))
        .expect("retransmission scheduled")
        .at;

    let mut sim = Simulator::new(flips(vec![(1, Field::Eof, 5)]));
    sim.attach(Controller::with_config(
        MinorCan,
        ControllerConfig {
            fail_at: Some(resched_at + 1),
            ..ControllerConfig::default()
        },
    ));
    sim.attach(Controller::new(MinorCan));
    sim.attach(Controller::new(MinorCan));
    sim.node_mut(NodeId(0)).enqueue(f);
    sim.run(800);
    let ev = sim.events();
    assert_eq!(deliveries(ev, NodeId(1)), vec![], "X empty");
    assert_eq!(
        deliveries(ev, NodeId(2)),
        vec![],
        "Y equally empty: consistent omission, AB2 holds"
    );
}

#[test]
fn minorcan_error_at_last_bit_accepted_without_retransmission() {
    // Fig. 1a analogue: X alone sees a dominant in the LAST EOF bit. X's
    // probe bit lands on the tail of the other nodes' overload flags ⇒
    // primary ⇒ accept. Nothing is retransmitted.
    let mut sim = build(MinorCan, 3, flips(vec![(1, Field::Eof, 6)]));
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(600);
    let ev = sim.events();
    assert_eq!(deliveries(ev, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(ev, NodeId(2)), vec![f]);
    assert_eq!(retransmissions(ev, NodeId(0)), 0);
    assert!(ev.iter().any(|e| e.node == NodeId(1)
        && matches!(
            e.event,
            CanEvent::Delivered {
                basis: DecisionBasis::PrimaryError {
                    dominant_after_flag: true
                },
                ..
            }
        )));
}

#[test]
fn minorcan_beats_standard_can_when_tx_sees_last_bit_error() {
    // Section 3's performance claim: "in MinorCAN if the transmitter
    // detects an error in the last bit of EOF retransmission might be
    // avoided, while in CAN it always takes place."
    let f = frame(0x0AA, &[0xCD]);

    // Standard CAN: the transmitter retransmits; receivers (who accepted at
    // the last-but-one bit) deliver TWICE.
    let mut can = build(StandardCan, 3, flips(vec![(0, Field::Eof, 6)]));
    can.node_mut(NodeId(0)).enqueue(f.clone());
    can.run(800);
    assert_eq!(retransmissions(can.events(), NodeId(0)), 1);
    assert_eq!(
        deliveries(can.events(), NodeId(1)).len(),
        2,
        "double reception"
    );

    // MinorCAN: the transmitter's probe finds the receivers' overload flags
    // ⇒ primary ⇒ accepted, no retransmission, single delivery.
    let mut minor = build(MinorCan, 3, flips(vec![(0, Field::Eof, 6)]));
    minor.node_mut(NodeId(0)).enqueue(f.clone());
    minor.run(800);
    let ev = minor.events();
    assert_eq!(retransmissions(ev, NodeId(0)), 0, "retransmission avoided");
    assert_eq!(tx_successes(ev, NodeId(0)), 1);
    assert_eq!(deliveries(ev, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(ev, NodeId(2)), vec![f]);
}

#[test]
fn minorcan_fig3b_two_disturbances_still_break_agreement() {
    // The paper's new scenario under MinorCAN (Fig. 3b): X sees a dominant
    // at EOF bit 6 and rejects; an additional disturbance hides X's flag
    // from the transmitter's last EOF bit, so the transmitter completes and
    // treats the later flag as an overload. Y defers at its last bit and
    // probes DOMINANT (the transmitter's overload flag!) ⇒ primary ⇒
    // accepts. X never gets the frame although the transmitter stayed
    // correct: MinorCAN does NOT provide Atomic Broadcast.
    let mut sim = build(
        MinorCan,
        3,
        flips(vec![(1, Field::Eof, 5), (0, Field::Eof, 6)]),
    );
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(800);
    let ev = sim.events();
    assert_eq!(tx_successes(ev, NodeId(0)), 1, "tx believes it succeeded");
    assert_eq!(retransmissions(ev, NodeId(0)), 0);
    assert_eq!(
        deliveries(ev, NodeId(2)),
        vec![f],
        "Y accepted via a 'primary' probe that was really the tx's overload flag"
    );
    assert_eq!(
        deliveries(ev, NodeId(1)),
        vec![],
        "X omitted: inconsistent message omission under MinorCAN"
    );
    assert!(ev.iter().any(|e| e.node == NodeId(2)
        && matches!(
            e.event,
            CanEvent::Delivered {
                basis: DecisionBasis::PrimaryError {
                    dominant_after_flag: true
                },
                ..
            }
        )));
}

// ===========================================================================
// MajorCAN_5 — Figs. 4 and 5, and the scenarios that defeated CAN/MinorCAN.
// ===========================================================================

#[test]
fn majorcan_clean_broadcast() {
    let mut sim = build(MajorCan::proposed(), 4, majorcan_sim::NoFaults);
    let f = frame(0x123, &[1, 2, 3]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(400);
    let ev = sim.events();
    for rx in 1..4 {
        assert_eq!(deliveries(ev, NodeId(rx)), vec![f.clone()]);
    }
    assert_eq!(tx_successes(ev, NodeId(0)), 1);
}

#[test]
fn majorcan_fig4_first_subfield_bits_flag_and_vote() {
    // Fig. 4 rows 2-6: an error in EOF bits 1..=5 produces a 6-bit error
    // flag followed by sampling. For bits 1..=4 the other nodes detect the
    // flag still inside the first sub-field, nobody extends, every vote is
    // all-recessive ⇒ consistent rejection ⇒ one retransmission, single
    // delivery everywhere.
    for bit in 1..=4u16 {
        let mut sim = build(
            MajorCan::proposed(),
            3,
            flips(vec![(1, Field::Eof, bit - 1)]),
        );
        let f = frame(0x0AA, &[0xCD]);
        sim.node_mut(NodeId(0)).enqueue(f.clone());
        sim.run(900);
        let ev = sim.events();
        assert_eq!(
            deliveries(ev, NodeId(1)),
            vec![f.clone()],
            "EOF bit {bit}: X delivers once after retransmission"
        );
        assert_eq!(deliveries(ev, NodeId(2)), vec![f.clone()], "EOF bit {bit}");
        assert_eq!(retransmissions(ev, NodeId(0)), 1, "EOF bit {bit}");
        // X rejected through a vote with zero dominant samples.
        assert!(
            ev.iter().any(|e| e.node == NodeId(1)
                && matches!(
                    e.event,
                    CanEvent::Rejected {
                        basis: DecisionBasis::Vote {
                            dominant: 0,
                            window: 9
                        }
                    }
                )),
            "EOF bit {bit}: expected an all-recessive vote rejection"
        );
    }
}

#[test]
fn majorcan_subfield_boundary_error_at_bit_m_accepted_by_all() {
    // The sub-field boundary: an error at EOF bit m (= 5) makes the OTHER
    // nodes detect the flag at bit m+1 — the second sub-field — so they
    // accept and extend; the flagging node's vote then reads their extended
    // flags and accepts too. Consistent acceptance with no retransmission:
    // the frame content was flawless, so rejecting it was never necessary.
    let mut sim = build(MajorCan::proposed(), 3, flips(vec![(1, Field::Eof, 4)]));
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(900);
    let ev = sim.events();
    assert_eq!(deliveries(ev, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(ev, NodeId(2)), vec![f]);
    assert_eq!(retransmissions(ev, NodeId(0)), 0);
    assert_eq!(tx_successes(ev, NodeId(0)), 1);
    assert!(ev.iter().any(|e| e.node == NodeId(1)
        && matches!(
            e.event,
            CanEvent::Delivered {
                basis: DecisionBasis::Vote {
                    dominant: 9,
                    window: 9
                },
                ..
            }
        )));
}

#[test]
fn majorcan_fig4_second_subfield_bits_accept_and_extend() {
    // Fig. 4 rows 7-11: an error in EOF bits 6..=10 means the frame content
    // was flawless — accept immediately and notify with the extended flag.
    // No retransmission, single delivery everywhere.
    for bit in 6..=10u16 {
        let mut sim = build(
            MajorCan::proposed(),
            3,
            flips(vec![(1, Field::Eof, bit - 1)]),
        );
        let f = frame(0x0AA, &[0xCD]);
        sim.node_mut(NodeId(0)).enqueue(f.clone());
        sim.run(900);
        let ev = sim.events();
        assert_eq!(deliveries(ev, NodeId(1)), vec![f.clone()], "EOF bit {bit}");
        assert_eq!(deliveries(ev, NodeId(2)), vec![f.clone()], "EOF bit {bit}");
        assert_eq!(
            retransmissions(ev, NodeId(0)),
            0,
            "EOF bit {bit}: no retransmission"
        );
        assert!(
            ev.iter().any(|e| e.node == NodeId(1)
                && matches!(
                    e.event,
                    CanEvent::Delivered {
                        basis: DecisionBasis::SecondSubfield,
                        ..
                    }
                )),
            "EOF bit {bit}: X accepts in the second sub-field"
        );
        assert!(ev.iter().any(|e| e.node == NodeId(1)
            && matches!(
                e.event,
                CanEvent::FlagStarted {
                    kind: FlagKind::Extended
                }
            )));
    }
}

#[test]
fn majorcan_fig4_crc_error_flags_without_sampling() {
    // Fig. 4 row 1: a CRC error produces a 6-bit flag starting at the first
    // EOF bit, the frame is rejected, and NO sampling is performed. All
    // other nodes see the flag inside the first sub-field and consistently
    // reject; the retransmission recovers everyone.
    let mut sim = build(MajorCan::proposed(), 3, flips(vec![(1, Field::Crc, 3)]));
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(900);
    let ev = sim.events();
    assert_eq!(deliveries(ev, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(ev, NodeId(2)), vec![f]);
    assert_eq!(retransmissions(ev, NodeId(0)), 1);
    // X's rejection is immediate (ErrorBeforeCommit), not a vote.
    assert!(ev.iter().any(|e| e.node == NodeId(1)
        && matches!(
            e.event,
            CanEvent::Rejected {
                basis: DecisionBasis::ErrorBeforeCommit
            }
        )));
    assert!(
        !ev.iter().any(|e| e.node == NodeId(1)
            && matches!(
                e.event,
                CanEvent::Rejected {
                    basis: DecisionBasis::Vote { .. }
                } | CanEvent::Delivered {
                    basis: DecisionBasis::Vote { .. },
                    ..
                }
            )),
        "the CRC-error node must not vote"
    );
}

#[test]
fn majorcan_survives_the_fig3a_disturbance_pattern() {
    // The exact two-disturbance pattern that broke CAN (Fig. 3a) and
    // MinorCAN (Fig. 3b): an error at X's last-but-one EOF bit plus one at
    // the transmitter's view of the following bit. Under MajorCAN_5 the
    // last-but-one bit (9) lies in the second sub-field: X simply accepts
    // and notifies; Y and the transmitter accept too (second sub-field or
    // clean EOF). Total consistency, no retransmission.
    let mut sim = build(
        MajorCan::proposed(),
        3,
        flips(vec![(1, Field::Eof, 8), (0, Field::Eof, 9)]),
    );
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(900);
    let ev = sim.events();
    assert_eq!(
        deliveries(ev, NodeId(1)),
        vec![f.clone()],
        "X has the frame"
    );
    assert_eq!(deliveries(ev, NodeId(2)), vec![f], "Y has the frame");
    assert_eq!(tx_successes(ev, NodeId(0)), 1);
    assert_eq!(retransmissions(ev, NodeId(0)), 0);
}

#[test]
fn majorcan_fig5_consistency_under_five_errors() {
    // Fig. 5: nodes of X detect a dominant at EOF bit 3 and send a 6-bit
    // flag (bits 4..9). Y detects that flag at bit 4 and flags as well
    // (bits 5..10). Two additional disturbances hide the flag from the
    // transmitter until bit 6 — inside the second sub-field — so the
    // transmitter ACCEPTS and notifies with the extended flag (bits 7..20).
    // Two final disturbances corrupt X's sampling window; the majority vote
    // still reads ≥ 5 dominant of 9, and every node accepts. Five errors,
    // full consistency, no retransmission.
    let mut sim = build(
        MajorCan::proposed(),
        3,
        flips(vec![
            (1, Field::Eof, 2),            // X: error at EOF bit 3
            (0, Field::Eof, 3),            // tx view of bit 4 (hides X's flag)
            (0, Field::Eof, 4),            // tx view of bit 5 (hides X's flag)
            (1, Field::AgreementHold, 13), // X sampling corruption at rel 13
            (1, Field::AgreementHold, 15), // X sampling corruption at rel 15
        ]),
    );
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(900);
    let ev = sim.events();

    assert_eq!(
        tx_successes(ev, NodeId(0)),
        1,
        "transmitter accepts in the second sub-field"
    );
    assert!(ev.iter().any(|e| e.node == NodeId(0)
        && matches!(
            e.event,
            CanEvent::TxSucceeded {
                basis: DecisionBasis::SecondSubfield,
                ..
            }
        )));
    assert_eq!(retransmissions(ev, NodeId(0)), 0);
    assert_eq!(
        deliveries(ev, NodeId(1)),
        vec![f.clone()],
        "X accepts by vote"
    );
    assert_eq!(deliveries(ev, NodeId(2)), vec![f], "Y accepts by vote");
    // X's vote saw the extended flag through two corrupted samples: 7 of 9.
    assert!(ev.iter().any(|e| e.node == NodeId(1)
        && matches!(
            e.event,
            CanEvent::Delivered {
                basis: DecisionBasis::Vote {
                    dominant: 7,
                    window: 9
                },
                ..
            }
        )));
}

#[test]
fn majorcan_first_subfield_disturbance_rejects_consistently_with_tx_masked() {
    // A disturbance at X's EOF bit 2 (first sub-field) plus one masking the
    // transmitter's view of X's flag at bit 3. The transmitter still
    // detects the flag at bit 4 (first sub-field), votes recessive and
    // retransmits; nobody is left behind.
    let mut sim = build(
        MajorCan::proposed(),
        3,
        flips(vec![(1, Field::Eof, 1), (0, Field::Eof, 2)]),
    );
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(900);
    let ev = sim.events();
    assert_eq!(deliveries(ev, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(ev, NodeId(2)), vec![f]);
    assert_eq!(retransmissions(ev, NodeId(0)), 1);
    assert_eq!(tx_successes(ev, NodeId(0)), 1);
}

#[test]
fn majorcan_two_node_boundary_case() {
    // The paper's sizing argument for the second sub-field: with only two
    // nodes, if one detects the error at bit m the other must still be able
    // to notify acceptance. Transmitter + one receiver; the receiver sees a
    // dominant at EOF bit m = 5 (first sub-field) and flags; the transmitter
    // detects that flag at bit 6 (second sub-field), accepts, and extends;
    // the receiver's vote reads the extension ⇒ accept. Consistent, no
    // retransmission.
    let mut sim = build(MajorCan::proposed(), 2, flips(vec![(1, Field::Eof, 4)]));
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(900);
    let ev = sim.events();
    assert_eq!(tx_successes(ev, NodeId(0)), 1);
    assert_eq!(retransmissions(ev, NodeId(0)), 0);
    assert_eq!(deliveries(ev, NodeId(1)), vec![f]);
    assert!(ev.iter().any(|e| e.node == NodeId(1)
        && matches!(
            e.event,
            CanEvent::Delivered {
                basis: DecisionBasis::Vote { .. },
                ..
            }
        )));
}

#[test]
fn majorcan_m_values_other_than_five_work() {
    for m in [3usize, 4, 6, 8] {
        let v = MajorCan::new(m).unwrap();
        // Second sub-field acceptance at EOF bit m+1.
        let mut sim = build(v, 3, flips(vec![(1, Field::Eof, m as u16)]));
        let f = frame(0x0AA, &[0xCD]);
        sim.node_mut(NodeId(0)).enqueue(f.clone());
        sim.run(1200);
        let ev = sim.events();
        assert_eq!(deliveries(ev, NodeId(1)), vec![f.clone()], "m={m}");
        assert_eq!(deliveries(ev, NodeId(2)), vec![f], "m={m}");
        assert_eq!(retransmissions(ev, NodeId(0)), 0, "m={m}");
    }
}

// --------------------------------------------------------------------------
// Error-counter semantics of the agreement machinery.
// --------------------------------------------------------------------------

#[test]
fn majorcan_fig5_leaves_error_counters_untouched() {
    // Five errors, all absorbed by the agreement phase: second-error
    // suppression means no counter may move — accepted frames are not
    // "errors" in the fault-confinement sense.
    let mut sim = build(
        MajorCan::proposed(),
        3,
        flips(vec![
            (1, Field::Eof, 2),
            (0, Field::Eof, 3),
            (0, Field::Eof, 4),
            (1, Field::AgreementHold, 13),
            (1, Field::AgreementHold, 15),
        ]),
    );
    sim.node_mut(NodeId(0)).enqueue(frame(0x0AA, &[0xCD]));
    sim.run(900);
    for n in 0..3 {
        let fc = sim.node(NodeId(n)).fault_confinement();
        assert_eq!(fc.tec(), 0, "node {n} TEC");
        assert_eq!(fc.rec(), 0, "node {n} REC");
    }
}

#[test]
fn minorcan_primary_accept_does_not_count_as_an_error() {
    // X's deferred decision resolves to accept: its REC must stay at zero
    // (the episode was agreement, not failure). First the reject path for
    // contrast: a disturbance at the last-but-one bit (0-based index 5).
    let mut sim = build(MinorCan, 3, flips(vec![(1, Field::Eof, 5)]));
    sim.node_mut(NodeId(0)).enqueue(frame(0x0AA, &[0xCD]));
    sim.run(900);
    // This is the reject path (everyone rejects, one retransmission):
    // X's REC rises (+1 and the post-flag aggravation) and then decays by
    // one on the successful retransmission.
    let x = sim.node(NodeId(1)).fault_confinement();
    assert!(x.rec() > 0, "rejecting X counts the error: {}", x.rec());

    // Accept path: error at the LAST bit (0-based index 6), probe reads
    // dominant -> accept.
    let mut sim = build(MinorCan, 3, flips(vec![(1, Field::Eof, 6)]));
    sim.node_mut(NodeId(0)).enqueue(frame(0x0AA, &[0xCD]));
    sim.run(900);
    let x = sim.node(NodeId(1)).fault_confinement();
    assert_eq!(x.rec(), 0, "accepting X must not count an error");
}

/// A frame queued while the MajorCAN transmitter holds for its vote does
/// not take the voted frame's place: the decision (accept or retransmit)
/// names the frame that was on the wire, and the newcomer is sent next
/// in priority order. Each frame reaches every receiver exactly once.
#[test]
fn majorcan_vote_decides_the_frame_on_the_wire_not_a_frame_queued_meanwhile() {
    let voted = frame(0x200, &[2]);
    let queued = frame(0x100, &[1]);
    // The transmitter sees its first EOF bit 1 dominant: it flags, then
    // votes.
    let mut fired = false;
    let channel = FnChannel(
        move |_bit: u64, node: NodeId, tag: &WirePos, _wire: Level| {
            let flip = !fired && node == NodeId(0) && *tag == WirePos::eof(1);
            fired |= flip;
            flip
        },
    );
    let mut sim = build(MajorCan::proposed(), 3, channel);
    sim.node_mut(NodeId(0)).enqueue(voted.clone());
    let mut held = false;
    for _ in 0..400 {
        sim.step();
        if !held && BitNode::tag(sim.node(NodeId(0))).field == Field::AgreementHold {
            sim.node_mut(NodeId(0)).enqueue(queued.clone());
            held = true;
        }
    }
    assert!(held, "the transmitter never held for a vote");
    sim.run(600);
    let decisions: Vec<&CanEvent> = sim
        .events()
        .iter()
        .filter(|e| e.node == NodeId(0))
        .map(|e| &e.event)
        .filter(|e| {
            matches!(
                e,
                CanEvent::TxSucceeded { .. } | CanEvent::RetransmissionScheduled { .. }
            )
        })
        .collect();
    match decisions.first() {
        Some(CanEvent::TxSucceeded { frame, .. })
        | Some(CanEvent::RetransmissionScheduled { frame }) => {
            assert_eq!(*frame, voted, "the vote decided the frame on the wire")
        }
        other => panic!("no decision for the voted frame: {other:?}"),
    }
    assert_eq!(tx_successes(sim.events(), NodeId(0)), 2);
    for rx in 1..3 {
        let mut got = deliveries(sim.events(), NodeId(rx));
        got.sort_by_key(|f| f.id());
        assert_eq!(got, vec![queued.clone(), voted.clone()], "rx {rx}");
    }
    assert_eq!(sim.node(NodeId(0)).pending(), 0);
}
