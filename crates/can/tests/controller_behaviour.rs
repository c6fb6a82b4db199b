//! Behavioural tests for the standard CAN controller: clean traffic,
//! arbitration, acknowledgment, error signalling, and the paper's Fig. 1
//! inconsistency scenarios.

use majorcan_can::{
    CanEvent, Controller, ControllerConfig, DecisionBasis, ErrorKind, Field, Frame, FrameId,
    StandardCan, WirePos,
};
use majorcan_sim::{FnChannel, Level, NodeId, Simulator, TimedEvent};

type Sim<C> = Simulator<Controller<StandardCan>, C>;

fn frame(id: u16, data: &[u8]) -> Frame {
    Frame::new(FrameId::new(id).unwrap(), data).unwrap()
}

fn build<C: majorcan_sim::ChannelModel<WirePos>>(n: usize, channel: C) -> Sim<C> {
    let mut sim = Simulator::new(channel);
    for _ in 0..n {
        sim.attach(Controller::new(StandardCan));
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
        .filter(|e| e.node == node)
        .filter(|e| matches!(e.event, CanEvent::TxSucceeded { .. }))
        .count()
}

fn count_retransmissions(events: &[TimedEvent<CanEvent>], node: NodeId) -> usize {
    events
        .iter()
        .filter(|e| e.node == node)
        .filter(|e| matches!(e.event, CanEvent::RetransmissionScheduled { .. }))
        .count()
}

#[test]
fn clean_broadcast_reaches_every_receiver_once() {
    let mut sim = build(5, majorcan_sim::NoFaults);
    let f = frame(0x123, &[1, 2, 3, 4]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(300);
    let events = sim.events();
    for rx in 1..5 {
        assert_eq!(deliveries(events, NodeId(rx)), vec![f.clone()], "rx {rx}");
    }
    assert_eq!(tx_successes(events, NodeId(0)), 1);
    assert_eq!(
        deliveries(events, NodeId(0)),
        vec![],
        "tx does not self-deliver"
    );
}

#[test]
fn back_to_back_frames_all_delivered_in_order() {
    let mut sim = build(3, majorcan_sim::NoFaults);
    let frames: Vec<Frame> = (0..4).map(|i| frame(0x100 + i, &[i as u8])).collect();
    for f in &frames {
        sim.node_mut(NodeId(0)).enqueue(f.clone());
    }
    sim.run(1000);
    let events = sim.events();
    assert_eq!(deliveries(events, NodeId(1)), frames);
    assert_eq!(deliveries(events, NodeId(2)), frames);
    assert_eq!(tx_successes(events, NodeId(0)), 4);
}

#[test]
fn receiver_commits_at_last_but_one_eof_bit() {
    // The Delivered event of a receiver must occur exactly one bit before
    // the transmitter's TxSucceeded (commit points 6 vs 7).
    let mut sim = build(2, majorcan_sim::NoFaults);
    sim.node_mut(NodeId(0)).enqueue(frame(0x40, &[9]));
    sim.run(300);
    let deliver_at = sim
        .events()
        .iter()
        .find(|e| matches!(e.event, CanEvent::Delivered { .. }))
        .expect("delivered")
        .at;
    let success_at = sim
        .events()
        .iter()
        .find(|e| matches!(e.event, CanEvent::TxSucceeded { .. }))
        .expect("tx success")
        .at;
    assert_eq!(success_at - deliver_at, 1, "rx commits one bit earlier");
}

#[test]
fn arbitration_lower_id_wins_and_loser_retries() {
    let mut sim = build(3, majorcan_sim::NoFaults);
    let hi = frame(0x050, b"high");
    let lo = frame(0x650, b"low");
    sim.node_mut(NodeId(0)).enqueue(lo.clone());
    sim.node_mut(NodeId(1)).enqueue(hi.clone());
    sim.run(600);
    let events = sim.events();

    // Node 0 must have lost arbitration at least once.
    assert!(events
        .iter()
        .any(|e| e.node == NodeId(0) && matches!(e.event, CanEvent::ArbitrationLost { .. })));
    // Both frames delivered to node 2, high priority first.
    assert_eq!(deliveries(events, NodeId(2)), vec![hi.clone(), lo.clone()]);
    // The arbitration loser received the winner's frame.
    assert_eq!(deliveries(events, NodeId(0)), vec![hi]);
    assert_eq!(deliveries(events, NodeId(1)), vec![lo]);
}

#[test]
fn identical_prefix_arbitration_resolved_by_later_bit() {
    let mut sim = build(3, majorcan_sim::NoFaults);
    // IDs differing only in the last bit: 0b00000001010 vs 0b00000001011.
    let a = frame(0x00A, &[0xAA]);
    let b = frame(0x00B, &[0xBB]);
    sim.node_mut(NodeId(0)).enqueue(b.clone());
    sim.node_mut(NodeId(1)).enqueue(a.clone());
    sim.run(600);
    assert_eq!(deliveries(sim.events(), NodeId(2)), vec![a, b]);
}

#[test]
fn lonely_transmitter_suffers_ack_error_and_retries() {
    let mut sim = build(1, majorcan_sim::NoFaults);
    sim.node_mut(NodeId(0)).enqueue(frame(0x111, &[1]));
    sim.run(400);
    let events = sim.events();
    assert!(events.iter().any(|e| matches!(
        e.event,
        CanEvent::ErrorDetected {
            kind: ErrorKind::Ack,
            ..
        }
    )));
    assert_eq!(tx_successes(events, NodeId(0)), 0);
    assert!(count_retransmissions(events, NodeId(0)) >= 2);
}

#[test]
fn priority_queueing_within_a_node() {
    let mut sim = build(2, majorcan_sim::NoFaults);
    let lo = frame(0x700, &[1]);
    let hi = frame(0x001, &[2]);
    sim.node_mut(NodeId(0)).enqueue(lo.clone());
    sim.node_mut(NodeId(0)).enqueue(hi.clone());
    // Both enqueued before the bus goes idle: the controller must pick the
    // higher-priority (lower id) frame first, like multi-buffer hardware.
    sim.run(700);
    assert_eq!(deliveries(sim.events(), NodeId(1)), vec![hi, lo]);
}

/// Flip one node's view of one frame-relative position, once.
fn flip_once(
    target: NodeId,
    field: Field,
    index: u16,
) -> FnChannel<impl FnMut(u64, NodeId, &WirePos, Level) -> bool> {
    let mut fired = false;
    FnChannel(move |_bit, node, tag: &WirePos, _wire| {
        if !fired && node == target && tag.field == field && tag.index == index && !tag.stuff {
            fired = true;
            true
        } else {
            false
        }
    })
}

#[test]
fn corrupted_data_bit_forces_global_retransmission() {
    // Receiver 1's view of a data bit is flipped: it signals (stuff/CRC/bit
    // error), everyone rejects, the transmitter retransmits, and in the end
    // every receiver has exactly one copy.
    let mut sim = build(3, flip_once(NodeId(1), Field::Data, 3));
    let f = frame(0x123, &[0x0F, 0xF0]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(600);
    let events = sim.events();
    assert!(count_retransmissions(events, NodeId(0)) >= 1);
    assert_eq!(deliveries(events, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(events, NodeId(2)), vec![f]);
    assert_eq!(tx_successes(events, NodeId(0)), 1);
}

#[test]
fn corrupted_crc_region_detected_and_recovered() {
    let mut sim = build(3, flip_once(NodeId(2), Field::Crc, 7));
    let f = frame(0x222, &[7; 8]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(800);
    let events = sim.events();
    assert_eq!(deliveries(events, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(events, NodeId(2)), vec![f]);
}

// --------------------------------------------------------------------------
// The paper's Fig. 1 scenarios on standard CAN.
// Node 0 = transmitter, node 1 = X set, node 2 = Y set.
// --------------------------------------------------------------------------

#[test]
fn fig1a_error_in_last_eof_bit_stays_consistent() {
    // X sees a dominant in the last EOF bit: the last-bit rule makes X
    // accept anyway; its overload flag delays the bus but nothing is lost.
    let mut sim = build(3, flip_once(NodeId(1), Field::Eof, 6));
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(600);
    let events = sim.events();
    assert_eq!(deliveries(events, NodeId(1)), vec![f.clone()], "X accepts");
    assert_eq!(deliveries(events, NodeId(2)), vec![f], "Y accepts");
    assert_eq!(tx_successes(events, NodeId(0)), 1);
    assert_eq!(
        count_retransmissions(events, NodeId(0)),
        0,
        "no retransmission in Fig. 1a"
    );
    // X accepted through the last-bit rule and raised an overload condition.
    assert!(events
        .iter()
        .any(|e| e.node == NodeId(1) && matches!(e.event, CanEvent::OverloadCondition)));
}

#[test]
fn fig1b_double_reception_at_y() {
    // X sees a dominant in the LAST-BUT-ONE EOF bit: X rejects and flags;
    // the transmitter and Y see that flag in their last bit. Y accepts by
    // the last-bit rule, the transmitter retransmits — so Y receives the
    // frame twice. (CAN3: at-least-once delivery.)
    let mut sim = build(3, flip_once(NodeId(1), Field::Eof, 5));
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(800);
    let events = sim.events();
    assert_eq!(
        deliveries(events, NodeId(2)),
        vec![f.clone(), f.clone()],
        "Y delivers twice: the double reception of Fig. 1b"
    );
    assert_eq!(
        deliveries(events, NodeId(1)),
        vec![f],
        "X only delivers the retransmission"
    );
    assert_eq!(count_retransmissions(events, NodeId(0)), 1);
    assert_eq!(tx_successes(events, NodeId(0)), 1);
}

#[test]
fn fig1c_transmitter_crash_causes_inconsistent_omission() {
    // Fig. 1b plus a transmitter crash before the retransmission: Y keeps
    // the frame, X never receives it — an inconsistent message omission.
    // First find when the transmitter schedules the retransmission.
    let mut probe = build(3, flip_once(NodeId(1), Field::Eof, 5));
    let f = frame(0x0AA, &[0xCD]);
    probe.node_mut(NodeId(0)).enqueue(f.clone());
    probe.run(800);
    let resched_at = probe
        .events()
        .iter()
        .find(|e| matches!(e.event, CanEvent::RetransmissionScheduled { .. }))
        .expect("retransmission scheduled")
        .at;

    // Re-run with the transmitter crashing right after scheduling it.
    let mut sim = Simulator::new(flip_once(NodeId(1), Field::Eof, 5));
    sim.attach(Controller::with_config(
        StandardCan,
        ControllerConfig {
            fail_at: Some(resched_at + 1),
            ..ControllerConfig::default()
        },
    ));
    sim.attach(Controller::new(StandardCan));
    sim.attach(Controller::new(StandardCan));
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(800);
    let events = sim.events();

    assert!(events
        .iter()
        .any(|e| e.node == NodeId(0) && matches!(e.event, CanEvent::Crashed)));
    assert_eq!(deliveries(events, NodeId(2)), vec![f], "Y has the frame");
    assert_eq!(
        deliveries(events, NodeId(1)),
        vec![],
        "X never receives it: inconsistent message omission"
    );
}

#[test]
fn fig3a_new_scenario_imo_with_correct_transmitter() {
    // The paper's new scenario: X sees a dominant at the last-but-one EOF
    // bit (rejects, flags); one *additional* disturbance hides X's error
    // flag from the transmitter's view of its last EOF bit. The transmitter
    // completes cleanly and never retransmits; Y accepted via the last-bit
    // rule. X is left without the frame although the transmitter stayed
    // correct — Agreement (AB2/CAN2) is violated with only TWO disturbed
    // bit-views.
    let mut fired_x = false;
    let mut fired_tx = false;
    let channel = FnChannel(move |_bit, node, tag: &WirePos, _wire| {
        if !fired_x && node == NodeId(1) && tag.field == Field::Eof && tag.index == 5 {
            fired_x = true;
            return true;
        }
        // The transmitter's view of its last EOF bit (wire carries X's
        // flag, the disturbance flips it back to recessive).
        if !fired_tx && node == NodeId(0) && tag.field == Field::Eof && tag.index == 6 {
            fired_tx = true;
            return true;
        }
        false
    });
    let mut sim = build(3, channel);
    let f = frame(0x0AA, &[0xCD]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(800);
    let events = sim.events();

    assert_eq!(
        tx_successes(events, NodeId(0)),
        1,
        "tx believes it succeeded"
    );
    assert_eq!(count_retransmissions(events, NodeId(0)), 0);
    assert_eq!(deliveries(events, NodeId(2)), vec![f], "Y accepted");
    assert_eq!(
        deliveries(events, NodeId(1)),
        vec![],
        "X never receives the frame although the transmitter stayed correct"
    );
    assert!(
        !sim.node(NodeId(0)).is_crashed(),
        "transmitter remained correct the whole time"
    );
}

#[test]
fn rejected_receiver_emits_rejection_event() {
    let mut sim = build(3, flip_once(NodeId(1), Field::Eof, 5));
    sim.node_mut(NodeId(0)).enqueue(frame(0x0AA, &[0xCD]));
    sim.run(800);
    assert!(sim.events().iter().any(|e| e.node == NodeId(1)
        && matches!(
            e.event,
            CanEvent::Rejected {
                basis: DecisionBasis::ErrorBeforeCommit
            }
        )));
}

#[test]
fn crash_via_api_silences_node() {
    let mut sim = build(2, majorcan_sim::NoFaults);
    sim.node_mut(NodeId(0)).crash();
    sim.node_mut(NodeId(0)).enqueue(frame(0x100, &[1]));
    sim.run(300);
    assert!(sim.node(NodeId(0)).is_crashed());
    assert_eq!(deliveries(sim.events(), NodeId(1)), vec![]);
}

#[test]
fn error_counters_move_with_traffic() {
    // One corrupted frame bumps the receiver's REC and the transmitter's
    // TEC; subsequent clean traffic decays them.
    let mut sim = build(2, flip_once(NodeId(1), Field::Data, 0));
    let f = frame(0x123, &[0xFF]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(600);
    // After the error: REC = 1 + aggravations, then -1 per clean frame.
    let rec = sim.node(NodeId(1)).fault_confinement().rec();
    let tec = sim.node(NodeId(0)).fault_confinement().tec();
    assert!(rec <= 9, "rec={rec}");
    assert!(tec <= 8, "tec={tec}");
    assert_eq!(tx_successes(sim.events(), NodeId(0)), 1);
    // Now push several clean frames; counters must decay to 0.
    for i in 0..10 {
        sim.node_mut(NodeId(0))
            .enqueue(frame(0x200 + i, &[i as u8]));
    }
    sim.run(2500);
    assert_eq!(sim.node(NodeId(0)).fault_confinement().tec(), 0);
    assert_eq!(sim.node(NodeId(1)).fault_confinement().rec(), 0);
}

#[test]
fn overload_condition_on_dominant_intermission_bit() {
    // Flip a receiver's view of the first intermission bit: it must raise
    // an overload condition, not reject anything.
    let mut fired = false;
    let channel = FnChannel(move |_b, node, tag: &WirePos, _w| {
        if !fired && node == NodeId(1) && tag.field == Field::Intermission && tag.index == 0 {
            fired = true;
            true
        } else {
            false
        }
    });
    let mut sim = build(3, channel);
    let f = frame(0x0AA, &[1]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(600);
    let events = sim.events();
    assert!(events
        .iter()
        .any(|e| e.node == NodeId(1) && matches!(e.event, CanEvent::OverloadCondition)));
    assert_eq!(deliveries(events, NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(events, NodeId(2)), vec![f]);
    assert_eq!(count_retransmissions(events, NodeId(0)), 0);
}

#[test]
fn traffic_resumes_after_error_frames() {
    // An error on frame 1 must not prevent frames 2..n from flowing.
    let mut sim = build(3, flip_once(NodeId(1), Field::Dlc, 1));
    let frames: Vec<Frame> = (0..3).map(|i| frame(0x300 + i, &[i as u8; 4])).collect();
    for f in &frames {
        sim.node_mut(NodeId(0)).enqueue(f.clone());
    }
    sim.run(1500);
    assert_eq!(deliveries(sim.events(), NodeId(2)), frames.clone());
    assert_eq!(deliveries(sim.events(), NodeId(1)), frames);
}

#[test]
fn worst_case_stuffing_frame_round_trips() {
    // Identifier 0 with an all-zero payload maximizes stuff insertions
    // (long dominant runs); the frame must still cross the bus intact.
    let mut sim = build(3, majorcan_sim::NoFaults);
    let f = frame(0x000, &[0x00; 8]);
    let wire = majorcan_can::encode_frame(&f, &StandardCan);
    let stuff_bits = wire.iter().filter(|wb| wb.pos.stuff).count();
    assert!(
        stuff_bits >= 10,
        "worst-case frame really stuffs: {stuff_bits}"
    );
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(400);
    assert_eq!(deliveries(sim.events(), NodeId(1)), vec![f.clone()]);
    assert_eq!(deliveries(sim.events(), NodeId(2)), vec![f]);
}

#[test]
fn alternating_payload_has_no_stuff_bits_and_round_trips() {
    let mut sim = build(2, majorcan_sim::NoFaults);
    let f = frame(0x2AA, &[0x55, 0xAA, 0x55, 0xAA]);
    sim.node_mut(NodeId(0)).enqueue(f.clone());
    sim.run(400);
    assert_eq!(deliveries(sim.events(), NodeId(1)), vec![f]);
}

/// A higher-priority frame queued while another is on the wire waits its
/// turn: the commit names and removes the frame that was actually sent,
/// and the newcomer goes out next. Where a frame lands in the queue never
/// depends on when during a frame it arrived.
#[test]
fn commit_names_the_frame_on_the_wire_not_the_new_queue_head() {
    let mut sim = build(3, majorcan_sim::NoFaults);
    let low = frame(0x200, &[2]);
    let high = frame(0x100, &[1]);
    sim.node_mut(NodeId(0)).enqueue(low.clone());
    sim.run(40); // integration (11 bits), then mid-frame
    assert!(sim.node(NodeId(0)).is_transmitting());
    sim.node_mut(NodeId(0)).enqueue(high.clone());
    sim.run(400);
    let committed: Vec<(Frame, u32)> = sim
        .events()
        .iter()
        .filter(|e| e.node == NodeId(0))
        .filter_map(|e| match &e.event {
            CanEvent::TxSucceeded {
                frame, attempts, ..
            } => Some((frame.clone(), *attempts)),
            _ => None,
        })
        .collect();
    assert_eq!(committed, vec![(low.clone(), 1), (high.clone(), 1)]);
    for rx in 1..3 {
        assert_eq!(
            deliveries(sim.events(), NodeId(rx)),
            vec![low.clone(), high.clone()],
            "rx {rx}: each frame once, in bus order"
        );
    }
    assert_eq!(sim.node(NodeId(0)).pending(), 0);
}
