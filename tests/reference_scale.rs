//! The paper's reference configuration at full scale: a 32-node bus at
//! 90 % load (Table 1's setting), driven end-to-end through the bit-level
//! simulator, with the Atomic Broadcast checker over thousands of frames.
//!
//! Debug builds run a scaled-down version; `--release` runs the full
//! 32-node configuration.

use majorcan::abcast::trace_from_can_events;
use majorcan::can::{CanEvent, Controller, StandardCan, Variant};
use majorcan::protocols::MajorCan;
use majorcan::sim::{NoFaults, Simulator};
use majorcan::workload::{drive_source, plan_periodic_load, Workload};

const N_NODES: usize = if cfg!(debug_assertions) { 8 } else { 32 };
const HORIZON: u64 = if cfg!(debug_assertions) {
    30_000
} else {
    150_000
};

fn run_reference<V: Variant>(variant: &V) -> (usize, usize, majorcan::abcast::Report) {
    let mut sim = Simulator::new(NoFaults);
    for _ in 0..N_NODES {
        sim.attach(Controller::new(variant.clone()));
    }
    // The paper's frame mix: ~110-bit frames (8 data bytes) at 90 % load.
    let sources = plan_periodic_load(N_NODES, 0.9, 110);
    let mut releases = Vec::new();
    for s in &sources {
        releases.extend(s.releases(HORIZON.saturating_sub(5_000)));
    }
    let mut workload = Workload::new(releases);
    let queued = drive_source(&mut sim, &mut workload, HORIZON);
    let delivered = sim
        .events()
        .iter()
        .filter(|e| matches!(e.event, CanEvent::TxSucceeded { .. }))
        .count();
    let report = trace_from_can_events(sim.events(), N_NODES).check();
    (queued, delivered, report)
}

#[test]
fn standard_can_carries_90_percent_load_fault_free() {
    let (queued, delivered, report) = run_reference(&StandardCan);
    assert!(queued > 50, "workload produced traffic: {queued}");
    assert_eq!(queued, delivered, "the bus keeps up with 90% offered load");
    assert!(report.atomic_broadcast(), "{report}");
}

#[test]
fn majorcan_carries_the_same_load_with_its_3_bit_overhead() {
    let (queued, delivered, report) = run_reference(&MajorCan::proposed());
    assert_eq!(
        queued, delivered,
        "3 extra bits per frame fit into the 10% slack"
    );
    assert!(report.atomic_broadcast(), "{report}");
}

#[test]
fn arbitration_keeps_priorities_under_saturation() {
    // Saturate the bus with every node holding a frame at all times for a
    // while: deliveries must follow identifier priority among concurrent
    // contenders, and nobody may be starved forever after traffic stops.
    use majorcan::can::{Frame, FrameId};
    use majorcan::sim::NodeId;

    let n = if cfg!(debug_assertions) { 6 } else { 16 };
    let mut sim = Simulator::new(NoFaults);
    for _ in 0..n {
        sim.attach(Controller::new(StandardCan));
    }
    for round in 0..4u16 {
        for node in 0..n {
            let id = FrameId::new(0x200 + (node as u16) * 8 + round).unwrap();
            sim.node_mut(NodeId(node))
                .enqueue(Frame::new(id, &[node as u8, round as u8]).unwrap());
        }
    }
    sim.run(40_000);
    for node in 0..n {
        assert_eq!(
            sim.node(NodeId(node)).pending(),
            0,
            "node {node} starved with frames pending"
        );
    }
    let report = trace_from_can_events(sim.events(), n).check();
    assert!(report.atomic_broadcast(), "{report}");
}
