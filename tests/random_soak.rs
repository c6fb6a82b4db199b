//! Randomized soak tests across the whole stack: multi-frame workloads and
//! random tail-region faults, graded by the Atomic Broadcast checker.

use majorcan::abcast::trace_from_can_events;
use majorcan::can::{CanEvent, Controller, Frame, FrameId, Variant};
use majorcan::faults::{ActiveAfter, FieldFiltered, IndependentBitErrors};
use majorcan::protocols::{MajorCan, MinorCan};
use majorcan::sim::{NodeId, Simulator, TimedEvent};

const FRAMES: usize = if cfg!(debug_assertions) { 40 } else { 150 };

/// Runs a multi-frame workload (every node broadcasting) under EOF-confined
/// random errors and returns the checker report.
fn soak<V: Variant>(variant: &V, n_nodes: usize, ber: f64, seed: u64) -> majorcan::abcast::Report {
    trace_from_can_events(&soak_events(variant, n_nodes, ber, seed, FRAMES), n_nodes).check()
}

/// The event log of [`soak`]'s workload, `frames` frames long.
fn soak_events<V: Variant>(
    variant: &V,
    n_nodes: usize,
    ber: f64,
    seed: u64,
    frames: usize,
) -> Vec<TimedEvent<CanEvent>> {
    let channel = ActiveAfter::new(
        12,
        FieldFiltered::eof_only(IndependentBitErrors::new(ber, seed)),
    );
    let mut sim = Simulator::new(channel);
    for _ in 0..n_nodes {
        sim.attach(Controller::new(variant.clone()));
    }
    for k in 0..frames {
        let node = k % n_nodes;
        let frame = Frame::new(
            FrameId::new(0x100 + node as u16).unwrap(),
            &[node as u8, (k / n_nodes) as u8],
        )
        .unwrap();
        sim.node_mut(NodeId(node)).enqueue(frame);
        // Space the broadcasts out so queues drain.
        sim.run(250);
    }
    sim.run(4_000);
    sim.take_events()
}

#[test]
fn majorcan_soak_is_atomic_at_moderate_error_rates() {
    for seed in 0..3u64 {
        let report = soak(&MajorCan::proposed(), 4, 5e-3, seed);
        assert!(report.atomic_broadcast(), "seed {seed}: {report}");
    }
}

#[test]
fn minorcan_soak_keeps_at_most_once_but_can_lose_agreement() {
    // MinorCAN never double-delivers (its whole point); agreement can still
    // break via the two-flip pattern, so only AB3 is asserted here.
    for seed in 0..3u64 {
        let report = soak(&MinorCan, 4, 5e-3, seed);
        assert!(report.at_most_once.holds, "seed {seed}: {report}");
        assert!(report.non_triviality.holds);
        assert!(report.validity.holds, "seed {seed}: {report}");
    }
}

#[test]
fn standard_can_soak_shows_double_receptions_at_high_rate() {
    // At ber 1e-2 per EOF view, single flips at the last-but-one bit are
    // frequent enough that some run shows the Fig. 1b signature, while
    // few nodes reach the warning level and fall silent. (At 3e-2 every
    // node crashes before long; see the fail-silence test below.)
    let mut saw_double = false;
    for seed in 0..6u64 {
        let report = soak(&majorcan::can::StandardCan, 4, 1e-2, seed);
        if !report.at_most_once.holds {
            saw_double = true;
            break;
        }
    }
    assert!(saw_double, "expected at least one double reception");
}

/// A node the switch-off-at-warning policy crashes stays fail-silent: no
/// event of its own follows its `Crashed` event, on any link variant,
/// even at an EOF error rate that crashes nodes on every seed.
#[test]
fn crashed_nodes_stay_silent_under_heavy_eof_errors() {
    fn check<V: Variant>(variant: &V) {
        for seed in 0..6u64 {
            let events = soak_events(variant, 4, 3e-2, seed, 150);
            let mut crashes = 0;
            for node in (0..4).map(NodeId) {
                let mine: Vec<&CanEvent> = events
                    .iter()
                    .filter(|e| e.node == node)
                    .map(|e| &e.event)
                    .collect();
                if let Some(at) = mine.iter().position(|e| **e == CanEvent::Crashed) {
                    crashes += 1;
                    assert_eq!(
                        at + 1,
                        mine.len(),
                        "{} seed {seed}: {node} acted after crashing: {:?}",
                        variant.name(),
                        &mine[at..]
                    );
                }
            }
            assert!(
                crashes > 0,
                "{} seed {seed}: nothing crashed",
                variant.name()
            );
        }
    }
    check(&majorcan::can::StandardCan);
    check(&MinorCan);
    check(&MajorCan::proposed());
}

#[test]
fn total_order_holds_for_majorcan_under_concurrent_traffic() {
    // Concurrent senders + random EOF errors: MajorCAN's single bus-order
    // delivery must never diverge.
    let channel = ActiveAfter::new(
        12,
        FieldFiltered::eof_only(IndependentBitErrors::new(4e-3, 99)),
    );
    let mut sim = Simulator::new(channel);
    for _ in 0..5 {
        sim.attach(Controller::new(MajorCan::proposed()));
    }
    for k in 0..30usize {
        for node in 0..5 {
            let frame = Frame::new(
                FrameId::new(0x200 + node as u16).unwrap(),
                &[node as u8, k as u8],
            )
            .unwrap();
            sim.node_mut(NodeId(node)).enqueue(frame);
        }
        sim.run(700);
    }
    sim.run(5_000);
    let report = trace_from_can_events(sim.events(), 5).check();
    assert!(report.total_order.holds, "{report}");
    assert!(report.agreement.holds, "{report}");
}

#[test]
fn queues_drain_even_under_errors() {
    let channel = ActiveAfter::new(
        12,
        FieldFiltered::eof_only(IndependentBitErrors::new(1e-2, 7)),
    );
    let mut sim = Simulator::new(channel);
    for _ in 0..3 {
        sim.attach(Controller::new(MajorCan::proposed()));
    }
    for k in 0..20u16 {
        sim.node_mut(NodeId(0))
            .enqueue(Frame::new(FrameId::new(0x300 + k).unwrap(), &[k as u8]).unwrap());
    }
    sim.run(20_000);
    assert_eq!(sim.node(NodeId(0)).pending(), 0, "queue drained");
    let successes = sim
        .events()
        .iter()
        .filter(|e| matches!(e.event, CanEvent::TxSucceeded { .. }))
        .count();
    assert_eq!(successes, 20);
}
