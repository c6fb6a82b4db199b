//! Protocol shoot-out: goodput and wire cost of every Atomic/Reliable
//! Broadcast option on the same bus.
//!
//! Link-layer variants (CAN, MinorCAN, MajorCAN_5) carry a periodic
//! workload and are measured in delivered messages and bus bits per
//! message; the higher-level protocols (EDCAN, RELCAN, TOTCAN) run their
//! full machinery over standard CAN. This regenerates the substance of the
//! paper's Section 6 comparison: MajorCAN pays a handful of bits where the
//! higher-level protocols pay whole frames.
//!
//! ```text
//! cargo run --release --example protocol_shootout
//! ```

use majorcan::can::CanEvent;
use majorcan::hlp::HlpEvent;
use majorcan::testbed::{ProtocolSpec, Testbed};
use majorcan::workload::{plan_periodic_load, BusStats, Workload};

const NODES: usize = 4;
const HORIZON: u64 = 60_000;

fn shootout_link(protocol: ProtocolSpec) -> (usize, f64) {
    let mut tb = Testbed::builder(protocol).nodes(NODES).build();
    let sources = plan_periodic_load(NODES, 0.5, 110);
    let mut releases = Vec::new();
    for s in &sources {
        releases.extend(s.releases(HORIZON - 2_000));
    }
    let mut workload = Workload::new(releases);
    let sent = tb.drive_source(&mut workload, HORIZON);
    let stats = BusStats::from_events(tb.can_events());
    assert_eq!(
        sent, stats.successes,
        "fault-free bus completes the schedule"
    );
    (stats.successes, stats.bits_per_message())
}

fn shootout_hlp(protocol: ProtocolSpec) -> (usize, usize) {
    let mut tb = Testbed::builder(protocol).nodes(NODES).build();
    // One broadcast per node per round, several rounds.
    let rounds = 30;
    for round in 0..rounds {
        for n in 0..NODES {
            tb.broadcast(n, &[round as u8, n as u8]);
        }
        tb.run(3_000);
    }
    tb.run(6_000);
    let messages = rounds * NODES;
    let frames = tb
        .hlp_events()
        .iter()
        .filter(|e| matches!(&e.event, HlpEvent::Link(CanEvent::TxSucceeded { .. })))
        .count();
    (messages, frames)
}

fn main() {
    println!("Link-layer variants, periodic workload at 50% offered load:");
    println!(
        "{:<12} | {:>10} | {:>14}",
        "protocol", "delivered", "bus bits/msg"
    );
    for protocol in [
        ProtocolSpec::StandardCan,
        ProtocolSpec::MinorCan,
        ProtocolSpec::MajorCan { m: 5 },
    ] {
        let result = shootout_link(protocol);
        println!(
            "{:<12} | {:>10} | {:>14.1}",
            protocol.to_string(),
            result.0,
            result.1
        );
    }

    println!("\nHigher-level protocols over standard CAN (failure-free):");
    println!(
        "{:<12} | {:>10} | {:>14} | {:>16}",
        "protocol", "messages", "frames on bus", "frames/message"
    );
    for protocol in [
        ProtocolSpec::EdCan,
        ProtocolSpec::RelCan,
        ProtocolSpec::TotCan,
    ] {
        let (messages, frames) = shootout_hlp(protocol);
        println!(
            "{:<12} | {:>10} | {:>14} | {:>16.2}",
            protocol.to_string(),
            messages,
            frames,
            frames as f64 / messages as f64
        );
    }
    println!(
        "\nMajorCAN_5's worst case costs 11 extra BITS per message; every higher-level\n\
         protocol costs at least one extra FRAME (≥ 50 bits) — the paper's Section 6 point."
    );
}
