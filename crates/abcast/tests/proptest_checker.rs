//! Property-based tests of the AB1–AB5 checker: metamorphic properties
//! that must hold for arbitrary traces, and a differential test against
//! the ordered-map accumulator the dense one replaced.

use majorcan_abcast::{AbEvent, AbTrace, MsgId, PropertyResult, Report, TraceAccumulator};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The checker's previous accumulator, kept verbatim (ordered maps, all
/// pairs compared) as the reference the dense [`TraceAccumulator`] must
/// match report for report, violation strings and their order included.
#[derive(Debug, Clone, Default)]
struct ReferenceAccumulator {
    n_nodes: usize,
    crashed: BTreeSet<usize>,
    broadcasts: BTreeMap<MsgId, usize>,
    // Per node, per msg: delivery count; plus each node's first-delivery
    // order for the total-order check.
    delivery_counts: BTreeMap<(usize, MsgId), usize>,
    delivery_order: BTreeMap<usize, Vec<MsgId>>,
}

fn violated(violations: Vec<String>) -> PropertyResult {
    PropertyResult {
        holds: violations.is_empty(),
        violations,
    }
}

impl ReferenceAccumulator {
    fn new(n_nodes: usize) -> ReferenceAccumulator {
        ReferenceAccumulator {
            n_nodes,
            ..ReferenceAccumulator::default()
        }
    }

    fn push(&mut self, event: &AbEvent) {
        match event {
            AbEvent::Broadcast { node, msg } => {
                self.broadcasts.entry(msg.clone()).or_insert(*node);
            }
            AbEvent::Deliver { node, msg } => {
                let count = self
                    .delivery_counts
                    .entry((*node, msg.clone()))
                    .or_insert(0);
                *count += 1;
                if *count == 1 {
                    self.delivery_order
                        .entry(*node)
                        .or_default()
                        .push(msg.clone());
                }
            }
            AbEvent::Crash { node } => {
                self.crashed.insert(*node);
            }
        }
    }

    fn finish(&self) -> Report {
        let correct: BTreeSet<usize> = (0..self.n_nodes)
            .filter(|n| !self.crashed.contains(n))
            .collect();
        let broadcasts = &self.broadcasts;
        let delivery_counts = &self.delivery_counts;
        let delivery_order = &self.delivery_order;

        // AB1 Validity: broadcast by correct node ⇒ delivered by some
        // correct node.
        let mut validity = Vec::new();
        for (msg, origin) in broadcasts {
            if !correct.contains(origin) {
                continue;
            }
            let delivered_somewhere = correct
                .iter()
                .any(|n| delivery_counts.contains_key(&(*n, msg.clone())));
            if !delivered_somewhere {
                validity.push(format!(
                    "{msg} broadcast by correct n{origin} but never delivered to any correct node"
                ));
            }
        }

        // AB2 Agreement: delivered by one correct node ⇒ delivered by all.
        let mut agreement = Vec::new();
        let mut imo_messages = Vec::new();
        let delivered_msgs: BTreeSet<MsgId> = delivery_counts
            .keys()
            .filter(|(n, _)| correct.contains(n))
            .map(|(_, m)| m.clone())
            .collect();
        for msg in &delivered_msgs {
            let missing: Vec<usize> = correct
                .iter()
                .copied()
                .filter(|n| !delivery_counts.contains_key(&(*n, msg.clone())))
                .collect();
            if !missing.is_empty() {
                imo_messages.push(msg.clone());
                agreement.push(format!(
                    "{msg} delivered to some correct nodes but not to {}",
                    missing
                        .iter()
                        .map(|n| format!("n{n}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }

        // AB3 At-most-once.
        let mut at_most_once = Vec::new();
        let mut double_deliveries = Vec::new();
        for ((node, msg), count) in delivery_counts {
            if correct.contains(node) && *count > 1 {
                double_deliveries.push((*node, msg.clone()));
                at_most_once.push(format!("n{node} delivered {msg} {count} times"));
            }
        }

        // AB4 Non-triviality.
        let mut non_triviality = Vec::new();
        for (node, msg) in delivery_counts.keys() {
            if correct.contains(node) && !broadcasts.contains_key(msg) {
                non_triviality.push(format!("n{node} delivered {msg}, which nobody broadcast"));
            }
        }
        non_triviality.dedup();

        // AB5 Total order: pairwise consistency of first-delivery orders.
        let mut total_order = Vec::new();
        let correct_vec: Vec<usize> = correct.iter().copied().collect();
        for (i, &a) in correct_vec.iter().enumerate() {
            for &b in &correct_vec[i + 1..] {
                let empty = Vec::new();
                let oa = delivery_order.get(&a).unwrap_or(&empty);
                let ob = delivery_order.get(&b).unwrap_or(&empty);
                let pos_a: BTreeMap<&MsgId, usize> =
                    oa.iter().enumerate().map(|(i, m)| (m, i)).collect();
                let pos_b: BTreeMap<&MsgId, usize> =
                    ob.iter().enumerate().map(|(i, m)| (m, i)).collect();
                let common: Vec<&MsgId> = oa.iter().filter(|m| pos_b.contains_key(m)).collect();
                for (x, m1) in common.iter().enumerate() {
                    for m2 in &common[x + 1..] {
                        let fwd_a = pos_a[*m1] < pos_a[*m2];
                        let fwd_b = pos_b[*m1] < pos_b[*m2];
                        if fwd_a != fwd_b {
                            total_order.push(format!(
                                "n{a} delivers {m1} before {m2}, n{b} the other way around"
                            ));
                        }
                    }
                }
            }
        }

        Report {
            validity: violated(validity),
            agreement: violated(agreement),
            at_most_once: violated(at_most_once),
            non_triviality: violated(non_triviality),
            total_order: violated(total_order),
            imo_messages,
            double_deliveries,
        }
    }
}

/// A message from a pool small enough that traces repeat deliveries,
/// deliver never-broadcast messages and invert orders often; payloads
/// of different lengths exercise the `MsgId` order past the channel.
fn arb_pooled_msg() -> impl Strategy<Value = MsgId> {
    (0u16..4, 0usize..3).prop_map(|(ch, len)| MsgId::new(ch, vec![0xA5; len]))
}

/// Random events over nodes `0..=n`. Checked over fewer nodes, the
/// nodes past the system's own are outside it, and no property may read
/// their deliveries or crashes.
fn arb_events(n: usize) -> impl Strategy<Value = Vec<AbEvent>> {
    let event = (0u8..20, 0usize..=n, arb_pooled_msg()).prop_map(|(kind, node, msg)| match kind {
        0..=3 => AbEvent::Broadcast { node, msg },
        19 => AbEvent::Crash { node },
        _ => AbEvent::Deliver { node, msg },
    });
    proptest::collection::vec(event, 0..80)
}

fn arb_msg() -> impl Strategy<Value = MsgId> {
    (0u16..8, proptest::collection::vec(any::<u8>(), 0..3))
        .prop_map(|(ch, payload)| MsgId::new(ch, payload))
}

/// A small random trace over `n` nodes.
fn arb_trace(n: usize) -> impl Strategy<Value = AbTrace> {
    let event = (0u8..4, 0usize..n, arb_msg(), 0u64..1000);
    proptest::collection::vec(event, 0..40).prop_map(move |events| {
        let mut t = AbTrace::new(n);
        for (kind, node, msg, at) in events {
            match kind {
                0 => {
                    t.broadcast(at, node, msg);
                }
                1 | 2 => {
                    t.deliver(at, node, msg);
                }
                _ => {
                    t.crash(at, node);
                }
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dense_accumulator_reports_exactly_what_the_reference_does(
        n in 1usize..=5,
        events in arb_events(5),
    ) {
        let mut dense = TraceAccumulator::new(n);
        let mut reference = ReferenceAccumulator::new(n);
        for event in &events {
            dense.push(event);
            reference.push(event);
        }
        prop_assert_eq!(dense.finish(), reference.finish());
    }

    #[test]
    fn checker_never_panics(trace in arb_trace(4)) {
        let _ = trace.check();
    }

    #[test]
    fn atomic_implies_reliable(trace in arb_trace(4)) {
        let report = trace.check();
        if report.atomic_broadcast() {
            prop_assert!(report.reliable_broadcast());
        }
    }

    #[test]
    fn crashing_every_node_satisfies_everything_vacuously(trace in arb_trace(3)) {
        let mut t = trace.clone();
        for n in 0..3 {
            t.crash(2_000, n);
        }
        let report = t.check();
        prop_assert!(report.atomic_broadcast(), "{}", report);
    }

    #[test]
    fn completing_deliveries_repairs_agreement(trace in arb_trace(4)) {
        // Metamorphic repair: deliver every message already delivered by a
        // correct node to EVERY correct node — Agreement must then hold.
        let mut t = trace.clone();
        let correct = t.correct_nodes();
        let delivered: Vec<MsgId> = correct
            .iter()
            .flat_map(|&n| t.deliveries_of(n).into_iter().cloned().collect::<Vec<_>>())
            .collect();
        for msg in delivered {
            for &n in &correct {
                t.deliver(5_000, n, msg.clone());
            }
        }
        let report = t.check();
        prop_assert!(report.agreement.holds, "{}", report);
    }

    #[test]
    fn broadcasting_everything_repairs_non_triviality(trace in arb_trace(4)) {
        let mut t = AbTrace::new(4);
        // Prepend a broadcast for every message the original trace touches.
        for s in trace.events() {
            if let majorcan_abcast::AbEvent::Deliver { msg, .. } = &s.event {
                t.broadcast(0, 0, msg.clone());
            }
        }
        t.extend(trace.events().iter().cloned());
        prop_assert!(t.check().non_triviality.holds);
    }

    #[test]
    fn identical_delivery_sequences_have_total_order(
        msgs in proptest::collection::vec(arb_msg(), 0..10),
        n in 2usize..5,
    ) {
        // Same first-delivery sequence at every node ⇒ AB5 holds.
        let mut t = AbTrace::new(n);
        for m in &msgs {
            t.broadcast(0, 0, m.clone());
        }
        for node in 0..n {
            for (i, m) in msgs.iter().enumerate() {
                t.deliver(10 + i as u64, node, m.clone());
            }
        }
        let report = t.check();
        prop_assert!(report.total_order.holds, "{}", report);
        prop_assert!(report.agreement.holds);
    }

    #[test]
    fn single_node_systems_are_trivially_ordered(trace in arb_trace(1)) {
        let report = trace.check();
        prop_assert!(report.total_order.holds);
        prop_assert!(report.agreement.holds);
    }
}

/// The checker must not go quadratic: 5,000 messages delivered by four
/// nodes in one order, except that node 3 swaps one adjacent pair, are
/// checked in well under a second (the all-pairs reference compared
/// 12.5 M message pairs per node pair here).
#[test]
fn a_long_trace_checks_in_linear_time() {
    const MSGS: u16 = 5_000;
    let msg = |k: u16| MsgId::new(k % 0x800, vec![(k / 0x800) as u8]);
    let mut trace = AbTrace::new(4);
    for k in 0..MSGS {
        trace.broadcast(u64::from(k), 0, msg(k));
    }
    for node in 0..4 {
        for k in 0..MSGS {
            let k = match (node, k) {
                (3, 2_000) => 2_001,
                (3, 2_001) => 2_000,
                _ => k,
            };
            trace.deliver(u64::from(MSGS + k), node, msg(k));
        }
    }
    let start = Instant::now();
    let report = trace.check();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "checking 5,000 messages took {took:?}"
    );
    assert!(report.reliable_broadcast(), "{report}");
    assert_eq!(
        report.total_order.violations,
        (0..3)
            .map(|a| format!(
                "n{a} delivers {} before {}, n3 the other way around",
                msg(2_000),
                msg(2_001)
            ))
            .collect::<Vec<_>>()
    );
}
