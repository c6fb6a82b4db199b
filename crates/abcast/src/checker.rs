//! The AB1–AB5 property checker.
//!
//! The paper (Section 2) adopts the Atomic Broadcast definition of
//! Hadzilacos & Toueg under benign (crash/omission/timing) failures:
//!
//! * **AB1 Validity** — a message broadcast by a correct node is eventually
//!   delivered to a correct node.
//! * **AB2 Agreement** — a message delivered to a correct node is delivered
//!   to all correct nodes.
//! * **AB3 At-most-once** — no correct node delivers a message twice.
//! * **AB4 Non-triviality** — every delivered message was broadcast.
//! * **AB5 Total order** — any two messages delivered at two correct nodes
//!   are delivered in the same order at both.
//!
//! The checker is purely trace-based: it never looks inside a protocol, so
//! the same verdict machinery judges raw CAN, MinorCAN, MajorCAN and the
//! higher-level protocols.

use crate::{AbEvent, AbTrace, MsgId, MsgMap};
use std::fmt;

/// Outcome of one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyResult {
    /// `true` if no violation was found.
    pub holds: bool,
    /// Human-readable violation descriptions (empty when the property
    /// holds).
    pub violations: Vec<String>,
}

impl PropertyResult {
    fn ok() -> PropertyResult {
        PropertyResult {
            holds: true,
            violations: Vec::new(),
        }
    }

    fn violated(violations: Vec<String>) -> PropertyResult {
        PropertyResult {
            holds: violations.is_empty(),
            violations,
        }
    }
}

impl fmt::Display for PropertyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds {
            f.write_str("holds")
        } else {
            write!(f, "VIOLATED ({} case(s))", self.violations.len())
        }
    }
}

/// The full AB1–AB5 verdict for a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// AB1 — Validity.
    pub validity: PropertyResult,
    /// AB2 — Agreement.
    pub agreement: PropertyResult,
    /// AB3 — At-most-once delivery.
    pub at_most_once: PropertyResult,
    /// AB4 — Non-triviality.
    pub non_triviality: PropertyResult,
    /// AB5 — Total order.
    pub total_order: PropertyResult,
    /// Messages suffering an inconsistent message omission: delivered by
    /// some correct node but missed by at least one other correct node.
    pub imo_messages: Vec<MsgId>,
    /// `(node, message)` pairs delivered more than once.
    pub double_deliveries: Vec<(usize, MsgId)>,
}

/// A one-word summary of a [`Report`], graded by severity: the verdict is
/// the *worst* broken property (validity before agreement before
/// at-most-once). Campaign experiments key counters on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// All checked properties held.
    Consistent,
    /// AB3 broken: someone delivered a message twice.
    DoubleReception,
    /// AB2 broken: a correct node was left without a delivered message
    /// (an inconsistent message omission).
    Omission,
    /// AB1 broken: a correct transmitter's message reached nobody.
    ValidityLoss,
}

impl Verdict {
    /// Stable lower-case token (used as a counter-key segment in campaign
    /// JSONL artifacts — do not change spellings).
    pub fn token(&self) -> &'static str {
        match self {
            Verdict::Consistent => "consistent",
            Verdict::DoubleReception => "double",
            Verdict::Omission => "omission",
            Verdict::ValidityLoss => "validity",
        }
    }

    /// Parses what [`Verdict::token`] produced.
    pub fn from_token(token: &str) -> Option<Verdict> {
        Some(match token {
            "consistent" => Verdict::Consistent,
            "double" => Verdict::DoubleReception,
            "omission" => Verdict::Omission,
            "validity" => Verdict::ValidityLoss,
            _ => return None,
        })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Consistent => "consistent",
            Verdict::DoubleReception => "double reception",
            Verdict::Omission => "OMISSION",
            Verdict::ValidityLoss => "VALIDITY LOSS",
        })
    }
}

impl Report {
    /// Summarizes the report into a single [`Verdict`] (worst broken
    /// property wins).
    pub fn verdict(&self) -> Verdict {
        if !self.validity.holds {
            Verdict::ValidityLoss
        } else if !self.agreement.holds {
            Verdict::Omission
        } else if !self.at_most_once.holds {
            Verdict::DoubleReception
        } else {
            Verdict::Consistent
        }
    }

    /// `true` iff all five Atomic Broadcast properties hold.
    pub fn atomic_broadcast(&self) -> bool {
        self.validity.holds
            && self.agreement.holds
            && self.at_most_once.holds
            && self.non_triviality.holds
            && self.total_order.holds
    }

    /// `true` iff the trace satisfies Reliable Broadcast (AB1–AB4, i.e.
    /// everything except total order) — what EDCAN and RELCAN provide.
    pub fn reliable_broadcast(&self) -> bool {
        self.validity.holds
            && self.agreement.holds
            && self.at_most_once.holds
            && self.non_triviality.holds
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AB1 Validity:         {}", self.validity)?;
        writeln!(f, "AB2 Agreement:        {}", self.agreement)?;
        writeln!(f, "AB3 At-most-once:     {}", self.at_most_once)?;
        writeln!(f, "AB4 Non-triviality:   {}", self.non_triviality)?;
        writeln!(f, "AB5 Total order:      {}", self.total_order)?;
        write!(
            f,
            "=> {}",
            if self.atomic_broadcast() {
                "ATOMIC BROADCAST"
            } else if self.reliable_broadcast() {
                "reliable broadcast only (no total order)"
            } else {
                "NOT atomic broadcast"
            }
        )
    }
}

/// Post-hoc accumulator behind [`check_trace`]: consumes [`AbEvent`]s one
/// at a time and produces the detailed [`Report`] at the end.
///
/// This is the reference semantics of the checker. It retains the full
/// per-node delivery orders (O(trace) memory) so it can enumerate every
/// violating message pair; the windowed
/// [`WindowedChecker`](crate::WindowedChecker) consumes the same event
/// vocabulary in O(live messages) memory and is property-tested to agree
/// with this accumulator's verdicts.
///
/// Each distinct message gets a dense index on first sight, and every
/// per-message fact is a vector slot under it, so a push costs one
/// lookup. [`finish`](TraceAccumulator::finish) reports in `MsgId` order
/// and enumerates total-order violations in time proportional to the
/// deliveries plus the violations found, so a long consistent trace
/// checks in linear time.
#[derive(Debug, Clone, Default)]
pub struct TraceAccumulator {
    n_nodes: usize,
    /// Per node: crashed at some point in the trace.
    crashed: Vec<bool>,
    /// The distinct messages, in first-seen order: a message's position
    /// here is its dense index.
    msgs: Vec<MsgId>,
    /// Message → its dense index.
    index: MsgMap<usize>,
    /// Per message: the node of its first broadcast, if it had one.
    origin: Vec<Option<usize>>,
    /// Per message, per node (`msg * n_nodes + node`): delivery count.
    counts: Vec<u32>,
    /// Per node: its first deliveries, in order, as message indices.
    order: Vec<Vec<usize>>,
}

impl TraceAccumulator {
    /// An empty accumulator over `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> TraceAccumulator {
        TraceAccumulator {
            n_nodes,
            crashed: vec![false; n_nodes],
            order: vec![Vec::new(); n_nodes],
            ..TraceAccumulator::default()
        }
    }

    /// Consumes one event. Deliveries and crashes of nodes outside
    /// `0..n_nodes` are ignored: such a node is never correct, so no
    /// property reads them. Only a message's first broadcast counts: its
    /// node is the origin AB1 holds to account.
    pub fn push(&mut self, event: &AbEvent) {
        match *event {
            AbEvent::Broadcast { node, ref msg } => {
                let m = self.intern(msg);
                self.origin[m].get_or_insert(node);
            }
            AbEvent::Deliver { node, ref msg } if node < self.n_nodes => {
                let m = self.intern(msg);
                let count = &mut self.counts[m * self.n_nodes + node];
                *count += 1;
                if *count == 1 {
                    self.order[node].push(m);
                }
            }
            AbEvent::Crash { node } if node < self.n_nodes => self.crashed[node] = true,
            _ => {}
        }
    }

    /// The dense index of `msg`, assigned on first sight.
    fn intern(&mut self, msg: &MsgId) -> usize {
        let fresh = self.msgs.len();
        let m = *self.index.entry(msg.clone()).or_insert(fresh);
        if m == fresh {
            self.msgs.push(msg.clone());
            self.origin.push(None);
            self.counts.resize(self.counts.len() + self.n_nodes, 0);
        }
        m
    }

    /// Runs the AB1–AB5 property checks over everything pushed so far.
    pub fn finish(&self) -> Report {
        let n = self.n_nodes;
        let correct: Vec<usize> = (0..n).filter(|&node| !self.crashed[node]).collect();
        let names = &self.msgs;
        // Every property reports in `MsgId` order.
        let mut sorted: Vec<usize> = (0..names.len()).collect();
        sorted.sort_unstable_by_key(|&m| &names[m]);
        let count = |node: usize, m: usize| self.counts[m * n + node];
        let delivered_by_correct = |m: usize| correct.iter().any(|&node| count(node, m) > 0);

        // AB1 Validity: broadcast by correct node ⇒ delivered by some
        // correct node.
        let mut validity = Vec::new();
        for &m in &sorted {
            let Some(origin) = self.origin[m] else {
                continue;
            };
            if origin < n && !self.crashed[origin] && !delivered_by_correct(m) {
                validity.push(format!(
                    "{} broadcast by correct n{origin} but never delivered to any correct node",
                    names[m]
                ));
            }
        }

        // AB2 Agreement: delivered by one correct node ⇒ delivered by all.
        let mut agreement = Vec::new();
        let mut imo_messages = Vec::new();
        for &m in &sorted {
            if !delivered_by_correct(m) {
                continue;
            }
            let missing: Vec<String> = correct
                .iter()
                .filter(|&&node| count(node, m) == 0)
                .map(|node| format!("n{node}"))
                .collect();
            if !missing.is_empty() {
                imo_messages.push(names[m].clone());
                agreement.push(format!(
                    "{} delivered to some correct nodes but not to {}",
                    names[m],
                    missing.join(", ")
                ));
            }
        }

        // AB3 At-most-once and AB4 Non-triviality, by node, then message.
        let mut at_most_once = Vec::new();
        let mut double_deliveries = Vec::new();
        let mut non_triviality = Vec::new();
        for &node in &correct {
            for &m in &sorted {
                let times = count(node, m);
                if times > 1 {
                    double_deliveries.push((node, names[m].clone()));
                    at_most_once.push(format!("n{node} delivered {} {times} times", names[m]));
                }
                if times > 0 && self.origin[m].is_none() {
                    non_triviality.push(format!(
                        "n{node} delivered {}, which nobody broadcast",
                        names[m]
                    ));
                }
            }
        }

        // AB5 Total order: pairwise consistency of first-delivery orders.
        let total_order = self.order_violations(&correct);

        Report {
            validity: PropertyResult::violated(validity),
            agreement: PropertyResult::violated(agreement),
            at_most_once: PropertyResult::violated(at_most_once),
            non_triviality: PropertyResult::violated(non_triviality),
            total_order: PropertyResult::violated(total_order),
            imo_messages,
            double_deliveries,
        }
    }

    /// The AB5 violations between every pair of `correct` nodes. Walking
    /// the messages both nodes delivered in `a`'s order, a pair is
    /// inverted exactly when `b` delivered the later one first.
    fn order_violations(&self, correct: &[usize]) -> Vec<String> {
        let mut violations = Vec::new();
        if self.msgs.len() < 2 {
            return violations;
        }
        let mut pos_b = vec![usize::MAX; self.msgs.len()];
        let (mut common, mut at_b) = (Vec::new(), Vec::new());
        for (i, &a) in correct.iter().enumerate() {
            for &b in &correct[i + 1..] {
                for (p, &m) in self.order[b].iter().enumerate() {
                    pos_b[m] = p;
                }
                common.clear();
                at_b.clear();
                for &m in &self.order[a] {
                    if pos_b[m] != usize::MAX {
                        common.push(m);
                        at_b.push(pos_b[m]);
                    }
                }
                for_each_inversion(&at_b, |x, y| {
                    violations.push(format!(
                        "n{a} delivers {} before {}, n{b} the other way around",
                        self.msgs[common[x]], self.msgs[common[y]]
                    ));
                });
                for &m in &self.order[b] {
                    pos_b[m] = usize::MAX;
                }
            }
        }
        violations
    }
}

/// Calls `pair(x, y)` for every inverted pair of `values` (`x < y` and
/// `values[x] > values[y]`) in lexicographic order, in
/// O((values + pairs) · log values) time: a min-tree over the values
/// lets each `x` descend only into ranges holding a smaller value.
fn for_each_inversion(values: &[usize], mut pair: impl FnMut(usize, usize)) {
    if values.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    let leaves = values.len().next_power_of_two();
    let mut tree = vec![usize::MAX; 2 * leaves];
    tree[leaves..leaves + values.len()].copy_from_slice(values);
    for node in (1..leaves).rev() {
        tree[node] = tree[2 * node].min(tree[2 * node + 1]);
    }
    /// Reports every leaf of `node` (covering `lo..hi`) at or after `from`
    /// whose value is below `bound`, left to right.
    fn below(
        tree: &[usize],
        (node, lo, hi): (usize, usize, usize),
        from: usize,
        bound: usize,
        hit: &mut impl FnMut(usize),
    ) {
        if hi <= from || tree[node] >= bound {
            return;
        }
        if hi - lo == 1 {
            hit(lo);
            return;
        }
        let mid = (lo + hi) / 2;
        below(tree, (2 * node, lo, mid), from, bound, hit);
        below(tree, (2 * node + 1, mid, hi), from, bound, hit);
    }
    for (x, &value) in values.iter().enumerate() {
        below(&tree, (1, 0, leaves), x + 1, value, &mut |y| pair(x, y));
    }
}

/// Checks AB1–AB5 over `trace`. See the module docs for the property
/// definitions; "correct" means never crashed within the trace.
///
/// This is the post-hoc wrapper around [`TraceAccumulator`]: the whole
/// trace is replayed into the accumulator and checked once at the end.
pub fn check_trace(trace: &AbTrace) -> Report {
    let mut acc = TraceAccumulator::new(trace.n_nodes());
    for stamped in trace.events() {
        acc.push(&stamped.event);
    }
    acc.finish()
}

impl PropertyResult {
    /// A passing result (used by tests of downstream crates).
    pub fn passing() -> PropertyResult {
        PropertyResult::ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(n: u16) -> MsgId {
        MsgId::new(n, vec![n as u8])
    }

    #[test]
    fn clean_broadcast_satisfies_all() {
        let m = msg(1);
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, m.clone());
        for n in 0..3 {
            t.deliver(10, n, m.clone());
        }
        let r = t.check();
        assert!(r.atomic_broadcast(), "{r}");
        assert!(r.imo_messages.is_empty());
    }

    #[test]
    fn empty_trace_is_trivially_atomic() {
        assert!(AbTrace::new(5).check().atomic_broadcast());
    }

    #[test]
    fn validity_violation_detected() {
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, msg(1)); // never delivered anywhere
        let r = t.check();
        assert!(!r.validity.holds);
        assert!(r.validity.violations[0].contains("never delivered"));
    }

    #[test]
    fn validity_excused_for_crashed_broadcaster() {
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, msg(1));
        t.crash(5, 0);
        let r = t.check();
        assert!(r.validity.holds, "a crashed broadcaster owes nothing");
    }

    #[test]
    fn agreement_violation_is_an_imo() {
        // The Fig. 1c / Fig. 3a shape: delivered at n2, missed at n1.
        let m = msg(1);
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, m.clone());
        t.deliver(9, 0, m.clone());
        t.deliver(10, 2, m.clone());
        let r = t.check();
        assert!(!r.agreement.holds);
        assert_eq!(r.imo_messages, vec![m]);
        assert!(!r.atomic_broadcast());
    }

    #[test]
    fn agreement_ignores_crashed_nodes() {
        let m = msg(1);
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, m.clone());
        t.deliver(9, 0, m.clone());
        t.deliver(10, 2, m.clone());
        t.crash(11, 1); // the missing node crashed: no violation
        assert!(t.check().agreement.holds);
    }

    #[test]
    fn double_delivery_breaks_at_most_once() {
        // The Fig. 1b shape: Y delivers twice.
        let m = msg(1);
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, m.clone());
        t.deliver(5, 0, m.clone());
        t.deliver(9, 1, m.clone());
        t.deliver(10, 2, m.clone());
        t.deliver(20, 2, m.clone());
        let r = t.check();
        assert!(!r.at_most_once.holds);
        assert_eq!(r.double_deliveries, vec![(2, m)]);
        assert!(r.agreement.holds, "everyone got it — only AB3 broken");
    }

    #[test]
    fn non_triviality_catches_spurious_delivery() {
        let mut t = AbTrace::new(2);
        t.deliver(1, 0, msg(9));
        let r = t.check();
        assert!(!r.non_triviality.holds);
        assert!(r.non_triviality.violations[0].contains("nobody broadcast"));
    }

    #[test]
    fn total_order_violation_detected() {
        // The CAN5 shape: n1 sees A,B — n2 sees B,A.
        let a = msg(1);
        let b = msg(2);
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, a.clone());
        t.broadcast(0, 0, b.clone());
        t.deliver(1, 0, a.clone());
        t.deliver(2, 0, b.clone());
        t.deliver(10, 1, a.clone());
        t.deliver(11, 1, b.clone());
        t.deliver(10, 2, b.clone());
        t.deliver(11, 2, a.clone());
        let r = t.check();
        assert!(!r.total_order.holds);
        assert!(r.reliable_broadcast(), "AB1-AB4 still hold");
        assert!(!r.atomic_broadcast());
    }

    #[test]
    fn total_order_with_disjoint_deliveries_holds() {
        let a = msg(1);
        let b = msg(2);
        let mut t = AbTrace::new(2);
        t.broadcast(0, 0, a.clone());
        t.broadcast(0, 1, b.clone());
        t.deliver(1, 0, a.clone());
        t.deliver(1, 1, b.clone());
        // Disjoint delivery sets: order is vacuously consistent, but
        // agreement fails (each message missing at the other node).
        let r = t.check();
        assert!(r.total_order.holds);
        assert!(!r.agreement.holds);
    }

    #[test]
    fn double_delivery_uses_first_occurrence_for_order() {
        // n1: A, B, A(dup). n2: A, B. Orders agree on first deliveries.
        let a = msg(1);
        let b = msg(2);
        let mut t = AbTrace::new(2);
        t.broadcast(0, 0, a.clone());
        t.broadcast(0, 0, b.clone());
        for n in 0..2 {
            t.deliver(1, n, a.clone());
            t.deliver(2, n, b.clone());
        }
        t.deliver(3, 0, a.clone());
        let r = t.check();
        assert!(r.total_order.holds);
        assert!(!r.at_most_once.holds);
    }

    #[test]
    fn report_display_readable() {
        let mut t = AbTrace::new(2);
        let m = msg(1);
        t.broadcast(0, 0, m.clone());
        t.deliver(1, 0, m.clone());
        t.deliver(1, 1, m);
        let text = t.check().to_string();
        assert!(text.contains("AB1 Validity:         holds"));
        assert!(text.contains("ATOMIC BROADCAST"));
    }
}
