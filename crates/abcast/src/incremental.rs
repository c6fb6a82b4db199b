//! The incremental windowed AB1–AB5 checker.
//!
//! [`check_trace`](crate::check_trace) retains every delivery order in the
//! trace — O(trace) memory, fine for single-transmission episodes but
//! unusable for soak runs sustaining millions of frames. [`WindowedChecker`]
//! consumes the same [`AbEvent`] vocabulary *online* and keeps only:
//!
//! * the **live window** — per-message state for messages that saw an event
//!   within the last `window` bits (bounded by in-flight traffic, not trace
//!   length);
//! * **signature aggregates** — retired messages folded into maps keyed by
//!   their correct-set-independent signatures (origin plus delivery
//!   bitmask), so the final crash set can be applied at [`finish`] time
//!   without remembering individual messages (crash-retroactivity: a crash
//!   *after* a message retires still excuses or creates its violations);
//! * **pairwise order state** — per ordered node pair `(a, b)`, the maximum
//!   first-delivery rank at `b` over messages common to both. A message's
//!   rank at the node that just completed the pair is maximal by
//!   construction, so an order inversion exists iff its rank at the *other*
//!   node is below that maximum. This detects every AB5 inversion the
//!   moment its fourth delivery happens, in O(nodes) per delivery and
//!   O(nodes²) total memory.
//!
//! # Window precondition
//!
//! Verdicts are bit-identical to the post-hoc checker **iff** no message
//! identity recurs after retiring, i.e. `window` exceeds the longest gap
//! between consecutive events of one message (queueing between
//! retransmission attempts included). Traffic generated with unique
//! `(origin, seq)` payload tags satisfies the no-recurrence half by
//! construction; [`WindowedChecker::max_observed_gap`] reports the largest
//! intra-message gap actually seen so soak runs can assert the margin.
//!
//! A recurrence splits the message's history into halves judged
//! independently, which can both mint violations the post-hoc checker
//! never sees *and* hide ones it does (the revived entry carries no rank
//! state, so an AB5 inversion straddling the split is invisible to the
//! pairwise order bookkeeping). Worse, the naive gap statistic is blind to
//! exactly this failure: the gap is computed against the *revived* entry's
//! `last_event`, which is the revival itself, so it reads as zero. The
//! checker therefore remembers every message retired *incomplete* (missing
//! deliveries, or delivered without a broadcast) in a suspect map; an event
//! on a suspect proves the precondition failed, and is counted in
//! [`OnlineReport::window_exceeded`] and folded into the gap statistic.
//! Messages retired complete need no entry: their only possible revival is
//! a re-delivery, which the fresh entry surfaces as a spurious delivery —
//! miscategorized, but never a silent `Consistent`. Suspects are bounded by
//! the number of incomplete retirements, each already a violation-in-waiting,
//! so healthy soaks hold none.

use crate::adapter::ab_event_of;
use crate::{AbEvent, MsgId, MsgMap, Report, Verdict};
use majorcan_can::CanEvent;
use majorcan_sim::TimedEvent;
use std::collections::BTreeMap;

/// Most nodes a windowed checker supports (node sets are `u64` bitmasks).
pub const MAX_NODES: usize = 64;

/// `node`'s bit in a node set; a node past [`MAX_NODES`] has none.
fn node_bit(node: usize) -> u64 {
    if node < MAX_NODES {
        1 << node
    } else {
        0
    }
}

/// Per-message state while the message is inside the live window.
#[derive(Debug, Clone)]
struct LiveMsg {
    /// First broadcaster, if any broadcast was seen.
    origin: Option<usize>,
    /// Nodes that delivered at least once.
    delivered: u64,
    /// Nodes that delivered more than once.
    duplicated: u64,
    /// First-delivery rank per node (`u64::MAX` = not delivered there).
    ranks: Box<[u64]>,
    /// Time of the message's most recent event.
    last_event: u64,
}

impl LiveMsg {
    fn new(n_nodes: usize, at: u64) -> LiveMsg {
        LiveMsg {
            origin: None,
            delivered: 0,
            duplicated: 0,
            ranks: vec![u64::MAX; n_nodes].into_boxed_slice(),
            last_event: at,
        }
    }
}

/// Retired messages folded into signature → count aggregates. Evaluated
/// against the *final* correct set at [`WindowedChecker::finish`].
#[derive(Debug, Clone, Default)]
struct Retired {
    /// `(origin, delivered mask)` → broadcast messages with that signature.
    broadcast: BTreeMap<(usize, u64), u64>,
    /// `delivered mask` → messages (broadcast or not) delivered somewhere.
    delivered: BTreeMap<u64, u64>,
    /// `delivered mask` → never-broadcast messages delivered somewhere.
    spurious: BTreeMap<u64, u64>,
    /// `duplicated mask` → messages with double deliveries at those nodes.
    duplicated: BTreeMap<u64, u64>,
    /// Messages retired in total.
    messages: u64,
}

impl Retired {
    fn fold(&mut self, msg: &LiveMsg) {
        self.messages += 1;
        if let Some(origin) = msg.origin {
            *self.broadcast.entry((origin, msg.delivered)).or_insert(0) += 1;
        }
        if msg.delivered != 0 {
            *self.delivered.entry(msg.delivered).or_insert(0) += 1;
            if msg.origin.is_none() {
                *self.spurious.entry(msg.delivered).or_insert(0) += 1;
            }
        }
        if msg.duplicated != 0 {
            *self.duplicated.entry(msg.duplicated).or_insert(0) += 1;
        }
    }
}

/// Final (or provisional) verdict of a windowed check, with violation
/// counts matching the post-hoc [`Report`]'s violation-list lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineReport {
    /// Messages the checker saw (live plus retired).
    pub messages: u64,
    /// AB1 — broadcast messages by a correct origin that reached no
    /// correct node (one per message).
    pub validity_violations: u64,
    /// AB2 — messages delivered to some but not all correct nodes (one
    /// per message; the inconsistent message omissions).
    pub imo_messages: u64,
    /// AB3 — `(node, message)` pairs with more than one delivery at a
    /// correct node.
    pub double_deliveries: u64,
    /// AB4 — `(node, message)` pairs where a correct node delivered a
    /// message nobody broadcast.
    pub spurious_deliveries: u64,
    /// AB5 — `true` when two correct nodes delivered some message pair in
    /// opposite orders.
    pub order_violated: bool,
    /// Events that arrived for a message already retired *incomplete* —
    /// i.e. per-message gaps exceeding the window. Nonzero means the
    /// window precondition failed: the message's history was split across
    /// retirements, and the counts above may be wrong in **either**
    /// direction (split halves can mint spurious violations *or* hide an
    /// AB5 inversion whose rank state was retired). Callers must treat
    /// the verdict as unreliable and rerun with a larger window.
    pub window_exceeded: u64,
}

impl OnlineReport {
    /// `true` iff all five Atomic Broadcast properties hold.
    pub fn atomic_broadcast(&self) -> bool {
        self.reliable_broadcast() && !self.order_violated
    }

    /// `true` iff the window precondition held throughout, making this
    /// report bit-identical to the post-hoc checker's. A report that is
    /// not exact proves nothing — least of all consistency.
    pub fn exact(&self) -> bool {
        self.window_exceeded == 0
    }

    /// `true` iff AB1–AB4 hold (Reliable Broadcast).
    pub fn reliable_broadcast(&self) -> bool {
        self.validity_violations == 0
            && self.imo_messages == 0
            && self.double_deliveries == 0
            && self.spurious_deliveries == 0
    }

    /// Worst-broken-property summary, graded like [`Report::verdict`].
    pub fn verdict(&self) -> Verdict {
        if self.validity_violations > 0 {
            Verdict::ValidityLoss
        } else if self.imo_messages > 0 {
            Verdict::Omission
        } else if self.double_deliveries > 0 {
            Verdict::DoubleReception
        } else {
            Verdict::Consistent
        }
    }

    /// `true` iff this online verdict agrees with a post-hoc [`Report`]
    /// on every property *and* every violation count — the equivalence the
    /// windowed checker's property test asserts.
    pub fn matches(&self, report: &Report) -> bool {
        self.validity_violations == report.validity.violations.len() as u64
            && self.imo_messages == report.imo_messages.len() as u64
            && self.double_deliveries == report.double_deliveries.len() as u64
            && self.spurious_deliveries == report.non_triviality.violations.len() as u64
            && self.order_violated != report.total_order.holds
            && self.verdict() == report.verdict()
    }
}

/// The windowed online checker. See the module docs for the algorithm and
/// the window precondition.
#[derive(Debug, Clone)]
pub struct WindowedChecker {
    n_nodes: usize,
    window: u64,
    now: u64,
    next_sweep: u64,
    crashed: u64,
    /// Messages inside the window. Hashed for the per-event lookup; the
    /// sweep retires in `MsgId` order, so the first violation flagged
    /// does not depend on the map's layout (`finish` returns only
    /// aggregates, which no order changes).
    live: MsgMap<LiveMsg>,
    peak_live: usize,
    max_observed_gap: u64,
    /// Next first-delivery rank per node.
    next_rank: Vec<u64>,
    /// `[a * n + b]` = max first-delivery rank at `b` over messages common
    /// to `a` and `b` (`u64::MAX` = none yet).
    max_common: Vec<u64>,
    /// `[a * n + b]`, `a < b`: the pair delivered some message pair in
    /// opposite orders.
    inverted: Vec<bool>,
    retired: Retired,
    /// First violation observed online, against the then-current crash
    /// set: `(time, description)`.
    first_violation: Option<(u64, String)>,
    /// Messages retired *incomplete* (missing deliveries or never
    /// broadcast) → their last event time. A later event on one of these
    /// proves its intra-message gap exceeded the window, which the plain
    /// `max_observed_gap` bookkeeping cannot see (the revived entry is
    /// fresh, so the gap computes as zero). Bounded by the number of
    /// incomplete retirements — each already a violation-in-waiting — so
    /// healthy soaks keep this empty.
    suspects: BTreeMap<MsgId, u64>,
    /// Suspect revivals seen (window-precondition failures).
    window_exceeded: u64,
    /// First revival: `(message, gap)`.
    first_exceedance: Option<(MsgId, u64)>,
}

impl WindowedChecker {
    /// A checker over `n_nodes` nodes retiring messages quiet for more
    /// than `window` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` exceeds [`MAX_NODES`] or `window` is zero.
    pub fn new(n_nodes: usize, window: u64) -> WindowedChecker {
        assert!(n_nodes <= MAX_NODES, "bitmask checker capped at 64 nodes");
        assert!(window > 0, "window must be positive");
        WindowedChecker {
            n_nodes,
            window,
            now: 0,
            next_sweep: window,
            crashed: 0,
            live: MsgMap::default(),
            peak_live: 0,
            max_observed_gap: 0,
            next_rank: vec![0; n_nodes],
            max_common: vec![u64::MAX; n_nodes * n_nodes],
            inverted: vec![false; n_nodes * n_nodes],
            retired: Retired::default(),
            first_violation: None,
            suspects: BTreeMap::new(),
            window_exceeded: 0,
            first_exceedance: None,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The retirement window in bits.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Messages currently inside the live window.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Most messages ever live at once — the checker's actual memory
    /// high-water mark, independent of how many frames streamed through.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Largest gap observed between consecutive events of one message,
    /// including gaps proven by a suspect revival. Must stay below
    /// [`window`](Self::window) for the window precondition to hold.
    pub fn max_observed_gap(&self) -> u64 {
        self.max_observed_gap
    }

    /// Number of window-precondition failures detected so far (events on
    /// messages already retired incomplete).
    pub fn window_exceeded(&self) -> u64 {
        self.window_exceeded
    }

    /// The first detected window exceedance, as `(message, gap)`.
    pub fn first_exceedance(&self) -> Option<&(MsgId, u64)> {
        self.first_exceedance.as_ref()
    }

    /// The first violation flagged online, as `(time, description)`,
    /// judged against the crash set known at that moment.
    pub fn first_violation(&self) -> Option<&(u64, String)> {
        self.first_violation.as_ref()
    }

    fn flag(&mut self, at: u64, describe: impl FnOnce() -> String) {
        if self.first_violation.is_none() {
            self.first_violation = Some((at, describe()));
        }
    }

    /// Checks an incoming event's message against the suspect map. A hit
    /// means the message recurred after retiring incomplete: the window
    /// precondition failed and the verdict is no longer trustworthy.
    fn note_revival(&mut self, at: u64, msg: &MsgId) {
        if self.suspects.is_empty() {
            return;
        }
        if let Some(last) = self.suspects.remove(msg) {
            let gap = at - last;
            self.window_exceeded += 1;
            self.max_observed_gap = self.max_observed_gap.max(gap);
            if self.first_exceedance.is_none() {
                self.first_exceedance = Some((msg.clone(), gap));
            }
            let window = self.window;
            let text = format!(
                "{msg} recurred {gap} bits after its last event, exceeding the \
                 {window}-bit window; the windowed verdict is unreliable"
            );
            self.flag(at, || text);
        }
    }

    /// Consumes one timestamped event. Timestamps should be
    /// non-decreasing; a stale timestamp is clamped to the current time.
    /// Deliveries and crashes of nodes outside `0..n_nodes` are ignored,
    /// as [`TraceAccumulator::push`](crate::TraceAccumulator::push)
    /// ignores them.
    #[inline]
    pub fn push(&mut self, at: u64, event: &AbEvent) {
        let at = at.max(self.now);
        self.now = at;
        match *event {
            AbEvent::Broadcast { node, ref msg } => self.broadcast(at, node, msg),
            AbEvent::Deliver { node, ref msg } if node < self.n_nodes => {
                self.deliver(at, node, msg)
            }
            AbEvent::Crash { node } if node < self.n_nodes => self.crashed |= 1 << node,
            _ => {}
        }
        self.peak_live = self.peak_live.max(self.live.len());
        if at >= self.next_sweep {
            self.sweep(at);
        }
    }

    fn broadcast(&mut self, at: u64, node: usize, msg: &MsgId) {
        self.note_revival(at, msg);
        let entry = self
            .live
            .entry(msg.clone())
            .or_insert_with(|| LiveMsg::new(self.n_nodes, at));
        if entry.origin.is_none() {
            entry.origin = Some(node);
        }
        self.max_observed_gap = self.max_observed_gap.max(at - entry.last_event);
        entry.last_event = at;
    }

    /// Consumes a whole stamped event (convenience over [`push`](Self::push)).
    pub fn push_stamped(&mut self, stamped: &crate::Stamped) {
        self.push(stamped.at, &stamped.event);
    }

    fn deliver(&mut self, at: u64, node: usize, msg: &MsgId) {
        self.note_revival(at, msg);
        let n = self.n_nodes;
        let bit = 1u64 << node;
        let entry = self
            .live
            .entry(msg.clone())
            .or_insert_with(|| LiveMsg::new(n, at));
        self.max_observed_gap = self.max_observed_gap.max(at - entry.last_event);
        entry.last_event = at;
        if entry.delivered & bit != 0 {
            // A repeat delivery: AB3 territory, no new rank.
            entry.duplicated |= bit;
            if self.crashed & bit == 0 {
                let text = format!("n{node} delivered {msg} more than once");
                self.flag(at, || text);
            }
            return;
        }
        entry.delivered |= bit;
        let rank = self.next_rank[node];
        self.next_rank[node] += 1;
        entry.ranks[node] = rank;
        // The message just became common to `node` and every other node
        // that already delivered it. Its rank at `node` is the largest
        // rank `node` has assigned, so an inversion with some earlier
        // common message exists iff that message outranks this one at the
        // *other* node — i.e. iff the pair's max common rank there exceeds
        // this message's rank there.
        let mut inversions: Vec<usize> = Vec::new();
        for other in 0..n {
            if other == node || entry.delivered & (1 << other) == 0 {
                continue;
            }
            let rank_at_other = entry.ranks[other];
            let max_at_other = self.max_common[node * n + other];
            if max_at_other != u64::MAX && max_at_other > rank_at_other {
                let (a, b) = (node.min(other), node.max(other));
                if !self.inverted[a * n + b] {
                    self.inverted[a * n + b] = true;
                    if self.crashed & ((1 << a) | (1 << b)) == 0 {
                        inversions.push(other);
                    }
                }
            }
            let fwd = &mut self.max_common[node * n + other];
            *fwd = if *fwd == u64::MAX {
                rank_at_other
            } else {
                (*fwd).max(rank_at_other)
            };
            let rev = &mut self.max_common[other * n + node];
            *rev = if *rev == u64::MAX {
                rank
            } else {
                (*rev).max(rank)
            };
        }
        for other in inversions {
            let text = format!("n{node} and n{other} delivered {msg} in inverted order");
            self.flag(at, || text);
        }
    }

    /// Retires every message quiet for more than the window, in `MsgId`
    /// order.
    fn sweep(&mut self, now: u64) {
        let window = self.window;
        let mut stale: Vec<(MsgId, LiveMsg)> = self
            .live
            .extract_if(|_, m| now.saturating_sub(m.last_event) > window)
            .collect();
        stale.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (id, msg) in &stale {
            self.retire(now, id, msg);
        }
        // Sweeping a quarter-window apart keeps the scan amortized O(1)
        // per event while bounding retirement latency.
        self.next_sweep = now + (window / 4).max(1);
    }

    fn retire(&mut self, now: u64, id: &MsgId, msg: &LiveMsg) {
        self.retired.fold(msg);
        // An incomplete message could see more events; if one arrives the
        // window precondition failed. Complete messages can only recur as
        // a re-delivery, which the fresh entry flags as spurious anyway.
        if msg.origin.is_none() || msg.delivered != self.all_nodes() {
            self.suspects.insert(id.clone(), msg.last_event);
        }
        // Provisional online flagging against the crash set known now;
        // the exact verdict against the final crash set comes at finish().
        let correct = self.correct_mask();
        if let Some(origin) = msg.origin {
            if correct & node_bit(origin) != 0 && msg.delivered & correct == 0 {
                let text = format!("{id} broadcast by n{origin} but delivered to no correct node");
                self.flag(now, || text);
            }
        }
        if msg.delivered & correct != 0 && correct & !msg.delivered != 0 {
            let text = format!("{id} delivered to some correct nodes but not all");
            self.flag(now, || text);
        }
        if msg.origin.is_none() && msg.delivered & correct != 0 {
            let text = format!("{id} delivered but never broadcast");
            self.flag(now, || text);
        }
    }

    /// Every node of the system, `0..n_nodes`.
    fn all_nodes(&self) -> u64 {
        if self.n_nodes == MAX_NODES {
            u64::MAX
        } else {
            (1 << self.n_nodes) - 1
        }
    }

    fn correct_mask(&self) -> u64 {
        self.all_nodes() & !self.crashed
    }

    /// Evaluates the aggregates against a correct-node mask.
    fn evaluate(&self, correct: u64) -> OnlineReport {
        let retired = &self.retired;
        let mut validity = 0;
        for (&(origin, delivered), &count) in &retired.broadcast {
            if correct & node_bit(origin) != 0 && delivered & correct == 0 {
                validity += count;
            }
        }
        let mut imo = 0;
        for (&delivered, &count) in &retired.delivered {
            if delivered & correct != 0 && correct & !delivered != 0 {
                imo += count;
            }
        }
        let mut double = 0;
        for (&duplicated, &count) in &retired.duplicated {
            double += count * (duplicated & correct).count_ones() as u64;
        }
        let mut spurious = 0;
        for (&delivered, &count) in &retired.spurious {
            spurious += count * (delivered & correct).count_ones() as u64;
        }
        let n = self.n_nodes;
        let mut order_violated = false;
        for a in 0..n {
            for b in a + 1..n {
                if self.inverted[a * n + b]
                    && correct & ((1 << a) | (1 << b)) == (1 << a) | (1 << b)
                {
                    order_violated = true;
                }
            }
        }
        OnlineReport {
            messages: retired.messages,
            validity_violations: validity,
            imo_messages: imo,
            double_deliveries: double,
            spurious_deliveries: spurious,
            order_violated,
            window_exceeded: self.window_exceeded,
        }
    }

    /// Retires everything still live and returns the exact verdict against
    /// the final crash set — bit-identical to the post-hoc checker under
    /// the window precondition.
    pub fn finish(mut self) -> OnlineReport {
        let now = self.now;
        let live = std::mem::take(&mut self.live);
        for (id, msg) in &live {
            self.retire(now, id, msg);
        }
        self.evaluate(self.correct_mask())
    }

    /// A provisional verdict over everything *retired so far*, judged
    /// against the crash set known so far. Messages still in flight are
    /// not judged (they may yet complete), so a clean provisional report
    /// can still turn into a violation — but a violation seen here is one
    /// the post-hoc checker will see too unless a later crash excuses it.
    pub fn provisional(&self) -> OnlineReport {
        self.evaluate(self.correct_mask())
    }
}

/// Streaming equivalent of [`trace_from_can_events`]: maps one controller
/// event into the windowed checker through the same link-layer reading.
/// Retransmission `TxStarted`s are absorbed by the live window instead of
/// a seen-set, which is what keeps the adapter O(1) in trace length.
///
/// [`trace_from_can_events`]: crate::trace_from_can_events
impl WindowedChecker {
    /// Consumes one raw CAN controller event.
    pub fn push_can(&mut self, e: &TimedEvent<CanEvent>) {
        if let Some(event) = ab_event_of(e.node.index(), &e.event) {
            self.push(e.at, &event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbTrace;

    fn msg(n: u16) -> MsgId {
        MsgId::new(n, vec![n as u8])
    }

    fn run(trace: &AbTrace, window: u64) -> OnlineReport {
        let mut c = WindowedChecker::new(trace.n_nodes(), window);
        for s in trace.events() {
            c.push_stamped(s);
        }
        c.finish()
    }

    fn agree(trace: &AbTrace, window: u64) {
        let online = run(trace, window);
        let posthoc = trace.check();
        assert!(
            online.matches(&posthoc),
            "online {online:?} vs post-hoc {posthoc:?}"
        );
    }

    #[test]
    fn clean_broadcast_is_atomic() {
        let m = msg(1);
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, m.clone());
        for n in 0..3 {
            t.deliver(10, n, m.clone());
        }
        let r = run(&t, 100);
        assert!(r.atomic_broadcast());
        assert_eq!(r.messages, 1);
        agree(&t, 100);
    }

    #[test]
    fn validity_and_crash_retroactivity() {
        // Broadcast never delivered: violation — unless the origin
        // crashes, even long after the message retired.
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, msg(1));
        let mut c = WindowedChecker::new(3, 10);
        for s in t.events() {
            c.push_stamped(s);
        }
        // Push the clock far past retirement with an unrelated message.
        c.push(
            1_000,
            &AbEvent::Broadcast {
                node: 1,
                msg: msg(2),
            },
        );
        assert_eq!(c.live_len(), 1, "first message retired");
        assert!(c.first_violation().is_some(), "flagged at retirement");
        let mut crashed = c.clone();
        crashed.push(2_000, &AbEvent::Crash { node: 0 });
        crashed.push(2_000, &AbEvent::Crash { node: 1 });
        assert_eq!(crashed.finish().validity_violations, 0, "crash excuses");
        // Without the crash the violation stands (msg 2 also undelivered).
        assert_eq!(c.finish().validity_violations, 2);
    }

    #[test]
    fn agreement_violation_counted_after_retirement() {
        let m = msg(1);
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, m.clone());
        t.deliver(9, 0, m.clone());
        t.deliver(10, 2, m.clone());
        let r = run(&t, 50);
        assert_eq!(r.imo_messages, 1);
        assert_eq!(r.verdict(), Verdict::Omission);
        agree(&t, 50);
        // The missing node crashing later excuses the omission.
        let mut t2 = t.clone();
        t2.crash(11, 1);
        assert_eq!(run(&t2, 50).imo_messages, 0);
        agree(&t2, 50);
    }

    #[test]
    fn double_delivery_detected_the_moment_it_happens() {
        let m = msg(1);
        let mut c = WindowedChecker::new(2, 100);
        c.push(
            0,
            &AbEvent::Broadcast {
                node: 0,
                msg: m.clone(),
            },
        );
        c.push(
            5,
            &AbEvent::Deliver {
                node: 1,
                msg: m.clone(),
            },
        );
        assert!(c.first_violation().is_none());
        c.push(
            9,
            &AbEvent::Deliver {
                node: 1,
                msg: m.clone(),
            },
        );
        let (at, text) = c.first_violation().expect("flagged online").clone();
        assert_eq!(at, 9);
        assert!(text.contains("more than once"), "{text}");
    }

    #[test]
    fn order_inversion_detected_and_matches_posthoc() {
        let (a, b) = (msg(1), msg(2));
        let mut t = AbTrace::new(3);
        t.broadcast(0, 0, a.clone());
        t.broadcast(0, 0, b.clone());
        t.deliver(1, 0, a.clone());
        t.deliver(2, 0, b.clone());
        t.deliver(10, 1, a.clone());
        t.deliver(11, 1, b.clone());
        t.deliver(10, 2, b.clone());
        t.deliver(11, 2, a.clone());
        let r = run(&t, 100);
        assert!(r.order_violated);
        assert!(r.reliable_broadcast());
        agree(&t, 100);
        // An inversion involving a crashed node does not count.
        let mut t2 = t.clone();
        t2.crash(12, 2);
        assert!(!run(&t2, 100).order_violated);
        agree(&t2, 100);
    }

    #[test]
    fn order_inversion_flagged_at_fourth_delivery() {
        let (a, b) = (msg(1), msg(2));
        let mut c = WindowedChecker::new(2, 1000);
        c.push(
            1,
            &AbEvent::Deliver {
                node: 0,
                msg: a.clone(),
            },
        );
        c.push(
            2,
            &AbEvent::Deliver {
                node: 0,
                msg: b.clone(),
            },
        );
        c.push(
            3,
            &AbEvent::Deliver {
                node: 1,
                msg: b.clone(),
            },
        );
        assert!(c
            .first_violation()
            .map(|(_, t)| !t.contains("inverted"))
            .unwrap_or(true));
        c.push(
            4,
            &AbEvent::Deliver {
                node: 1,
                msg: a.clone(),
            },
        );
        let (at, text) = c.first_violation().expect("inversion flagged").clone();
        assert_eq!(at, 4);
        assert!(text.contains("inverted order"), "{text}");
    }

    #[test]
    fn window_boundary_keeps_slow_messages_alive() {
        // Events exactly `window` apart must NOT retire the message in
        // between (retirement needs strictly more than `window` of quiet).
        let m = msg(1);
        let mut c = WindowedChecker::new(2, 100);
        c.push(
            0,
            &AbEvent::Broadcast {
                node: 0,
                msg: m.clone(),
            },
        );
        c.push(
            100,
            &AbEvent::Deliver {
                node: 0,
                msg: m.clone(),
            },
        );
        c.push(
            200,
            &AbEvent::Deliver {
                node: 1,
                msg: m.clone(),
            },
        );
        assert_eq!(c.live_len(), 1);
        assert_eq!(c.max_observed_gap(), 100);
        let r = c.finish();
        assert!(r.atomic_broadcast(), "{r:?}");
        // One bit past the window, the message retires incomplete.
        let mut c = WindowedChecker::new(2, 100);
        c.push(
            0,
            &AbEvent::Broadcast {
                node: 0,
                msg: m.clone(),
            },
        );
        c.push(
            50,
            &AbEvent::Deliver {
                node: 0,
                msg: m.clone(),
            },
        );
        c.push(
            500,
            &AbEvent::Broadcast {
                node: 1,
                msg: msg(2),
            },
        );
        assert_eq!(c.live_len(), 1, "slow message retired");
    }

    #[test]
    fn a_sweep_retires_in_msg_id_order() {
        // Sixteen messages broadcast in descending order and never
        // delivered retire in one sweep: the first violation names the
        // lowest, whatever the live map's layout.
        let mut c = WindowedChecker::new(2, 10);
        for n in (1..=16u16).rev() {
            c.push(
                0,
                &AbEvent::Broadcast {
                    node: 0,
                    msg: msg(n),
                },
            );
        }
        c.push(
            100,
            &AbEvent::Broadcast {
                node: 1,
                msg: msg(99),
            },
        );
        assert_eq!(c.live_len(), 1, "the sixteen retired");
        let (at, text) = c.first_violation().expect("flagged at retirement");
        assert_eq!(*at, 100);
        assert!(text.starts_with(&format!("{} ", msg(1))), "{text}");
    }

    #[test]
    fn memory_stays_bounded_over_a_long_stream() {
        // 10k sequential messages, each completing promptly: the live set
        // never grows with stream length.
        let mut c = WindowedChecker::new(3, 64);
        for i in 0..10_000u32 {
            let m = MsgId::new(0x100, i.to_be_bytes());
            let at = i as u64 * 16;
            c.push(
                at,
                &AbEvent::Broadcast {
                    node: 0,
                    msg: m.clone(),
                },
            );
            for n in 0..3 {
                c.push(
                    at + 8,
                    &AbEvent::Deliver {
                        node: n,
                        msg: m.clone(),
                    },
                );
            }
        }
        assert!(c.peak_live() <= 8, "peak_live = {}", c.peak_live());
        let r = c.finish();
        assert_eq!(r.messages, 10_000);
        assert!(r.atomic_broadcast());
    }

    #[test]
    fn spurious_delivery_counted_per_node() {
        let mut t = AbTrace::new(3);
        t.deliver(1, 0, msg(9));
        t.deliver(2, 1, msg(9));
        let r = run(&t, 50);
        assert_eq!(r.spurious_deliveries, 2);
        agree(&t, 50);
    }

    #[test]
    fn provisional_ignores_messages_still_in_flight() {
        let m = msg(1);
        let mut c = WindowedChecker::new(3, 1_000);
        c.push(
            0,
            &AbEvent::Broadcast {
                node: 0,
                msg: m.clone(),
            },
        );
        c.push(
            5,
            &AbEvent::Deliver {
                node: 0,
                msg: m.clone(),
            },
        );
        let p = c.provisional();
        assert_eq!(p.imo_messages, 0, "in-flight message not judged");
        assert_eq!(c.finish().imo_messages, 1, "finish judges it");
    }

    #[test]
    fn nodes_outside_the_system_are_ignored_as_the_reference_ignores_them() {
        // A two-node system hears from node 3, past its own nodes, and
        // from nodes 64 and 200, past any node set: a's origin is outside,
        // b is delivered only outside, c is delivered to n0 alone. Each
        // message's events lie 100 bits after the last message's.
        let (a, b, c) = (msg(1), msg(2), msg(3));
        let broadcast = |node, msg: &MsgId| AbEvent::Broadcast {
            node,
            msg: msg.clone(),
        };
        let deliver = |node, msg: &MsgId| AbEvent::Deliver {
            node,
            msg: msg.clone(),
        };
        let events = [
            (0, broadcast(3, &a)),
            (1, deliver(0, &a)),
            (2, deliver(3, &a)),
            (3, deliver(1, &a)),
            (100, broadcast(0, &b)),
            (101, deliver(64, &b)),
            (102, deliver(200, &b)),
            (200, broadcast(64, &c)),
            (201, deliver(0, &c)),
            (300, AbEvent::Crash { node: 3 }),
            (301, AbEvent::Crash { node: 64 }),
            (302, AbEvent::Crash { node: 200 }),
        ];
        let mut reference = crate::TraceAccumulator::new(2);
        for (_, event) in &events {
            reference.push(event);
        }
        let posthoc = reference.finish();
        assert_eq!(
            (posthoc.validity.violations.len(), &posthoc.imo_messages[..]),
            (1, &[c][..]),
            "b reached no correct node, c missed n1: {posthoc:?}"
        );
        // A 50-bit window retires each message when the next one starts;
        // a 1,000-bit one keeps them all live until `finish`.
        for window in [50, 1_000] {
            let mut checker = WindowedChecker::new(2, window);
            for (at, event) in &events {
                checker.push(*at, event);
            }
            let online = checker.finish();
            assert!(
                online.matches(&posthoc) && online.exact(),
                "window {window}: online {online:?} vs post-hoc {posthoc:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "64 nodes")]
    fn rejects_too_many_nodes() {
        WindowedChecker::new(65, 10);
    }

    #[test]
    fn revival_after_incomplete_retirement_is_detected() {
        let m = msg(1);
        let mut c = WindowedChecker::new(2, 100);
        c.push(
            0,
            &AbEvent::Broadcast {
                node: 0,
                msg: m.clone(),
            },
        );
        c.push(
            5,
            &AbEvent::Deliver {
                node: 0,
                msg: m.clone(),
            },
        );
        // Unrelated complete message far later forces the sweep that
        // retires m incomplete.
        let filler = msg(2);
        c.push(
            400,
            &AbEvent::Broadcast {
                node: 0,
                msg: filler.clone(),
            },
        );
        for n in 0..2 {
            c.push(
                401,
                &AbEvent::Deliver {
                    node: n,
                    msg: filler.clone(),
                },
            );
        }
        assert_eq!(c.live_len(), 1, "m retired, filler live");
        assert_eq!(c.window_exceeded(), 0);
        // The late delivery revives m: the 495-bit gap — invisible to the
        // naive statistic, which would score the fresh entry as gap 0 —
        // must be proven by the suspect map.
        c.push(
            500,
            &AbEvent::Deliver {
                node: 1,
                msg: m.clone(),
            },
        );
        assert_eq!(c.window_exceeded(), 1);
        let (id, gap) = c.first_exceedance().expect("recorded").clone();
        assert_eq!(id, m);
        assert_eq!(gap, 495);
        assert!(c.max_observed_gap() >= 495, "gap folded into the statistic");
        assert!(c.first_violation().is_some(), "surfaced online");
        let r = c.finish();
        assert_eq!(r.window_exceeded, 1);
        assert!(!r.exact());
    }

    #[test]
    fn split_inversion_is_invisible_but_report_admits_inexactness() {
        // The latent bug this guards against: an AB5 inversion whose rank
        // state retired mid-history is invisible to the windowed order
        // bookkeeping, and before the suspect map the report would carry
        // no hint that it might be wrong.
        let (m1, m2, m3) = (msg(1), msg(2), msg(3));
        let mut t = AbTrace::new(2);
        t.broadcast(0, 0, m1.clone());
        t.deliver(1, 0, m1.clone());
        t.broadcast(2, 0, m2.clone());
        t.deliver(3, 0, m2.clone());
        t.deliver(4, 1, m2.clone());
        // Quiet stretch > window: m1 retires incomplete, m2 complete.
        t.broadcast(300, 0, m3.clone());
        t.deliver(301, 0, m3.clone());
        t.deliver(302, 1, m3.clone());
        // n1 finally delivers m1 after m2: post-hoc sees the inversion
        // (n0 ordered m1 before m2, n1 the reverse).
        t.deliver(500, 1, m1.clone());
        let posthoc = t.check();
        assert!(!posthoc.total_order.holds, "post-hoc sees the inversion");
        let online = run(&t, 100);
        assert!(
            !online.order_violated,
            "the split halves hide the inversion from the online checker"
        );
        assert_eq!(online.window_exceeded, 1, "...but the split is detected");
        assert!(!online.exact());
        assert!(!online.matches(&posthoc));
    }

    #[test]
    fn complete_retirement_is_not_a_suspect() {
        // A message retired complete never enters the suspect map, so the
        // map stays empty over a healthy stream (memory bound) — and a
        // re-delivery of a completed message still surfaces as spurious.
        let m = msg(1);
        let mut c = WindowedChecker::new(2, 50);
        c.push(
            0,
            &AbEvent::Broadcast {
                node: 0,
                msg: m.clone(),
            },
        );
        for n in 0..2 {
            c.push(
                1,
                &AbEvent::Deliver {
                    node: n,
                    msg: m.clone(),
                },
            );
        }
        // Push past retirement with a second complete message.
        let filler = msg(2);
        c.push(
            200,
            &AbEvent::Broadcast {
                node: 0,
                msg: filler.clone(),
            },
        );
        for n in 0..2 {
            c.push(
                201,
                &AbEvent::Deliver {
                    node: n,
                    msg: filler.clone(),
                },
            );
        }
        assert_eq!(c.live_len(), 1, "m retired complete");
        c.push(
            400,
            &AbEvent::Deliver {
                node: 1,
                msg: m.clone(),
            },
        );
        assert_eq!(c.window_exceeded(), 0, "complete messages are not suspects");
        let r = c.finish();
        assert!(r.exact());
        assert!(
            r.spurious_deliveries > 0,
            "the recurrence still shows up as a violation: {r:?}"
        );
    }
}
