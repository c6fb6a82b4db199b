//! Broadcast/delivery traces: the protocol-agnostic input of the checker.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A CAN data field's byte cap, which bounds every message payload.
const PAYLOAD_CAP: usize = 8;

/// Identifies a broadcast message across the whole network.
///
/// Two deliveries are "the same message" iff their `MsgId`s are equal; the
/// identifier is structural (channel number plus payload bytes) so that a
/// retransmitted frame carries the same identity — which is exactly what
/// makes double receptions visible to the checker.
///
/// The payload is held inline, zero-padded to 8 bytes, so a `MsgId` owns
/// no heap data. The derived order compares the channel, then the padded
/// bytes, then the length: exactly the order of the `(channel, payload)`
/// pair, since padding sorts a payload before its extensions and the
/// length tells trailing zero bytes from padding.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgId {
    /// Logical channel (for CAN traces, the 11-bit frame identifier).
    pub channel: u16,
    bytes: [u8; PAYLOAD_CAP],
    len: u8,
}

impl MsgId {
    /// Creates a message identity from channel and payload.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is longer than 8 bytes, a CAN data field.
    pub fn new(channel: u16, payload: impl AsRef<[u8]>) -> MsgId {
        let payload = payload.as_ref();
        assert!(
            payload.len() <= PAYLOAD_CAP,
            "a message payload holds at most {PAYLOAD_CAP} bytes, not {}",
            payload.len()
        );
        let mut bytes = [0; PAYLOAD_CAP];
        bytes[..payload.len()].copy_from_slice(payload);
        MsgId {
            channel,
            bytes,
            len: payload.len() as u8,
        }
    }

    /// Message payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl Hash for MsgId {
    /// Two words: channel and length, then the padded payload.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((u64::from(self.channel) << 8) | u64::from(self.len));
        state.write_u64(u64::from_le_bytes(self.bytes));
    }
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsgId")
            .field("channel", &self.channel)
            .field("payload", &self.payload())
            .finish()
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#05x}#", self.channel)?;
        for b in self.payload() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A hash map keyed by [`MsgId`], hashed with [`MsgHasher`]: the message
/// indexes of both checkers and the soak's latency tracker.
pub type MsgMap<V> = HashMap<MsgId, V, BuildHasherDefault<MsgHasher>>;

/// A small fixed multiply-rotate hasher for [`MsgMap`] keys: each word is
/// added and multiplied by an odd constant, and `finish` rotates the
/// well-mixed high bits down to where the table picks its bucket. It has
/// no random seed, so a map's layout is the same on every run, and it is
/// not meant to resist keys chosen to collide.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsgHasher(u64);

impl Hasher for MsgHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One observable protocol action, in the vocabulary of the Atomic
/// Broadcast definition (Hadzilacos & Toueg, as adapted by the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbEvent {
    /// `node` initiated the broadcast of `msg`.
    Broadcast {
        /// Originating node index.
        node: usize,
        /// Message identity.
        msg: MsgId,
    },
    /// `msg` was delivered to the host at `node`.
    Deliver {
        /// Delivering node index.
        node: usize,
        /// Message identity.
        msg: MsgId,
    },
    /// `node` crashed (fail silent); it is not *correct* from here on.
    Crash {
        /// Crashing node index.
        node: usize,
    },
}

impl AbEvent {
    /// The node the event concerns.
    pub fn node(&self) -> usize {
        match self {
            AbEvent::Broadcast { node, .. }
            | AbEvent::Deliver { node, .. }
            | AbEvent::Crash { node } => *node,
        }
    }
}

impl fmt::Display for AbEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbEvent::Broadcast { node, msg } => write!(f, "n{node} broadcast {msg}"),
            AbEvent::Deliver { node, msg } => write!(f, "n{node} deliver {msg}"),
            AbEvent::Crash { node } => write!(f, "n{node} crash"),
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// Bit time (or any monotone clock) of the event.
    pub at: u64,
    /// The event.
    pub event: AbEvent,
}

/// An ordered log of broadcast/delivery/crash events over `n_nodes` nodes.
///
/// # Examples
///
/// ```
/// use majorcan_abcast::{AbTrace, MsgId};
///
/// let m = MsgId::new(0x42, vec![1]);
/// let mut t = AbTrace::new(3);
/// t.broadcast(0, 0, m.clone());
/// t.deliver(10, 0, m.clone());
/// t.deliver(10, 1, m.clone());
/// t.deliver(10, 2, m);
/// assert!(t.check().atomic_broadcast());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AbTrace {
    events: Vec<Stamped>,
    n_nodes: usize,
}

impl AbTrace {
    /// An empty trace over `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> AbTrace {
        AbTrace {
            events: Vec::new(),
            n_nodes,
        }
    }

    /// Number of nodes in the system.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The recorded events, in insertion (time) order.
    pub fn events(&self) -> &[Stamped] {
        &self.events
    }

    /// Records a broadcast.
    pub fn broadcast(&mut self, at: u64, node: usize, msg: MsgId) -> &mut Self {
        self.push(at, AbEvent::Broadcast { node, msg })
    }

    /// Records a delivery.
    pub fn deliver(&mut self, at: u64, node: usize, msg: MsgId) -> &mut Self {
        self.push(at, AbEvent::Deliver { node, msg })
    }

    /// Records a crash.
    pub fn crash(&mut self, at: u64, node: usize) -> &mut Self {
        self.push(at, AbEvent::Crash { node })
    }

    /// Appends an arbitrary event.
    pub fn push(&mut self, at: u64, event: AbEvent) -> &mut Self {
        debug_assert!(event.node() < self.n_nodes, "node out of range");
        self.events.push(Stamped { at, event });
        self
    }

    /// Nodes that never crashed — the *correct* nodes of the AB definition.
    pub fn correct_nodes(&self) -> Vec<usize> {
        let crashed: Vec<usize> = self
            .events
            .iter()
            .filter_map(|s| match s.event {
                AbEvent::Crash { node } => Some(node),
                _ => None,
            })
            .collect();
        (0..self.n_nodes).filter(|n| !crashed.contains(n)).collect()
    }

    /// Messages delivered by `node`, as `(first-delivery index, count)` per
    /// message, in delivery order.
    pub fn deliveries_of(&self, node: usize) -> Vec<&MsgId> {
        self.events
            .iter()
            .filter_map(|s| match &s.event {
                AbEvent::Deliver { node: n, msg } if *n == node => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Runs the full AB1–AB5 check. Convenience for
    /// [`check_trace`](crate::check_trace).
    pub fn check(&self) -> crate::Report {
        crate::check_trace(self)
    }
}

impl Extend<Stamped> for AbTrace {
    fn extend<T: IntoIterator<Item = Stamped>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn msg_id_identity_and_display() {
        let a = MsgId::new(0x42, vec![1, 2]);
        let b = MsgId::new(0x42, vec![1, 2]);
        let c = MsgId::new(0x42, vec![1, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "0x042#0102");
        assert_eq!(a.payload(), [1, 2]);
    }

    #[test]
    fn a_payload_sorts_before_its_extensions() {
        let ids = [&[1][..], &[1, 0], &[1, 0, 5], &[1, 2]].map(|p| MsgId::new(7, p));
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        assert!(MsgId::new(6, [0xFF; 8]) < MsgId::new(7, []));
    }

    #[test]
    #[should_panic(expected = "at most 8 bytes")]
    fn rejects_a_payload_past_a_can_data_field() {
        MsgId::new(1, [0; 9]);
    }

    /// The `(channel, payload)` pair a message stands for, ordered and
    /// printed the way a `MsgId` must be.
    fn pair_text((channel, payload): &(u16, Vec<u8>)) -> String {
        let bytes: String = payload.iter().map(|b| format!("{b:02x}")).collect();
        format!("{channel:#05x}#{bytes}")
    }

    /// Payloads of 0–8 bytes over a small alphabet, so prefixes, trailing
    /// zeros and equal pairs come up often.
    fn arb_pair() -> impl Strategy<Value = (u16, Vec<u8>)> {
        let byte = prop_oneof![0u8..3, any::<u8>()];
        (
            prop_oneof![0u16..3, any::<u16>()],
            proptest::collection::vec(byte, 0..=PAYLOAD_CAP),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn msg_ids_compare_order_and_print_as_their_pairs(a in arb_pair(), b in arb_pair()) {
            let (x, y) = (MsgId::new(a.0, &a.1), MsgId::new(b.0, &b.1));
            prop_assert_eq!(x == y, a == b);
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            prop_assert_eq!(x.to_string(), pair_text(&a));
            prop_assert_eq!(x.payload(), &a.1[..]);
        }
    }

    #[test]
    fn correct_nodes_excludes_crashed() {
        let mut t = AbTrace::new(4);
        t.crash(5, 2);
        assert_eq!(t.correct_nodes(), vec![0, 1, 3]);
    }

    #[test]
    fn deliveries_in_order() {
        let m1 = MsgId::new(1, vec![]);
        let m2 = MsgId::new(2, vec![]);
        let mut t = AbTrace::new(2);
        t.deliver(0, 0, m2.clone());
        t.deliver(1, 0, m1.clone());
        t.deliver(2, 1, m1.clone());
        assert_eq!(t.deliveries_of(0), vec![&m2, &m1]);
        assert_eq!(t.deliveries_of(1), vec![&m1]);
    }

    #[test]
    fn event_accessors() {
        let e = AbEvent::Broadcast {
            node: 3,
            msg: MsgId::new(1, vec![]),
        };
        assert_eq!(e.node(), 3);
        assert!(e.to_string().contains("n3 broadcast"));
        assert_eq!(AbEvent::Crash { node: 1 }.to_string(), "n1 crash");
    }
}
