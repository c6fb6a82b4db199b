//! The adversarial channel: a budgeted attacker injecting dominant levels.
//!
//! The benign models in this crate flip a node's *view* of the bus in either
//! direction — that is what electromagnetic interference does. An attacker
//! with physical bus access is weaker in one dimension and stronger in
//! another: it can only drive the wired-AND bus **dominant** (driving
//! recessive is electrically impossible on CAN), but it chooses *where* to
//! strike, observing the frame structure and timing injections at exact bit
//! positions. [`Attacker`] models this as a [`ChannelModel`] whose every
//! injection draws from a per-attack **cost budget**: one unit per dominant
//! pulse placed on the bus. The cheapest schedule that still breaks a
//! protocol is then a meaningful security metric, searched for by the
//! `majorcan-falsify` crate and tabulated by the `attack_surface` campaign.
//!
//! Because a dominant injection on a recessive bus bit is exactly a view
//! flip, the attacker is a *restriction* of the benign flip model: every
//! attack trace is also a benign error trace, so MajorCAN's `m`-tolerance
//! bounds apply verbatim. The converse does not hold — the attacker never
//! flips a dominant bit to recessive — which is why the falsifier's benign
//! minima are a lower bound on attack cost, not an upper bound.
//!
//! The canned [`Strategy`] catalogue covers the attacks the CAN security
//! literature (see PAPERS.md: arXiv 2510.02960, arXiv 1802.01725) treats as
//! standard: bus-off attacks on a victim transmitter, dominant flooding, and
//! error-counter manipulation of a victim receiver. An [`Attacker`] composes
//! with the benign models via [`Compose`](crate::Compose) and the
//! [`ActiveAfter`](crate::ActiveAfter) / [`FieldFiltered`](crate::FieldFiltered)
//! filters, so attacks can ride on top of an already-noisy channel.

use majorcan_can::{Field, WirePos};
use majorcan_sim::{ChannelModel, Level, NodeId};
use std::fmt;

/// One capability exercised by an [`Attacker`], with an explicit cost.
///
/// Actions target either absolute bit times ([`Flood`](AttackAction::Flood))
/// or frame-relative positions in a victim's view
/// ([`Pulse`](AttackAction::Pulse) / [`Hammer`](AttackAction::Hammer)),
/// mirroring how [`Disturbance`](crate::Disturbance) addresses bits. Stuff
/// bits are never targeted: the attacker aims at nominal field positions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttackAction {
    /// Drive the bus dominant for every bit time in `start..start + len`
    /// (absolute bit count since reset). All nodes see the pulse; the cost
    /// is one unit per *bus bit* actually driven, not per node view.
    Flood {
        /// First absolute bit time driven dominant.
        start: u64,
        /// Number of consecutive bit times driven.
        len: u64,
    },
    /// A single dominant pulse into one node's view at a frame-relative
    /// position, on its `occurrence`-th appearance (1 = first). Costs one
    /// unit. This is the attack twin of [`Disturbance`](crate::Disturbance)
    /// restricted to recessive bus bits.
    Pulse {
        /// Victim node whose view is driven dominant.
        node: usize,
        /// Field of the targeted frame-relative position.
        field: Field,
        /// 0-based bit index within the field.
        index: u16,
        /// Which appearance of this position to strike (1 = first).
        occurrence: u32,
    },
    /// Repeated dominant pulses into one node's view: strike the first
    /// `reps` appearances of the position. Costs one unit per strike, so a
    /// full hammer costs `reps`. This is the shape of bus-off and
    /// counter-manipulation attacks, which must land an error on every
    /// (re)transmission to keep the victim's error counter climbing.
    Hammer {
        /// Victim node whose view is driven dominant.
        node: usize,
        /// Field of the targeted frame-relative position.
        field: Field,
        /// 0-based bit index within the field.
        index: u16,
        /// Number of appearances to strike ([`u32::MAX`] = sustained).
        reps: u32,
    },
}

impl AttackAction {
    /// The scheduled (nominal) cost of this action in budget units.
    ///
    /// The runtime charge can be lower: injections that the budget cannot
    /// cover, or that never find their target position within the run, are
    /// not charged (see [`Attacker::spent`]).
    pub fn cost(&self) -> u64 {
        match self {
            AttackAction::Flood { len, .. } => *len,
            AttackAction::Pulse { .. } => 1,
            AttackAction::Hammer { reps, .. } => u64::from(*reps),
        }
    }
}

impl fmt::Display for AttackAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackAction::Flood { start, len } => {
                write!(f, "flood bits {start}..{}", start.saturating_add(*len))
            }
            AttackAction::Pulse {
                node,
                field,
                index,
                occurrence,
            } => write!(f, "pulse n{node} {field}{index} (occurrence {occurrence})"),
            AttackAction::Hammer {
                node,
                field,
                index,
                reps,
            } => write!(f, "hammer n{node} {field}{index} x{reps}"),
        }
    }
}

/// A canned attack from the CAN security literature, expanded into
/// [`AttackAction`]s by [`Strategy::actions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Classic bus-off attack: land a form error on every (re)transmission
    /// by driving the victim transmitter's view of its CRC delimiter
    /// dominant, +8 TEC per strike, until TEC ≥ 256.
    BusOffAttack {
        /// The victim transmitter.
        victim: usize,
        /// Number of consecutive transmissions to strike.
        reps: u32,
    },
    /// Blind dominant flooding of a bit window — jams arbitration and
    /// whatever frame is in flight, at one unit per bus bit.
    DominantFlood {
        /// First absolute bit time driven dominant.
        start: u64,
        /// Number of consecutive bit times driven.
        len: u64,
    },
    /// Error-counter manipulation of a victim receiver: repeated dominant
    /// pulses into its view of the first EOF bit force receive errors until
    /// the victim leaves error-active (and, under the paper's fail-silent
    /// policy, shuts off — a silent omission).
    CounterManipulation {
        /// The victim receiver.
        victim: usize,
        /// Number of frames to strike.
        reps: u32,
    },
}

impl Strategy {
    /// The attack actions implementing this strategy.
    pub fn actions(&self) -> Vec<AttackAction> {
        match *self {
            Strategy::BusOffAttack { victim, reps } => vec![AttackAction::Hammer {
                node: victim,
                field: Field::CrcDelim,
                index: 0,
                reps,
            }],
            Strategy::DominantFlood { start, len } => vec![AttackAction::Flood { start, len }],
            Strategy::CounterManipulation { victim, reps } => vec![AttackAction::Hammer {
                node: victim,
                field: Field::Eof,
                index: 0,
                reps,
            }],
        }
    }

    /// Short token naming the strategy family, recorded in corpus
    /// provenance ("busoff", "flood", "counter").
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::BusOffAttack { .. } => "busoff",
            Strategy::DominantFlood { .. } => "flood",
            Strategy::CounterManipulation { .. } => "counter",
        }
    }
}

/// One armed action plus its firing state.
#[derive(Debug, Clone)]
struct Armed {
    action: AttackAction,
    /// Appearances of the targeted position seen so far (Pulse/Hammer).
    seen: u32,
    /// Injections actually fired from this action (bus bits, for Flood).
    fired: u32,
}

impl Armed {
    fn new(action: AttackAction) -> Armed {
        Armed {
            action,
            seen: 0,
            fired: 0,
        }
    }
}

/// A budgeted adversary on the wired-AND bus.
///
/// Implements [`ChannelModel`] over [`WirePos`]: per `(bit, node)` sample it
/// decides whether to drive that view dominant. Injections only ever fire
/// when the resolved wire is recessive (dominant injection cannot alter an
/// already-dominant bus — the attacker observes the wire and does not waste
/// budget on bits it cannot change), and every effective injection charges
/// the budget; once `spent == budget` the attacker goes quiet.
///
/// # Examples
///
/// ```
/// use majorcan_can::{Field, WirePos};
/// use majorcan_faults::{AttackAction, Attacker};
/// use majorcan_sim::{ChannelModel, Level, NodeId};
///
/// let mut atk = Attacker::new(
///     vec![AttackAction::Pulse { node: 1, field: Field::Eof, index: 6, occurrence: 1 }],
///     8,
/// );
/// let eof6 = WirePos::new(Field::Eof, 6);
/// // Wrong node: observed but untouched.
/// assert!(!atk.disturb(100, NodeId(0), &eof6, Level::Recessive));
/// // The victim's view of EOF6 is driven dominant, costing one unit.
/// assert!(atk.disturb(100, NodeId(1), &eof6, Level::Recessive));
/// assert_eq!(atk.spent(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Attacker {
    budget: u64,
    spent: u64,
    /// Bus bit already paid for by a Flood this bit time (subsequent node
    /// views of the same flooded bit ride on the same physical pulse).
    charged_bit: Option<u64>,
    armed: Vec<Armed>,
}

impl Attacker {
    /// An attacker armed with `actions`, allowed to spend `budget` units.
    pub fn new(actions: Vec<AttackAction>, budget: u64) -> Attacker {
        Attacker {
            budget,
            spent: 0,
            charged_bit: None,
            armed: actions.into_iter().map(Armed::new).collect(),
        }
    }

    /// An attacker running one canned [`Strategy`].
    pub fn from_strategy(strategy: &Strategy, budget: u64) -> Attacker {
        Attacker::new(strategy.actions(), budget)
    }

    /// A sustained bus-off attacker for soak campaigns: hammers `victim`'s
    /// view of its CRC delimiter on every transmission, forever, bounded
    /// only by `budget`.
    pub fn sustained_bus_off(victim: usize, budget: u64) -> Attacker {
        Attacker::from_strategy(
            &Strategy::BusOffAttack {
                victim,
                reps: u32::MAX,
            },
            budget,
        )
    }

    /// Re-arm with a fresh schedule and budget, keeping the allocation
    /// (mirrors [`ScriptedFaults::reload`](crate::ScriptedFaults::reload)
    /// for the testbed's hot replay loop).
    pub fn reload(&mut self, actions: &[AttackAction], budget: u64) {
        self.budget = budget;
        self.spent = 0;
        self.charged_bit = None;
        self.armed.clear();
        self.armed.extend(actions.iter().cloned().map(Armed::new));
    }

    /// The cost budget this attacker was armed with.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Budget units spent on effective injections so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Number of armed actions that never fired a single injection.
    pub fn unfired_len(&self) -> usize {
        self.armed.iter().filter(|a| a.fired == 0).count()
    }

    /// The armed actions that never fired, in schedule order.
    pub fn unfired_actions(&self) -> Vec<AttackAction> {
        self.armed
            .iter()
            .filter(|a| a.fired == 0)
            .map(|a| a.action.clone())
            .collect()
    }
}

impl ChannelModel<WirePos> for Attacker {
    fn quiet_until(&self, now: u64) -> u64 {
        if self.spent >= self.budget {
            return u64::MAX;
        }
        // A quiescent bus is recessive and its nodes report only `Idle`
        // or `Crashed` tags: a flood strikes it from its first bit, a
        // pulse or hammer only if it targets one of those two fields.
        let mut horizon = u64::MAX;
        for armed in &self.armed {
            match armed.action {
                AttackAction::Flood { start, len } => {
                    if len > 0 && start.saturating_add(len) > now {
                        horizon = horizon.min(start.max(now));
                    }
                }
                AttackAction::Pulse { field, .. } | AttackAction::Hammer { field, .. } => {
                    if matches!(field, Field::Idle | Field::Crashed) {
                        return now;
                    }
                }
            }
        }
        horizon
    }

    fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
        // A spent budget can only ride a flood pulse already paid for on
        // this bit; everything else is inert, position counts included,
        // so a leap over a broke attacker's bits loses no state.
        if self.spent >= self.budget && self.charged_bit != Some(bit) {
            return false;
        }
        // Dominant injection is idempotent on a dominant bus: nothing to
        // change, nothing to pay. Position appearances are still not
        // counted here — the targeted tail positions (EOF, delimiters) are
        // recessive by construction, and an error flag overwriting them
        // replaces the tag as well.
        if wire != Level::Recessive {
            return false;
        }
        let mut flip = false;
        for armed in self.armed.iter_mut() {
            match armed.action {
                AttackAction::Flood { start, len } => {
                    if bit < start || bit - start >= len {
                        continue;
                    }
                    if self.charged_bit == Some(bit) {
                        flip = true;
                    } else if self.spent < self.budget {
                        self.spent += 1;
                        self.charged_bit = Some(bit);
                        armed.fired = armed.fired.saturating_add(1);
                        flip = true;
                    }
                }
                AttackAction::Pulse {
                    node: victim,
                    field,
                    index,
                    occurrence,
                } => {
                    if node.index() != victim
                        || tag.stuff
                        || tag.field != field
                        || tag.index != index
                    {
                        continue;
                    }
                    armed.seen = armed.seen.saturating_add(1);
                    if armed.seen == occurrence && armed.fired == 0 && self.spent < self.budget {
                        self.spent += 1;
                        armed.fired = 1;
                        flip = true;
                    }
                }
                AttackAction::Hammer {
                    node: victim,
                    field,
                    index,
                    reps,
                } => {
                    if node.index() != victim
                        || tag.stuff
                        || tag.field != field
                        || tag.index != index
                    {
                        continue;
                    }
                    armed.seen = armed.seen.saturating_add(1);
                    if armed.fired < reps && self.spent < self.budget {
                        self.spent += 1;
                        armed.fired += 1;
                        flip = true;
                    }
                }
            }
        }
        flip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eof(index: u16) -> WirePos {
        WirePos::new(Field::Eof, index)
    }

    #[test]
    fn pulse_fires_once_at_its_occurrence_and_charges_one_unit() {
        let mut atk = Attacker::new(
            vec![AttackAction::Pulse {
                node: 1,
                field: Field::Eof,
                index: 6,
                occurrence: 2,
            }],
            10,
        );
        // First appearance: counted, not fired.
        assert!(!atk.disturb(50, NodeId(1), &eof(6), Level::Recessive));
        // Second appearance: fired.
        assert!(atk.disturb(95, NodeId(1), &eof(6), Level::Recessive));
        // Third appearance: already done.
        assert!(!atk.disturb(140, NodeId(1), &eof(6), Level::Recessive));
        assert_eq!(atk.spent(), 1);
        assert_eq!(atk.unfired_len(), 0);
    }

    #[test]
    fn pulse_ignores_other_nodes_stuff_bits_and_other_positions() {
        let mut atk = Attacker::new(
            vec![AttackAction::Pulse {
                node: 1,
                field: Field::Eof,
                index: 6,
                occurrence: 1,
            }],
            10,
        );
        assert!(!atk.disturb(1, NodeId(0), &eof(6), Level::Recessive));
        assert!(!atk.disturb(2, NodeId(1), &eof(5), Level::Recessive));
        let stuffed = WirePos {
            field: Field::Eof,
            index: 6,
            stuff: true,
        };
        assert!(!atk.disturb(3, NodeId(1), &stuffed, Level::Recessive));
        assert_eq!(atk.spent(), 0);
        assert_eq!(atk.unfired_len(), 1);
        assert_eq!(atk.unfired_actions().len(), 1);
    }

    #[test]
    fn dominant_wire_blocks_injection_and_is_free() {
        let mut atk = Attacker::new(vec![AttackAction::Flood { start: 0, len: 100 }], 100);
        assert!(!atk.disturb(5, NodeId(0), &eof(0), Level::Dominant));
        assert_eq!(atk.spent(), 0);
        assert!(atk.disturb(6, NodeId(0), &eof(0), Level::Recessive));
        assert_eq!(atk.spent(), 1);
    }

    #[test]
    fn flood_charges_once_per_bus_bit_across_all_views() {
        let mut atk = Attacker::new(vec![AttackAction::Flood { start: 10, len: 2 }], 100);
        // Bit 9: outside the window.
        assert!(!atk.disturb(9, NodeId(0), &eof(0), Level::Recessive));
        // Bit 10: three node views, one physical pulse, one unit.
        for n in 0..3 {
            assert!(atk.disturb(10, NodeId(n), &eof(0), Level::Recessive));
        }
        assert_eq!(atk.spent(), 1);
        // Bit 11: second unit.
        for n in 0..3 {
            assert!(atk.disturb(11, NodeId(n), &eof(1), Level::Recessive));
        }
        assert_eq!(atk.spent(), 2);
        // Bit 12: window over.
        assert!(!atk.disturb(12, NodeId(0), &eof(2), Level::Recessive));
        assert_eq!(atk.spent(), 2);
    }

    #[test]
    fn budget_exhaustion_silences_the_attacker() {
        let mut atk = Attacker::new(
            vec![AttackAction::Hammer {
                node: 0,
                field: Field::CrcDelim,
                index: 0,
                reps: 10,
            }],
            3,
        );
        let pos = WirePos::new(Field::CrcDelim, 0);
        let mut fired = 0;
        for bit in 0..10 {
            if atk.disturb(bit * 120, NodeId(0), &pos, Level::Recessive) {
                fired += 1;
            }
        }
        assert_eq!(fired, 3, "three strikes, then broke");
        assert_eq!(atk.spent(), 3);
        assert_eq!(atk.budget(), 3);
    }

    #[test]
    fn hammer_stops_after_its_reps() {
        let mut atk = Attacker::new(
            vec![AttackAction::Hammer {
                node: 2,
                field: Field::Eof,
                index: 0,
                reps: 2,
            }],
            100,
        );
        let pos = eof(0);
        let fired: Vec<bool> = (0..4)
            .map(|i| atk.disturb(i * 120, NodeId(2), &pos, Level::Recessive))
            .collect();
        assert_eq!(fired, vec![true, true, false, false]);
        assert_eq!(atk.spent(), 2);
    }

    #[test]
    fn nominal_costs_follow_the_action_shape() {
        assert_eq!(AttackAction::Flood { start: 7, len: 40 }.cost(), 40);
        assert_eq!(
            AttackAction::Pulse {
                node: 0,
                field: Field::Eof,
                index: 6,
                occurrence: 3
            }
            .cost(),
            1
        );
        assert_eq!(
            AttackAction::Hammer {
                node: 0,
                field: Field::CrcDelim,
                index: 0,
                reps: 32
            }
            .cost(),
            32
        );
    }

    #[test]
    fn strategies_expand_to_their_documented_actions() {
        let busoff = Strategy::BusOffAttack {
            victim: 1,
            reps: 32,
        };
        assert_eq!(busoff.name(), "busoff");
        assert_eq!(
            busoff.actions(),
            vec![AttackAction::Hammer {
                node: 1,
                field: Field::CrcDelim,
                index: 0,
                reps: 32
            }]
        );
        let flood = Strategy::DominantFlood { start: 20, len: 15 };
        assert_eq!(flood.name(), "flood");
        assert_eq!(
            flood.actions(),
            vec![AttackAction::Flood { start: 20, len: 15 }]
        );
        let counter = Strategy::CounterManipulation {
            victim: 2,
            reps: 16,
        };
        assert_eq!(counter.name(), "counter");
        assert_eq!(
            counter.actions(),
            vec![AttackAction::Hammer {
                node: 2,
                field: Field::Eof,
                index: 0,
                reps: 16
            }]
        );
    }

    #[test]
    fn reload_resets_all_firing_state() {
        let mut atk = Attacker::new(
            vec![AttackAction::Pulse {
                node: 0,
                field: Field::Eof,
                index: 0,
                occurrence: 1,
            }],
            5,
        );
        assert!(atk.disturb(0, NodeId(0), &eof(0), Level::Recessive));
        assert_eq!(atk.spent(), 1);
        atk.reload(
            &[AttackAction::Pulse {
                node: 0,
                field: Field::Eof,
                index: 0,
                occurrence: 1,
            }],
            7,
        );
        assert_eq!(atk.spent(), 0);
        assert_eq!(atk.budget(), 7);
        assert_eq!(atk.unfired_len(), 1);
        assert!(atk.disturb(0, NodeId(0), &eof(0), Level::Recessive));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(
            AttackAction::Flood { start: 5, len: 3 }.to_string(),
            "flood bits 5..8"
        );
        assert_eq!(
            AttackAction::Pulse {
                node: 1,
                field: Field::Eof,
                index: 6,
                occurrence: 1
            }
            .to_string(),
            "pulse n1 EOF6 (occurrence 1)"
        );
        assert_eq!(
            AttackAction::Hammer {
                node: 0,
                field: Field::CrcDelim,
                index: 0,
                reps: 12
            }
            .to_string(),
            "hammer n0 CRCDEL0 x12"
        );
    }

    #[test]
    fn quiet_promise_follows_floods_idle_targets_and_the_budget() {
        let quiet = |atk: &Attacker, now| ChannelModel::<WirePos>::quiet_until(atk, now);
        let busoff = Attacker::from_strategy(&Strategy::BusOffAttack { victim: 0, reps: 8 }, 8);
        assert_eq!(
            quiet(&busoff, 10),
            u64::MAX,
            "a CRC-delimiter hammer waits for traffic"
        );

        let flood = Attacker::new(
            vec![
                AttackAction::Flood { start: 100, len: 5 },
                AttackAction::Flood { start: 60, len: 0 },
            ],
            10,
        );
        assert_eq!(quiet(&flood, 10), 100, "up to the flood's first bit");
        assert_eq!(quiet(&flood, 103), 103, "inside the flood");
        assert_eq!(quiet(&flood, 105), u64::MAX, "the flood is over");

        for field in [Field::Idle, Field::Crashed] {
            let atk = Attacker::new(
                vec![AttackAction::Pulse {
                    node: 1,
                    field,
                    index: 0,
                    occurrence: 3,
                }],
                1,
            );
            assert_eq!(quiet(&atk, 10), 10, "{field} matches a quiescent node");
        }

        let mut broke = Attacker::new(
            vec![
                AttackAction::Flood { start: 0, len: 50 },
                AttackAction::Hammer {
                    node: 0,
                    field: Field::Idle,
                    index: 0,
                    reps: 9,
                },
            ],
            1,
        );
        assert!(broke.disturb(0, NodeId(0), &eof(0), Level::Recessive));
        assert!(
            broke.disturb(0, NodeId(1), &eof(0), Level::Recessive),
            "same paid bit"
        );
        assert!(!broke.disturb(1, NodeId(0), &eof(0), Level::Recessive));
        assert_eq!(quiet(&broke, 1), u64::MAX, "a spent budget promises quiet");
    }

    #[test]
    fn sustained_bus_off_is_an_unbounded_hammer() {
        let mut atk = Attacker::sustained_bus_off(1, 1_000);
        let pos = WirePos::new(Field::CrcDelim, 0);
        for bit in 0..50u64 {
            assert!(atk.disturb(bit * 120, NodeId(1), &pos, Level::Recessive));
        }
        assert_eq!(atk.spent(), 50);
    }
}
