//! Scripted, frame-relative disturbances — the mechanism behind every
//! figure reproduction.
//!
//! The paper's scenarios are described symbolically: "a disturbance corrupts
//! the last but one bit of the EOF of the nodes belonging to X". A
//! [`ScriptedFaults`] channel expresses exactly that: each [`Disturbance`]
//! names a victim node, a frame-relative position (field + bit index as the
//! victim itself reports it), and which occurrence of that position to hit —
//! so a disturbance can target the first transmission and leave the
//! retransmission alone.

use majorcan_can::{Field, WirePos};
use majorcan_sim::{ChannelModel, Level, NodeId};
use std::fmt;

/// One scripted view-flip.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Disturbance {
    /// Victim node (its *view* is inverted; the wire is untouched).
    pub node: usize,
    /// Field of the victim's frame-relative position.
    pub field: Field,
    /// 0-based bit index within the field.
    pub index: u16,
    /// Which occurrence of this position to disturb (1 = first). Lets a
    /// script hit the first transmission but not the retransmission.
    pub occurrence: u32,
    /// `true` to target the stuff bit following the field bit at `index`
    /// instead of the field bit itself.
    pub stuff: bool,
}

impl Disturbance {
    /// Disturbs the first time `node` samples `field` bit `index`
    /// (0-based).
    pub fn first(node: usize, field: Field, index: u16) -> Disturbance {
        Disturbance {
            node,
            field,
            index,
            occurrence: 1,
            stuff: false,
        }
    }

    /// Disturbs the first time `node` samples the **stuff bit** that
    /// follows `field` bit `index` — the trigger of the desynchronization
    /// classes catalogued in EXPERIMENTS.md (F1).
    pub fn stuff_bit(node: usize, field: Field, index: u16) -> Disturbance {
        Disturbance {
            node,
            field,
            index,
            occurrence: 1,
            stuff: true,
        }
    }

    /// Disturbs EOF bit `bit_1based` (the paper's 1-based numbering) of
    /// `node`, first occurrence.
    pub fn eof(node: usize, bit_1based: u16) -> Disturbance {
        assert!(bit_1based >= 1, "EOF bits are numbered from 1");
        Disturbance::first(node, Field::Eof, bit_1based - 1)
    }
}

impl fmt::Display for Disturbance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n{} view of {}{}{} (occurrence {})",
            self.node,
            self.field,
            self.index + 1,
            if self.stuff { "+s" } else { "" },
            self.occurrence
        )
    }
}

/// A channel model executing a fixed list of [`Disturbance`]s, each exactly
/// once.
///
/// Entries count a visit to their position in script order, up to the
/// first entry that fires on it; later entries do not count that bit.
/// Once every entry has fired, the script promises a clean bus
/// ([`ChannelModel::clean_until`]), so the frames sent after it (a forced
/// retransmission) are leapt instead of stepped.
///
/// # Examples
///
/// ```
/// use majorcan_can::Field;
/// use majorcan_faults::{Disturbance, ScriptedFaults};
///
/// // Fig. 1b: corrupt the last-but-one EOF bit of node 1's view.
/// let script = ScriptedFaults::new(vec![Disturbance::eof(1, 6)]);
/// assert_eq!(script.remaining(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ScriptedFaults {
    pending: Vec<(Disturbance, u32)>,
}

/// Manual impl so `clone_from` reuses the destination's backing storage —
/// the testbed's batch peel restores a snapshotted script into a reused
/// channel slot once per peeled schedule, which must not reallocate each
/// time.
impl Clone for ScriptedFaults {
    fn clone(&self) -> Self {
        ScriptedFaults {
            pending: self.pending.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.pending.clone_from(&source.pending);
    }
}

impl ScriptedFaults {
    /// Creates a script from a list of disturbances.
    pub fn new(disturbances: Vec<Disturbance>) -> ScriptedFaults {
        ScriptedFaults {
            pending: disturbances.into_iter().map(|d| (d, 0)).collect(),
        }
    }

    /// Replaces the script in place with `disturbances`, keeping the
    /// allocated backing storage so a reused channel does not reallocate
    /// per run.
    pub fn reload(&mut self, disturbances: &[Disturbance]) {
        self.pending.clear();
        self.pending
            .extend(disturbances.iter().map(|d| (d.clone(), 0)));
    }

    /// Number of disturbances not yet fired.
    pub fn remaining(&self) -> usize {
        self.pending.len()
    }

    /// `true` once every scripted disturbance has fired — scenario tests
    /// assert this to be sure the script actually matched.
    pub fn exhausted(&self) -> bool {
        self.pending.is_empty()
    }

    /// The disturbances that have not fired (yet), in script order.
    ///
    /// A non-empty result after a run means the script partially missed —
    /// a position that never came up under this variant's geometry, a node
    /// index off the bus, or an occurrence count the traffic never reached.
    /// Schedule-searching callers (the `majorcan-falsify` crate) use this
    /// to reject vacuously-passing inputs instead of silently dropping
    /// them.
    pub fn unfired(&self) -> Vec<Disturbance> {
        self.pending.iter().map(|(d, _)| d.clone()).collect()
    }
}

impl FromIterator<Disturbance> for ScriptedFaults {
    fn from_iter<I: IntoIterator<Item = Disturbance>>(iter: I) -> Self {
        ScriptedFaults::new(iter.into_iter().collect())
    }
}

impl ChannelModel<WirePos> for ScriptedFaults {
    fn quiet_until(&self, now: u64) -> u64 {
        // A quiescent controller reports only `Idle` (nothing queued) or
        // `Crashed`, so while every node is quiescent only an entry on one
        // of those two fields can match — fire, or count an occurrence.
        // Any other pending entry waits for traffic.
        let idle_bus_target = self
            .pending
            .iter()
            .any(|(d, _)| matches!(d.field, Field::Idle | Field::Crashed));
        if idle_bus_target {
            now
        } else {
            u64::MAX
        }
    }

    fn clean_until(&self, now: u64) -> u64 {
        // An exhausted script never disturbs again, whatever the tags.
        if self.pending.is_empty() {
            u64::MAX
        } else {
            now
        }
    }

    fn disturb(&mut self, _bit: u64, node: NodeId, tag: &WirePos, _wire: Level) -> bool {
        // Matching entries count the visit in script order, up to the
        // first one that fires: entries after it do not count this bit.
        let fired = self.pending.iter_mut().position(|(d, seen)| {
            if d.node == node.index()
                && d.field == tag.field
                && d.index == tag.index
                && d.stuff == tag.stuff
            {
                *seen += 1;
                *seen >= d.occurrence
            } else {
                false
            }
        });
        match fired {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(field: Field, index: u16) -> WirePos {
        WirePos::new(field, index)
    }

    #[test]
    fn fires_once_at_matching_position() {
        let mut s = ScriptedFaults::new(vec![Disturbance::eof(1, 6)]);
        // Wrong node.
        assert!(!s.disturb(0, NodeId(0), &pos(Field::Eof, 5), Level::Recessive));
        // Wrong index.
        assert!(!s.disturb(1, NodeId(1), &pos(Field::Eof, 4), Level::Recessive));
        // Match.
        assert!(s.disturb(2, NodeId(1), &pos(Field::Eof, 5), Level::Recessive));
        assert!(s.exhausted());
        // Never again.
        assert!(!s.disturb(3, NodeId(1), &pos(Field::Eof, 5), Level::Recessive));
    }

    #[test]
    fn occurrence_targets_the_nth_visit() {
        let d = Disturbance {
            node: 0,
            field: Field::Data,
            index: 2,
            occurrence: 3,
            stuff: false,
        };
        let mut s = ScriptedFaults::new(vec![d]);
        assert!(!s.disturb(0, NodeId(0), &pos(Field::Data, 2), Level::Recessive));
        assert!(!s.disturb(1, NodeId(0), &pos(Field::Data, 2), Level::Recessive));
        assert!(s.disturb(2, NodeId(0), &pos(Field::Data, 2), Level::Recessive));
    }

    #[test]
    fn stuff_bits_only_match_stuff_disturbances() {
        let mut s = ScriptedFaults::new(vec![Disturbance::first(0, Field::Id, 3)]);
        let stuffed = WirePos {
            field: Field::Id,
            index: 3,
            stuff: true,
        };
        assert!(!s.disturb(0, NodeId(0), &stuffed, Level::Recessive));
        assert!(s.disturb(1, NodeId(0), &pos(Field::Id, 3), Level::Recessive));

        let mut s = ScriptedFaults::new(vec![Disturbance::stuff_bit(0, Field::Id, 3)]);
        assert!(!s.disturb(0, NodeId(0), &pos(Field::Id, 3), Level::Recessive));
        assert!(s.disturb(1, NodeId(0), &stuffed, Level::Recessive));
        assert_eq!(
            Disturbance::stuff_bit(0, Field::Id, 3).to_string(),
            "n0 view of ID4+s (occurrence 1)"
        );
    }

    #[test]
    fn multiple_disturbances_fire_independently() {
        let mut s: ScriptedFaults = [Disturbance::eof(1, 6), Disturbance::eof(0, 7)]
            .into_iter()
            .collect();
        assert_eq!(s.remaining(), 2);
        assert!(s.disturb(0, NodeId(0), &pos(Field::Eof, 6), Level::Recessive));
        assert_eq!(s.remaining(), 1);
        assert!(s.disturb(1, NodeId(1), &pos(Field::Eof, 5), Level::Recessive));
        assert!(s.exhausted());
    }

    #[test]
    fn eof_helper_is_one_based() {
        assert_eq!(Disturbance::eof(2, 7).index, 6);
    }

    #[test]
    fn display_is_informative() {
        let d = Disturbance::eof(1, 6);
        assert_eq!(d.to_string(), "n1 view of EOF6 (occurrence 1)");
    }

    /// A known defect, pinned until it is fixed on its own: once an entry
    /// fires on a bit, later entries in script order do not count that
    /// bit as an occurrence. So the same two entries on one position
    /// mean different things in different orders — `[occ 1, occ 2]`
    /// needs three visits to fire both, `[occ 2, occ 1]` two.
    #[test]
    fn a_firing_entry_hides_its_bit_from_later_entries() {
        let at = |occurrence| Disturbance {
            occurrence,
            ..Disturbance::eof(1, 1)
        };
        let visit = |s: &mut ScriptedFaults, bit| {
            s.disturb(bit, NodeId(1), &pos(Field::Eof, 0), Level::Recessive)
        };

        let mut first_then_second = ScriptedFaults::new(vec![at(1), at(2)]);
        assert!(visit(&mut first_then_second, 0), "occurrence 1 fires");
        assert!(
            !visit(&mut first_then_second, 1),
            "occurrence 2 saw one visit"
        );
        assert_eq!(first_then_second.unfired(), vec![at(2)]);
        assert!(visit(&mut first_then_second, 2), "and fires on the third");

        let mut second_then_first = ScriptedFaults::new(vec![at(2), at(1)]);
        assert!(visit(&mut second_then_first, 0), "occurrence 1 fires");
        assert!(visit(&mut second_then_first, 1), "occurrence 2 fires");
        assert!(second_then_first.exhausted());
    }

    #[test]
    fn only_an_exhausted_script_promises_a_clean_bus() {
        let clean = |s: &ScriptedFaults| ChannelModel::<WirePos>::clean_until(s, 40);
        assert_eq!(clean(&ScriptedFaults::default()), u64::MAX);
        let mut s = ScriptedFaults::new(vec![Disturbance::eof(1, 6)]);
        assert_eq!(clean(&s), 40, "an entry is pending");
        assert!(s.disturb(0, NodeId(1), &pos(Field::Eof, 5), Level::Recessive));
        assert_eq!(clean(&s), u64::MAX, "the script has fully fired");
    }

    #[test]
    fn only_idle_bus_entries_withhold_the_quiet_promise() {
        let quiet = |s: &ScriptedFaults| ChannelModel::<WirePos>::quiet_until(s, 40);
        assert_eq!(quiet(&ScriptedFaults::default()), u64::MAX);
        let frame_only = ScriptedFaults::new(vec![
            Disturbance::eof(1, 6),
            Disturbance::stuff_bit(0, Field::Id, 3),
        ]);
        assert_eq!(quiet(&frame_only), u64::MAX, "waits for traffic");
        for field in [Field::Idle, Field::Crashed] {
            let s = ScriptedFaults::new(vec![
                Disturbance::eof(1, 6),
                Disturbance::first(2, field, 0),
            ]);
            assert_eq!(quiet(&s), 40, "{field} matches a quiescent node");
        }
    }
}
