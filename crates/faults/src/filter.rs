//! Channel combinators restricting *where* and *when* an inner fault model
//! may strike.
//!
//! The paper's analytic model (Eq. 4/5) counts error patterns on specific
//! frame positions of already-synchronized nodes. Reproducing its numbers
//! end-to-end therefore needs two restrictions on a raw random channel:
//!
//! * [`ActiveAfter`] — suppress faults during bus integration (the model
//!   has no start-up phase; a flip during a node's initial 11-recessive-bit
//!   integration window would sideline it for a whole frame and contaminate
//!   the statistics with an artifact);
//! * [`FieldFiltered`] — confine faults to chosen frame fields (e.g. the
//!   EOF region, where every scenario of the paper lives).
//!
//! The *unrestricted* channel remains available deliberately: the gap
//! between its measurements and the filtered ones is the
//! desynchronization-omission finding documented in EXPERIMENTS.md.

use majorcan_can::{Field, WirePos};
use majorcan_sim::{ChannelModel, Level, NodeId};

/// Suppresses the inner model's faults before `start_bit`.
#[derive(Debug, Clone)]
pub struct ActiveAfter<C> {
    /// First bit time at which faults may fire.
    pub start_bit: u64,
    /// The wrapped fault model.
    pub inner: C,
}

impl<C> ActiveAfter<C> {
    /// Wraps `inner`, arming it from `start_bit` onwards.
    pub fn new(start_bit: u64, inner: C) -> ActiveAfter<C> {
        ActiveAfter { start_bit, inner }
    }
}

impl<Tag, C: ChannelModel<Tag>> ChannelModel<Tag> for ActiveAfter<C> {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &Tag, wire: Level) -> bool {
        // The inner model is still consulted (so stateful/PRNG models
        // consume the same randomness stream per bit), but its verdict is
        // masked during the quiet period.
        let flip = self.inner.disturb(bit, node, tag, wire);
        flip && bit >= self.start_bit
    }

    fn quiet_until(&self, now: u64) -> u64 {
        // The mask cannot extend the inner promise: the inner model is
        // consulted (and may consume rng state) even while masked, so
        // only bits the *inner* model declares skippable are skippable.
        self.inner.quiet_until(now)
    }

    fn clean_until(&self, now: u64) -> u64 {
        self.inner.clean_until(now)
    }
}

/// Lets the inner model's faults through only at positions whose field is
/// in the allow-list.
#[derive(Debug, Clone)]
pub struct FieldFiltered<C> {
    fields: Vec<Field>,
    inner: C,
}

impl<C> FieldFiltered<C> {
    /// Wraps `inner`, allowing faults only in `fields`.
    pub fn new(fields: Vec<Field>, inner: C) -> FieldFiltered<C> {
        FieldFiltered { fields, inner }
    }

    /// Allow-list for the paper's scenario region: the EOF bits only.
    pub fn eof_only(inner: C) -> FieldFiltered<C> {
        FieldFiltered::new(vec![Field::Eof], inner)
    }

    /// The wrapped fault model.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Allow-list for the whole frame *tail*: EOF, agreement phases, flags,
    /// delimiters and the interframe space.
    pub fn tail_region(inner: C) -> FieldFiltered<C> {
        FieldFiltered::new(
            vec![
                Field::Eof,
                Field::AgreementHold,
                Field::ExtendedFlag,
                Field::ErrorFlag,
                Field::OverloadFlag,
                Field::DelimWait,
                Field::Delim,
                Field::Intermission,
            ],
            inner,
        )
    }
}

impl<C: ChannelModel<WirePos>> ChannelModel<WirePos> for FieldFiltered<C> {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
        let flip = self.inner.disturb(bit, node, tag, wire);
        flip && self.fields.contains(&tag.field)
    }

    fn quiet_until(&self, now: u64) -> u64 {
        // Same reasoning as `ActiveAfter`: the inner model runs every bit
        // regardless of the field filter.
        self.inner.quiet_until(now)
    }

    fn clean_until(&self, now: u64) -> u64 {
        self.inner.clean_until(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndependentBitErrors;

    #[test]
    fn active_after_masks_early_bits() {
        let mut ch = ActiveAfter::new(100, IndependentBitErrors::new(1.0, 1));
        for bit in 0..100 {
            assert!(!ch.disturb(bit, NodeId(0), &(), Level::Recessive));
        }
        assert!(ch.disturb(100, NodeId(0), &(), Level::Recessive));
    }

    #[test]
    fn field_filter_allows_only_listed_fields() {
        let mut ch = FieldFiltered::eof_only(IndependentBitErrors::new(1.0, 1));
        let eof = WirePos::new(Field::Eof, 5);
        let data = WirePos::new(Field::Data, 5);
        assert!(ch.disturb(0, NodeId(0), &eof, Level::Recessive));
        assert!(!ch.disturb(1, NodeId(0), &data, Level::Recessive));
    }

    #[test]
    fn tail_region_includes_agreement_phases() {
        let mut ch = FieldFiltered::tail_region(IndependentBitErrors::new(1.0, 1));
        for field in [
            Field::Eof,
            Field::AgreementHold,
            Field::Intermission,
            Field::ErrorFlag,
        ] {
            assert!(ch.disturb(0, NodeId(0), &WirePos::new(field, 0), Level::Recessive));
        }
        for field in [Field::Data, Field::Crc, Field::Id, Field::Sof] {
            assert!(!ch.disturb(0, NodeId(0), &WirePos::new(field, 0), Level::Recessive));
        }
    }

    #[test]
    fn composition_of_both_filters() {
        let mut ch = ActiveAfter::new(
            50,
            FieldFiltered::eof_only(IndependentBitErrors::new(1.0, 1)),
        );
        let eof = WirePos::new(Field::Eof, 0);
        assert!(!ch.disturb(10, NodeId(0), &eof, Level::Recessive));
        assert!(ch.disturb(60, NodeId(0), &eof, Level::Recessive));
    }
}
