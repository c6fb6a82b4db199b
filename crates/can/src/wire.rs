//! On-wire frame layout: fields, positions, bit stuffing and the transmit
//! encoder.
//!
//! The stuffed region of a CAN frame runs from SOF through the CRC sequence:
//! after five consecutive equal levels the transmitter inserts one bit of the
//! opposite level. The fixed-form tail (CRC delimiter, ACK field, EOF) is not
//! stuffed — which is what lets six consecutive dominant bits (an error flag)
//! be unambiguous there.

use crate::{Frame, Variant};
use majorcan_sim::Level;
use std::fmt;

/// The segment of a frame (or of the error-handling machinery) a given bit
/// belongs to, from a single node's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Field {
    /// Bus idle (no frame in flight).
    Idle,
    /// Initial bus integration (waiting for 11 recessive bits before
    /// joining traffic).
    Integrating,
    /// Start-of-frame bit (dominant).
    Sof,
    /// The 11 identifier bits (arbitration field, MSB first).
    Id,
    /// Remote-transmission-request bit (arbitration field).
    Rtr,
    /// Identifier-extension bit (dominant in base format).
    Ide,
    /// Reserved bit r0 (dominant).
    R0,
    /// The 4 data-length-code bits.
    Dlc,
    /// Payload bits.
    Data,
    /// The 15 CRC sequence bits.
    Crc,
    /// CRC delimiter (fixed recessive).
    CrcDelim,
    /// ACK slot (transmitter recessive, acknowledging receivers dominant).
    AckSlot,
    /// ACK delimiter (fixed recessive).
    AckDelim,
    /// End-of-frame bits (fixed recessive; 7 in CAN, `2m` in MajorCAN).
    Eof,
    /// Interframe space (3 recessive bits).
    Intermission,
    /// Suspend-transmission window of an error-passive transmitter.
    Suspend,
    /// An active error flag (6 dominant bits).
    ErrorFlag,
    /// A passive error flag (6 recessive bits — invisible to others).
    PassiveErrorFlag,
    /// An overload flag (6 dominant bits).
    OverloadFlag,
    /// MajorCAN extended error flag (dominant through EOF-relative bit
    /// `3m+5`, notifying frame acceptance).
    ExtendedFlag,
    /// MajorCAN agreement hold: recessive bits during which a node that
    /// flagged in the first EOF sub-field samples the bus and votes.
    AgreementHold,
    /// Waiting for the first recessive bit of an error/overload delimiter.
    DelimWait,
    /// The remaining recessive bits of an error/overload delimiter.
    Delim,
    /// Bus-off: node disconnected after TEC ≥ 256.
    BusOff,
    /// Node crashed (fail-silent) — drives recessive forever.
    Crashed,
}

impl Field {
    /// `true` for the fields that make up the arbitration region, where a
    /// transmitter monitoring dominant while sending recessive loses
    /// arbitration instead of signalling an error.
    pub fn in_arbitration(self) -> bool {
        matches!(self, Field::Id | Field::Rtr)
    }

    /// Every field, in wire order — iteration support for tooling that
    /// enumerates or serialises positions (the single-error atlas, the
    /// falsifier's corpus format).
    pub const ALL: [Field; 25] = [
        Field::Idle,
        Field::Integrating,
        Field::Sof,
        Field::Id,
        Field::Rtr,
        Field::Ide,
        Field::R0,
        Field::Dlc,
        Field::Data,
        Field::Crc,
        Field::CrcDelim,
        Field::AckSlot,
        Field::AckDelim,
        Field::Eof,
        Field::Intermission,
        Field::Suspend,
        Field::ErrorFlag,
        Field::PassiveErrorFlag,
        Field::OverloadFlag,
        Field::ExtendedFlag,
        Field::AgreementHold,
        Field::DelimWait,
        Field::Delim,
        Field::BusOff,
        Field::Crashed,
    ];

    /// Parses the token this type's `Display` produces (`"EOF"`, `"HOLD"`,
    /// …), so positions serialised into durable artifacts (the falsifier's
    /// counterexample corpus) round-trip exactly.
    pub fn from_token(token: &str) -> Option<Field> {
        Field::ALL.into_iter().find(|f| f.to_string() == token)
    }

    /// Dense index of this field within [`Field::ALL`] — `Field::ALL` lists
    /// the variants in declaration order, so the cast and the table agree
    /// (checked by a test). Lets tooling build per-field lookup tables (the
    /// lane engine's watch masks) without hashing.
    pub fn ordinal(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Field::Idle => "IDLE",
            Field::Integrating => "INTEG",
            Field::Sof => "SOF",
            Field::Id => "ID",
            Field::Rtr => "RTR",
            Field::Ide => "IDE",
            Field::R0 => "R0",
            Field::Dlc => "DLC",
            Field::Data => "DATA",
            Field::Crc => "CRC",
            Field::CrcDelim => "CRCDEL",
            Field::AckSlot => "ACK",
            Field::AckDelim => "ACKDEL",
            Field::Eof => "EOF",
            Field::Intermission => "IFS",
            Field::Suspend => "SUSP",
            Field::ErrorFlag => "EFLAG",
            Field::PassiveErrorFlag => "PEFLAG",
            Field::OverloadFlag => "OFLAG",
            Field::ExtendedFlag => "XFLAG",
            Field::AgreementHold => "HOLD",
            Field::DelimWait => "DWAIT",
            Field::Delim => "DELIM",
            Field::BusOff => "BUSOFF",
            Field::Crashed => "CRASH",
        };
        f.write_str(s)
    }
}

/// A node's frame-relative description of one bit: which field it falls in,
/// the 0-based index within that field, and whether it is a stuff bit.
///
/// `WirePos` is the [`BitNode::Tag`](majorcan_sim::BitNode::Tag) of the CAN
/// controller: fault scripts target bits by matching on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WirePos {
    /// The field this bit belongs to.
    pub field: Field,
    /// 0-based bit index within the field.
    pub index: u16,
    /// `true` if this is a stuff bit inserted after the field bit at
    /// `index` (stuff bits are attributed to the preceding payload bit).
    pub stuff: bool,
}

impl WirePos {
    /// A position within `field` at bit `index`.
    pub fn new(field: Field, index: u16) -> WirePos {
        WirePos {
            field,
            index,
            stuff: false,
        }
    }

    /// Position helper for EOF bits using the paper's **1-based** numbering
    /// ("the last but one bit of the EOF" of a 7-bit EOF is `eof(6)`).
    ///
    /// # Panics
    ///
    /// Panics if `bit_1based == 0`.
    pub fn eof(bit_1based: u16) -> WirePos {
        assert!(bit_1based >= 1, "EOF bits are numbered from 1 in the paper");
        WirePos::new(Field::Eof, bit_1based - 1)
    }
}

impl fmt::Display for WirePos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.field, self.index + 1)?;
        if self.stuff {
            f.write_str("+s")?;
        }
        Ok(())
    }
}

/// Maps destuffed bit indices of the stuffed region to `(Field, index)`.
///
/// The stuffed region of a base-format data frame is:
/// `SOF(1) ID(11) RTR(1) IDE(1) r0(1) DLC(4) DATA(8·len) CRC(15)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Number of payload bytes (0–8).
    pub data_len: usize,
}

impl Layout {
    /// Destuffed index of the first DLC bit.
    pub const DLC_START: usize = 15;
    /// Destuffed index of the first data bit.
    pub const DATA_START: usize = 19;

    /// Layout for a frame carrying `data_len` payload bytes.
    pub fn new(data_len: usize) -> Layout {
        debug_assert!(data_len <= 8);
        Layout { data_len }
    }

    /// Destuffed index of the first CRC bit.
    pub fn crc_start(&self) -> usize {
        Self::DATA_START + 8 * self.data_len
    }

    /// Total destuffed bits in the stuffed region (SOF through CRC).
    pub fn stuffed_region_len(&self) -> usize {
        self.crc_start() + 15
    }

    /// The `(Field, in-field index)` of destuffed bit `i` of the stuffed
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the stuffed region.
    pub fn field_at(&self, i: usize) -> (Field, u16) {
        match i {
            0 => (Field::Sof, 0),
            1..=11 => (Field::Id, (i - 1) as u16),
            12 => (Field::Rtr, 0),
            13 => (Field::Ide, 0),
            14 => (Field::R0, 0),
            15..=18 => (Field::Dlc, (i - Self::DLC_START) as u16),
            _ if i < self.crc_start() => (Field::Data, (i - Self::DATA_START) as u16),
            _ if i < self.stuffed_region_len() => (Field::Crc, (i - self.crc_start()) as u16),
            _ => panic!("destuffed index {i} beyond stuffed region"),
        }
    }
}

/// One transmitted bit with its position metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireBit {
    /// The level the transmitter schedules for this bit.
    pub level: Level,
    /// Frame-relative position.
    pub pos: WirePos,
}

/// Applies CAN bit stuffing to a level sequence: after five consecutive
/// equal levels, a bit of the opposite level is inserted. Returns
/// `(level, is_stuff_bit)` pairs.
///
/// Stuff bits participate in subsequent run counting, so e.g.
/// `ddddd` ⇒ `dddddR` and a following `rrrr` extends that recessive run.
///
/// # Examples
///
/// ```
/// use majorcan_can::stuff;
/// use majorcan_sim::Level::{Dominant as D, Recessive as R};
///
/// let out = stuff(&[D, D, D, D, D, D]);
/// let levels: Vec<_> = out.iter().map(|&(l, _)| l).collect();
/// assert_eq!(levels, vec![D, D, D, D, D, R, D]);
/// assert!(out[5].1, "inserted bit is marked as stuff");
/// ```
pub fn stuff(levels: &[Level]) -> Vec<(Level, bool)> {
    let mut out = Vec::with_capacity(levels.len() + levels.len() / 4);
    let mut run_level: Option<Level> = None;
    let mut run_len = 0u8;
    for &level in levels {
        out.push((level, false));
        if Some(level) == run_level {
            run_len += 1;
        } else {
            run_level = Some(level);
            run_len = 1;
        }
        if run_len == 5 {
            let stuffed = !level;
            out.push((stuffed, true));
            run_level = Some(stuffed);
            run_len = 1;
        }
    }
    out
}

/// Error returned by [`destuff`] when the input violates the stuffing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuffViolation {
    /// Index (within the stuffed sequence) of the offending sixth bit.
    pub at: usize,
}

impl fmt::Display for StuffViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "six consecutive equal bits at stuffed index {}", self.at)
    }
}

impl std::error::Error for StuffViolation {}

/// Removes stuff bits from a stuffed sequence, validating the rule.
///
/// # Errors
///
/// Returns [`StuffViolation`] if six consecutive equal levels appear.
pub fn destuff(levels: &[Level]) -> Result<Vec<Level>, StuffViolation> {
    let mut out = Vec::with_capacity(levels.len());
    let mut run_level: Option<Level> = None;
    let mut run_len = 0u8;
    let mut expect_stuff = false;
    for (i, &level) in levels.iter().enumerate() {
        if expect_stuff {
            // This bit must be the complement of the previous run.
            if Some(level) == run_level {
                return Err(StuffViolation { at: i });
            }
            run_level = Some(level);
            run_len = 1;
            expect_stuff = false;
            continue;
        }
        out.push(level);
        if Some(level) == run_level {
            run_len += 1;
        } else {
            run_level = Some(level);
            run_len = 1;
        }
        if run_len == 5 {
            expect_stuff = true;
        }
    }
    Ok(out)
}

/// The destuffed logical bits of the stuffed region (SOF through CRC) of a
/// frame, including the CRC sequence computed over the preceding bits.
pub fn frame_payload_bits(frame: &Frame) -> Vec<bool> {
    let mut bits = Vec::with_capacity(34 + 8 * frame.data().len());
    bits.push(false); // SOF dominant
    for i in 0..11 {
        bits.push(frame.id().bit(i));
    }
    bits.push(frame.is_remote()); // RTR: recessive for remote frames
    bits.push(false); // IDE dominant (base format)
    bits.push(false); // r0 dominant
    for i in (0..4).rev() {
        bits.push((frame.dlc() >> i) & 1 == 1);
    }
    for &byte in frame.data() {
        for i in (0..8).rev() {
            bits.push((byte >> i) & 1 == 1);
        }
    }
    let crc = crate::Crc15::of_bits(bits.iter().copied());
    for i in (0..15).rev() {
        bits.push((crc >> i) & 1 == 1);
    }
    bits
}

/// Where `frame`'s stuffed region (SOF through CRC) lands on the wire: its
/// length in wire bits, stuff bits included, and the wire index of each of
/// the 11 identifier bits.
pub(crate) fn stuffed_geometry(frame: &Frame) -> (usize, [usize; 11]) {
    let levels: Vec<Level> = frame_payload_bits(frame)
        .into_iter()
        .map(Level::from_bit)
        .collect();
    let stuffed = stuff(&levels);
    let mut id_at = [0usize; 11];
    let payload_at = stuffed
        .iter()
        .enumerate()
        .filter(|(_, &(_, is_stuff))| !is_stuff)
        .map(|(wire, _)| wire);
    for (at, wire) in id_at.iter_mut().zip(payload_at.skip(1)) {
        *at = wire;
    }
    (stuffed.len(), id_at)
}

/// Encodes `frame` into the exact on-wire bit sequence a transmitter drives,
/// under protocol variant `variant`: the stuffed SOF..CRC region followed by
/// the fixed-form tail (CRC delimiter, ACK slot, ACK delimiter, and
/// [`Variant::eof_len`] EOF bits).
///
/// The transmitter drives recessive in the ACK slot and expects to monitor
/// dominant there.
pub fn encode_frame<V: Variant>(frame: &Frame, variant: &V) -> Vec<WireBit> {
    let bits = frame_payload_bits(frame);
    let layout = Layout::new(frame.data().len());
    let levels: Vec<Level> = bits.iter().map(|&b| Level::from_bit(b)).collect();
    let stuffed = stuff(&levels);

    let mut out = Vec::with_capacity(stuffed.len() + 3 + variant.eof_len());
    let mut destuffed_idx = 0usize;
    for (level, is_stuff) in stuffed {
        let (field, index) = if is_stuff {
            // Attribute the stuff bit to the field bit it follows.
            layout.field_at(destuffed_idx - 1)
        } else {
            let fi = layout.field_at(destuffed_idx);
            destuffed_idx += 1;
            fi
        };
        out.push(WireBit {
            level,
            pos: WirePos {
                field,
                index,
                stuff: is_stuff,
            },
        });
    }
    out.push(WireBit {
        level: Level::Recessive,
        pos: WirePos::new(Field::CrcDelim, 0),
    });
    out.push(WireBit {
        level: Level::Recessive,
        pos: WirePos::new(Field::AckSlot, 0),
    });
    out.push(WireBit {
        level: Level::Recessive,
        pos: WirePos::new(Field::AckDelim, 0),
    });
    for i in 0..variant.eof_len() {
        out.push(WireBit {
            level: Level::Recessive,
            pos: WirePos::new(Field::Eof, i as u16),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameId, StandardCan};
    use majorcan_sim::Level::{Dominant as D, Recessive as R};

    #[test]
    fn ordinal_indexes_all() {
        for (i, field) in Field::ALL.into_iter().enumerate() {
            assert_eq!(field.ordinal(), i, "{field} ordinal disagrees with ALL");
        }
    }

    #[test]
    fn field_tokens_round_trip() {
        for field in Field::ALL {
            assert_eq!(Field::from_token(&field.to_string()), Some(field));
        }
        assert_eq!(Field::from_token("EOF"), Some(Field::Eof));
        assert_eq!(Field::from_token("HOLD"), Some(Field::AgreementHold));
        assert_eq!(Field::from_token("nonsense"), None);
    }

    #[test]
    fn stuff_inserts_after_five() {
        let out = stuff(&[R, R, R, R, R, R, R]);
        let levels: Vec<Level> = out.iter().map(|&(l, _)| l).collect();
        assert_eq!(levels, vec![R, R, R, R, R, D, R, R]);
        assert_eq!(out.iter().filter(|&&(_, s)| s).count(), 1);
    }

    #[test]
    fn stuff_bit_participates_in_next_run() {
        // ddddd -> dddddR; then rrrr extends the R run to 5 -> stuff D.
        let out = stuff(&[D, D, D, D, D, R, R, R, R]);
        let levels: Vec<Level> = out.iter().map(|&(l, _)| l).collect();
        assert_eq!(levels, vec![D, D, D, D, D, R, R, R, R, R, D]);
        assert!(out[5].1 && out[10].1);
    }

    #[test]
    fn destuff_inverts_stuff() {
        let inputs: Vec<Vec<Level>> = vec![
            vec![],
            vec![D],
            vec![D; 5],
            vec![R; 17],
            [vec![D; 5], vec![R; 5], vec![D; 5]].concat(),
            (0..64)
                .map(|i| if (i / 3) % 2 == 0 { D } else { R })
                .collect(),
        ];
        for input in inputs {
            let stuffed: Vec<Level> = stuff(&input).into_iter().map(|(l, _)| l).collect();
            assert_eq!(destuff(&stuffed).unwrap(), input, "round trip failed");
        }
    }

    #[test]
    fn destuff_rejects_six_equal() {
        let err = destuff(&[D, D, D, D, D, D]).unwrap_err();
        assert_eq!(err.at, 5);
        assert!(err.to_string().contains("six consecutive"));
    }

    #[test]
    fn stuffed_output_never_has_six_equal() {
        // Exhaustive over all 12-bit patterns.
        for pattern in 0u16..(1 << 12) {
            let input: Vec<Level> = (0..12)
                .map(|i| Level::from_bit((pattern >> i) & 1 == 1))
                .collect();
            let stuffed: Vec<Level> = stuff(&input).into_iter().map(|(l, _)| l).collect();
            let mut run = 0;
            let mut prev = None;
            for &l in &stuffed {
                if Some(l) == prev {
                    run += 1;
                } else {
                    prev = Some(l);
                    run = 1;
                }
                assert!(run <= 5, "six equal bits leaked for pattern {pattern:#b}");
            }
        }
    }

    #[test]
    fn layout_field_mapping() {
        let l = Layout::new(2);
        assert_eq!(l.field_at(0), (Field::Sof, 0));
        assert_eq!(l.field_at(1), (Field::Id, 0));
        assert_eq!(l.field_at(11), (Field::Id, 10));
        assert_eq!(l.field_at(12), (Field::Rtr, 0));
        assert_eq!(l.field_at(13), (Field::Ide, 0));
        assert_eq!(l.field_at(14), (Field::R0, 0));
        assert_eq!(l.field_at(15), (Field::Dlc, 0));
        assert_eq!(l.field_at(19), (Field::Data, 0));
        assert_eq!(l.field_at(34), (Field::Data, 15));
        assert_eq!(l.field_at(35), (Field::Crc, 0));
        assert_eq!(l.field_at(49), (Field::Crc, 14));
        assert_eq!(l.stuffed_region_len(), 50);
    }

    #[test]
    #[should_panic(expected = "beyond stuffed region")]
    fn layout_panics_past_crc() {
        Layout::new(0).field_at(49);
    }

    #[test]
    fn frame_payload_bits_structure() {
        let f = Frame::new(FrameId::new(0x555).unwrap(), &[0xFF]).unwrap();
        let bits = frame_payload_bits(&f);
        // 1 SOF + 11 ID + 1 RTR + 1 IDE + 1 r0 + 4 DLC + 8 data + 15 CRC.
        assert_eq!(bits.len(), 42);
        assert!(!bits[0], "SOF dominant");
        // 0x555 = 0b101_0101_0101
        assert!(bits[1] && !bits[2] && bits[3]);
        assert!(!bits[12], "data frame RTR dominant");
        assert!(!bits[13] && !bits[14], "IDE, r0 dominant");
        // DLC = 1 -> 0001
        assert_eq!(&bits[15..19], &[false, false, false, true]);
        // Data 0xFF
        assert!(bits[19..27].iter().all(|&b| b));
    }

    #[test]
    fn encode_frame_tail_layout() {
        let f = Frame::new(FrameId::new(0x0F).unwrap(), &[]).unwrap();
        let wire = encode_frame(&f, &StandardCan);
        let tail: Vec<&WireBit> = wire.iter().rev().take(10).collect();
        // Last 7 bits are EOF, then ACK delim, ACK slot, CRC delim.
        for (i, wb) in tail.iter().take(7).enumerate() {
            assert_eq!(wb.pos.field, Field::Eof);
            assert_eq!(wb.pos.index as usize, 6 - i);
            assert_eq!(wb.level, R);
        }
        assert_eq!(tail[7].pos.field, Field::AckDelim);
        assert_eq!(tail[8].pos.field, Field::AckSlot);
        assert_eq!(tail[9].pos.field, Field::CrcDelim);
        assert_eq!(wire[0].pos.field, Field::Sof);
        assert_eq!(wire[0].level, D);
    }

    #[test]
    fn stuffed_geometry_matches_the_encoder() {
        for raw in (0..0x7F0u16).step_by(7) {
            for len in [0usize, 1, 4, 8] {
                let payload: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(raw as u8)).collect();
                let id = FrameId::new(raw).unwrap();
                for frame in [
                    Frame::new(id, &payload).unwrap(),
                    Frame::new_remote(id, len as u8).unwrap(),
                ] {
                    let wire = encode_frame(&frame, &StandardCan);
                    let (stuffed, id_at) = stuffed_geometry(&frame);
                    assert_eq!(stuffed, wire.len() - 3 - StandardCan.eof_len(), "{frame}");
                    for (i, &at) in id_at.iter().enumerate() {
                        assert_eq!(wire[at].pos, WirePos::new(Field::Id, i as u16), "{frame}");
                    }
                }
            }
        }
    }

    #[test]
    fn encode_marks_stuff_bits() {
        // ID 0x000 yields SOF + 11 dominant bits -> stuffing kicks in.
        let f = Frame::new(FrameId::new(0).unwrap(), &[]).unwrap();
        let wire = encode_frame(&f, &StandardCan);
        let first_stuff = wire.iter().position(|wb| wb.pos.stuff).unwrap();
        // SOF + 4 ID dominants = 5 in a row; stuff after index 4.
        assert_eq!(first_stuff, 5);
        assert_eq!(wire[first_stuff].level, R);
        assert_eq!(wire[first_stuff].pos.field, Field::Id);
    }

    #[test]
    fn wire_pos_display() {
        assert_eq!(WirePos::eof(6).to_string(), "EOF6");
        assert_eq!(
            WirePos {
                field: Field::Id,
                index: 2,
                stuff: true
            }
            .to_string(),
            "ID3+s"
        );
    }

    #[test]
    fn eof_helper_is_one_based() {
        assert_eq!(WirePos::eof(1).index, 0);
        assert_eq!(WirePos::eof(7).index, 6);
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn eof_helper_rejects_zero() {
        WirePos::eof(0);
    }

    #[test]
    fn arbitration_fields() {
        assert!(Field::Id.in_arbitration());
        assert!(Field::Rtr.in_arbitration());
        assert!(!Field::Sof.in_arbitration());
        assert!(!Field::Dlc.in_arbitration());
    }
}
