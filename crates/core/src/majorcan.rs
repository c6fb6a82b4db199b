//! MajorCAN_m: the paper's contribution — a CAN modification achieving
//! Atomic Broadcast in the presence of up to `m` randomly distributed
//! disturbed bit-views per frame (Section 5).
//!
//! # Geometry
//!
//! * The EOF is lengthened to **2m** recessive bits and split into two
//!   `m`-bit sub-fields.
//! * Every frame therefore ends in `2m + 1` recessive bits (ACK delimiter +
//!   EOF), and the error/overload delimiter is likewise `2m + 1` recessive
//!   bits, preserving CAN's property that all frames end with the same
//!   pattern so nodes can resynchronize.
//!
//! # Decision rules (EOF-relative, 1-based)
//!
//! * **CRC error** — flag at bits 1..6, frame rejected, *no sampling*: a CRC
//!   flag starts at EOF bit 1, and because at most `m−1` further errors can
//!   delay its detection by others to bit `m`, no node can ever read it as a
//!   second-sub-field (accepting) condition. This is why the first sub-field
//!   must be exactly `m` bits.
//! * **Error at bit `i ≤ m` (first sub-field)** — send a regular 6-bit flag,
//!   then *sample* bits `m+7 ..= 3m+5` (a `2m−1`-bit window) and accept iff
//!   at least `m` of them are dominant (majority). Dominant bits there can
//!   only come from an extended flag: someone is notifying acceptance.
//! * **Error at bit `j > m` (second sub-field)** — accept immediately and
//!   notify by driving a dominant **extended flag** through bit `3m+5`, long
//!   enough that any first-sub-field node wins its majority vote despite up
//!   to `m−1` further sampling corruptions.
//! * **Second errors** detected during the EOF/agreement region are *not*
//!   signalled with new flags — they would spoil the agreement.
//! * **Frame-tail bearers share the CRC rule.** The paper groups the CRC
//!   delimiter, ACK slot and ACK delimiter with the EOF as the frame-ending
//!   recessive run, so a node erroring at any of them behaves like a CRC
//!   rejecter: it flags, anchors its agreement clock at the frame's EOF
//!   bit 1 (offset +3 / +2 / +1 bits respectively), and holds recessive
//!   *without voting* until the agreement end instead of taking standard
//!   delimiter recovery — otherwise a mid-recovery disturbance could forge
//!   a second flag that tips other nodes' sampling windows (the F3 family;
//!   one decision point, `Controller::frame_tail_bearer`, in the link
//!   layer).
//! * Errors after the EOF are handled exactly as in standard CAN.
//!
//! Both roles — transmitter and receivers — follow the same rules, which is
//! what closes the Fig. 3 scenarios: acceptance is decided by a bus-wide
//! agreement pattern rather than by each node's private view of one bit.
//!
//! # Overhead
//!
//! Error-free frames grow by `2m − 7` bits over standard CAN; frames with
//! errors in the last `m` EOF bits pay `2m − 2` more, i.e. `4m − 9` total
//! (3 and 11 bits for the proposed `m = 5`) — negligible next to the
//! higher-level protocols of Rufino et al., which cost more than a full CAN
//! frame per message. See [`crate::overhead`] for the formulas.

use majorcan_can::{EofReaction, Role, Variant};
use std::fmt;

/// Error returned when constructing a [`MajorCan`] with an unusable `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidToleranceError {
    m: usize,
}

impl fmt::Display for InvalidToleranceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MajorCAN requires 3 <= m <= 120, got m = {} (the paper: \"of course it \
             must be larger than 2, as with 2 errors the scenario that leads to \
             property CAN2' could happen\")",
            self.m
        )
    }
}

impl std::error::Error for InvalidToleranceError {}

/// The MajorCAN protocol variant, parameterized by the error tolerance `m`.
///
/// The paper proposes `m = 5` (see [`MajorCan::proposed`]) to match the
/// 5-random-bit-error detection capability of the CAN CRC; `m` is kept as a
/// parameter "to make the upgrade simpler" for noisier channels.
///
/// # Examples
///
/// ```
/// use majorcan_can::Variant;
/// use majorcan_core::MajorCan;
///
/// let v = MajorCan::proposed(); // m = 5
/// assert_eq!(v.m(), 5);
/// assert_eq!(v.eof_len(), 10);               // 2m
/// assert_eq!(v.delimiter_len(), 11);         // 2m + 1
/// assert_eq!(v.sampling_window(), Some((12, 20))); // (m+7, 3m+5)
/// assert_eq!(v.vote_threshold(), 5);         // majority of 2m-1 = 9
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorCan {
    m: usize,
}

impl MajorCan {
    /// Creates a MajorCAN variant tolerating up to `m` disturbed bit-views
    /// per frame.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidToleranceError`] unless `3 <= m <= 120`: the paper
    /// requires `m > 2` (two errors already break Agreement in standard
    /// CAN), and the upper bound keeps the agreement region comfortably
    /// within the controller's field-index arithmetic.
    pub fn new(m: usize) -> Result<MajorCan, InvalidToleranceError> {
        if (3..=120).contains(&m) {
            Ok(MajorCan { m })
        } else {
            Err(InvalidToleranceError { m })
        }
    }

    /// The paper's proposal: `m = 5`, matching the CRC's detection
    /// capability of 5 randomly distributed bit errors.
    pub fn proposed() -> MajorCan {
        MajorCan { m: 5 }
    }

    /// The error tolerance `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Worst-case per-frame overhead versus standard CAN, in bits:
    /// `4m − 9` (the paper's Section 6 headline formula).
    pub fn worst_case_overhead_bits(&self) -> isize {
        4 * self.m as isize - 9
    }

    /// Error-free per-frame overhead versus standard CAN, in bits:
    /// `2m − 7`. Negative for `m = 3`, whose 6-bit EOF is actually shorter
    /// than standard CAN's.
    pub fn best_case_overhead_bits(&self) -> isize {
        2 * self.m as isize - 7
    }
}

impl Default for MajorCan {
    /// The paper's proposed `m = 5`.
    fn default() -> Self {
        MajorCan::proposed()
    }
}

impl fmt::Display for MajorCan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MajorCAN_{}", self.m)
    }
}

impl Variant for MajorCan {
    fn name(&self) -> String {
        self.to_string()
    }

    fn eof_len(&self) -> usize {
        2 * self.m
    }

    fn delimiter_len(&self) -> usize {
        2 * self.m + 1
    }

    fn eof_reaction(&self, _role: Role, eof_bit: usize) -> EofReaction {
        debug_assert!((1..=self.eof_len()).contains(&eof_bit));
        if eof_bit <= self.m {
            EofReaction::FlagAndVote
        } else {
            EofReaction::AcceptAndExtend
        }
    }

    fn commit_point(&self, _role: Role) -> usize {
        self.eof_len()
    }

    fn sampling_window(&self) -> Option<(usize, usize)> {
        Some((self.m + 7, 3 * self.m + 5))
    }

    fn vote_threshold(&self) -> usize {
        // Majority of the 2m−1 window bits.
        self.m
    }

    fn agreement_end(&self) -> Option<usize> {
        Some(3 * self.m + 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert!(MajorCan::new(2).is_err());
        assert!(MajorCan::new(0).is_err());
        assert!(MajorCan::new(121).is_err());
        assert!(MajorCan::new(3).is_ok());
        assert!(MajorCan::new(120).is_ok());
        let err = MajorCan::new(2).unwrap_err();
        assert!(err.to_string().contains("m = 2"));
    }

    #[test]
    fn proposed_is_m5() {
        let v = MajorCan::proposed();
        assert_eq!(v.m(), 5);
        assert_eq!(v, MajorCan::default());
        assert_eq!(v.name(), "MajorCAN_5");
    }

    #[test]
    fn geometry_formulas() {
        for m in 3..=12 {
            let v = MajorCan::new(m).unwrap();
            assert_eq!(v.eof_len(), 2 * m, "EOF = 2m");
            assert_eq!(v.delimiter_len(), 2 * m + 1, "delimiter = 2m+1");
            assert_eq!(v.sampling_window(), Some((m + 7, 3 * m + 5)));
            assert_eq!(v.agreement_end(), Some(3 * m + 5));
            assert_eq!(v.vote_threshold(), m);
            assert!(v.suppress_second_errors());
            // The window has 2m-1 bits and the threshold is its majority.
            let (ws, we) = v.sampling_window().unwrap();
            assert_eq!(we - ws + 1, 2 * m - 1);
            assert!(v.vote_threshold() > (we - ws).div_ceil(2) - 1);
        }
    }

    #[test]
    fn subfield_split() {
        let v = MajorCan::proposed();
        use majorcan_can::EofReaction::*;
        for bit in 1..=5 {
            assert_eq!(v.eof_reaction(Role::Receiver, bit), FlagAndVote);
            assert_eq!(v.eof_reaction(Role::Transmitter, bit), FlagAndVote);
        }
        for bit in 6..=10 {
            assert_eq!(v.eof_reaction(Role::Receiver, bit), AcceptAndExtend);
            assert_eq!(v.eof_reaction(Role::Transmitter, bit), AcceptAndExtend);
        }
    }

    #[test]
    fn overhead_formulas_match_paper() {
        let v = MajorCan::proposed();
        assert_eq!(v.best_case_overhead_bits(), 3, "paper: 2m-7 = 3 for m=5");
        assert_eq!(v.worst_case_overhead_bits(), 11, "paper: 4m-9 = 11 for m=5");
        // Both roles commit only after the full 2m-bit EOF.
        assert_eq!(v.commit_point(Role::Receiver), 10);
        assert_eq!(v.commit_point(Role::Transmitter), 10);
    }

    #[test]
    fn first_subfield_length_justification() {
        // A CRC flag starts at EOF bit 1; m-1 extra errors can delay its
        // detection to bit m at most — still inside the first (rejecting)
        // sub-field. Bit m+1 would accept, hence the sub-field must span m.
        for m in 3..=10 {
            let v = MajorCan::new(m).unwrap();
            assert_eq!(
                v.eof_reaction(Role::Receiver, m),
                EofReaction::FlagAndVote,
                "delayed CRC-flag detection at bit m must still reject/vote"
            );
            assert_eq!(
                v.eof_reaction(Role::Receiver, m + 1),
                EofReaction::AcceptAndExtend
            );
        }
    }
}
