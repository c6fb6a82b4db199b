//! The CAN controller state machine, generic over a protocol [`Variant`].
//!
//! One state machine runs standard CAN, MinorCAN and MajorCAN: the variant
//! only parameterizes the EOF geometry and the decision rule applied when an
//! error is detected during the EOF (see [`EofReaction`]). Everything else —
//! arbitration, stuffing, CRC, active/passive/overload flags, delimiters,
//! fault confinement, automatic retransmission — is shared machinery.
//!
//! # Timing model
//!
//! The controller is a [`BitNode`]: each bit time it first
//! [drives](BitNode::drive) a level and then [observes](BitNode::observe) its
//! own (possibly disturbed) view of the resolved bus. State transitions made
//! while observing bit `k` take effect on the bus at bit `k + 1`, matching
//! the CAN rule that an error flag starts the bit after the error was
//! detected. The one exception is the CRC error, whose flag starts *at* the
//! first EOF bit (the bit following the ACK delimiter), exactly as the
//! specification requires — the controller arranges this by transitioning
//! while observing the ACK delimiter.

use crate::{
    encode_frame, CanEvent, ConfinementEvent, DecisionBasis, EofReaction, ErrorKind,
    FaultConfinement, FaultState, Field, FlagKind, Frame, Role, RxPipeline, RxStep, Variant,
    WireBit, WirePos,
};
use majorcan_sim::{BitNode, Level, TimedEvent};

mod leap;

pub use leap::leap_clean_frame;

/// Static configuration of a controller.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Disconnect the node when an error counter reaches the warning level
    /// (96) — the paper's policy for keeping every node out of the
    /// error-passive state. Defaults to `true`.
    pub shutoff_at_warning: bool,
    /// Crash (fail silent) at this absolute bit time, for scripted failure
    /// scenarios such as Fig. 1c.
    pub fail_at: Option<u64>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            shutoff_at_warning: true,
            fail_at: None,
        }
    }
}

/// Pending transmission bookkeeping.
#[derive(Debug, Clone)]
struct PendingTx {
    frame: Frame,
    attempts: u32,
    /// `true` for the one entry whose transmission is on the wire or
    /// awaiting its accept/reject decision. The queue stays in pure
    /// priority order, so a frame queued mid-transmission may sit ahead
    /// of it; commits and retransmissions find it by this mark.
    in_flight: bool,
}

/// Active transmission state.
#[derive(Debug, Clone)]
struct TxState {
    bits: Vec<WireBit>,
    idx: usize,
    frame: Frame,
}

/// What a node does after its 6-bit flag completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterFlag {
    /// Straight to the error/overload delimiter.
    Delimiter,
    /// MinorCAN: the first post-flag bit decides accept (dominant) vs
    /// reject (recessive).
    PrimaryProbe,
    /// MajorCAN: hold recessive until the agreement end; if `voting`, count
    /// dominant samples inside the window and decide by majority.
    MajorHold { voting: bool },
}

/// A decision postponed past the node's own flag (MinorCAN probe,
/// MajorCAN vote).
#[derive(Debug, Clone)]
struct Deferred {
    role: Role,
    frame: Option<Frame>,
}

#[derive(Debug, Clone)]
enum CState {
    /// Waiting for 11 consecutive recessive bits before joining the bus.
    Integrating { recessive_run: u8 },
    /// Bus idle.
    Idle,
    /// A frame is on the bus (this node transmitting and/or receiving).
    InFrame,
    /// Driving a 6-bit dominant flag (active error or overload).
    Flag {
        kind: FlagKind,
        sent: u8,
        then: AfterFlag,
        overload: bool,
    },
    /// Driving a 6-bit recessive (passive) error flag.
    PassiveFlag { sent: u8 },
    /// MajorCAN: driving the dominant extended flag until the agreement end.
    ExtendedFlag,
    /// MajorCAN: holding recessive until the agreement end, possibly voting.
    Hold { votes: u8, voting: bool },
    /// Driving recessive, waiting to see the first recessive delimiter bit.
    DelimWait {
        overload: bool,
        probe: bool,
        first: bool,
    },
    /// Counting the remaining recessive delimiter bits.
    Delim { remaining: usize, overload: bool },
    /// The 3-bit interframe space.
    Intermission { done: u8 },
    /// Error-passive transmitter suspend window.
    Suspend { remaining: u8 },
    /// Disconnected after TEC ≥ 256; counting recovery sequences.
    BusOff { recessive_run: u8, periods: u8 },
    /// Fail-silent.
    Crashed,
}

/// Distance in bits from an error detected while observing `pos` to EOF
/// bit 1, for the positions the paper's frame-tail rule covers. `None`
/// for every position standard delimiter recovery applies to (anything
/// up to and including the CRC sequence; EOF bearers route through
/// [`Variant::eof_reaction`] instead).
fn eof1_offset(kind: ErrorKind, pos: WirePos) -> Option<u64> {
    if kind == ErrorKind::Crc {
        // The CRC verdict is signalled while observing the ACK delimiter;
        // its flag starts at EOF bit 1.
        return Some(1);
    }
    match pos.field {
        Field::CrcDelim => Some(3),
        Field::AckSlot => Some(2),
        Field::AckDelim => Some(1),
        _ => None,
    }
}

/// A CAN controller speaking protocol variant `V`.
///
/// Controllers implement [`BitNode`](majorcan_sim::BitNode), so they attach
/// to the bit-level [`Simulator`](majorcan_sim::Simulator); experiment code
/// assembles whole clusters through the `majorcan-testbed` facade instead
/// of attaching controllers by hand. Enqueue frames between steps and read
/// protocol activity from the engine's event log.
///
/// # Examples
///
/// ```
/// use majorcan_can::{CanEvent, Frame, FrameId};
/// use majorcan_sim::NodeId;
/// use majorcan_testbed::{ProtocolSpec, Testbed};
///
/// let mut tb = Testbed::builder(ProtocolSpec::StandardCan).nodes(2).build();
/// tb.enqueue(0, Frame::new(FrameId::new(0x42)?, &[7])?);
/// tb.run(200);
/// let delivered = tb
///     .can_events()
///     .iter()
///     .any(|e| e.node == NodeId(1) && matches!(e.event, CanEvent::Delivered { .. }));
/// assert!(delivered);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Controller<V: Variant> {
    variant: V,
    config: ControllerConfig,
    state: CState,
    fc: FaultConfinement,
    queue: Vec<PendingTx>,
    tx: Option<TxState>,
    pipe: Option<RxPipeline>,
    /// Bit time of EOF bit 1 of the current frame (the agreement clock).
    eof_start: Option<u64>,
    delivered_this_frame: bool,
    deferred: Option<Deferred>,
    episode_role: Role,
    crashed: bool,
    announce_crash: bool,
    bit_now: u64,
    fc_scratch: Vec<ConfinementEvent>,
    /// Events generated while driving (transmission start), emitted at the
    /// next observe so they carry the correct timestamp.
    pending_drive_events: Vec<CanEvent>,
}

impl<V: Variant> Controller<V> {
    /// Creates a controller with default [`ControllerConfig`].
    pub fn new(variant: V) -> Controller<V> {
        Controller::with_config(variant, ControllerConfig::default())
    }

    /// Creates a controller with an explicit configuration.
    pub fn with_config(variant: V, config: ControllerConfig) -> Controller<V> {
        let fc = FaultConfinement::new(config.shutoff_at_warning);
        Controller {
            variant,
            config,
            state: CState::Integrating { recessive_run: 0 },
            fc,
            queue: Vec::new(),
            tx: None,
            pipe: None,
            eof_start: None,
            delivered_this_frame: false,
            deferred: None,
            episode_role: Role::Receiver,
            crashed: false,
            announce_crash: false,
            bit_now: 0,
            fc_scratch: Vec::new(),
            pending_drive_events: Vec::new(),
        }
    }

    /// Rewinds the controller to its freshly-constructed state (as from
    /// [`Controller::with_config`] with the same variant and
    /// configuration), keeping heap allocations such as the transmit queue
    /// for reuse across runs.
    pub fn reset(&mut self) {
        self.fc = FaultConfinement::new(self.config.shutoff_at_warning);
        self.state = CState::Integrating { recessive_run: 0 };
        self.queue.clear();
        self.tx = None;
        self.pipe = None;
        self.eof_start = None;
        self.delivered_this_frame = false;
        self.deferred = None;
        self.episode_role = Role::Receiver;
        self.crashed = false;
        self.announce_crash = false;
        self.bit_now = 0;
        self.fc_scratch.clear();
        self.pending_drive_events.clear();
    }

    /// Re-arms (or clears) the scripted fail-silent bit time for the next
    /// run of a reused controller.
    pub fn set_fail_at(&mut self, fail_at: Option<u64>) {
        self.config.fail_at = fail_at;
    }

    /// Changes the warning-shutoff policy of a reused controller. Takes
    /// full effect at the next [`Controller::reset`], which rebuilds the
    /// fault-confinement state from the configuration.
    pub fn set_shutoff_at_warning(&mut self, shutoff: bool) {
        self.config.shutoff_at_warning = shutoff;
    }

    /// The protocol variant this controller speaks.
    pub fn variant(&self) -> &V {
        &self.variant
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Queues `frame` for transmission. Frames are sent in CAN priority
    /// order (lowest identifier first), matching the behaviour of multi-
    /// buffer CAN controllers.
    pub fn enqueue(&mut self, frame: Frame) {
        let at = self
            .queue
            .partition_point(|p| !frame.id().outranks(p.frame.id()));
        self.queue.insert(
            at,
            PendingTx {
                frame,
                attempts: 0,
                in_flight: false,
            },
        );
    }

    /// Number of frames waiting for (re)transmission.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Fault-confinement counters and state.
    pub fn fault_confinement(&self) -> &FaultConfinement {
        &self.fc
    }

    /// `true` once the node has crashed (injected fault or
    /// switch-off-at-warning policy).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Crashes the node immediately (fail silent): it stops driving anything
    /// but recessive and never delivers again.
    pub fn crash(&mut self) {
        if !self.crashed {
            self.crashed = true;
            self.announce_crash = true;
            self.state = CState::Crashed;
            self.tx = None;
            self.pipe = None;
        }
    }

    /// `true` while the node is transmitting the frame currently on the bus.
    pub fn is_transmitting(&self) -> bool {
        self.tx.is_some()
    }

    /// `true` when the controller sits in the idle state (intermission
    /// complete, no frame in flight).
    pub fn is_idle(&self) -> bool {
        matches!(self.state, CState::Idle)
    }

    fn role(&self) -> Role {
        if self.tx.is_some() {
            Role::Transmitter
        } else {
            Role::Receiver
        }
    }

    /// EOF-relative 1-based position of bit time `now` (EOF bit 1 ⇒ 1).
    fn eof_rel(&self, now: u64) -> Option<usize> {
        self.eof_start
            .and_then(|s| now.checked_sub(s))
            .map(|d| d as usize + 1)
    }

    fn start_frame_rx(&mut self, seen: Level) {
        let mut pipe = RxPipeline::new(self.variant.eof_len());
        pipe.push(seen); // SOF
        self.pipe = Some(pipe);
        self.eof_start = None;
        self.delivered_this_frame = false;
        self.state = CState::InFrame;
    }

    fn start_frame_tx(&mut self, events: &mut Vec<CanEvent>) -> Level {
        // An attempt cut short by bus-off leaves its mark behind.
        self.drop_in_flight();
        let pending = &mut self.queue[0];
        pending.attempts += 1;
        pending.in_flight = true;
        let frame = pending.frame.clone();
        let attempts = pending.attempts;
        let bits = encode_frame(&frame, &self.variant);
        let first = bits[0].level;
        self.tx = Some(TxState {
            bits,
            idx: 0,
            frame: frame.clone(),
        });
        self.pipe = Some(RxPipeline::new(self.variant.eof_len()));
        self.eof_start = None;
        self.delivered_this_frame = false;
        self.state = CState::InFrame;
        events.push(CanEvent::TxStarted {
            frame,
            attempt: attempts,
        });
        first
    }

    fn drain_confinement(&mut self, events: &mut Vec<CanEvent>) {
        let mut scratch = std::mem::take(&mut self.fc_scratch);
        for ev in scratch.drain(..) {
            match ev {
                ConfinementEvent::Warning => {
                    events.push(CanEvent::ErrorWarning);
                    if self.config.shutoff_at_warning {
                        self.crash();
                    }
                }
                ConfinementEvent::EnteredPassive => events.push(CanEvent::EnteredErrorPassive),
                ConfinementEvent::ReturnedActive => events.push(CanEvent::ReturnedErrorActive),
                ConfinementEvent::WentBusOff => {
                    events.push(CanEvent::WentBusOff);
                    self.tx = None;
                    self.pipe = None;
                    self.state = CState::BusOff {
                        recessive_run: 0,
                        periods: 0,
                    };
                }
            }
        }
        self.fc_scratch = scratch;
    }

    fn bump_error_counter(&mut self, role: Role, events: &mut Vec<CanEvent>) {
        match role {
            Role::Transmitter => self.fc.on_transmit_error(&mut self.fc_scratch),
            Role::Receiver => self.fc.on_receive_error(&mut self.fc_scratch),
        }
        self.drain_confinement(events);
    }

    /// Resolves a deferred accept/reject decision (MinorCAN probe or
    /// MajorCAN vote).
    fn resolve_deferred(&mut self, accept: bool, basis: DecisionBasis, events: &mut Vec<CanEvent>) {
        let Some(deferred) = self.deferred.take() else {
            return;
        };
        if accept {
            match deferred.role {
                Role::Transmitter => self.commit_tx_success(basis, events),
                Role::Receiver => {
                    if let Some(frame) = deferred.frame {
                        if !self.delivered_this_frame {
                            self.delivered_this_frame = true;
                            events.push(CanEvent::Delivered { frame, basis });
                        }
                        self.fc.on_receive_success(&mut self.fc_scratch);
                        self.drain_confinement(events);
                    } else {
                        events.push(CanEvent::Rejected { basis });
                    }
                }
            }
        } else {
            self.bump_error_counter(deferred.role, events);
            match deferred.role {
                Role::Transmitter => self.schedule_retransmission(events),
                Role::Receiver => events.push(CanEvent::Rejected { basis }),
            }
        }
    }

    /// Index of the queued frame whose transmission is on the wire or
    /// awaiting its decision.
    fn in_flight(&self) -> Option<usize> {
        self.queue.iter().position(|p| p.in_flight)
    }

    /// Returns the in-flight frame to the queue as an ordinary waiting
    /// entry.
    fn drop_in_flight(&mut self) {
        if let Some(i) = self.in_flight() {
            self.queue[i].in_flight = false;
        }
    }

    /// The transmitter rejected its attempt: the in-flight frame waits for
    /// an automatic retransmission.
    fn schedule_retransmission(&mut self, events: &mut Vec<CanEvent>) {
        if let Some(i) = self.in_flight() {
            self.queue[i].in_flight = false;
            events.push(CanEvent::RetransmissionScheduled {
                frame: self.queue[i].frame.clone(),
            });
        }
    }

    fn commit_tx_success(&mut self, basis: DecisionBasis, events: &mut Vec<CanEvent>) {
        let Some(i) = self.in_flight() else {
            return;
        };
        let done = self.queue.remove(i);
        self.fc.on_transmit_success(&mut self.fc_scratch);
        self.drain_confinement(events);
        events.push(CanEvent::TxSucceeded {
            frame: done.frame,
            attempts: done.attempts,
            basis,
        });
    }

    fn commit_rx_delivery(&mut self, basis: DecisionBasis, events: &mut Vec<CanEvent>) {
        if self.delivered_this_frame {
            return;
        }
        if let Some(frame) = self.pipe.as_ref().and_then(|p| p.frame()).cloned() {
            self.deliver(frame, basis, events);
        }
    }

    fn deliver(&mut self, frame: Frame, basis: DecisionBasis, events: &mut Vec<CanEvent>) {
        self.delivered_this_frame = true;
        events.push(CanEvent::Delivered { frame, basis });
        self.fc.on_receive_success(&mut self.fc_scratch);
        self.drain_confinement(events);
    }

    /// Begins a 6-bit dominant flag (active error or overload) next bit.
    fn start_flag(&mut self, kind: FlagKind, then: AfterFlag, events: &mut Vec<CanEvent>) {
        let overload = kind == FlagKind::Overload;
        events.push(CanEvent::FlagStarted { kind });
        self.state = CState::Flag {
            kind,
            sent: 0,
            then,
            overload,
        };
        self.tx = None;
        self.pipe = None;
    }

    fn start_passive_flag(&mut self, events: &mut Vec<CanEvent>) {
        events.push(CanEvent::FlagStarted {
            kind: FlagKind::PassiveError,
        });
        self.state = CState::PassiveFlag { sent: 0 };
        self.tx = None;
        self.pipe = None;
    }

    /// Handles an error detected outside the EOF region (or a CRC error):
    /// reject, signal, schedule retransmission if transmitting.
    fn standard_error(
        &mut self,
        now: u64,
        kind: ErrorKind,
        pos: WirePos,
        events: &mut Vec<CanEvent>,
    ) {
        let role = self.role();
        self.episode_role = role;
        events.push(CanEvent::ErrorDetected { kind, pos });
        self.bump_error_counter(role, events);
        if self.crashed || matches!(self.state, CState::BusOff { .. }) {
            return;
        }
        match role {
            Role::Transmitter => self.schedule_retransmission(events),
            Role::Receiver => {
                if !self.delivered_this_frame {
                    events.push(CanEvent::Rejected {
                        basis: DecisionBasis::ErrorBeforeCommit,
                    });
                }
            }
        }
        let then = self.frame_tail_bearer(now, kind, pos);
        if self.fc.state() == FaultState::ErrorPassive {
            self.start_passive_flag(events);
        } else {
            self.start_flag(FlagKind::ActiveError, then, events);
        }
    }

    /// MajorCAN's frame-tail rule, applied to every non-EOF error bearer:
    /// a flag born in the last bits of the frame — at the CRC delimiter,
    /// the ACK slot, the ACK delimiter, or the CRC verdict (signalled at
    /// EOF bit 1) — occupies bits that reach into EOF and the node must
    /// then hold recessive (without voting) until the agreement end, on
    /// the same `eof_start`-anchored clock as EOF-region bearers.
    /// Standard delimiter recovery would instead run straight through the
    /// other nodes' sampling windows, where any second flag reads as an
    /// acceptance notification and two disturbed bit-views suffice to
    /// break agreement. Variants without an agreement region (CAN,
    /// MinorCAN) keep standard delimiter recovery everywhere.
    fn frame_tail_bearer(&mut self, now: u64, kind: ErrorKind, pos: WirePos) -> AfterFlag {
        match eof1_offset(kind, pos) {
            Some(offset) if self.variant.agreement_end().is_some() => {
                self.anchor_agreement_clock(now + offset);
                AfterFlag::MajorHold { voting: false }
            }
            _ => AfterFlag::Delimiter,
        }
    }

    /// Anchors the agreement clock at `eof1_at`, the bit time of EOF bit 1.
    /// Every path that learns where EOF begins — the clean receive
    /// pipeline and each frame-tail bearer — must derive the same bit; an
    /// existing anchor is never silently moved.
    fn anchor_agreement_clock(&mut self, eof1_at: u64) {
        match self.eof_start {
            None => self.eof_start = Some(eof1_at),
            Some(existing) => debug_assert_eq!(
                existing, eof1_at,
                "agreement clock re-anchored to a different bit"
            ),
        }
    }

    /// Handles an error detected at EOF bit `eof_bit` (1-based) by routing
    /// through the protocol variant.
    fn eof_error(&mut self, kind: ErrorKind, eof_bit: usize, events: &mut Vec<CanEvent>) {
        let role = self.role();
        self.episode_role = role;
        let pos = WirePos::eof(eof_bit as u16);
        events.push(CanEvent::ErrorDetected { kind, pos });

        if self.fc.state() == FaultState::ErrorPassive {
            // A passive node cannot participate in any agreement scheme: it
            // rejects and signals invisibly (the impairment the paper's
            // switch-off-at-warning policy exists to prevent).
            self.bump_error_counter(role, events);
            if role == Role::Transmitter {
                self.schedule_retransmission(events);
            } else if !self.delivered_this_frame {
                events.push(CanEvent::Rejected {
                    basis: DecisionBasis::ErrorBeforeCommit,
                });
            }
            self.start_passive_flag(events);
            return;
        }

        match self.variant.eof_reaction(role, eof_bit) {
            EofReaction::RejectAndFlag => {
                self.bump_error_counter(role, events);
                match role {
                    Role::Transmitter => self.schedule_retransmission(events),
                    Role::Receiver => {
                        if !self.delivered_this_frame {
                            events.push(CanEvent::Rejected {
                                basis: DecisionBasis::ErrorBeforeCommit,
                            });
                        }
                    }
                }
                self.start_flag(FlagKind::ActiveError, AfterFlag::Delimiter, events);
            }
            EofReaction::AcceptAndOverload => {
                // Standard CAN last-bit rule: the frame is already accepted
                // (the receiver committed at the last-but-one bit).
                debug_assert!(role == Role::Receiver);
                events.push(CanEvent::OverloadCondition);
                self.start_flag(FlagKind::Overload, AfterFlag::Delimiter, events);
            }
            EofReaction::DeferPrimaryError => {
                self.deferred = Some(Deferred {
                    role,
                    frame: match role {
                        Role::Transmitter => self.tx.as_ref().map(|t| t.frame.clone()),
                        Role::Receiver => self.pipe.as_ref().and_then(|p| p.frame()).cloned(),
                    },
                });
                self.start_flag(FlagKind::ActiveError, AfterFlag::PrimaryProbe, events);
            }
            EofReaction::FlagAndVote => {
                self.deferred = Some(Deferred {
                    role,
                    frame: match role {
                        Role::Transmitter => self.tx.as_ref().map(|t| t.frame.clone()),
                        Role::Receiver => self.pipe.as_ref().and_then(|p| p.frame()).cloned(),
                    },
                });
                self.start_flag(
                    FlagKind::ActiveError,
                    AfterFlag::MajorHold { voting: true },
                    events,
                );
            }
            EofReaction::AcceptAndExtend => {
                events.push(CanEvent::FlagStarted {
                    kind: FlagKind::Extended,
                });
                match role {
                    Role::Transmitter => {
                        self.commit_tx_success(DecisionBasis::SecondSubfield, events)
                    }
                    Role::Receiver => {
                        self.commit_rx_delivery(DecisionBasis::SecondSubfield, events)
                    }
                }
                self.tx = None;
                self.pipe = None;
                self.state = CState::ExtendedFlag;
            }
        }
    }

    fn observe_in_frame(&mut self, now: u64, seen: Level, events: &mut Vec<CanEvent>) {
        let pos = self.pipe.as_ref().expect("InFrame implies pipeline").pos();

        // --- Transmitter monitoring -------------------------------------
        #[derive(PartialEq)]
        enum TxCheck {
            Fine,
            LostArbitration,
            BitError,
            AckError,
        }
        let check = if let Some(tx) = self.tx.as_mut() {
            let driven = tx.bits[tx.idx].level;
            tx.idx += 1;
            let ack_slot = pos.field == Field::AckSlot;
            if driven != seen {
                if pos.field.in_arbitration() && driven.is_recessive() && seen.is_dominant() {
                    TxCheck::LostArbitration
                } else if ack_slot && driven.is_recessive() && seen.is_dominant() {
                    // Acknowledgment from some receiver — expected.
                    TxCheck::Fine
                } else {
                    TxCheck::BitError
                }
            } else if ack_slot && seen.is_recessive() {
                TxCheck::AckError
            } else {
                TxCheck::Fine
            }
        } else {
            TxCheck::Fine
        };
        match check {
            TxCheck::Fine => {}
            TxCheck::LostArbitration => {
                // Back off, keep the frame queued and continue as a
                // receiver of the winning frame.
                let frame = self.tx.take().expect("transmitter checked").frame;
                self.drop_in_flight();
                events.push(CanEvent::ArbitrationLost { frame });
            }
            TxCheck::BitError => {
                if pos.field == Field::Eof {
                    self.eof_error(ErrorKind::Bit, pos.index as usize + 1, events);
                } else {
                    self.standard_error(now, ErrorKind::Bit, pos, events);
                }
                return;
            }
            TxCheck::AckError => {
                self.standard_error(now, ErrorKind::Ack, pos, events);
                return;
            }
        }

        // --- Shared receive pipeline ------------------------------------
        let pipe = self.pipe.as_mut().expect("pipeline still active");
        let step = pipe.push(seen);

        match step {
            RxStep::StuffError => {
                self.standard_error(now, ErrorKind::Stuff, pos, events);
                return;
            }
            RxStep::FormError => {
                if pos.field == Field::Eof {
                    self.eof_error(ErrorKind::Form, pos.index as usize + 1, events);
                } else {
                    self.standard_error(now, ErrorKind::Form, pos, events);
                }
                return;
            }
            RxStep::Ok | RxStep::FrameComplete => {}
        }

        // Start the agreement clock the moment EOF begins.
        let pipe = self.pipe.as_ref().expect("pipeline still active");
        let eof_begins = pipe.pos().field == Field::Eof && pipe.eof_done() == 0;
        if eof_begins {
            self.anchor_agreement_clock(now + 1);
        }
        let pipe = self.pipe.as_ref().expect("pipeline still active");

        // CRC verdict: receivers with a bad CRC start their error flag at
        // the first EOF bit (the bit following the ACK delimiter).
        if pos.field == Field::AckDelim && self.tx.is_none() && pipe.crc_ok() == Some(false) {
            self.standard_error(now, ErrorKind::Crc, WirePos::eof(1), events);
            return;
        }

        // Clean-bit commit logic within EOF.
        if pos.field == Field::Eof {
            let eof_bit = pos.index as usize + 1;
            if self.tx.is_none() && eof_bit == self.variant.commit_point(Role::Receiver) {
                self.commit_rx_delivery(DecisionBasis::CleanEof, events);
            }
        }

        if step == RxStep::FrameComplete {
            if self.tx.is_some() {
                self.tx = None;
                self.commit_tx_success(DecisionBasis::CleanEof, events);
            }
            self.pipe = None;
            self.state = CState::Intermission { done: 0 };
        }
    }

    #[allow(clippy::too_many_arguments)] // private FSM dispatch, mirrors the state fields
    fn observe_flag(
        &mut self,
        now: u64,
        seen: Level,
        kind: FlagKind,
        sent: u8,
        then: AfterFlag,
        overload: bool,
        events: &mut Vec<CanEvent>,
    ) {
        // Bit error while sending a dominant error-flag bit (a disturbed
        // view). Overload flags do not affect the error counters, and a
        // frame-tail bearer's flag is already inside the agreement episode
        // even for its bits before EOF bit 1 (where `eof_rel` is not yet
        // defined), so second-error suppression covers the whole flag.
        if seen.is_recessive()
            && kind != FlagKind::Overload
            && !matches!(then, AfterFlag::MajorHold { .. })
            && !self.suppressed(now)
        {
            match self.episode_role {
                Role::Transmitter => self.fc.on_transmit_error(&mut self.fc_scratch),
                Role::Receiver => self.fc.on_receive_error_aggravated(&mut self.fc_scratch),
            }
            self.drain_confinement(events);
            if self.crashed || matches!(self.state, CState::BusOff { .. }) {
                return;
            }
        }
        let sent = sent + 1;
        if sent >= 6 {
            match then {
                AfterFlag::Delimiter => {
                    self.state = CState::DelimWait {
                        overload,
                        probe: false,
                        first: true,
                    };
                }
                AfterFlag::PrimaryProbe => {
                    self.state = CState::DelimWait {
                        overload: false,
                        probe: true,
                        first: true,
                    };
                }
                AfterFlag::MajorHold { voting } => {
                    self.state = CState::Hold { votes: 0, voting };
                }
            }
        } else {
            self.state = CState::Flag {
                kind,
                sent,
                then,
                overload,
            };
        }
    }

    /// `true` when MajorCAN's second-error suppression is in force: the node
    /// is inside the EOF/agreement region of a variant that forbids
    /// signalling second errors there.
    fn suppressed(&self, now: u64) -> bool {
        if !self.variant.suppress_second_errors() {
            return false;
        }
        match (self.eof_rel(now), self.variant.agreement_end()) {
            (Some(rel), Some(end)) => rel <= end,
            _ => false,
        }
    }

    fn observe_delim_wait(
        &mut self,
        seen: Level,
        overload: bool,
        probe: bool,
        first: bool,
        events: &mut Vec<CanEvent>,
    ) {
        if probe && first {
            // MinorCAN Primary_error: a dominant bit right after our own
            // flag means another node reacted to *us* — we detected the
            // error first, nobody had rejected yet, so we accept. A
            // recessive bit means our flag answered someone else's: reject.
            let dominant = seen.is_dominant();
            self.resolve_deferred(
                dominant,
                DecisionBasis::PrimaryError {
                    dominant_after_flag: dominant,
                },
                events,
            );
            self.state = CState::DelimWait {
                overload,
                probe: false,
                first: false,
            };
            if seen.is_recessive() {
                self.state = CState::Delim {
                    remaining: self.variant.delimiter_len() - 1,
                    overload,
                };
            }
            return;
        }
        if seen.is_recessive() {
            self.state = CState::Delim {
                remaining: self.variant.delimiter_len() - 1,
                overload,
            };
        } else {
            if first && !overload {
                // Spec: a receiver detecting a dominant bit as the first bit
                // after sending an error flag increments its REC by 8.
                if self.episode_role == Role::Receiver {
                    self.fc.on_receive_error_aggravated(&mut self.fc_scratch);
                } else {
                    self.fc.on_transmit_error(&mut self.fc_scratch);
                }
                self.drain_confinement(events);
                if self.crashed || matches!(self.state, CState::BusOff { .. }) {
                    return;
                }
            }
            self.state = CState::DelimWait {
                overload,
                probe: false,
                first: false,
            };
        }
    }

    fn observe_delim(
        &mut self,
        now: u64,
        seen: Level,
        remaining: usize,
        overload: bool,
        events: &mut Vec<CanEvent>,
    ) {
        if seen.is_dominant() {
            if remaining == 1 {
                // Dominant at the last delimiter bit: overload condition.
                events.push(CanEvent::OverloadCondition);
                self.start_flag(FlagKind::Overload, AfterFlag::Delimiter, events);
            } else {
                // Form error within the delimiter.
                self.standard_error(
                    now,
                    ErrorKind::Form,
                    WirePos::new(
                        Field::Delim,
                        (self.variant.delimiter_len() - remaining) as u16,
                    ),
                    events,
                );
            }
            return;
        }
        if remaining <= 1 {
            self.state = CState::Intermission { done: 0 };
        } else {
            self.state = CState::Delim {
                remaining: remaining - 1,
                overload,
            };
        }
    }

    fn observe_intermission(&mut self, seen: Level, done: u8, events: &mut Vec<CanEvent>) {
        if seen.is_dominant() {
            if done < 2 {
                events.push(CanEvent::OverloadCondition);
                self.episode_role = Role::Receiver;
                self.start_flag(FlagKind::Overload, AfterFlag::Delimiter, events);
            } else {
                // Third intermission bit dominant ⇒ SOF of the next frame.
                self.start_frame_rx(seen);
            }
            return;
        }
        let done = done + 1;
        if done >= 3 {
            if self.fc.state() == FaultState::ErrorPassive && self.episode_role == Role::Transmitter
            {
                self.state = CState::Suspend { remaining: 8 };
            } else {
                self.state = CState::Idle;
            }
        } else {
            self.state = CState::Intermission { done };
        }
    }

    fn observe_extended_flag(&mut self, now: u64, events: &mut Vec<CanEvent>) {
        let _ = events;
        let end = self
            .variant
            .agreement_end()
            .expect("ExtendedFlag implies an agreement region");
        if self.eof_rel(now).is_some_and(|rel| rel >= end) {
            self.state = CState::DelimWait {
                overload: false,
                probe: false,
                first: true,
            };
        }
    }

    fn observe_hold(
        &mut self,
        now: u64,
        seen: Level,
        votes: u8,
        voting: bool,
        events: &mut Vec<CanEvent>,
    ) {
        let end = self
            .variant
            .agreement_end()
            .expect("Hold implies an agreement region");
        let rel = self.eof_rel(now).expect("Hold implies EOF clock running");
        let mut votes = votes;
        if voting {
            if let Some((ws, we)) = self.variant.sampling_window() {
                if rel >= ws && rel <= we && seen.is_dominant() {
                    votes += 1;
                }
            }
        }
        if rel >= end {
            if voting {
                let (ws, we) = self
                    .variant
                    .sampling_window()
                    .expect("voting implies a window");
                let window = (we - ws + 1) as u8;
                let accept = (votes as usize) >= self.variant.vote_threshold();
                self.resolve_deferred(
                    accept,
                    DecisionBasis::Vote {
                        dominant: votes,
                        window,
                    },
                    events,
                );
            }
            self.state = CState::DelimWait {
                overload: false,
                probe: false,
                first: true,
            };
        } else {
            self.state = CState::Hold { votes, voting };
        }
    }

    fn observe_bus_off(&mut self, seen: Level, recessive_run: u8, periods: u8) {
        // Recovery: 128 occurrences of 11 consecutive recessive bits.
        let (mut run, mut periods) = (recessive_run, periods);
        if seen.is_recessive() {
            run += 1;
            if run >= 11 {
                run = 0;
                periods += 1;
                if periods >= 128 {
                    self.fc.recover_from_bus_off(&mut self.fc_scratch);
                    // Confinement events announced on the next error-path
                    // drain; state change is what matters here.
                    self.state = CState::Integrating { recessive_run: 0 };
                    return;
                }
            }
        } else {
            run = 0;
        }
        self.state = CState::BusOff {
            recessive_run: run,
            periods,
        };
    }
}

impl<V: Variant> BitNode for Controller<V> {
    type Tag = WirePos;
    type Event = CanEvent;

    fn drive(&mut self, now: u64) -> Level {
        self.bit_now = now;
        if let Some(t) = self.config.fail_at {
            if now >= t && !self.crashed {
                self.crash();
            }
        }
        match self.state {
            CState::Crashed
            | CState::BusOff { .. }
            | CState::Integrating { .. }
            | CState::Suspend { .. }
            | CState::DelimWait { .. }
            | CState::Delim { .. }
            | CState::Intermission { .. }
            | CState::PassiveFlag { .. }
            | CState::Hold { .. } => Level::Recessive,
            CState::Idle => {
                if self.queue.is_empty() {
                    Level::Recessive
                } else {
                    // Transmission starts now: the SOF hits the wire in this
                    // bit; the TxStarted event is emitted by the observe
                    // phase of the same bit so it carries a timestamp.
                    let mut pending = std::mem::take(&mut self.pending_drive_events);
                    let level = self.start_frame_tx(&mut pending);
                    self.pending_drive_events = pending;
                    level
                }
            }
            CState::InFrame => {
                if let Some(tx) = &self.tx {
                    tx.bits[tx.idx].level
                } else if self.pipe.as_ref().is_some_and(|p| p.ack_due()) {
                    Level::Dominant
                } else {
                    Level::Recessive
                }
            }
            CState::Flag { .. } | CState::ExtendedFlag => Level::Dominant,
        }
    }

    fn tag(&self) -> WirePos {
        match &self.state {
            CState::Integrating { .. } => WirePos::new(Field::Integrating, 0),
            CState::Idle => WirePos::new(Field::Idle, 0),
            CState::InFrame => self
                .pipe
                .as_ref()
                .map(|p| p.pos())
                .unwrap_or(WirePos::new(Field::Idle, 0)),
            CState::Flag { kind, sent, .. } => {
                let field = match kind {
                    FlagKind::Overload => Field::OverloadFlag,
                    _ => Field::ErrorFlag,
                };
                WirePos::new(field, *sent as u16)
            }
            CState::PassiveFlag { sent } => WirePos::new(Field::PassiveErrorFlag, *sent as u16),
            CState::ExtendedFlag => {
                let idx = self.eof_rel(self.bit_now).map(|r| r as u16).unwrap_or(0);
                WirePos::new(Field::ExtendedFlag, idx)
            }
            CState::Hold { .. } => {
                let idx = self.eof_rel(self.bit_now).map(|r| r as u16).unwrap_or(0);
                WirePos::new(Field::AgreementHold, idx)
            }
            CState::DelimWait { .. } => WirePos::new(Field::DelimWait, 0),
            CState::Delim { remaining, .. } => WirePos::new(
                Field::Delim,
                (self.variant.delimiter_len().saturating_sub(*remaining)) as u16,
            ),
            CState::Intermission { done } => WirePos::new(Field::Intermission, *done as u16),
            CState::Suspend { remaining } => {
                WirePos::new(Field::Suspend, 8u16.saturating_sub(*remaining as u16))
            }
            CState::BusOff { .. } => WirePos::new(Field::BusOff, 0),
            CState::Crashed => WirePos::new(Field::Crashed, 0),
        }
    }

    fn quiescent_until(&self, now: u64) -> u64 {
        // Only two states are self-sustaining under a recessive view: an
        // idle controller with nothing queued, and a crashed one. Every
        // other state (including bus-off recovery and suspend, which also
        // drive recessive) counts bits and so changes every step.
        let idle = matches!(self.state, CState::Idle) && self.queue.is_empty();
        if !(idle || matches!(self.state, CState::Crashed))
            || !self.pending_drive_events.is_empty()
            || self.announce_crash
        {
            return now;
        }
        // A scheduled crash still due interrupts the quiet stretch: the
        // drive phase of bit `fail_at` must run so the crash (and its
        // event) lands on the same bit as in a stepped run.
        match self.config.fail_at {
            Some(t) if !self.crashed => t.max(now),
            _ => u64::MAX,
        }
    }

    fn leap_frame(
        nodes: &mut [Self],
        now: u64,
        limit: u64,
        events: &mut Vec<TimedEvent<CanEvent>>,
    ) -> Option<u64> {
        leap_clean_frame::<V, Self>(nodes, now, limit, events)
    }

    fn observe(&mut self, now: u64, seen: Level, events: &mut Vec<CanEvent>) {
        if !self.pending_drive_events.is_empty() {
            events.append(&mut self.pending_drive_events);
        }
        if self.announce_crash {
            self.announce_crash = false;
            events.push(CanEvent::Crashed);
        }
        match self.state.clone() {
            CState::Crashed => {}
            CState::BusOff {
                recessive_run,
                periods,
            } => self.observe_bus_off(seen, recessive_run, periods),
            CState::Integrating { recessive_run } => {
                let run = if seen.is_recessive() {
                    recessive_run + 1
                } else {
                    0
                };
                self.state = if run >= 11 {
                    CState::Idle
                } else {
                    CState::Integrating { recessive_run: run }
                };
            }
            CState::Idle => {
                if seen.is_dominant() {
                    self.start_frame_rx(seen);
                }
            }
            CState::InFrame => self.observe_in_frame(now, seen, events),
            CState::Flag {
                kind,
                sent,
                then,
                overload,
            } => self.observe_flag(now, seen, kind, sent, then, overload, events),
            CState::PassiveFlag { sent } => {
                let sent = sent + 1;
                if sent >= 6 {
                    self.state = CState::DelimWait {
                        overload: false,
                        probe: false,
                        first: true,
                    };
                } else {
                    self.state = CState::PassiveFlag { sent };
                }
            }
            CState::ExtendedFlag => self.observe_extended_flag(now, events),
            CState::Hold { votes, voting } => self.observe_hold(now, seen, votes, voting, events),
            CState::DelimWait {
                overload,
                probe,
                first,
            } => self.observe_delim_wait(seen, overload, probe, first, events),
            CState::Delim {
                remaining,
                overload,
            } => self.observe_delim(now, seen, remaining, overload, events),
            CState::Intermission { done } => self.observe_intermission(seen, done, events),
            CState::Suspend { remaining } => {
                if seen.is_dominant() {
                    // Traffic started during suspend: join as receiver.
                    self.start_frame_rx(seen);
                } else if remaining <= 1 {
                    self.state = CState::Idle;
                } else {
                    self.state = CState::Suspend {
                        remaining: remaining - 1,
                    };
                }
            }
        }
        // A crash during this bit (shutoff at warning) is final: the error
        // paths above choose their follow-up state after the counter bump
        // that crashed the node, and must not revive it.
        if self.crashed {
            self.state = CState::Crashed;
        }
    }
}

#[cfg(test)]
mod frame_tail_tests {
    //! Boundary tests for the frame-tail bearer rule: which `AfterFlag` an
    //! error entering `standard_error` / `eof_error` selects at each field
    //! around the frame end, and where the agreement clock lands.

    use super::*;
    use crate::{FrameId, StandardCan};

    /// MajorCAN_3 geometry, declared locally: the real `MajorCan` lives in
    /// `majorcan-core`, which depends on this crate, so the boundary tests
    /// pin the controller's semantics against a minimal agreement variant
    /// carrying the same m = 3 numbers.
    #[derive(Debug, Clone, Copy)]
    struct Agreement3;

    impl Variant for Agreement3 {
        fn name(&self) -> String {
            "Agreement3".to_owned()
        }
        fn eof_len(&self) -> usize {
            6 // 2m
        }
        fn delimiter_len(&self) -> usize {
            7 // 2m + 1
        }
        fn eof_reaction(&self, _role: Role, eof_bit: usize) -> EofReaction {
            if eof_bit <= 3 {
                EofReaction::FlagAndVote
            } else {
                EofReaction::AcceptAndExtend
            }
        }
        fn commit_point(&self, _role: Role) -> usize {
            6
        }
        fn sampling_window(&self) -> Option<(usize, usize)> {
            Some((10, 14)) // (m+7, 3m+5)
        }
        fn vote_threshold(&self) -> usize {
            3
        }
        fn agreement_end(&self) -> Option<usize> {
            Some(14) // 3m+5
        }
    }

    /// MinorCAN geometry: CAN frame layout, Primary_error last-bit rule,
    /// no agreement region.
    #[derive(Debug, Clone, Copy)]
    struct Minorish;

    impl Variant for Minorish {
        fn name(&self) -> String {
            "Minorish".to_owned()
        }
        fn eof_len(&self) -> usize {
            7
        }
        fn delimiter_len(&self) -> usize {
            8
        }
        fn eof_reaction(&self, _role: Role, eof_bit: usize) -> EofReaction {
            if eof_bit == 7 {
                EofReaction::DeferPrimaryError
            } else {
                EofReaction::RejectAndFlag
            }
        }
        fn commit_point(&self, _role: Role) -> usize {
            7
        }
    }

    fn test_frame() -> Frame {
        Frame::new(FrameId::new(0x0AA).unwrap(), &[0xCD]).unwrap()
    }

    /// A 3-node cluster with node 0 holding a frame to transmit.
    fn cluster<V: Variant + Copy>(v: V) -> Vec<Controller<V>> {
        let mut nodes: Vec<Controller<V>> = (0..3).map(|_| Controller::new(v)).collect();
        nodes[0].enqueue(test_frame());
        nodes
    }

    /// Steps the cluster bit by bit on a wired-AND bus, flipping node `i`'s
    /// view whenever `disturb(now, i, tag)` says so, until `until` holds
    /// after an observe phase. Returns the stop time and the merged event
    /// log. Mirrors the engine's phase order: drive all, resolve, tag, then
    /// observe per node.
    fn run_until<V: Variant>(
        nodes: &mut [Controller<V>],
        disturb: impl Fn(u64, usize, WirePos) -> bool,
        until: impl Fn(&[Controller<V>]) -> bool,
    ) -> (u64, Vec<CanEvent>) {
        let mut events = Vec::new();
        for now in 0..600 {
            let driven: Vec<Level> = nodes.iter_mut().map(|n| n.drive(now)).collect();
            let wire = Level::resolve(driven.iter().copied());
            let tags: Vec<WirePos> = nodes.iter().map(|n| n.tag()).collect();
            for (i, node) in nodes.iter_mut().enumerate() {
                let seen = if disturb(now, i, tags[i]) {
                    !wire
                } else {
                    wire
                };
                node.observe(now, seen, &mut events);
            }
            if until(nodes) {
                return (now, events);
            }
        }
        panic!("predicate never satisfied within 600 bits");
    }

    fn in_flag<V: Variant>(nodes: &[Controller<V>], i: usize) -> bool {
        matches!(nodes[i].state, CState::Flag { .. })
    }

    /// The wire time of EOF bit 1 in an undisturbed run — "the paper's
    /// bit", where every tail bearer must anchor the agreement clock.
    fn clean_eof1<V: Variant + Copy>(v: V) -> u64 {
        let mut nodes = cluster(v);
        run_until(&mut nodes, |_, _, _| false, |ns| ns[1].eof_start.is_some());
        nodes[1].eof_start.unwrap()
    }

    #[test]
    fn last_crc_bit_error_takes_standard_recovery_even_with_agreement() {
        let mut nodes = cluster(Agreement3);
        run_until(
            &mut nodes,
            |_, i, tag| i == 0 && tag.field == Field::Crc && tag.index == 14 && !tag.stuff,
            |ns| in_flag(ns, 0),
        );
        match nodes[0].state {
            CState::Flag {
                kind: FlagKind::ActiveError,
                then: AfterFlag::Delimiter,
                ..
            } => {}
            ref s => panic!("expected standard recovery, got {s:?}"),
        }
        assert_eq!(
            nodes[0].eof_start, None,
            "a CRC-field bearer is outside the frame tail: no agreement clock"
        );
    }

    #[test]
    fn ack_slot_error_enters_the_hold_two_bits_before_eof() {
        let eof1 = clean_eof1(Agreement3);
        let mut nodes = cluster(Agreement3);
        let (t, _) = run_until(
            &mut nodes,
            |_, i, tag| i == 0 && tag.field == Field::AckSlot,
            |ns| in_flag(ns, 0),
        );
        match nodes[0].state {
            CState::Flag {
                then: AfterFlag::MajorHold { voting: false },
                ..
            } => {}
            ref s => panic!("expected frame-tail hold, got {s:?}"),
        }
        assert_eq!(t + 2, eof1, "the ACK slot is two bits before EOF bit 1");
        assert_eq!(nodes[0].eof_start, Some(eof1));
    }

    #[test]
    fn crc_delimiter_error_enters_the_hold_three_bits_before_eof() {
        let eof1 = clean_eof1(Agreement3);
        let mut nodes = cluster(Agreement3);
        let (t, _) = run_until(
            &mut nodes,
            |_, i, tag| i == 1 && tag.field == Field::CrcDelim,
            |ns| in_flag(ns, 1),
        );
        match nodes[1].state {
            CState::Flag {
                then: AfterFlag::MajorHold { voting: false },
                ..
            } => {}
            ref s => panic!("expected frame-tail hold, got {s:?}"),
        }
        assert_eq!(
            t + 3,
            eof1,
            "the CRC delimiter is three bits before EOF bit 1"
        );
        assert_eq!(nodes[1].eof_start, Some(eof1));
    }

    #[test]
    fn ack_delimiter_error_enters_the_hold_one_bit_before_eof() {
        let eof1 = clean_eof1(Agreement3);
        let mut nodes = cluster(Agreement3);
        let (t, _) = run_until(
            &mut nodes,
            |_, i, tag| i == 1 && tag.field == Field::AckDelim,
            |ns| in_flag(ns, 1),
        );
        match nodes[1].state {
            CState::Flag {
                then: AfterFlag::MajorHold { voting: false },
                ..
            } => {}
            ref s => panic!("expected frame-tail hold, got {s:?}"),
        }
        assert_eq!(t + 1, eof1, "the ACK delimiter is the bit before EOF bit 1");
        assert_eq!(nodes[1].eof_start, Some(eof1));
    }

    #[test]
    fn crc_verdict_flags_at_eof_bit_1_and_holds() {
        let eof1 = clean_eof1(Agreement3);
        let mut nodes = cluster(Agreement3);
        let (t, events) = run_until(
            &mut nodes,
            |_, i, tag| i == 1 && tag.field == Field::Crc && tag.index == 5 && !tag.stuff,
            |ns| in_flag(ns, 1),
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                CanEvent::ErrorDetected {
                    kind: ErrorKind::Crc,
                    ..
                }
            )),
            "the flag must come from the CRC verdict, not a stuff/form error: {events:?}"
        );
        match nodes[1].state {
            CState::Flag {
                then: AfterFlag::MajorHold { voting: false },
                ..
            } => {}
            ref s => panic!("expected frame-tail hold, got {s:?}"),
        }
        // The verdict is signalled while observing the ACK delimiter, so
        // the flag's first driven bit is EOF bit 1 itself.
        assert_eq!(t + 1, eof1, "CRC flag starts at EOF bit 1");
        assert_eq!(nodes[1].eof_start, Some(eof1));
    }

    #[test]
    fn eof_bit_1_error_flags_and_votes() {
        let eof1 = clean_eof1(Agreement3);
        let mut nodes = cluster(Agreement3);
        let (t, _) = run_until(
            &mut nodes,
            |_, i, tag| i == 1 && tag.field == Field::Eof && tag.index == 0,
            |ns| in_flag(ns, 1),
        );
        match nodes[1].state {
            CState::Flag {
                then: AfterFlag::MajorHold { voting: true },
                ..
            } => {}
            ref s => panic!("expected first-sub-field flag-and-vote, got {s:?}"),
        }
        assert_eq!(t, eof1, "the error was detected at EOF bit 1 itself");
        assert_eq!(
            nodes[1].eof_start,
            Some(eof1),
            "the clock was anchored by the clean pipeline entry into EOF"
        );
    }

    #[test]
    fn tail_errors_take_standard_recovery_without_an_agreement_region() {
        fn assert_delimiter_recovery<V: Variant + Copy>(v: V) {
            for (victim, field) in [
                (0usize, Field::AckSlot),
                (1usize, Field::AckDelim),
                (1usize, Field::CrcDelim),
            ] {
                let mut nodes = cluster(v);
                run_until(
                    &mut nodes,
                    |_, i, tag| i == victim && tag.field == field,
                    |ns| in_flag(ns, victim),
                );
                match nodes[victim].state {
                    CState::Flag {
                        then: AfterFlag::Delimiter,
                        ..
                    } => {}
                    ref s => panic!(
                        "{}: expected standard recovery at {field:?}, got {s:?}",
                        v.name()
                    ),
                }
                assert_eq!(nodes[victim].eof_start, None, "{}: {field:?}", v.name());
            }
        }
        assert_delimiter_recovery(StandardCan);
        assert_delimiter_recovery(Minorish);
    }
}
