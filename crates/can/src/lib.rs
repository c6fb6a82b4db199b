//! # majorcan-can — a bit-level Controller Area Network data-link layer
//!
//! A from-scratch implementation of the CAN protocol machinery the MajorCAN
//! paper (Proenza & Miro-Julia, ICDCS 2000) builds on, designed to run on the
//! [`majorcan_sim`] bit-synchronous bus simulator:
//!
//! * [`Frame`]/[`FrameId`] — base-format data and remote frames;
//! * [`Crc15`] — the CAN frame check sequence;
//! * [`stuff`]/[`destuff`]/[`encode_frame`] — the wire codec with bit
//!   stuffing and frame-relative [`WirePos`] metadata;
//! * [`RxPipeline`] — the incremental per-frame decoder every node (including
//!   the transmitter, as its own monitor) runs;
//! * [`FaultConfinement`] — TEC/REC error counters, error-active /
//!   error-passive / bus-off states, and the paper's switch-off-at-warning
//!   policy;
//! * [`Controller`] — the full data-link state machine: arbitration,
//!   acknowledgment, error and overload signalling, automatic
//!   retransmission;
//! * [`Variant`] — the protocol-variant hooks through which MinorCAN and
//!   MajorCAN (in the `majorcan-core` crate) modify end-of-frame behaviour;
//!   [`StandardCan`] is the unmodified protocol.
//!
//! The controller's externally visible behaviour is its [`CanEvent`] log:
//! deliveries, rejections, transmission outcomes, error signatures. The
//! paper's scenario reproductions and the Atomic Broadcast checker consume
//! exactly that log.
//!
//! # Examples
//!
//! One transmitter, two receivers, no faults — everyone delivers.
//! Clusters are assembled through the `majorcan-testbed` facade rather
//! than by attaching controllers to a raw simulator by hand:
//!
//! ```
//! use majorcan_can::{CanEvent, Frame, FrameId};
//! use majorcan_testbed::{ProtocolSpec, Testbed};
//!
//! let mut tb = Testbed::builder(ProtocolSpec::StandardCan).build();
//!
//! let frame = Frame::new(FrameId::new(0x0B5)?, b"brake")?;
//! tb.enqueue(0, frame.clone());
//! tb.run(200);
//!
//! let deliveries = tb
//!     .can_events()
//!     .iter()
//!     .filter(|e| matches!(&e.event, CanEvent::Delivered { frame: f, .. } if *f == frame))
//!     .count();
//! assert_eq!(deliveries, 2, "both receivers delivered exactly once");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod counters;
mod crc;
mod events;
mod frame;
mod pipeline;
mod variant;
mod wire;

pub use controller::{leap_clean_frame, Controller, ControllerConfig};
pub use counters::{
    ConfinementEvent, FaultConfinement, FaultState, BUS_OFF_LIMIT, PASSIVE_LIMIT, WARNING_LIMIT,
};
pub use crc::{Crc15, CRC15_POLY};
pub use events::{CanEvent, DecisionBasis, ErrorKind, FlagKind};
pub use frame::{Frame, FrameError, FrameId};
pub use pipeline::{RxPipeline, RxStep};
pub use variant::{EofReaction, Role, StandardCan, Variant};
pub use wire::{
    destuff, encode_frame, frame_payload_bits, stuff, Field, Layout, StuffViolation, WireBit,
    WirePos,
};
