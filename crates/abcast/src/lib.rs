//! # majorcan-abcast — Atomic Broadcast property checking
//!
//! The MajorCAN paper's claims are claims about **properties**: standard CAN
//! violates Agreement and At-most-once delivery, MinorCAN still violates
//! Agreement under two disturbances, EDCAN lacks Total Order, and MajorCAN_m
//! satisfies all of AB1–AB5 under up to `m` disturbed bit-views per frame.
//! This crate turns every simulation run into such a verdict:
//!
//! * [`AbTrace`] — a protocol-agnostic log of `Broadcast` / `Deliver` /
//!   `Crash` events;
//! * [`check_trace`] / [`Report`] — the post-hoc AB1–AB5 checker with IMO
//!   and double-delivery diagnostics (a thin wrapper over
//!   [`TraceAccumulator`]);
//! * [`WindowedChecker`] — the incremental windowed checker: same event
//!   vocabulary, O(live messages) memory, verdicts flagged online — built
//!   for soak runs streaming millions of frames;
//! * [`trace_from_can_events`] — the adapter from raw CAN controller logs
//!   (link-layer semantics, transmitter self-delivery included);
//!   [`check_can_events`] grades such a log without building the trace,
//!   and [`WindowedChecker::push_can`] is its streaming counterpart.
//!
//! # Examples
//!
//! ```
//! use majorcan_abcast::{AbTrace, MsgId};
//!
//! // The Fig. 1c shape: Y keeps a frame X never received.
//! let m = MsgId::new(0x0AA, vec![0xCD]);
//! let mut trace = AbTrace::new(3);
//! trace.broadcast(0, 0, m.clone());
//! trace.deliver(50, 2, m.clone()); // Y
//! trace.crash(60, 0);              // the transmitter dies
//! let report = trace.check();
//! assert!(!report.agreement.holds, "inconsistent message omission");
//! assert_eq!(report.imo_messages, vec![m]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod checker;
mod incremental;
mod render;
mod trace;

pub use adapter::{check_can_events, msg_id_of, trace_from_can_events};
pub use checker::{check_trace, PropertyResult, Report, TraceAccumulator, Verdict};
pub use incremental::{OnlineReport, WindowedChecker, MAX_NODES};
pub use render::render_delivery_matrix;
pub use trace::{AbEvent, AbTrace, MsgId, Stamped};
