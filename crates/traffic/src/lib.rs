//! # majorcan-traffic — sustained multi-sender bus traffic
//!
//! The scripted experiments exercise one frame at a time; this crate
//! stresses the protocols the way a fielded bus would — many senders,
//! mixed periodic/sporadic release patterns, real arbitration
//! contention, error bursts walking the TEC/REC counters — for millions
//! of frames, with the Atomic Broadcast properties checked **online**:
//!
//! * [`TrafficSpec`] / [`SenderSpec`] — message-set descriptions
//!   (per-node identifier, period, jitter, payload distribution);
//! * [`TrafficStream`] — the lazy generator: a spec plus a seed becomes
//!   a [`ReleaseSource`](majorcan_workload::ReleaseSource) in O(senders)
//!   memory;
//! * [`run_soak`] / [`SoakSpec`] — the soak runner, draining events
//!   chunk-wise into the
//!   [`WindowedChecker`](majorcan_abcast::WindowedChecker), the
//!   [`LatencyTracker`] and [`ResidencyTracker`], and optionally a
//!   [`TraceExporter`];
//! * [`Histogram`] — integer log-linear latency/jitter statistics,
//!   deterministic across platforms and worker counts;
//! * [`TraceExporter`] — timestamped JSONL/CSV bus logs comparable to
//!   the arXiv:2307.04561 captures (see `docs/TRACE_FORMAT.md`).
//!
//! The `traffic` binary runs the E17 soak campaign on the
//! `majorcan-campaign` runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod soak;
mod spec;
mod stream;

pub use export::{ExportFormat, TraceExporter, US_PER_BIT};
pub use metrics::{Histogram, LatencyTracker, Residency, ResidencyTracker};
pub use soak::{run_soak, AttackSpec, BurstSpec, SoakOutcome, SoakSpec, DEFAULT_WINDOW};
pub use spec::{SenderPattern, SenderSpec, TrafficSpec, DEFAULT_FRAME_BITS};
pub use stream::TrafficStream;
