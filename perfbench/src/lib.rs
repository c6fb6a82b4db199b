//! # majorcan-perfbench — end-to-end and per-layer benchmark
//!
//! Four workloads (`falsify`, `falsify_major`, `attack`, `soak`) measured
//! untraced through the entry points the bins call, and a separate
//! traced run that re-drives the same inputs layer by layer. See
//! `README.md` in this directory for the workloads, the metrics and how
//! to run both.

pub mod measure;
pub mod probe;
pub mod profile;
pub mod run;
pub mod trace;
pub mod workloads;
