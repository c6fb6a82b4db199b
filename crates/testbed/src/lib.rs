//! # majorcan-testbed — one way to build and run a protocol cluster
//!
//! Every experiment path in the workspace — paper scenario reproductions,
//! the falsifier's oracle, Monte-Carlo campaign jobs, periodic-load
//! workloads and the HLP probes — assembles the same thing: N protocol
//! nodes on a wired-AND bus behind a fault channel, run for a bit budget
//! and graded by the Atomic Broadcast checker. This crate is that
//! assembly, once:
//!
//! * [`Testbed`] / [`TestbedBuilder`] — build a cluster for any
//!   [`ProtocolSpec`] (the three link
//!   variants and the three CAN-based higher-level protocols) and run
//!   schedules, scenarios or workloads on it.
//! * [`BusChannel`] — the closed set of fault channels a run can install,
//!   so the testbed stays a single concrete type per protocol.
//! * [`Outcome`] / [`classify`] — the one shared verdict vocabulary
//!   (formerly duplicated between the falsifier's oracle and the scenario
//!   runner's `consistent_single_delivery`).
//! * [`ScenarioRun`] — the owned result of a scripted link-layer run,
//!   with the trace, event log and unfired-disturbance accounting.
//!
//! The design point is *reuse*: a campaign worker builds one testbed and
//! calls [`Testbed::run_schedule`] thousands of times;
//! [`Testbed::load_script`] rewinds controllers, event buffers, trace
//! storage and the script allocation in place, so the hot loop is
//! allocation-free after warm-up. Campaign callers go one step further:
//! [`Testbed::run_lanes`] runs a batch's shared fault-free trunk once,
//! snapshots the cluster at the first bit each schedule's script could
//! fire and finishes that schedule from there on the scalar path. Its
//! results are checked against [`Testbed::run_schedule`], the reference
//! path. The repository benchmark (`perfbench/`) times both.

mod channel;
mod lanes;
mod outcome;
mod scenario_run;
mod testbed;

pub use channel::BusChannel;
pub use majorcan_campaign::ProtocolSpec;
pub use outcome::{classify, Outcome};
pub use scenario_run::ScenarioRun;
pub use testbed::{
    budget_for, spec_of, Snapshot, Testbed, TestbedBuilder, HLP_BUDGET, HLP_PROBE_PAYLOAD,
    LINK_BUDGET,
};
