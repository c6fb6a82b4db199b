//! Parallel deterministic experiment-campaign runner.
//!
//! Monte-Carlo style experiments over the MajorCAN simulator decompose
//! into many independent jobs: run N trials of protocol P under fault
//! model F and count what happened. This crate turns such a job list into
//! a campaign:
//!
//! * **Determinism** — every [`Job`] carries a seed derived from
//!   `(campaign seed, job id)` ([`derive_job_seed`]); counters merge
//!   associatively; the report sorts by job id. The result artifact is
//!   bit-identical for 1, 2 or 8 workers.
//! * **Durability** — results stream into a JSONL file ([`JsonlSink`]),
//!   one flushed line per job, guarded by a [`Manifest`]. Re-running the
//!   same campaign resumes: completed job ids are skipped.
//! * **Robustness** — a panicking job is caught ([`run_campaign_scoped`]
//!   uses `catch_unwind`), recorded in a failures artifact with its
//!   replay seed, and the campaign continues.
//! * **Observability** — periodic progress lines (jobs done, jobs/sec,
//!   simulated bits/sec, ETA) and per-worker [`WorkerStats`].
//!
//! The crate knows nothing about how jobs execute: callers hand
//! [`run_campaign_scoped`] a per-worker state builder and a
//! `Fn(&mut S, &Job) -> JobResult` (see `majorcan-bench`'s job
//! interpreter for the canonical one).
//!
//! ```
//! use majorcan_campaign::{
//!     CampaignOptions, Job, JobResult, JsonlSink, Manifest, ProtocolSpec,
//!     FaultSpec, WorkloadSpec, run_campaign_scoped,
//! };
//!
//! let jobs: Vec<Job> = (0..4)
//!     .map(|id| Job::new(
//!         id, 42, ProtocolSpec::StandardCan, FaultSpec::None,
//!         WorkloadSpec::SingleBroadcast, 3, 10,
//!     ))
//!     .collect();
//! let dir = std::env::temp_dir().join("majorcan-campaign-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let out = dir.join("results.jsonl");
//! let _ = std::fs::remove_file(&out);
//! let _ = std::fs::remove_file(dir.join("results.jsonl.manifest.json"));
//! let manifest = Manifest::for_jobs("doc", 42, &jobs);
//! let mut sink = JsonlSink::open(&out, &manifest).unwrap();
//! let opts = CampaignOptions::quiet(2);
//! let report = run_campaign_scoped(&jobs, &opts, Some(&mut sink), || (), |(), job| {
//!     let mut r = JobResult::for_job(job);
//!     r.frames = job.frames;
//!     r.counters.add("ok", job.frames);
//!     r
//! })
//! .unwrap();
//! assert_eq!(report.totals.jobs, 4);
//! assert_eq!(report.totals.counters.get("ok"), 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod job;
mod runner;
pub mod shard;
mod sink;

pub use job::{
    derive_job_seed, derive_trial_seed, Counters, DomainSpec, FaultSpec, Job, JobFailure,
    JobResult, ProtocolSpec, Totals, WorkloadSpec,
};
pub use runner::{
    map_ordered, panic_message, run_campaign_in_memory_scoped, run_campaign_scoped,
    CampaignOptions, CampaignReport, WorkerStats,
};
pub use shard::{
    campaign_anchor, merge_ready, merge_shards, run_fleet_worker, shard_of, ChaosMode,
    FleetManifest, FleetOptions, MergeError, MergeSummary, ShardAnchor, ShardOutcome, ShardStatus,
};
pub use sink::{JsonlSink, Manifest};
