//! The search campaign: fanning schedule synthesis across the
//! deterministic campaign runner.
//!
//! Every target protocol contributes a slice of
//! [`FaultSpec::AdversarialSearch`] jobs; trial `t` of job `j` derives its
//! RNG from `(campaign seed, j, t)` and synthesizes + evaluates exactly
//! one schedule, so the explored space is a pure function of the campaign
//! seed — identical for any `--jobs` worker count. Violations flow
//! through a side channel into the shrink phase shared with the attack
//! search (`shrink_phase`): ordered by `(job id, trial)`, deduplicated,
//! shrunk per target on the worker pool, deduplicated again post-shrink
//! and capped per outcome class before archiving; every cap is reported,
//! never silent.
//!
//! Resume note: the JSONL counter artifact is resume-safe like any
//! campaign, but the finding side channel only sees jobs executed in the
//! current invocation — archive corpora from fresh (or in-memory) runs.

use crate::corpus::{CorpusEntry, Provenance};
use crate::generator::{generate, Geometry};
use crate::oracle::{budget_for, Engine, Oracle, Outcome};
use crate::schedule::Schedule;
use crate::shrink::{shrink_with, Shrunk};
use crate::shrink_phase::{cap_per_class, shrink_phase, RawFinding, ShrinkPhase, ShrinkResult};
use majorcan_bench::jobs::chunked_frames;
use majorcan_campaign::{
    derive_trial_seed, run_campaign_scoped, CampaignOptions, FaultSpec, Job, JobResult, JsonlSink,
    ProtocolSpec, Totals, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::sync::Mutex;

/// Schedules per campaign job — the parallelization granule.
pub const SCHEDULES_PER_JOB: u64 = 50;

/// Configuration of one falsification campaign.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Campaign seed: the whole explored space derives from it.
    pub campaign_seed: u64,
    /// Protocol targets, each searched independently.
    pub targets: Vec<ProtocolSpec>,
    /// Bus size.
    pub n_nodes: usize,
    /// Schedules synthesized per target.
    pub schedules_per_target: u64,
    /// Maximum disturbances per schedule.
    pub max_errors: usize,
    /// Archived entries kept per `(target, outcome)` class; the shrink
    /// queue admits four times this many raw findings per class.
    pub keep_per_class: usize,
    /// Which engine [`Oracle::evaluate_batch`] routes each job's
    /// schedules through — by default one shared fault-free trunk per
    /// job, with one-disturbance repeats answered from each worker
    /// oracle's verdict memo; `--scalar` runs every schedule alone,
    /// memo-free, as the determinism gate (results must be identical
    /// whichever engine runs).
    pub engine: Engine,
}

impl SearchConfig {
    /// A campaign over the paper's protagonists (CAN, MinorCAN,
    /// MajorCAN_5) with the default budgets.
    pub fn new(campaign_seed: u64, schedules_per_target: u64) -> SearchConfig {
        SearchConfig {
            campaign_seed,
            targets: vec![
                ProtocolSpec::StandardCan,
                ProtocolSpec::MinorCan,
                ProtocolSpec::MajorCan { m: 5 },
            ],
            n_nodes: 3,
            schedules_per_target,
            max_errors: 4,
            keep_per_class: 4,
            engine: Engine::default(),
        }
    }
}

/// One raw (pre-shrink) violation discovered by the search.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Target protocol.
    pub target: ProtocolSpec,
    /// Discovering job.
    pub job_id: u64,
    /// Discovering trial within the job.
    pub trial: u64,
    /// The oracle's classification.
    pub outcome: Outcome,
    /// The synthesized schedule, as generated.
    pub schedule: Schedule,
}

impl RawFinding for Finding {
    fn target(&self) -> ProtocolSpec {
        self.target
    }
    fn coords(&self) -> (u64, u64) {
        (self.job_id, self.trial)
    }
    fn token(&self) -> &'static str {
        self.outcome.token()
    }
    fn key(&self) -> String {
        self.schedule.key()
    }
}

impl ShrinkResult for Shrunk {
    fn key(&self) -> String {
        self.schedule.key()
    }
    fn evaluations(&self) -> usize {
        self.evaluations
    }
    fn runs(&self) -> usize {
        self.runs
    }
}

/// Everything a finished search produced.
#[derive(Debug)]
pub struct SearchReport {
    /// Campaign totals; outcome counters are keyed
    /// `outcome/<protocol>/<token>`.
    pub totals: Totals,
    /// Deduplicated raw findings in `(job id, trial)` order.
    pub findings: Vec<Finding>,
    /// Shrunk, deduplicated, per-class-capped corpus entries.
    pub entries: Vec<CorpusEntry>,
    /// Findings dropped by the per-class caps (reported, never silent).
    pub dropped: usize,
    /// Judgements spent shrinking
    /// ([`Shrunk::evaluations`](field@Shrunk::evaluations) summed).
    pub shrink_evaluations: usize,
    /// Simulator runs among them ([`Shrunk::runs`](field@Shrunk::runs)
    /// summed) — the same for any worker count.
    pub shrink_runs: usize,
}

impl SearchReport {
    /// Number of deduplicated raw findings against `target`.
    pub fn findings_for(&self, target: ProtocolSpec) -> usize {
        findings_for(&self.findings, target)
    }

    /// The explored-schedule count for `target` (sum of its outcome
    /// counters).
    pub fn explored_for(&self, target: ProtocolSpec) -> u64 {
        explored_for(&self.totals, "outcome", target)
    }
}

/// Number of `findings` against `target`.
pub(crate) fn findings_for<F: RawFinding>(findings: &[F], target: ProtocolSpec) -> usize {
    findings.iter().filter(|f| f.target() == target).count()
}

/// The sum of the `<kind>/<target>/…` outcome counters in `totals`: the
/// trials a search ran against `target`.
pub(crate) fn explored_for(totals: &Totals, kind: &str, target: ProtocolSpec) -> u64 {
    let prefix = format!("{kind}/{target}/");
    totals
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Builds the job list of a search campaign: per target,
/// `schedules_per_target` trials chunked into [`SCHEDULES_PER_JOB`]-sized
/// [`FaultSpec::AdversarialSearch`] jobs.
pub fn build_jobs(cfg: &SearchConfig) -> Vec<Job> {
    let fault = FaultSpec::AdversarialSearch {
        max_errors: cfg.max_errors,
    };
    jobs_for(
        cfg.campaign_seed,
        &cfg.targets,
        cfg.n_nodes,
        cfg.schedules_per_target,
        SCHEDULES_PER_JOB,
        fault,
    )
}

/// The job list of either search: per target, `per_target` trials
/// chunked into `per_job`-sized `fault` jobs, with ids in target order.
pub(crate) fn jobs_for(
    campaign_seed: u64,
    targets: &[ProtocolSpec],
    n_nodes: usize,
    per_target: u64,
    per_job: u64,
    fault: FaultSpec,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &target in targets {
        for chunk in chunked_frames(per_target, per_job) {
            jobs.push(Job::new(
                jobs.len() as u64,
                campaign_seed,
                target,
                fault.clone(),
                WorkloadSpec::SingleBroadcast,
                n_nodes,
                chunk,
            ));
        }
    }
    jobs
}

/// Executes one adversarial-search job: synthesize all `job.frames`
/// schedules up front, evaluate them through the oracle's batch engine
/// ([`Oracle::evaluate_batch`] — one shared trunk by default), then count
/// outcomes and report findings into the side channel. Counters and
/// `(job id, trial)` finding coordinates are identical to evaluating
/// trial by trial — every engine is gated on outcome equality with the
/// scalar hot loop.
fn execute_job(
    oracle: &mut Oracle,
    job: &Job,
    findings: Option<&Mutex<Vec<Finding>>>,
) -> JobResult {
    let FaultSpec::AdversarialSearch { max_errors } = job.fault else {
        panic!("falsify executor got a non-adversarial job {}", job.id);
    };
    let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
    let budget = budget_for(job.protocol);
    let mut out = JobResult::for_job(job);
    let schedules: Vec<_> = (0..job.frames)
        .map(|trial| {
            let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
            generate(&mut rng, &geo, max_errors)
        })
        .collect();
    let outcomes = oracle.evaluate_batch(job.protocol, &schedules, job.n_nodes, budget);
    for (trial, (schedule, outcome)) in schedules.iter().zip(outcomes).enumerate() {
        out.counters
            .add(&format!("outcome/{}/{}", job.protocol, outcome.token()), 1);
        out.frames += 1;
        out.bits += budget;
        if outcome.is_finding() {
            if let Some(findings) = findings {
                findings.lock().unwrap().push(Finding {
                    target: job.protocol,
                    job_id: job.id,
                    trial: trial as u64,
                    outcome,
                    schedule: schedule.clone(),
                });
            }
        }
    }
    out
}

/// Executes one adversarial-search job for its counters alone — the
/// fleet (sharded) execution path, where the verdict is read off the
/// merged outcome counters and corpus archiving stays a single-process
/// concern. Transcript bytes are identical to the single-process
/// executor's, so shard anchors verify against an unsharded run.
pub fn execute_search_job(oracle: &mut Oracle, job: &Job) -> JobResult {
    execute_job(oracle, job, None)
}

/// Runs a falsification campaign: explore, collect, shrink, archive.
///
/// With a sink, the counter artifact is durable and resumable like any
/// campaign artifact; without one the run is in-memory. Exploration and
/// the per-target shrinks both run on the worker pool of `opts`. Results
/// — counters, findings, shrunk entries and the shrink counts — are
/// bit-identical for any worker count.
///
/// # Errors
///
/// Only sink I/O errors fail a search; job panics become findings or
/// failure artifacts.
pub fn run_search(
    cfg: &SearchConfig,
    opts: &CampaignOptions,
    sink: Option<&mut JsonlSink>,
) -> io::Result<SearchReport> {
    let jobs = build_jobs(cfg);
    let findings = Mutex::new(Vec::new());
    let engine = cfg.engine;
    let factory = move || Oracle::with_engine(engine);
    let run = |oracle: &mut Oracle, job: &Job| execute_job(oracle, job, Some(&findings));
    let report = run_campaign_scoped(&jobs, opts, sink, factory, run)?;
    let raw = findings.into_inner().expect("finding channel poisoned");
    let ShrinkPhase {
        findings,
        minima,
        dropped,
        evaluations,
        runs,
    } = shrink_phase(
        raw,
        cfg.keep_per_class,
        opts,
        Oracle::new,
        |oracle, f: &Finding| {
            shrink_with(
                oracle,
                f.target,
                &f.schedule,
                cfg.n_nodes,
                budget_for(f.target),
            )
        },
    );
    let candidates: Vec<CorpusEntry> = minima
        .into_iter()
        .map(|(i, shrunk)| {
            let finding = &findings[i];
            CorpusEntry {
                protocol: finding.target,
                n_nodes: cfg.n_nodes,
                budget: budget_for(finding.target),
                expected: finding.outcome.token().to_string(),
                schedule: shrunk.schedule,
                provenance: Provenance {
                    campaign_seed: cfg.campaign_seed,
                    job_id: finding.job_id,
                    trial: finding.trial,
                },
            }
        })
        .collect();
    let (entries, capped) = cap_per_class(candidates, cfg.keep_per_class, |e| {
        (e.protocol.to_string(), e.expected.clone())
    });

    Ok(SearchReport {
        totals: report.totals,
        findings,
        entries,
        dropped: dropped + capped,
        shrink_evaluations: evaluations,
        shrink_runs: runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_covers_every_target_deterministically() {
        let cfg = SearchConfig::new(0xFA15, 120);
        let jobs = build_jobs(&cfg);
        assert_eq!(jobs.len(), 9, "3 targets x ceil(120/50)");
        assert_eq!(jobs, build_jobs(&cfg));
        let total: u64 = jobs
            .iter()
            .filter(|j| j.protocol == ProtocolSpec::StandardCan)
            .map(|j| j.frames)
            .sum();
        assert_eq!(total, 120);
        assert!(jobs
            .iter()
            .all(|j| matches!(j.fault, FaultSpec::AdversarialSearch { max_errors: 4 })));
    }

    #[test]
    fn small_search_finds_and_shrinks_can_violations() {
        let mut cfg = SearchConfig::new(3, 60);
        cfg.targets = vec![ProtocolSpec::StandardCan];
        let report = run_search(&cfg, &CampaignOptions::quiet(2), None).unwrap();
        assert_eq!(report.explored_for(ProtocolSpec::StandardCan), 60);
        assert!(
            report.findings_for(ProtocolSpec::StandardCan) >= 1,
            "60 biased schedules must rediscover a CAN violation: {:?}",
            report.totals.counters
        );
        assert!(!report.entries.is_empty());
        for entry in &report.entries {
            assert_eq!(entry.replay().token(), entry.expected, "{}", entry.schedule);
        }
    }
}
