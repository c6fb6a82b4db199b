//! The traced run: spans and counts recorded around every call into a
//! layer, from the benchmark's own code.
//!
//! Each function here re-drives the inputs of an untraced repetition
//! through the same public functions the entry point calls internally
//! (`build_jobs`, `generate`, `Oracle::evaluate_batch`, `shrink_with`,
//! `AttackOracle::evaluate`, `shrink_attack_with`, the campaign runner),
//! with the entry point's own bookkeeping repeated step for step, so its
//! output must equal the untraced output exactly; the caller compares
//! the two digests.

use crate::workloads::{counters_of, CampaignOutput, Minimum};
use majorcan_campaign::{
    derive_trial_seed, run_campaign_in_memory_scoped, CampaignOptions, CampaignReport, FaultSpec,
    Job, JobResult,
};
use majorcan_falsify::{
    budget_for, build_attack_jobs, build_jobs, generate, generate_attack, shrink_attack_with,
    shrink_with, AttackFinding, AttackOracle, AttackSchedule, AttackSearchConfig, Finding,
    Geometry, Oracle, Schedule, SearchConfig, ATTACK_BUDGET,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A running mean: a total over `n` samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stat {
    /// Sum of the samples.
    pub total: f64,
    /// Number of samples.
    pub n: u64,
}

impl Stat {
    /// A stat holding `total` over `n` samples.
    pub fn from_total(total: f64, n: u64) -> Stat {
        Stat { total, n }
    }

    /// The ratio `num / den`, with `den` as its sample count.
    pub fn ratio(num: u64, den: u64) -> Stat {
        Stat {
            total: num as f64,
            n: den,
        }
    }

    /// Adds `n` samples summing to `total`.
    pub fn add(&mut self, total: f64, n: u64) {
        self.total += total;
        self.n += n;
    }

    /// The mean, or 0 without samples.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total / self.n as f64
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (1-based).
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The layer call the span encloses.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct OpenSpan {
    /// The id children name as their parent.
    pub id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
}

/// Keeps every span of a traced run in memory; the caller writes them
/// out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts a span named `name` under `parent` (0 for a root).
    pub fn open(&self, name: &'static str, parent: u32) -> OpenSpan {
        OpenSpan {
            // Relaxed: the id only has to be unique; it publishes nothing.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends `span`, records it and returns its duration in ns.
    pub fn close(&self, span: OpenSpan) -> f64 {
        let end = Instant::now();
        let start_ns = span.start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span log poisoned").push(Span {
            id: span.id,
            parent: span.parent,
            name: span.name,
            start_ns,
            end_ns,
        });
        (end_ns - start_ns) as f64
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// The campaign runner's view of one campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Summed worker busy time over `workers × elapsed`.
    pub busy_share: Stat,
    /// Per-job wall time, ms.
    pub job_ms: Vec<f64>,
}

impl CampaignStats {
    fn from_report(report: &CampaignReport, job_ms: Vec<f64>) -> CampaignStats {
        let busy: f64 = report
            .worker_stats
            .iter()
            .map(|w| w.busy.as_secs_f64())
            .sum();
        let capacity = report.worker_stats.len() as f64 * report.elapsed.as_secs_f64();
        CampaignStats {
            busy_share: Stat::from_total(busy / capacity, 1),
            job_ms,
        }
    }
}

/// What a traced search or attack campaign measured.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// The normalised output (the digest input).
    pub output: CampaignOutput,
    /// The runner's view.
    pub campaign: CampaignStats,
    /// `generate` per schedule, ns (search only).
    pub generate: Stat,
    /// `Oracle::evaluate_batch` per schedule, or `AttackOracle::evaluate`
    /// per attack, ns.
    pub evaluate: Stat,
    /// Shrink time per shrink evaluation, ns.
    pub shrink: Stat,
    /// Wall share of the single-threaded shrink phase.
    pub serial_share: Stat,
}

/// Per-job timing collected by the workers.
#[derive(Default)]
struct JobTimes {
    generate: Stat,
    evaluate: Stat,
    job_ms: Vec<f64>,
}

/// The schedules of a search job, generated as the search executor
/// generates them.
pub fn job_schedules(job: &Job) -> Vec<Schedule> {
    let FaultSpec::AdversarialSearch { max_errors } = job.fault else {
        panic!("search job {} is not adversarial", job.id);
    };
    let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
    (0..job.frames)
        .map(|trial| {
            let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
            generate(&mut rng, &geo, max_errors)
        })
        .collect()
}

/// Re-drives `run_search` with spans around each job's `generate`,
/// `Oracle::evaluate_batch` and each `shrink_with`.
pub fn traced_search(
    cfg: &SearchConfig,
    workers: usize,
    tracer: &Tracer,
    parent: u32,
) -> CampaignTrace {
    let root = tracer.open("run_search", parent);
    let jobs = build_jobs(cfg);
    let findings = Mutex::new(Vec::new());
    let times = Mutex::new(JobTimes::default());
    let engine = cfg.engine;
    let report = run_campaign_in_memory_scoped(
        &jobs,
        &CampaignOptions::quiet(workers),
        move || Oracle::with_engine(engine),
        |oracle: &mut Oracle, job: &Job| {
            let job_span = tracer.open("job", root.id);
            let budget = budget_for(job.protocol);
            let mut out = JobResult::for_job(job);
            let s = tracer.open("generate", job_span.id);
            let schedules = job_schedules(job);
            let generate_ns = tracer.close(s);
            let s = tracer.open("Oracle::evaluate_batch", job_span.id);
            let outcomes = oracle.evaluate_batch(job.protocol, &schedules, job.n_nodes, budget);
            let evaluate_ns = tracer.close(s);
            for (trial, (schedule, outcome)) in schedules.iter().zip(outcomes).enumerate() {
                out.counters
                    .add(&format!("outcome/{}/{}", job.protocol, outcome.token()), 1);
                out.frames += 1;
                out.bits += budget;
                if outcome.is_finding() {
                    findings
                        .lock()
                        .expect("finding channel poisoned")
                        .push(Finding {
                            target: job.protocol,
                            job_id: job.id,
                            trial: trial as u64,
                            outcome,
                            schedule: schedule.clone(),
                        });
                }
            }
            let job_ns = tracer.close(job_span);
            let mut t = times.lock().expect("job timings poisoned");
            t.generate.add(generate_ns, job.frames);
            t.evaluate.add(evaluate_ns, job.frames);
            t.job_ms.push(job_ns * 1e-6);
            out
        },
    );

    // The shrink phase, exactly as `run_search` orders, dedups and caps it.
    let phase = tracer.open("shrink_phase", root.id);
    let mut raw: Vec<Finding> = findings.into_inner().expect("finding channel poisoned");
    raw.sort_by_key(|f| (f.job_id, f.trial));
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let deduped: Vec<Finding> = raw
        .into_iter()
        .filter(|f| seen.insert((f.target.to_string(), f.schedule.key())))
        .collect();
    let shrink_cap = cfg.keep_per_class * 4;
    let mut queued: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut archived: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut archived_seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut minima = Vec::new();
    let mut dropped = 0usize;
    let mut shrink_evaluations = 0usize;
    let mut shrink = Stat::default();
    let mut shrink_oracle = Oracle::new();
    for finding in &deduped {
        let class = (
            finding.target.to_string(),
            finding.outcome.token().to_string(),
        );
        let in_queue = queued.entry(class.clone()).or_insert(0);
        if *in_queue >= shrink_cap {
            dropped += 1;
            continue;
        }
        *in_queue += 1;
        let budget = budget_for(finding.target);
        let s = tracer.open("shrink_with", phase.id);
        let shrunk = shrink_with(
            &mut shrink_oracle,
            finding.target,
            &finding.schedule,
            cfg.n_nodes,
            budget,
        );
        shrink.add(tracer.close(s), shrunk.evaluations as u64);
        shrink_evaluations += shrunk.evaluations;
        let key = (class.0.clone(), class.1.clone(), shrunk.schedule.key());
        if !archived_seen.insert(key) {
            continue;
        }
        let kept = archived.entry(class).or_insert(0);
        if *kept >= cfg.keep_per_class {
            dropped += 1;
            continue;
        }
        *kept += 1;
        minima.push(Minimum {
            target: finding.target,
            class: finding.outcome.token().to_string(),
            cost: shrunk.schedule.len() as u64,
            line: format!(
                "{} job {} trial {}",
                shrunk.schedule.key(),
                finding.job_id,
                finding.trial
            ),
        });
    }
    let shrink_ns = tracer.close(phase);
    let wall_ns = tracer.close(root);

    let times = times.into_inner().expect("job timings poisoned");
    let output = CampaignOutput {
        counters: counters_of(&report.totals),
        frames: report.totals.frames,
        jobs: report.totals.jobs,
        findings: deduped.len(),
        minima,
        dropped,
        shrink_evaluations,
    };
    CampaignTrace {
        output,
        campaign: CampaignStats::from_report(&report, times.job_ms),
        generate: times.generate,
        evaluate: times.evaluate,
        shrink,
        serial_share: Stat::from_total(shrink_ns / wall_ns, 1),
    }
}

/// One cost-shrunk attack minimum awaiting the cheapest-first archive.
struct Candidate {
    protocol: String,
    expected: String,
    cost: u64,
    key: String,
    minimum: Minimum,
}

/// Re-drives `run_attack_search` with a span around every
/// `AttackOracle::evaluate` and every `shrink_attack_with`.
pub fn traced_attack(
    cfg: &AttackSearchConfig,
    workers: usize,
    tracer: &Tracer,
    parent: u32,
) -> CampaignTrace {
    let root = tracer.open("run_attack_search", parent);
    let jobs = build_attack_jobs(cfg);
    let findings = Mutex::new(Vec::new());
    let times = Mutex::new(JobTimes::default());
    let report = run_campaign_in_memory_scoped(
        &jobs,
        &CampaignOptions::quiet(workers),
        AttackOracle::new,
        |oracle: &mut AttackOracle, job: &Job| {
            let job_span = tracer.open("job", root.id);
            let FaultSpec::AttackSearch { max_cost } = job.fault else {
                panic!("attack job {} is not an attack search", job.id);
            };
            let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
            let mut out = JobResult::for_job(job);
            let mut evaluate = Stat::default();
            for trial in 0..job.frames {
                let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
                let schedule = generate_attack(&mut rng, &geo, max_cost);
                let s = tracer.open("AttackOracle::evaluate", job_span.id);
                let outcome = oracle.evaluate(job.protocol, &schedule, job.n_nodes);
                evaluate.add(tracer.close(s), 1);
                out.counters
                    .add(&format!("attack/{}/{}", job.protocol, outcome.token()), 1);
                out.frames += 1;
                out.bits += ATTACK_BUDGET;
                if outcome.is_break() {
                    findings
                        .lock()
                        .expect("finding channel poisoned")
                        .push(AttackFinding {
                            target: job.protocol,
                            job_id: job.id,
                            trial,
                            outcome,
                            schedule,
                        });
                }
            }
            let job_ns = tracer.close(job_span);
            let mut t = times.lock().expect("job timings poisoned");
            t.evaluate.add(evaluate.total, evaluate.n);
            t.job_ms.push(job_ns * 1e-6);
            out
        },
    );

    // Cost-shrink and the cheapest-first archive, as `run_attack_search`
    // does them.
    let phase = tracer.open("shrink_phase", root.id);
    let mut raw: Vec<AttackFinding> = findings.into_inner().expect("finding channel poisoned");
    raw.sort_by_key(|f| (f.job_id, f.trial));
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let deduped: Vec<AttackFinding> = raw
        .into_iter()
        .filter(|f| seen.insert((f.target.to_string(), f.schedule.key())))
        .collect();
    let shrink_cap = cfg.keep_per_class * 4;
    let mut queued: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut shrunk_seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut dropped = 0usize;
    let mut shrink_evaluations = 0usize;
    let mut shrink = Stat::default();
    let mut shrink_oracle = AttackOracle::new();
    for finding in &deduped {
        let class = (
            finding.target.to_string(),
            finding.outcome.token().to_string(),
        );
        let in_queue = queued.entry(class.clone()).or_insert(0);
        if *in_queue >= shrink_cap {
            dropped += 1;
            continue;
        }
        *in_queue += 1;
        let s = tracer.open("shrink_attack_with", phase.id);
        let shrunk = shrink_attack_with(
            &mut shrink_oracle,
            finding.target,
            &finding.schedule,
            cfg.n_nodes,
        );
        shrink.add(tracer.close(s), shrunk.evaluations as u64);
        shrink_evaluations += shrunk.evaluations;
        let key = (class.0.clone(), class.1.clone(), shrunk.schedule.key());
        if !shrunk_seen.insert(key) {
            continue;
        }
        let schedule: &AttackSchedule = &shrunk.schedule;
        candidates.push(Candidate {
            protocol: finding.target.to_string(),
            expected: shrunk.outcome.token().to_string(),
            cost: schedule.cost(),
            key: schedule.key(),
            minimum: Minimum {
                target: finding.target,
                class: shrunk.outcome.token().to_string(),
                cost: schedule.cost(),
                line: format!(
                    "{} {} job {} trial {}",
                    schedule.strategy_name(),
                    schedule.key(),
                    finding.job_id,
                    finding.trial
                ),
            },
        });
    }
    candidates.sort_by(|a, b| {
        (&a.protocol, &a.expected, a.cost, &a.key).cmp(&(&b.protocol, &b.expected, b.cost, &b.key))
    });
    let mut kept_per_class: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut minima = Vec::new();
    for c in candidates {
        let kept = kept_per_class
            .entry((c.protocol.clone(), c.expected.clone()))
            .or_insert(0);
        if *kept >= cfg.keep_per_class {
            dropped += 1;
            continue;
        }
        *kept += 1;
        minima.push(c.minimum);
    }
    let shrink_ns = tracer.close(phase);
    let wall_ns = tracer.close(root);

    let times = times.into_inner().expect("job timings poisoned");
    let output = CampaignOutput {
        counters: counters_of(&report.totals),
        frames: report.totals.frames,
        jobs: report.totals.jobs,
        findings: deduped.len(),
        minima,
        dropped,
        shrink_evaluations,
    };
    CampaignTrace {
        output,
        campaign: CampaignStats::from_report(&report, times.job_ms),
        generate: Stat::default(),
        evaluate: times.evaluate,
        shrink,
        serial_share: Stat::from_total(shrink_ns / wall_ns, 1),
    }
}

/// Runs `cell` as the one job of a one-worker campaign, the way the
/// `traffic` bin runs each soak cell, and returns the runner's view.
pub fn as_campaign_job<R: Send>(
    job: &Job,
    tracer: &Tracer,
    parent: u32,
    cell: impl Fn(u32) -> R + Sync,
) -> (R, CampaignStats) {
    let result = Mutex::new(None);
    let job_ms = Mutex::new(Vec::new());
    let report = run_campaign_in_memory_scoped(
        std::slice::from_ref(job),
        &CampaignOptions::quiet(1),
        || (),
        |_, job: &Job| {
            let s = tracer.open("job", parent);
            let r = cell(s.id);
            let ns = tracer.close(s);
            job_ms.lock().expect("job timings poisoned").push(ns * 1e-6);
            *result.lock().expect("cell result poisoned") = Some(r);
            JobResult::for_job(job)
        },
    );
    let job_ms = job_ms.into_inner().expect("job timings poisoned");
    let r = result
        .into_inner()
        .expect("cell result poisoned")
        .expect("the one-job campaign ran its job");
    (r, CampaignStats::from_report(&report, job_ms))
}
