//! The work-queue runner: fans jobs across a `std::thread` worker pool.
//!
//! Determinism contract: the runner never feeds scheduling information back
//! into a job. Each job's randomness comes entirely from its own recorded
//! seed, each result is an associative counter bag, and the report sorts
//! results by job id — so the artifact of a campaign is identical for any
//! worker count, and a resumed campaign converges on the same final file
//! as an uninterrupted one.

use crate::job::{Job, JobFailure, JobResult, Totals};
use crate::sink::JsonlSink;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Knobs for [`run_campaign_scoped`].
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads. `0` means "one per available CPU".
    pub workers: usize,
    /// Emit periodic progress lines on stderr.
    pub progress: bool,
    /// Minimum interval between progress lines.
    pub progress_every: Duration,
    /// Identity stamped into [`JobFailure::origin`] as
    /// `"<label>/worker<i>"` — shard workers set `"shard<k>"`; `None`
    /// falls back to `"pid<p>/worker<i>"` so a failure always names the
    /// process that hit it.
    pub label: Option<String>,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            workers: 0,
            progress: true,
            progress_every: Duration::from_secs(2),
            label: None,
        }
    }
}

impl CampaignOptions {
    /// Quiet options with a fixed worker count (used by tests and benches).
    pub fn quiet(workers: usize) -> CampaignOptions {
        CampaignOptions {
            workers,
            progress: false,
            ..CampaignOptions::default()
        }
    }

    /// The failure-origin prefix for this run (label or `pid<p>`).
    fn origin_prefix(&self) -> String {
        match &self.label {
            Some(label) => label.clone(),
            None => format!("pid{}", std::process::id()),
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Wall-clock accounting for one worker thread (in-memory only; never part
/// of the JSONL artifact, which must not depend on timing).
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Jobs this worker completed (including ones that panicked).
    pub jobs: u64,
    /// Trials summed over its completed jobs.
    pub frames: u64,
    /// Simulated bit times summed over its completed jobs.
    pub bits: u64,
    /// Time spent inside job executions.
    pub busy: Duration,
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Aggregated totals over all results, including resumed ones.
    pub totals: Totals,
    /// Every result (fresh and resumed), sorted by job id.
    pub results: Vec<JobResult>,
    /// Jobs that panicked this run.
    pub failures: Vec<JobFailure>,
    /// Jobs skipped because the sink already held their results.
    pub skipped: u64,
    /// Wall-clock time of this run (excludes previous runs on resume).
    pub elapsed: Duration,
    /// Per-worker accounting, indexed by worker id.
    pub worker_stats: Vec<WorkerStats>,
}

enum Outcome {
    Done(JobResult),
    Panicked(JobFailure),
}

struct Completion {
    worker: usize,
    busy: Duration,
    outcome: Outcome,
}

/// The message of a caught panic: its `&str` or `String` payload, or a
/// placeholder for any other payload type. Job failures carry it, and so
/// do the falsifier oracles' contained panics.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct Progress {
    started: Instant,
    last: Instant,
    every: Duration,
    done: u64,
    total: u64,
    bits: u64,
}

impl Progress {
    fn new(total: u64, skipped: u64, every: Duration) -> Progress {
        let now = Instant::now();
        Progress {
            started: now,
            last: now,
            every,
            done: skipped,
            total,
            bits: 0,
        }
    }

    fn on_done(&mut self, result: Option<&JobResult>) {
        self.done += 1;
        if let Some(r) = result {
            self.bits += r.bits;
        }
        let now = Instant::now();
        if now.duration_since(self.last) < self.every && self.done < self.total {
            return;
        }
        self.emit(now);
    }

    fn finish(&mut self) {
        self.emit(Instant::now());
    }

    fn emit(&mut self, now: Instant) {
        self.last = now;
        let secs = now.duration_since(self.started).as_secs_f64().max(1e-9);
        let jobs_per_sec = self.done as f64 / secs;
        let eta = if jobs_per_sec > 0.0 {
            (self.total - self.done) as f64 / jobs_per_sec
        } else {
            f64::INFINITY
        };
        eprintln!(
            "campaign: {}/{} jobs ({:.1}%), {:.1} jobs/s, {:.2e} sim bits/s, ETA {:.0}s",
            self.done,
            self.total,
            100.0 * self.done as f64 / self.total.max(1) as f64,
            jobs_per_sec,
            self.bits as f64 / secs,
            eta
        );
    }
}

/// [`run_campaign_scoped`] without a sink, for callers that keep no
/// artifact.
pub fn run_campaign_in_memory_scoped<S, I, F>(
    jobs: &[Job],
    opts: &CampaignOptions,
    init: I,
    run_job: F,
) -> CampaignReport
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &Job) -> JobResult + Sync,
{
    run_campaign_scoped(jobs, opts, None, init, run_job)
        .expect("in-memory campaigns cannot fail on I/O")
}

/// Maps `f` over `items` on the campaign's worker pool and returns the
/// results in input order.
///
/// Workers follow the runner's rule — `opts.workers`, or one per CPU,
/// never more than there are items — and take the next unclaimed item
/// until none is left. Workers keep no state between items, so the result
/// is `items.iter().map(f)` for any worker count. A panic in `f` is
/// re-raised on the calling thread.
pub fn map_ordered<T, R, F>(items: &[T], opts: &CampaignOptions, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = opts.effective_workers().min(items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item is mapped exactly once"))
        .collect()
}

/// Runs `jobs` through `run_job` on a worker pool, streaming results into
/// `sink` when there is one; without one the campaign keeps no durable
/// artifact (no JSONL file, no manifest, no resume) and its report is
/// identical to a sink-backed run of the same jobs.
///
/// Each worker thread owns a reusable state `S` built by `init` —
/// typically a testbed whose allocations are recycled across every job
/// the worker executes; stateless callers pass `|| ()`. State reuse must
/// not leak information between jobs (the state is an allocation cache,
/// not a data channel), and after a job panics the worker's state is
/// rebuilt from `init` so a poisoned state can't corrupt later jobs.
///
/// Jobs whose ids the sink already holds are skipped (resume). A panicking
/// job is caught, written to the failures artifact with its replay seed,
/// and the campaign continues. The returned report's `results` are sorted
/// by job id and include resumed results, so callers always see the full
/// campaign regardless of where the previous run stopped.
///
/// # Errors
///
/// Only sink I/O errors abort a campaign; job panics never do.
pub fn run_campaign_scoped<S, I, F>(
    jobs: &[Job],
    opts: &CampaignOptions,
    mut sink: Option<&mut JsonlSink>,
    init: I,
    run_job: F,
) -> io::Result<CampaignReport>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &Job) -> JobResult + Sync,
{
    let started = Instant::now();
    let resumed: Vec<JobResult> = sink
        .as_ref()
        .map(|s| s.completed().values().cloned().collect())
        .unwrap_or_default();
    let pending: Vec<&Job> = jobs
        .iter()
        .filter(|j| {
            sink.as_ref()
                .is_none_or(|s| !s.completed().contains_key(&j.id))
        })
        .collect();
    let skipped = (jobs.len() - pending.len()) as u64;
    let workers = opts.effective_workers().min(pending.len()).max(1);

    let mut worker_stats = vec![WorkerStats::default(); workers];
    let mut failures = Vec::new();
    let mut fresh = Vec::new();
    let mut progress = Progress::new(jobs.len() as u64, skipped, opts.progress_every);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Completion>();
    let origin_prefix = opts.origin_prefix();

    std::thread::scope(|scope| -> io::Result<()> {
        for worker in 0..workers {
            let tx = tx.clone();
            let pending = &pending;
            let next = &next;
            let run_job = &run_job;
            let init = &init;
            let origin_prefix = &origin_prefix;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = pending.get(i) else { break };
                    let t0 = Instant::now();
                    let outcome = match catch_unwind(AssertUnwindSafe(|| run_job(&mut state, job)))
                    {
                        Ok(result) => Outcome::Done(result),
                        Err(payload) => {
                            // The panic may have left the reusable state
                            // mid-mutation; rebuild it before the next job.
                            state = init();
                            Outcome::Panicked(
                                JobFailure::for_job(job, panic_message(payload))
                                    .with_origin(format!("{origin_prefix}/worker{worker}")),
                            )
                        }
                    };
                    let completion = Completion {
                        worker,
                        busy: t0.elapsed(),
                        outcome,
                    };
                    if tx.send(completion).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Collector: the only writer to the sink, so result lines are
        // whole even though jobs finish concurrently.
        for completion in rx {
            let stats = &mut worker_stats[completion.worker];
            stats.jobs += 1;
            stats.busy += completion.busy;
            match completion.outcome {
                Outcome::Done(result) => {
                    stats.frames += result.frames;
                    stats.bits += result.bits;
                    if let Some(sink) = sink.as_mut() {
                        sink.record(&result)?;
                    }
                    if opts.progress {
                        progress.on_done(Some(&result));
                    }
                    fresh.push(result);
                }
                Outcome::Panicked(failure) => {
                    if let Some(sink) = sink.as_mut() {
                        sink.record_failure(&failure)?;
                    }
                    if opts.progress {
                        eprintln!(
                            "campaign: job {} panicked ({}); replay seed {:#x}",
                            failure.job_id, failure.message, failure.seed
                        );
                        progress.on_done(None);
                    }
                    failures.push(failure);
                }
            }
        }
        Ok(())
    })?;

    let mut results = resumed;
    results.extend(fresh);
    results.sort_by_key(|r| r.job_id);
    let mut totals = Totals::default();
    for r in &results {
        totals.absorb(r);
    }
    if opts.progress {
        progress.finish();
    }
    Ok(CampaignReport {
        totals,
        results,
        failures,
        skipped,
        elapsed: started.elapsed(),
        worker_stats,
    })
}
