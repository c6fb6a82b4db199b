//! The runner's core contracts, exercised with a synthetic executor:
//! worker-count invariance, resume-after-kill convergence, skip accounting
//! and panic containment — plus the input order of `map_ordered`.

use majorcan_campaign::{
    map_ordered, run_campaign_scoped, CampaignOptions, FaultSpec, Job, JobResult, JsonlSink,
    Manifest, ProtocolSpec, WorkloadSpec,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

fn jobs(campaign_seed: u64, n: u64) -> Vec<Job> {
    (0..n)
        .map(|id| {
            Job::new(
                id,
                campaign_seed,
                ProtocolSpec::MajorCan { m: 2 },
                FaultSpec::None,
                WorkloadSpec::SingleBroadcast,
                3,
                5 + id % 7,
            )
        })
        .collect()
}

/// A deterministic stand-in for the simulation: everything it records is a
/// pure function of the job (mostly its seed).
fn synthetic(job: &Job) -> JobResult {
    let mut r = JobResult::for_job(job);
    r.frames = job.frames;
    r.bits = job.frames * (100 + job.seed % 55);
    r.counters.add("imo", job.seed % 3);
    r.counters.add("retx", job.seed % 11);
    r
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "majorcan-campaign-det-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sorted_jsonl(path: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

#[test]
fn worker_count_does_not_change_the_artifact() {
    let dir = tmp_dir("workers");
    let js = jobs(0xFEED, 40);
    let manifest = Manifest::for_jobs("workers", 0xFEED, &js);
    let mut artifacts = Vec::new();
    for workers in [1usize, 2, 8] {
        let out = dir.join(format!("w{workers}.jsonl"));
        let mut sink = JsonlSink::open(&out, &manifest).unwrap();
        let report = run_campaign_scoped(
            &js,
            &CampaignOptions::quiet(workers),
            Some(&mut sink),
            || (),
            |(), job| synthetic(job),
        )
        .unwrap();
        assert_eq!(report.totals.jobs, 40);
        assert_eq!(report.skipped, 0);
        assert!(report.failures.is_empty());
        assert_eq!(report.worker_stats.len(), workers.min(js.len()));
        let executed: u64 = report.worker_stats.iter().map(|s| s.jobs).sum();
        assert_eq!(executed, 40);
        // Results are reported sorted by job id regardless of completion
        // order.
        let ids: Vec<u64> = report.results.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>());
        artifacts.push(sorted_jsonl(&out));
    }
    assert_eq!(artifacts[0], artifacts[1]);
    assert_eq!(artifacts[0], artifacts[2]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_completed_jobs_and_converges() {
    let dir = tmp_dir("resume");
    let js = jobs(7, 30);
    let manifest = Manifest::for_jobs("resume", 7, &js);

    // Reference: one uninterrupted run.
    let reference = dir.join("reference.jsonl");
    {
        let mut sink = JsonlSink::open(&reference, &manifest).unwrap();
        run_campaign_scoped(
            &js,
            &CampaignOptions::quiet(2),
            Some(&mut sink),
            || (),
            |(), job| synthetic(job),
        )
        .unwrap();
    }

    // "Killed" run: only the first 11 jobs made it to disk.
    let out = dir.join("killed.jsonl");
    {
        let mut sink = JsonlSink::open(&out, &manifest).unwrap();
        run_campaign_scoped(
            &js[..11],
            &CampaignOptions::quiet(2),
            Some(&mut sink),
            || (),
            |(), job| synthetic(job),
        )
        .unwrap();
    }

    // Resume: the executor must never see an already-completed job.
    let executions = AtomicU64::new(0);
    {
        let mut sink = JsonlSink::open(&out, &manifest).unwrap();
        assert_eq!(sink.completed().len(), 11);
        let report = run_campaign_scoped(
            &js,
            &CampaignOptions::quiet(4),
            Some(&mut sink),
            || (),
            |(), job| {
                executions.fetch_add(1, Ordering::Relaxed);
                assert!(job.id >= 11, "job {} recomputed after resume", job.id);
                synthetic(job)
            },
        )
        .unwrap();
        assert_eq!(report.skipped, 11);
        assert_eq!(report.totals.jobs, 30);
    }
    assert_eq!(executions.load(Ordering::Relaxed), 19);
    assert_eq!(sorted_jsonl(&out), sorted_jsonl(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_is_recorded_and_campaign_continues() {
    let dir = tmp_dir("panic");
    let js = jobs(3, 12);
    let manifest = Manifest::for_jobs("panic", 3, &js);
    let out = dir.join("results.jsonl");
    let mut sink = JsonlSink::open(&out, &manifest).unwrap();
    let report = run_campaign_scoped(
        &js,
        &CampaignOptions::quiet(3),
        Some(&mut sink),
        || (),
        |(), job| {
            if job.id == 5 {
                panic!("injected failure in job {}", job.id);
            }
            synthetic(job)
        },
    )
    .unwrap();

    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].job_id, 5);
    assert_eq!(report.failures[0].seed, js[5].seed);
    assert!(report.failures[0].message.contains("injected failure"));
    assert_eq!(report.totals.jobs, 11);
    assert!(report.results.iter().all(|r| r.job_id != 5));

    // The failures artifact names the job, its replay seed AND its full
    // payload, so the line is a standalone repro.
    let failures = std::fs::read_to_string(dir.join("results.jsonl.failures.jsonl")).unwrap();
    assert!(failures.contains("\"job_id\":5"));
    assert!(failures.contains("injected failure"));
    assert!(
        failures.contains("\"job\":{") && failures.contains("\"protocol\":\"MajorCAN_2\""),
        "failure line must embed the job payload: {failures}"
    );
    assert_eq!(
        report.failures[0]
            .job
            .get("frames")
            .and_then(|v| v.as_u64()),
        Some(js[5].frames)
    );

    // A rerun retries the failed job (it is not marked completed) and,
    // with a healthy executor, completes the campaign.
    let mut sink = JsonlSink::open(&out, &manifest).unwrap();
    let report = run_campaign_scoped(
        &js,
        &CampaignOptions::quiet(3),
        Some(&mut sink),
        || (),
        |(), job| synthetic(job),
    )
    .unwrap();
    assert_eq!(report.skipped, 11);
    assert_eq!(report.totals.jobs, 12);
    assert!(report.failures.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn map_ordered_returns_results_in_input_order_for_any_worker_count() {
    let items: Vec<u64> = (0..37).collect();
    let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
    let plain = |&x: &u64| x * x;
    for workers in [1, 2, 8] {
        let opts = CampaignOptions::quiet(workers);
        // With two or more workers, the first item waits until another
        // worker reaches the last one, so the items finish out of order.
        let last_reached = Barrier::new(2);
        let square = |&x: &u64| {
            if workers > 1 && (x == 0 || x == 36) {
                last_reached.wait();
            }
            x * x
        };
        assert_eq!(map_ordered(&items, &opts, square), squares, "{workers}");
        // More workers than items, and no items at all.
        assert_eq!(map_ordered(&items[..3], &opts, plain), squares[..3]);
        assert!(map_ordered(&[] as &[u64], &opts, plain).is_empty());
    }
}
