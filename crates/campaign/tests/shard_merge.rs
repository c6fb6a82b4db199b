//! The shard layer's correctness gate, run fully in-process with a
//! synthetic executor: merged output must be byte-identical to a
//! single-process campaign for any shard count; resume, retry and
//! scavenge must converge; and every corruption class must be detected
//! at merge time with the offending shard (and job) named.
//!
//! The crash modes that need a real `abort()` (SIGKILL mid-shard,
//! truncated tail) live in the spawned-bin chaos test
//! (`crates/falsify/tests/shard_chaos.rs`); here their aftermath is
//! simulated directly on the artifacts.

use majorcan_campaign::{
    merge_ready, merge_shards, run_campaign_scoped, run_fleet_worker, shard_of, CampaignOptions,
    ChaosMode, FaultSpec, FleetOptions, Job, JobResult, JsonlSink, Manifest, MergeError,
    ProtocolSpec, ShardOutcome, WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

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

/// A deterministic stand-in for the simulation: everything it records is
/// a pure function of the job.
fn synthetic(job: &Job) -> JobResult {
    let mut r = JobResult::for_job(job);
    r.frames = job.frames;
    r.bits = job.frames * (100 + job.seed % 55);
    r.counters.add("imo", job.seed % 3);
    r.counters.add("retx", job.seed % 11);
    r
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("majorcan-shard-merge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fleet_opts() -> FleetOptions {
    FleetOptions {
        campaign: CampaignOptions::quiet(2),
        stale_after: Duration::from_millis(200),
        claim_backoff: Duration::from_millis(10),
        ..FleetOptions::default()
    }
}

fn sorted_lines(path: &Path) -> Vec<String> {
    let mut lines: Vec<String> = std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

/// Runs every shard (one worker call per shard) and merges.
fn run_fleet_and_merge(
    dir: &Path,
    all: &[Job],
    manifest: &Manifest,
    shards: u64,
) -> Result<majorcan_campaign::MergeSummary, MergeError> {
    for k in 0..shards {
        let statuses = run_fleet_worker(
            dir,
            all,
            manifest,
            k,
            shards,
            &fleet_opts(),
            || (),
            |_, j| synthetic(j),
        )
        .unwrap();
        assert!(matches!(
            statuses[0].outcome,
            ShardOutcome::Completed(_) | ShardOutcome::AlreadyDone
        ));
    }
    assert!(merge_ready(dir, shards));
    merge_shards(dir, all, manifest, shards, &dir.join("merged.jsonl"))
}

#[test]
fn merged_artifact_is_byte_identical_to_single_process_for_any_shard_count() {
    let all = jobs(0xFEE7, 13);
    let manifest = Manifest::for_jobs("fleet", 0xFEE7, &all);

    // Single-process baseline through the ordinary runner.
    let base_dir = tmp_dir("baseline");
    let base = base_dir.join("results.jsonl");
    let mut sink = JsonlSink::open(&base, &manifest).unwrap();
    run_campaign_scoped(
        &all,
        &CampaignOptions::quiet(3),
        Some(&mut sink),
        || (),
        |(), job| synthetic(job),
    )
    .unwrap();
    drop(sink);
    let baseline = sorted_lines(&base);

    let mut anchors = Vec::new();
    for shards in [1u64, 2, 3, 5] {
        let dir = tmp_dir(&format!("shards{shards}"));
        let summary = run_fleet_and_merge(&dir, &all, &manifest, shards).unwrap();
        assert_eq!(summary.jobs, 13);
        assert_eq!(sorted_lines(&dir.join("merged.jsonl")), baseline);
        anchors.push(summary.campaign_anchor);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The campaign anchor covers shard anchors, so it varies with the
    // partition — but the merged bytes above never do.
    let _ = std::fs::remove_dir_all(&base_dir);
    drop(anchors);
}

#[test]
fn partial_shard_resumes_across_worker_generations() {
    let all = jobs(0xAB, 9);
    let manifest = Manifest::for_jobs("fleet", 0xAB, &all);
    let shards = 3u64;
    let dir = tmp_dir("resume");

    // Simulate a first worker that died after two jobs of shard 1: write
    // its partial artifact directly through the sink the worker would use.
    let mine: Vec<Job> = all
        .iter()
        .filter(|j| shard_of(j.id, shards) == 1)
        .cloned()
        .collect();
    let shard_manifest =
        Manifest::for_jobs(&format!("{}#shard1of{shards}", manifest.name), 0xAB, &mine);
    let mut sink = JsonlSink::open(&dir.join("shard-1.jsonl"), &shard_manifest).unwrap();
    for job in mine.iter().take(2) {
        sink.record(&synthetic(job)).unwrap();
    }
    drop(sink);

    // A fresh fleet run completes everything and the merge verifies.
    let summary = run_fleet_and_merge(&dir, &all, &manifest, shards).unwrap();
    assert_eq!(summary.jobs, 9);
    assert_eq!(summary.deduplicated, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scavenging_survivor_completes_a_dead_workers_shard() {
    let all = jobs(0x5CAF, 10);
    let manifest = Manifest::for_jobs("fleet", 0x5CAF, &all);
    let shards = 3u64;
    let dir = tmp_dir("scavenge");

    // Shard 0's worker "died": stale-lease chaos claims the shard, runs
    // nothing and leaves an ancient heartbeat behind.
    let mut chaos = fleet_opts();
    chaos.chaos = Some(ChaosMode::StaleLease);
    let statuses = run_fleet_worker(
        &dir,
        &all,
        &manifest,
        0,
        shards,
        &chaos,
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();
    assert_eq!(statuses[0].outcome, ShardOutcome::Failed(0));

    // Merging now names shard 0 as unfinished with a stale lease.
    let err = merge_shards(&dir, &all, &manifest, shards, &dir.join("merged.jsonl")).unwrap_err();
    match &err {
        MergeError::Incomplete {
            shard,
            detail,
            live,
        } => {
            assert_eq!(*shard, 0);
            assert!(!live, "a stale lease is not live: {detail}");
            assert!(detail.contains("stale lease"), "{detail}");
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 3);

    // A survivor assigned shard 1 with scavenging on steals the stale
    // lease and finishes shards 1, 2 AND 0.
    let mut survivor = fleet_opts();
    survivor.scavenge = true;
    let statuses = run_fleet_worker(
        &dir,
        &all,
        &manifest,
        1,
        shards,
        &survivor,
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();
    assert_eq!(statuses.len(), 3);
    assert!(statuses
        .iter()
        .all(|s| matches!(s.outcome, ShardOutcome::Completed(_))));

    let summary = merge_shards(&dir, &all, &manifest, shards, &dir.join("merged.jsonl")).unwrap();
    assert_eq!(summary.jobs, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_is_detected_and_names_shard_and_job() {
    let all = jobs(0xF11F, 8);
    let manifest = Manifest::for_jobs("fleet", 0xF11F, &all);
    let shards = 2u64;
    let dir = tmp_dir("flip");

    let mut chaos = fleet_opts();
    chaos.chaos = Some(ChaosMode::FlipByte);
    run_fleet_worker(
        &dir,
        &all,
        &manifest,
        1,
        shards,
        &chaos,
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();
    run_fleet_worker(
        &dir,
        &all,
        &manifest,
        0,
        shards,
        &fleet_opts(),
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();

    let err = merge_shards(&dir, &all, &manifest, shards, &dir.join("merged.jsonl")).unwrap_err();
    match &err {
        MergeError::Corrupt {
            shard,
            job_id,
            detail,
        } => {
            assert_eq!(*shard, 1);
            assert!(job_id.is_some(), "the flipped job must be named: {detail}");
            assert!(
                detail.contains("hash") || detail.contains("seed"),
                "{detail}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 3);
    assert!(
        !dir.join("merged.jsonl").exists(),
        "a refused merge must write nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn divergent_duplicate_is_detected_with_both_transcripts() {
    let all = jobs(0xD0D0, 8);
    let manifest = Manifest::for_jobs("fleet", 0xD0D0, &all);
    let shards = 2u64;
    let dir = tmp_dir("dup");

    let mut chaos = fleet_opts();
    chaos.chaos = Some(ChaosMode::DuplicateClaim);
    run_fleet_worker(
        &dir,
        &all,
        &manifest,
        0,
        shards,
        &chaos,
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();
    run_fleet_worker(
        &dir,
        &all,
        &manifest,
        1,
        shards,
        &fleet_opts(),
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();

    let err = merge_shards(&dir, &all, &manifest, shards, &dir.join("merged.jsonl")).unwrap_err();
    match &err {
        MergeError::Corrupt { shard, detail, .. } => {
            assert_eq!(*shard, 0);
            assert!(detail.contains("divergent duplicate"), "{detail}");
            assert!(
                detail.contains("first:") && detail.contains("duplicate:"),
                "both transcripts must be printed: {detail}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_identical_duplicates_from_a_raced_claim_are_deduplicated() {
    let all = jobs(0xBEBE, 6);
    let manifest = Manifest::for_jobs("fleet", 0xBEBE, &all);
    let shards = 2u64;
    let dir = tmp_dir("racedup");

    let summary = run_fleet_and_merge(&dir, &all, &manifest, shards).unwrap();
    let baseline = sorted_lines(&dir.join("merged.jsonl"));

    // A raced duplicate execution appends the same deterministic bytes
    // again; the merge dedups and produces identical output.
    let shard0 = dir.join("shard-0.jsonl");
    let text = std::fs::read_to_string(&shard0).unwrap();
    let first = text.lines().next().unwrap().to_string();
    std::fs::write(&shard0, format!("{text}{first}\n")).unwrap();

    let again = merge_shards(&dir, &all, &manifest, shards, &dir.join("merged.jsonl")).unwrap();
    assert_eq!(again.deduplicated, 1);
    assert_eq!(again.campaign_anchor, summary.campaign_anchor);
    assert_eq!(sorted_lines(&dir.join("merged.jsonl")), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unclaimed_incomplete_shard_blocks_the_merge() {
    let all = jobs(0x1D1E, 7);
    let manifest = Manifest::for_jobs("fleet", 0x1D1E, &all);
    let shards = 3u64;
    let dir = tmp_dir("unclaimed");

    // Only shard 2 ran.
    run_fleet_worker(
        &dir,
        &all,
        &manifest,
        2,
        shards,
        &fleet_opts(),
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();
    assert!(!merge_ready(&dir, shards));
    let err = merge_shards(&dir, &all, &manifest, shards, &dir.join("merged.jsonl")).unwrap_err();
    match &err {
        MergeError::Incomplete { shard, detail, .. } => {
            assert_eq!(*shard, 0);
            assert!(detail.contains("unclaimed"), "{detail}");
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_shard_count_or_campaign_is_a_usage_error() {
    let all = jobs(0x2BAD, 6);
    let manifest = Manifest::for_jobs("fleet", 0x2BAD, &all);
    let dir = tmp_dir("mismatch");
    run_fleet_and_merge(&dir, &all, &manifest, 2).unwrap();

    let err = merge_shards(&dir, &all, &manifest, 3, &dir.join("merged.jsonl")).unwrap_err();
    assert!(matches!(err, MergeError::Mismatch { .. }), "{err:?}");
    assert_eq!(err.exit_code(), 2);

    let other = Manifest::for_jobs("fleet", 0x2BAE, &jobs(0x2BAE, 6));
    let err = merge_shards(&dir, &all, &other, 2, &dir.join("merged.jsonl")).unwrap_err();
    assert_eq!(err.exit_code(), 2);

    // A directory that is not a shard dir at all.
    let empty = tmp_dir("notashard");
    let err = merge_shards(&empty, &all, &manifest, 2, &empty.join("merged.jsonl")).unwrap_err();
    assert!(matches!(err, MergeError::Mismatch { .. }), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn truncated_tail_after_kill_recovers_on_the_next_worker() {
    let all = jobs(0x7A11, 9);
    let manifest = Manifest::for_jobs("fleet", 0x7A11, &all);
    let shards = 3u64;
    let dir = tmp_dir("truncrecover");

    // Shard 0 completed but its process was killed mid-append before the
    // anchor commit: chop the artifact inside the final line and delete
    // the anchor, like ChaosMode::Truncate's abort would leave it.
    run_fleet_worker(
        &dir,
        &all,
        &manifest,
        0,
        shards,
        &fleet_opts(),
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();
    let shard0 = dir.join("shard-0.jsonl");
    let len = std::fs::metadata(&shard0).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&shard0)
        .unwrap()
        .set_len(len - 9)
        .unwrap();
    std::fs::remove_file(dir.join("shard-0.anchor.json")).unwrap();

    // The next worker resumes over the chopped artifact, re-runs the lost
    // job and the merge is byte-identical to an undisturbed fleet.
    let summary = run_fleet_and_merge(&dir, &all, &manifest, shards).unwrap();
    assert_eq!(summary.jobs, 9);

    let clean = tmp_dir("truncbaseline");
    run_fleet_and_merge(&clean, &all, &manifest, shards).unwrap();
    assert_eq!(
        sorted_lines(&dir.join("merged.jsonl")),
        sorted_lines(&clean.join("merged.jsonl"))
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean);
}

#[test]
fn live_lease_reports_busy_not_stolen() {
    let all = jobs(0x11FE, 4);
    let manifest = Manifest::for_jobs("fleet", 0x11FE, &all);
    let shards = 2u64;
    let dir = tmp_dir("busy");

    // Hold shard 0's lease with a live heartbeat, then ask a second
    // worker (zero claim retries so the test is fast) to run it.
    let claim = majorcan_campaign::shard::try_claim(&dir, 0, Duration::from_secs(30)).unwrap();
    let majorcan_campaign::shard::Claim::Claimed(guard) = claim else {
        panic!("fresh dir must claim");
    };
    std::fs::create_dir_all(&dir).unwrap();
    let mut opts = fleet_opts();
    opts.claim_retries = 0;
    let statuses = run_fleet_worker(
        &dir,
        &all,
        &manifest,
        0,
        shards,
        &opts,
        || (),
        |_, j| synthetic(j),
    )
    .unwrap();
    match &statuses[0].outcome {
        ShardOutcome::Busy(lease) => assert_eq!(lease.pid, std::process::id()),
        other => panic!("expected Busy, got {other:?}"),
    }

    // And the merge reports the shard as live, not reclaimable.
    let err = merge_shards(&dir, &all, &manifest, shards, &dir.join("merged.jsonl")).unwrap_err();
    match &err {
        MergeError::Incomplete { shard, live, .. } => {
            assert_eq!(*shard, 0);
            assert!(*live);
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}
