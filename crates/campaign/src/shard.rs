//! Crash-tolerant sharded campaign execution with verifiable transcript
//! anchors.
//!
//! A campaign's job list is partitioned into `N` shards by
//! [`shard_of`] (`job_id % N`). Independent **worker processes** claim
//! shards through atomic filesystem leases, run their jobs with the
//! ordinary [`run_campaign_scoped`] machinery (so per-shard resume,
//! panic isolation and determinism all carry over), and commit a
//! per-shard **anchor** — an FNV-1a chain over the shard's sorted
//! canonical [`JobResult`] lines, plus one hash per job for blame. A
//! **verified merge** ([`merge_shards`]) then recomputes every hash from
//! the raw artifacts, cross-checks duplicate job ids from raced or
//! retried claims for bit-identity, verifies the campaign-level anchor
//! over the shard anchors, and only then writes the final JSONL —
//! byte-identical (sorted by job id) to a single-process run.
//!
//! Failure matrix (see DESIGN.md §3h):
//!
//! * worker killed mid-shard → lease goes stale, a survivor reclaims and
//!   resumes; **recovered**;
//! * truncated trailing JSONL line → chopped on resume, job re-run;
//!   **recovered**;
//! * flipped byte in a committed shard → anchor hash mismatch naming the
//!   shard and job; **detected** (merge refuses, exit 3);
//! * duplicate claim race → both transcripts compared bit-for-bit;
//!   identical duplicates are deduped, divergence is **detected** with
//!   both lines printed;
//! * clock-stale lease / dead worker → merge names the unclaimed shard;
//!   **detected** until a worker reclaims it.
//!
//! The directory layout under `--shard-dir`:
//!
//! ```text
//! campaign.json            fleet manifest: campaign identity + shard count
//! shard-<k>.jsonl          shard results (a normal JsonlSink artifact)
//! shard-<k>.jsonl.manifest.json / .failures.jsonl
//! shard-<k>.lease          live worker lease (pid + heartbeat)
//! shard-<k>.anchor.json    committed shard anchor (written on completion)
//! merged.jsonl             verified merge output
//! campaign.anchor.json     campaign-level anchor over the shard anchors
//! ```

use crate::job::{Job, JobResult, Totals};
use crate::json::{parse, Value};
use crate::runner::{run_campaign_scoped, CampaignOptions};
use crate::sink::{fnv1a, JsonlSink, Manifest, FNV_OFFSET};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// The shard that owns `job_id` in an `N`-shard campaign.
pub fn shard_of(job_id: u64, shards: u64) -> u64 {
    job_id % shards.max(1)
}

/// Path of shard `k`'s result JSONL under `dir`.
pub fn shard_results_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard-{shard}.jsonl"))
}

fn anchor_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard-{shard}.anchor.json"))
}

fn lease_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard-{shard}.lease"))
}

fn fleet_manifest_path(dir: &Path) -> PathBuf {
    dir.join("campaign.json")
}

fn campaign_anchor_path(dir: &Path) -> PathBuf {
    dir.join("campaign.anchor.json")
}

/// Writes `text` to `path` atomically (temp sibling + rename), so readers
/// never observe a half-written file.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    let tmp = path.with_file_name(format!("{name}.tmp{}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn read_to_string(path: &Path) -> io::Result<String> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    Ok(text)
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Fleet manifest
// ---------------------------------------------------------------------------

/// The campaign identity shared by every worker of a fleet: the ordinary
/// [`Manifest`] plus the shard count. Stored as `campaign.json` in the
/// shard directory; every worker and the merge verify against it, so two
/// fleets can never interleave artifacts in one directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetManifest {
    /// The campaign's manifest (name, seed, job count, job-list digest).
    pub manifest: Manifest,
    /// Number of shards the job list is partitioned into.
    pub shards: u64,
}

impl FleetManifest {
    fn to_json(&self) -> Value {
        let mut v = self.manifest.to_json();
        v.set("shards", Value::U64(self.shards));
        v
    }

    fn from_json(v: &Value) -> Option<FleetManifest> {
        Some(FleetManifest {
            manifest: Manifest::from_json(v)?,
            shards: v.get("shards")?.as_u64()?,
        })
    }

    /// Writes the fleet manifest on first contact with `dir`, or verifies
    /// the stored one matches. Concurrent first-writers race benignly: the
    /// content is deterministic, so whichever rename lands last wrote the
    /// same bytes.
    pub fn init(dir: &Path, manifest: &Manifest, shards: u64) -> io::Result<FleetManifest> {
        let me = FleetManifest {
            manifest: manifest.clone(),
            shards,
        };
        let path = fleet_manifest_path(dir);
        if path.exists() {
            let stored = FleetManifest::load(dir)?;
            if stored != me {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "fleet manifest mismatch at {}: stored {stored:?}, requested {me:?}; \
                         refusing to join a different campaign",
                        path.display()
                    ),
                ));
            }
            return Ok(me);
        }
        write_atomic(&path, &format!("{}\n", me.to_json()))?;
        Ok(me)
    }

    /// Loads the fleet manifest stored in `dir`.
    pub fn load(dir: &Path) -> io::Result<FleetManifest> {
        let path = fleet_manifest_path(dir);
        let text = read_to_string(&path)?;
        parse(&text)
            .ok()
            .as_ref()
            .and_then(FleetManifest::from_json)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt fleet manifest {}", path.display()),
                )
            })
    }
}

// ---------------------------------------------------------------------------
// Anchors
// ---------------------------------------------------------------------------

/// FNV-1a hash of one canonical result line (the per-job transcript hash
/// recorded in the shard anchor, so a flipped byte names its exact job).
pub fn result_line_hash(line: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, line.as_bytes());
    h
}

/// A shard's committed transcript anchor: one FNV-1a hash per job plus a
/// chain over the sorted canonical lines. Written (atomically) only when
/// every job of the shard has a result, so its presence doubles as the
/// shard's completion marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAnchor {
    /// The shard this anchor commits.
    pub shard: u64,
    /// `(job id, transcript hash)` sorted by job id.
    pub entries: Vec<(u64, u64)>,
    /// FNV-1a chain over the sorted canonical lines (each + `\n`).
    pub anchor: u64,
}

impl ShardAnchor {
    /// Computes the anchor over `results` (keyed by job id, so iteration
    /// is sorted — anchor value is independent of completion order).
    pub fn over(shard: u64, results: &BTreeMap<u64, JobResult>) -> ShardAnchor {
        let mut chain = FNV_OFFSET;
        let mut entries = Vec::with_capacity(results.len());
        for (id, result) in results {
            let line = result.to_json().to_string();
            entries.push((*id, result_line_hash(&line)));
            fnv1a(&mut chain, line.as_bytes());
            fnv1a(&mut chain, b"\n");
        }
        ShardAnchor {
            shard,
            entries,
            anchor: chain,
        }
    }

    fn to_json(&self) -> Value {
        let jobs = self
            .entries
            .iter()
            .map(|&(id, hash)| {
                let mut e = Value::obj();
                e.set("id", Value::U64(id)).set("hash", Value::U64(hash));
                e
            })
            .collect();
        let mut v = Value::obj();
        v.set("shard", Value::U64(self.shard))
            .set("jobs", Value::Arr(jobs))
            .set("anchor", Value::U64(self.anchor));
        v
    }

    fn from_json(v: &Value) -> Option<ShardAnchor> {
        let Value::Arr(items) = v.get("jobs")? else {
            return None;
        };
        let mut entries = Vec::with_capacity(items.len());
        for item in items {
            entries.push((item.get("id")?.as_u64()?, item.get("hash")?.as_u64()?));
        }
        Some(ShardAnchor {
            shard: v.get("shard")?.as_u64()?,
            entries,
            anchor: v.get("anchor")?.as_u64()?,
        })
    }

    /// Commits the anchor under `dir` (atomic write).
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        write_atomic(
            &anchor_path(dir, self.shard),
            &format!("{}\n", self.to_json()),
        )
    }

    /// Loads shard `k`'s committed anchor, `None` if not committed yet.
    pub fn load(dir: &Path, shard: u64) -> io::Result<Option<ShardAnchor>> {
        let path = anchor_path(dir, shard);
        if !path.exists() {
            return Ok(None);
        }
        let text = read_to_string(&path)?;
        parse(&text)
            .ok()
            .as_ref()
            .and_then(ShardAnchor::from_json)
            .map(Some)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt shard anchor {}", path.display()),
                )
            })
    }
}

/// The campaign-level anchor: an FNV-1a chain over the manifest's
/// job-list digest and every shard anchor in shard order. Any change to
/// any committed transcript — or to the job list itself — changes it.
pub fn campaign_anchor(manifest: &Manifest, shard_anchors: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &manifest.digest.to_le_bytes());
    for anchor in shard_anchors {
        fnv1a(&mut h, &anchor.to_le_bytes());
    }
    h
}

// ---------------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------------

/// A shard lease: who is (or was) executing a shard, and when they last
/// proved they were alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The leased shard.
    pub shard: u64,
    /// Claiming process id.
    pub pid: u32,
    /// Last heartbeat, epoch milliseconds.
    pub heartbeat_ms: u64,
    /// Staleness threshold the claimer advertised.
    pub stale_after_ms: u64,
}

impl Lease {
    fn new(shard: u64, stale_after: Duration) -> Lease {
        Lease {
            shard,
            pid: std::process::id(),
            heartbeat_ms: now_ms(),
            stale_after_ms: stale_after.as_millis() as u64,
        }
    }

    fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("shard", Value::U64(self.shard))
            .set("pid", Value::U64(self.pid as u64))
            .set("heartbeat_ms", Value::U64(self.heartbeat_ms))
            .set("stale_after_ms", Value::U64(self.stale_after_ms));
        v
    }

    fn from_json(v: &Value) -> Option<Lease> {
        Some(Lease {
            shard: v.get("shard")?.as_u64()?,
            pid: v.get("pid")?.as_u64()? as u32,
            heartbeat_ms: v.get("heartbeat_ms")?.as_u64()?,
            stale_after_ms: v.get("stale_after_ms")?.as_u64()?,
        })
    }

    /// `true` once the heartbeat is older than the advertised threshold —
    /// the holder is presumed dead and the shard is reclaimable.
    pub fn is_stale(&self, now_ms: u64) -> bool {
        now_ms.saturating_sub(self.heartbeat_ms) > self.stale_after_ms
    }

    /// Loads the lease for shard `k`, `None` if absent. An unparseable
    /// lease (a torn write from a dying claimer) reads as `None` too: it
    /// carries no liveness evidence, so it is treated like a stale one.
    pub fn load(dir: &Path, shard: u64) -> Option<Lease> {
        let text = read_to_string(&lease_path(dir, shard)).ok()?;
        parse(&text).ok().as_ref().and_then(Lease::from_json)
    }
}

/// Holding a claimed lease: refreshes the heartbeat on a background
/// thread and removes the lease file on drop (normal completion). A
/// SIGKILLed holder leaves the file behind with a decaying heartbeat —
/// exactly the signal survivors reclaim on.
#[derive(Debug)]
pub struct LeaseGuard {
    path: PathBuf,
    lease: Lease,
    stop: Arc<AtomicBool>,
    beat: Option<std::thread::JoinHandle<()>>,
    keep: bool,
}

impl LeaseGuard {
    fn start(path: PathBuf, lease: Lease, stale_after: Duration) -> LeaseGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let beat = {
            let stop = Arc::clone(&stop);
            let path = path.clone();
            let mut lease = lease.clone();
            let interval = (stale_after / 3).max(Duration::from_millis(25));
            std::thread::spawn(move || {
                'beat: while !stop.load(Ordering::Relaxed) {
                    // Sleep in short slices so dropping the guard never
                    // blocks for a full heartbeat interval.
                    let mut slept = Duration::ZERO;
                    while slept < interval {
                        if stop.load(Ordering::Relaxed) {
                            break 'beat;
                        }
                        let step = (interval - slept).min(Duration::from_millis(25));
                        std::thread::sleep(step);
                        slept += step;
                    }
                    // Refresh only while the file still names us: if a
                    // reclaimer decided we were dead and stole the lease,
                    // stop advertising liveness — duplicate execution is
                    // benign (deterministic results, merge dedups), but
                    // fighting over the file is not.
                    let current = read_to_string(&path)
                        .ok()
                        .and_then(|t| parse(&t).ok().as_ref().and_then(Lease::from_json));
                    match current {
                        Some(l) if l.pid == lease.pid => {
                            lease.heartbeat_ms = now_ms();
                            let _ = write_atomic(&path, &format!("{}\n", lease.to_json()));
                        }
                        _ => break,
                    }
                }
            })
        };
        LeaseGuard {
            path,
            lease,
            stop,
            beat: Some(beat),
            keep: false,
        }
    }

    /// The lease being held.
    pub fn lease(&self) -> &Lease {
        &self.lease
    }

    fn stop_heartbeat(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(beat) = self.beat.take() {
            let _ = beat.join();
        }
    }

    /// Stops the heartbeat but leaves the lease file in place — test and
    /// chaos hook for simulating a worker that stopped proving liveness.
    pub fn abandon(mut self) {
        self.stop_heartbeat();
        self.keep = true;
    }
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        self.stop_heartbeat();
        if self.keep {
            return;
        }
        // Release only if the file still names us (a reclaimer may have
        // legitimately stolen a lease we let go stale under load).
        let ours = read_to_string(&self.path)
            .ok()
            .and_then(|t| parse(&t).ok().as_ref().and_then(Lease::from_json))
            .is_some_and(|l| l.pid == self.lease.pid);
        if ours {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Outcome of one claim attempt.
#[derive(Debug)]
pub enum Claim {
    /// The shard is ours; the guard heartbeats until dropped.
    Claimed(LeaseGuard),
    /// A live worker holds the shard.
    Busy(Lease),
}

/// Tries to claim shard `k`'s lease.
///
/// The claim itself is atomic: the lease content is written to a private
/// temp file and `hard_link`ed to the lease path, so the lease either
/// appears fully formed or not at all (no empty-file window for readers).
/// A stale or unreadable existing lease is stolen by renaming it to a
/// tombstone first — `rename` picks exactly one winner among racing
/// reclaimers.
pub fn try_claim(dir: &Path, shard: u64, stale_after: Duration) -> io::Result<Claim> {
    let path = lease_path(dir, shard);
    let pid = std::process::id();
    for _ in 0..4 {
        let lease = Lease::new(shard, stale_after);
        let tmp = dir.join(format!("shard-{shard}.lease.claim{pid}"));
        {
            let mut f = File::create(&tmp)?;
            writeln!(f, "{}", lease.to_json())?;
            f.sync_all()?;
        }
        let linked = std::fs::hard_link(&tmp, &path);
        let _ = std::fs::remove_file(&tmp);
        match linked {
            Ok(()) => return Ok(Claim::Claimed(LeaseGuard::start(path, lease, stale_after))),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                match Lease::load(dir, shard) {
                    Some(held) if !held.is_stale(now_ms()) => return Ok(Claim::Busy(held)),
                    _ => {
                        // Stale or torn: steal via rename (single winner),
                        // then loop to claim the now-vacant path. Losing
                        // the rename race just means someone else is
                        // reclaiming; the next iteration sees their lease.
                        let tomb = dir.join(format!("shard-{shard}.lease.stale{pid}"));
                        if std::fs::rename(&path, &tomb).is_ok() {
                            let _ = std::fs::remove_file(&tomb);
                        }
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    // Persistent contention: report whoever holds it now as busy.
    match Lease::load(dir, shard) {
        Some(held) => Ok(Claim::Busy(held)),
        None => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("shard {shard} lease contended at {}", path.display()),
        )),
    }
}

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

/// Fault injection for the chaos harness (`--chaos <mode>` on the shard
/// drivers): each mode simulates one failure the shard layer must either
/// recover from or loudly detect at merge time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// SIGKILL mid-shard: run half the pending jobs, then `abort()`.
    /// Recovered — the lease goes stale and a survivor resumes the rest.
    Kill,
    /// Kill mid-append: run everything, chop the artifact mid-line, then
    /// `abort()` before committing the anchor. Recovered — resume
    /// tolerates the truncated tail and re-runs that job.
    Truncate,
    /// Bit rot after commit: complete the shard, then flip one byte in
    /// the committed JSONL. Detected — merge names the shard and job.
    FlipByte,
    /// Duplicate claim race gone wrong: complete the shard, then append
    /// a divergent duplicate of an existing result line. Detected —
    /// merge prints both transcripts.
    DuplicateClaim,
    /// Clock-stale lease: claim the shard, run nothing, leave an ancient
    /// heartbeat behind. Detected at merge as an unfinished shard until
    /// a worker reclaims it.
    StaleLease,
}

impl ChaosMode {
    /// Parses the CLI token (`kill`, `truncate`, `flip`, `dup`, `stale`).
    pub fn from_name(name: &str) -> Option<ChaosMode> {
        match name {
            "kill" => Some(ChaosMode::Kill),
            "truncate" => Some(ChaosMode::Truncate),
            "flip" => Some(ChaosMode::FlipByte),
            "dup" => Some(ChaosMode::DuplicateClaim),
            "stale" => Some(ChaosMode::StaleLease),
            _ => None,
        }
    }
}

/// Flips the last ASCII digit in `path` (wrapping `9` to `0`), i.e. a
/// single-byte perturbation of a committed value that keeps the line
/// parseable — the hardest corruption to notice without hashes.
fn flip_last_digit(path: &Path) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let Some(pos) = bytes.iter().rposition(|b| b.is_ascii_digit()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no digit to flip in {}", path.display()),
        ));
    };
    bytes[pos] = if bytes[pos] == b'9' {
        b'0'
    } else {
        bytes[pos] + 1
    };
    write_atomic(path, std::str::from_utf8(&bytes).unwrap_or(""))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// The shard worker
// ---------------------------------------------------------------------------

/// Knobs for [`run_fleet_worker`].
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Per-shard campaign options (worker threads, progress). The shard
    /// label is stamped over `label` automatically.
    pub campaign: CampaignOptions,
    /// Heartbeat age after which a lease counts as stale.
    pub stale_after: Duration,
    /// Claim attempts on a busy shard before giving up on it.
    pub claim_retries: u32,
    /// Initial backoff between claim attempts (doubles per retry).
    pub claim_backoff: Duration,
    /// After finishing the assigned shard, sweep the remaining shards and
    /// reclaim any unclaimed or stale-leased incomplete one — the
    /// "survivor retries a killed worker's shard" behaviour.
    pub scavenge: bool,
    /// Fault injection (applied to the assigned shard only).
    pub chaos: Option<ChaosMode>,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            campaign: CampaignOptions::default(),
            stale_after: Duration::from_secs(30),
            claim_retries: 3,
            claim_backoff: Duration::from_millis(200),
            scavenge: false,
            chaos: None,
        }
    }
}

/// What happened to one shard during a worker's sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// This worker ran (or resumed) the shard to completion and committed
    /// its anchor. Carries the number of freshly executed jobs.
    Completed(u64),
    /// The shard's anchor was already committed; nothing to do.
    AlreadyDone,
    /// A live worker holds the lease.
    Busy(Lease),
    /// The shard ran but some jobs failed (panicked); no anchor committed.
    Failed(u64),
}

/// One shard's status line in a worker's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard.
    pub shard: u64,
    /// What happened.
    pub outcome: ShardOutcome,
}

/// Runs one fleet worker: claims and executes shard `shard` of `shards`,
/// then (with [`FleetOptions::scavenge`]) sweeps the other shards for
/// unclaimed or stale-leased work. Returns a status per shard visited.
///
/// Jobs are executed through the ordinary campaign runner, so per-shard
/// artifacts resume across worker generations and results are
/// bit-identical to a single-process run of the same job list.
///
/// # Errors
///
/// Shard-artifact I/O errors. A busy shard is a status, not an error.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_worker<S, I, F>(
    dir: &Path,
    jobs: &[Job],
    manifest: &Manifest,
    shard: u64,
    shards: u64,
    opts: &FleetOptions,
    init: I,
    run_job: F,
) -> io::Result<Vec<ShardStatus>>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &Job) -> JobResult + Sync,
{
    if shards == 0 || shard >= shards {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("shard {shard} out of range for {shards} shards"),
        ));
    }
    std::fs::create_dir_all(dir)?;
    FleetManifest::init(dir, manifest, shards)?;

    let mut statuses = Vec::new();
    let sweep: Vec<u64> = if opts.scavenge {
        (0..shards).map(|i| (shard + i) % shards).collect()
    } else {
        vec![shard]
    };
    for k in sweep {
        let chaos = opts.chaos.filter(|_| k == shard);
        let status = run_one_shard(dir, jobs, manifest, k, shards, opts, chaos, &init, &run_job)?;
        statuses.push(status);
    }
    Ok(statuses)
}

#[allow(clippy::too_many_arguments)]
fn run_one_shard<S, I, F>(
    dir: &Path,
    jobs: &[Job],
    manifest: &Manifest,
    k: u64,
    shards: u64,
    opts: &FleetOptions,
    chaos: Option<ChaosMode>,
    init: &I,
    run_job: &F,
) -> io::Result<ShardStatus>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &Job) -> JobResult + Sync,
{
    let done = |outcome| ShardStatus { shard: k, outcome };
    if chaos.is_none() && anchor_path(dir, k).exists() {
        return Ok(done(ShardOutcome::AlreadyDone));
    }

    // Claim with bounded backoff: a busy shard is retried a few times
    // (its holder may be finishing), then left to them.
    let mut backoff = opts.claim_backoff;
    let mut attempt = 0;
    let guard = loop {
        match try_claim(dir, k, opts.stale_after)? {
            Claim::Claimed(guard) => break guard,
            Claim::Busy(lease) => {
                if attempt >= opts.claim_retries {
                    return Ok(done(ShardOutcome::Busy(lease)));
                }
                attempt += 1;
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
    };

    if chaos == Some(ChaosMode::StaleLease) {
        // Simulate a claimer whose clock heartbeat never advanced: leave
        // an ancient lease behind and run nothing.
        let ancient = Lease {
            heartbeat_ms: 0,
            ..guard.lease().clone()
        };
        write_atomic(&lease_path(dir, k), &format!("{}\n", ancient.to_json()))?;
        guard.abandon();
        return Ok(done(ShardOutcome::Failed(0)));
    }

    let my_jobs: Vec<Job> = jobs
        .iter()
        .filter(|j| shard_of(j.id, shards) == k)
        .cloned()
        .collect();
    let shard_manifest = Manifest::for_jobs(
        &format!("{}#shard{k}of{shards}", manifest.name),
        manifest.campaign_seed,
        &my_jobs,
    );
    let results_path = shard_results_path(dir, k);
    let mut sink = JsonlSink::open(&results_path, &shard_manifest)?;
    let mut campaign_opts = opts.campaign.clone();
    campaign_opts.label = Some(format!("shard{k}"));

    if chaos == Some(ChaosMode::Kill) {
        // Run half of what's pending, then die like a SIGKILL: no anchor,
        // no lease release, heartbeat stops — survivors reclaim.
        let pending: Vec<Job> = my_jobs
            .iter()
            .filter(|j| !sink.completed().contains_key(&j.id))
            .cloned()
            .collect();
        let half: Vec<Job> = pending.iter().take(pending.len() / 2).cloned().collect();
        run_campaign_scoped(&half, &campaign_opts, Some(&mut sink), init, run_job)?;
        eprintln!("chaos: aborting mid-shard {k} after {} jobs", half.len());
        std::process::abort();
    }

    let report = run_campaign_scoped(&my_jobs, &campaign_opts, Some(&mut sink), init, run_job)?;

    if chaos == Some(ChaosMode::Truncate) {
        // Die mid-append: chop the artifact inside its final line, then
        // abort before the anchor commit.
        drop(sink);
        let len = std::fs::metadata(&results_path)?.len();
        OpenOptions::new()
            .write(true)
            .open(&results_path)?
            .set_len(len.saturating_sub(9))?;
        eprintln!("chaos: aborting shard {k} with a truncated trailing line");
        std::process::abort();
    }

    if sink.completed().len() != my_jobs.len() {
        // Some jobs panicked: leave the shard uncommitted so the merge
        // reports it (and a later worker retries the failures).
        return Ok(done(ShardOutcome::Failed(report.failures.len() as u64)));
    }

    let anchor = ShardAnchor::over(k, sink.completed());
    anchor.write(dir)?;
    drop(sink);

    match chaos {
        Some(ChaosMode::FlipByte) => flip_last_digit(&results_path)?,
        Some(ChaosMode::DuplicateClaim) => {
            // A raced duplicate execution that somehow diverged: append a
            // copy of the first line with one counter bumped. The merge
            // must print both transcripts and refuse.
            let text = read_to_string(&results_path)?;
            let first = text.lines().next().unwrap_or_default();
            let mut result = parse(first)
                .ok()
                .as_ref()
                .and_then(JobResult::from_json)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty shard"))?;
            result.frames += 1;
            let mut f = OpenOptions::new().append(true).open(&results_path)?;
            writeln!(f, "{}", result.to_json())?;
        }
        _ => {}
    }

    Ok(done(ShardOutcome::Completed(
        report.totals.jobs - report.skipped,
    )))
}

// ---------------------------------------------------------------------------
// Verified merge
// ---------------------------------------------------------------------------

/// Why a merge refused.
#[derive(Debug)]
pub enum MergeError {
    /// Filesystem trouble (exit 1).
    Io(io::Error),
    /// The directory belongs to a different campaign or shard count —
    /// a usage error (exit 2).
    Mismatch {
        /// What differed.
        detail: String,
    },
    /// A shard has no committed anchor or is missing results (exit 3
    /// when merge is demanded; workers treat `live` shards as "not yet").
    Incomplete {
        /// The unfinished shard.
        shard: u64,
        /// Missing jobs / lease state.
        detail: String,
        /// `true` if a live worker currently holds the shard's lease.
        live: bool,
    },
    /// A committed transcript failed verification (exit 3).
    Corrupt {
        /// The offending shard.
        shard: u64,
        /// The offending job, when one can be named.
        job_id: Option<u64>,
        /// What the cross-check found.
        detail: String,
    },
}

impl From<io::Error> for MergeError {
    fn from(e: io::Error) -> MergeError {
        MergeError::Io(e)
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io(e) => write!(f, "merge i/o error: {e}"),
            MergeError::Mismatch { detail } => write!(f, "campaign mismatch: {detail}"),
            MergeError::Incomplete {
                shard,
                detail,
                live,
            } => {
                let state = if *live { "still running" } else { "unfinished" };
                write!(f, "shard {shard} {state}: {detail}")
            }
            MergeError::Corrupt {
                shard,
                job_id,
                detail,
            } => match job_id {
                Some(id) => write!(f, "shard {shard} corrupt at job {id}: {detail}"),
                None => write!(f, "shard {shard} corrupt: {detail}"),
            },
        }
    }
}

impl MergeError {
    /// The shard drivers' exit-code contract: 1 io, 2 usage, 3 integrity.
    pub fn exit_code(&self) -> i32 {
        match self {
            MergeError::Io(_) => 1,
            MergeError::Mismatch { .. } => 2,
            MergeError::Incomplete { .. } | MergeError::Corrupt { .. } => 3,
        }
    }
}

/// What a verified merge produced.
#[derive(Debug, Clone)]
pub struct MergeSummary {
    /// Jobs in the merged artifact.
    pub jobs: u64,
    /// Campaign totals over the merged results.
    pub totals: Totals,
    /// Verified per-shard anchors, in shard order.
    pub shard_anchors: Vec<u64>,
    /// The campaign-level anchor.
    pub campaign_anchor: u64,
    /// Duplicate result lines deduplicated (bit-identical re-executions
    /// from raced or retried claims).
    pub deduplicated: u64,
}

/// `true` once every shard's anchor is committed (cheap merge-readiness
/// probe for workers deciding whether to attempt the final merge).
pub fn merge_ready(dir: &Path, shards: u64) -> bool {
    (0..shards).all(|k| anchor_path(dir, k).exists())
}

fn lease_state(dir: &Path, shard: u64) -> (String, bool) {
    match Lease::load(dir, shard) {
        Some(l) => {
            let age = now_ms().saturating_sub(l.heartbeat_ms);
            if l.is_stale(now_ms()) {
                (
                    format!(
                        "stale lease from pid {} (heartbeat {age}ms ago) — \
                         re-run a worker to reclaim it",
                        l.pid
                    ),
                    false,
                )
            } else {
                (
                    format!("leased by live pid {} (heartbeat {age}ms ago)", l.pid),
                    true,
                )
            }
        }
        None => ("unclaimed".to_string(), false),
    }
}

/// Verifies every shard transcript against its committed anchor and, on
/// success, writes the merged campaign JSONL to `out` plus the
/// campaign-level anchor to `campaign.anchor.json`.
///
/// Verification recomputes every per-job hash and shard chain from the
/// raw artifact bytes, cross-checks duplicate job ids (from raced or
/// retried claims) for bit-identity, and rejects any line that is not
/// the canonical encoding of a job in this campaign. The merged file is
/// byte-identical (sorted by job id) to a single-process campaign run.
///
/// # Errors
///
/// See [`MergeError`]; nothing is written unless every check passes.
pub fn merge_shards(
    dir: &Path,
    jobs: &[Job],
    manifest: &Manifest,
    shards: u64,
    out: &Path,
) -> Result<MergeSummary, MergeError> {
    let fleet = FleetManifest::load(dir).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            MergeError::Mismatch {
                detail: format!(
                    "{} is not a shard directory (no campaign.json)",
                    dir.display()
                ),
            }
        } else {
            MergeError::Io(e)
        }
    })?;
    let me = FleetManifest {
        manifest: manifest.clone(),
        shards,
    };
    if fleet != me {
        return Err(MergeError::Mismatch {
            detail: format!("directory holds {fleet:?}, merge requested {me:?}"),
        });
    }

    let seeds: BTreeMap<u64, u64> = jobs.iter().map(|j| (j.id, j.seed)).collect();
    let mut merged: BTreeMap<u64, (String, JobResult)> = BTreeMap::new();
    let mut anchors = Vec::with_capacity(shards as usize);
    let mut deduplicated = 0u64;

    for k in 0..shards {
        let incomplete = |detail: String| {
            let (state, live) = lease_state(dir, k);
            MergeError::Incomplete {
                shard: k,
                detail: format!("{detail} ({state})"),
                live,
            }
        };
        let Some(committed) = ShardAnchor::load(dir, k)? else {
            return Err(incomplete("no committed anchor".to_string()));
        };
        let path = shard_results_path(dir, k);
        let text = match read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(MergeError::Corrupt {
                    shard: k,
                    job_id: None,
                    detail: format!("anchor committed but {} is missing", path.display()),
                });
            }
            Err(e) => return Err(MergeError::Io(e)),
        };

        let expected: BTreeSet<u64> = seeds
            .keys()
            .copied()
            .filter(|&id| shard_of(id, shards) == k)
            .collect();
        let mut seen: BTreeMap<u64, (String, JobResult)> = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let result = parse(raw)
                .ok()
                .as_ref()
                .and_then(JobResult::from_json)
                .ok_or_else(|| MergeError::Corrupt {
                    shard: k,
                    job_id: None,
                    detail: format!("unparseable line {lineno} in {}", path.display()),
                })?;
            let id = result.job_id;
            let corrupt = |detail: String| MergeError::Corrupt {
                shard: k,
                job_id: Some(id),
                detail,
            };
            let canonical = result.to_json().to_string();
            if canonical != raw {
                return Err(corrupt(format!(
                    "line {lineno} is not canonical JSON (tampered whitespace or key order)"
                )));
            }
            if !expected.contains(&id) {
                return Err(corrupt(if seeds.contains_key(&id) {
                    format!("job {id} belongs to shard {}", shard_of(id, shards))
                } else {
                    format!("job {id} is not in this campaign")
                }));
            }
            if result.seed != seeds[&id] {
                return Err(corrupt(format!(
                    "recorded seed {:#x} does not match the campaign's {:#x}",
                    result.seed, seeds[&id]
                )));
            }
            let existing: Option<String> = seen.get(&id).map(|(first, _)| first.clone());
            match existing {
                Some(first) if first == raw => deduplicated += 1,
                Some(first) => {
                    let detail = format!(
                        "divergent duplicate transcripts for job {id} — a determinism bug, \
                         not a retry:\n  first:     {first}\n  duplicate: {raw}"
                    );
                    return Err(corrupt(detail));
                }
                None => {
                    seen.insert(id, (raw.to_string(), result));
                }
            }
        }

        if let Some(&missing) = expected.iter().find(|id| !seen.contains_key(id)) {
            let n = expected.iter().filter(|id| !seen.contains_key(id)).count();
            return Err(incomplete(format!(
                "{n} job(s) missing, first is job {missing}"
            )));
        }

        let results: BTreeMap<u64, JobResult> =
            seen.iter().map(|(id, (_, r))| (*id, r.clone())).collect();
        let recomputed = ShardAnchor::over(k, &results);
        if recomputed != committed {
            // Name the first diverging job, or the chain itself.
            let blame = committed
                .entries
                .iter()
                .zip(recomputed.entries.iter())
                .find(|(c, r)| c != r);
            return Err(match blame {
                Some((&(id, want), &(_, got))) => MergeError::Corrupt {
                    shard: k,
                    job_id: Some(id),
                    detail: format!(
                        "transcript hash {got:#018x} does not match the committed \
                         anchor entry {want:#018x}"
                    ),
                },
                None => MergeError::Corrupt {
                    shard: k,
                    job_id: None,
                    detail: format!(
                        "shard anchor {:#018x} does not match the committed {:#018x}",
                        recomputed.anchor, committed.anchor
                    ),
                },
            });
        }
        anchors.push(committed.anchor);
        merged.extend(seen);
    }

    let campaign = campaign_anchor(manifest, &anchors);
    let anchor_file = campaign_anchor_path(dir);
    if anchor_file.exists() {
        let text = read_to_string(&anchor_file)?;
        let stored = parse(&text)
            .ok()
            .as_ref()
            .and_then(|v| v.get("anchor")?.as_u64());
        if let Some(stored) = stored {
            if stored != campaign {
                return Err(MergeError::Corrupt {
                    shard: anchors.len() as u64,
                    job_id: None,
                    detail: format!(
                        "campaign anchor changed since the last merge: \
                         stored {stored:#018x}, recomputed {campaign:#018x}"
                    ),
                });
            }
        }
    }

    let mut text = String::new();
    let mut totals = Totals::default();
    for (line, result) in merged.values() {
        text.push_str(line);
        text.push('\n');
        totals.absorb(result);
    }
    write_atomic(out, &text)?;

    let mut v = Value::obj();
    v.set("anchor", Value::U64(campaign))
        .set("jobs", Value::U64(merged.len() as u64))
        .set(
            "shard_anchors",
            Value::Arr(anchors.iter().map(|&a| Value::U64(a)).collect()),
        );
    write_atomic(&anchor_file, &format!("{v}\n"))?;

    Ok(MergeSummary {
        jobs: merged.len() as u64,
        totals,
        shard_anchors: anchors,
        campaign_anchor: campaign,
        deduplicated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FaultSpec, ProtocolSpec, WorkloadSpec};

    fn sample_jobs(n: u64) -> Vec<Job> {
        (0..n)
            .map(|id| {
                Job::new(
                    id,
                    7,
                    ProtocolSpec::StandardCan,
                    FaultSpec::None,
                    WorkloadSpec::SingleBroadcast,
                    3,
                    10,
                )
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "majorcan-campaign-shard-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn synthetic(job: &Job) -> JobResult {
        let mut r = JobResult::for_job(job);
        r.frames = job.frames;
        r.bits = job.seed % 1000;
        r.counters.add("ok", job.frames);
        r
    }

    #[test]
    fn shard_of_partitions_every_id_exactly_once() {
        for shards in 1..6u64 {
            for id in 0..50u64 {
                let k = shard_of(id, shards);
                assert!(k < shards);
            }
            let count: usize = (0..shards)
                .map(|k| (0..50u64).filter(|&id| shard_of(id, shards) == k).count())
                .sum();
            assert_eq!(count, 50);
        }
    }

    #[test]
    fn lease_claim_is_exclusive_and_released_on_drop() {
        let dir = tmp_dir("lease");
        let claim = try_claim(&dir, 0, Duration::from_secs(30)).unwrap();
        let Claim::Claimed(guard) = claim else {
            panic!("fresh dir must claim");
        };
        match try_claim(&dir, 0, Duration::from_secs(30)).unwrap() {
            Claim::Busy(l) => assert_eq!(l.pid, std::process::id()),
            Claim::Claimed(_) => panic!("second claim must see busy"),
        }
        drop(guard);
        assert!(!lease_path(&dir, 0).exists(), "drop releases the lease");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lease_is_stolen() {
        let dir = tmp_dir("steal");
        let ancient = Lease {
            shard: 0,
            pid: 999_999,
            heartbeat_ms: 0,
            stale_after_ms: 1,
        };
        write_atomic(&lease_path(&dir, 0), &format!("{}\n", ancient.to_json())).unwrap();
        match try_claim(&dir, 0, Duration::from_secs(30)).unwrap() {
            Claim::Claimed(guard) => {
                assert_eq!(guard.lease().pid, std::process::id());
            }
            Claim::Busy(l) => panic!("stale lease must be stolen, got busy with {l:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lease_reads_as_reclaimable() {
        let dir = tmp_dir("torn");
        std::fs::write(lease_path(&dir, 2), "{\"shard\":2,\"pi").unwrap();
        match try_claim(&dir, 2, Duration::from_secs(30)).unwrap() {
            Claim::Claimed(_) => {}
            Claim::Busy(l) => panic!("torn lease must be reclaimable, got {l:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_refreshes_the_lease() {
        let dir = tmp_dir("beat");
        let stale_after = Duration::from_millis(120);
        let Claim::Claimed(guard) = try_claim(&dir, 0, stale_after).unwrap() else {
            panic!("must claim");
        };
        let first = Lease::load(&dir, 0).unwrap();
        std::thread::sleep(stale_after * 2);
        let later = Lease::load(&dir, 0).unwrap();
        assert!(
            later.heartbeat_ms > first.heartbeat_ms,
            "heartbeat must advance: {first:?} vs {later:?}"
        );
        assert!(!later.is_stale(now_ms()));
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anchor_is_order_independent_and_byte_sensitive() {
        let jobs = sample_jobs(6);
        let mut forward = BTreeMap::new();
        for job in &jobs {
            forward.insert(job.id, synthetic(job));
        }
        // BTreeMap iteration is sorted regardless of insertion order, so
        // feed the same results in reverse and compare.
        let mut reverse = BTreeMap::new();
        for job in jobs.iter().rev() {
            reverse.insert(job.id, synthetic(job));
        }
        let a = ShardAnchor::over(0, &forward);
        let b = ShardAnchor::over(0, &reverse);
        assert_eq!(a, b);

        let mut perturbed = forward.clone();
        perturbed.get_mut(&3).unwrap().bits ^= 1;
        let c = ShardAnchor::over(0, &perturbed);
        assert_ne!(a.anchor, c.anchor);
        // Only job 3's entry changed.
        for (&(id, ha), &(_, hc)) in a.entries.iter().zip(c.entries.iter()) {
            assert_eq!(ha == hc, id != 3, "entry {id}");
        }
    }

    #[test]
    fn shard_anchor_file_round_trips() {
        let dir = tmp_dir("anchorfile");
        let jobs = sample_jobs(4);
        let mut results = BTreeMap::new();
        for job in &jobs {
            results.insert(job.id, synthetic(job));
        }
        let anchor = ShardAnchor::over(2, &results);
        anchor.write(&dir).unwrap();
        let back = ShardAnchor::load(&dir, 2).unwrap().unwrap();
        assert_eq!(back, anchor);
        assert_eq!(ShardAnchor::load(&dir, 3).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_anchor_depends_on_every_shard_and_the_manifest() {
        let jobs = sample_jobs(4);
        let manifest = Manifest::for_jobs("t", 7, &jobs);
        let a = campaign_anchor(&manifest, &[1, 2, 3]);
        assert_eq!(a, campaign_anchor(&manifest, &[1, 2, 3]));
        assert_ne!(a, campaign_anchor(&manifest, &[1, 2, 4]));
        assert_ne!(a, campaign_anchor(&manifest, &[2, 1, 3]));
        // A different job list (extra job → different digest) re-anchors.
        let other = Manifest::for_jobs("t", 7, &sample_jobs(5));
        assert_ne!(a, campaign_anchor(&other, &[1, 2, 3]));
    }

    #[test]
    fn chaos_mode_tokens_parse() {
        for (token, mode) in [
            ("kill", ChaosMode::Kill),
            ("truncate", ChaosMode::Truncate),
            ("flip", ChaosMode::FlipByte),
            ("dup", ChaosMode::DuplicateClaim),
            ("stale", ChaosMode::StaleLease),
        ] {
            assert_eq!(ChaosMode::from_name(token), Some(mode));
        }
        assert_eq!(ChaosMode::from_name("nuke"), None);
    }
}
