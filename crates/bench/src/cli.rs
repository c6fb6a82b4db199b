//! Shared argv parsing for the reproduction binaries.
//!
//! Every campaign-backed binary accepts the same flags:
//!
//! * `--seed <u64>` — campaign seed (decimal or `0x…` hex);
//! * `--jobs <n>` — worker threads (`0` = one per CPU, the default);
//! * `--out <path>` — write JSONL results + manifest there and enable
//!   checkpoint/resume (re-invoking with the same `--out` skips completed
//!   jobs); [`CliArgs::open_out`] opens that sink, and
//!   [`CliArgs::run_campaign`] runs a job list through it;
//! * `--quiet` — suppress the runner's progress lines;
//! * positional arguments — binary-specific sizes (trial counts, node
//!   counts), consumed in order via [`CliArgs::positional`].
//!
//! Binaries with flags of their own (the falsifier's `--corpus`,
//! `--targets`, …) declare them as [`ExtraFlag`]s and parse via
//! [`CliArgs::parse_with_extras`]; undeclared `--…` arguments still fail
//! fast instead of being swallowed as positionals.

use majorcan_campaign::{
    merge_ready, merge_shards, run_campaign_scoped, run_fleet_worker, CampaignOptions,
    CampaignReport, ChaosMode, FleetManifest, FleetOptions, Job, JobResult, JsonlSink, Manifest,
    MergeError, ProtocolSpec, ShardOutcome, Totals,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The exit-code contract every campaign-backed binary shares. The
/// spawned-binary contract tests assert against these constants, so a
/// binary that drifts from the convention fails its own test rather than
/// silently confusing `scripts/check.sh` and CI gates.
pub mod exit_code {
    /// Every checked property held; nothing to report.
    pub const CONSISTENT: i32 = 0;
    /// An I/O failure: unwritable sink, unreadable corpus, broken export.
    pub const IO: i32 = 1;
    /// A usage error: unknown flags, unparsable values, bad targets.
    pub const USAGE: i32 = 2;
    /// A finding: a property violation, failed probe, corpus regression or
    /// margin regression.
    pub const FINDING: i32 = 3;
}

/// Declaration of one binary-specific flag accepted on top of the common
/// set.
#[derive(Debug, Clone, Copy)]
pub struct ExtraFlag {
    /// Flag spelling including the leading dashes (`"--corpus"`).
    pub name: &'static str,
    /// `true` when the flag consumes the following argument as its value;
    /// `false` for a boolean switch.
    pub takes_value: bool,
    /// Usage fragment shown in error messages (`"<dir>"`).
    pub help: &'static str,
}

impl ExtraFlag {
    /// A flag that takes a value (`--corpus <dir>`).
    pub const fn value(name: &'static str, help: &'static str) -> ExtraFlag {
        ExtraFlag {
            name,
            takes_value: true,
            help,
        }
    }

    /// A boolean switch (`--strict`).
    pub const fn switch(name: &'static str, help: &'static str) -> ExtraFlag {
        ExtraFlag {
            name,
            takes_value: false,
            help,
        }
    }
}

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Campaign seed (`--seed`), or the binary's default.
    pub seed: u64,
    /// Worker threads (`--jobs`), 0 = auto.
    pub jobs: usize,
    /// JSONL output path (`--out`), None = in-memory campaign.
    pub out: Option<PathBuf>,
    /// Progress suppressed (`--quiet`).
    pub quiet: bool,
    positionals: Vec<String>,
    cursor: usize,
    extras: Vec<(String, String)>,
}

fn parse_u64(flag: &str, text: &str) -> u64 {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.unwrap_or_else(|_| die(&format!("{flag} expects an unsigned integer, got {text:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("common flags: [--seed <u64>] [--jobs <n>] [--out <file.jsonl>] [--quiet]");
    std::process::exit(exit_code::USAGE);
}

/// Parses a `--targets` value: comma-separated protocol names, blanks
/// skipped. An unknown name is a usage error.
pub fn parse_targets(text: &str) -> Vec<ProtocolSpec> {
    text.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            ProtocolSpec::from_name(t).unwrap_or_else(|| {
                eprintln!("error: unknown protocol target {t:?}");
                std::process::exit(exit_code::USAGE);
            })
        })
        .collect()
}

impl CliArgs {
    /// Parses `std::env::args()` with `default_seed` as the seed fallback.
    pub fn parse(default_seed: u64) -> CliArgs {
        CliArgs::parse_from(std::env::args().skip(1), default_seed)
    }

    /// Parses an explicit argument list (tests use this).
    pub fn parse_from<I>(args: I, default_seed: u64) -> CliArgs
    where
        I: IntoIterator<Item = String>,
    {
        CliArgs::parse_from_with_extras(args, default_seed, &[])
    }

    /// Parses `std::env::args()` accepting the declared binary-specific
    /// flags in addition to the common set.
    pub fn parse_with_extras(default_seed: u64, extras: &[ExtraFlag]) -> CliArgs {
        CliArgs::parse_from_with_extras(std::env::args().skip(1), default_seed, extras)
    }

    /// Parses an explicit argument list with binary-specific flags (tests
    /// use this).
    pub fn parse_from_with_extras<I>(args: I, default_seed: u64, extras: &[ExtraFlag]) -> CliArgs
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = CliArgs {
            seed: default_seed,
            jobs: 0,
            out: None,
            quiet: false,
            positionals: Vec::new(),
            cursor: 0,
            extras: Vec::new(),
        };
        let usage = {
            let mut u = String::from(
                "common flags: [--seed <u64>] [--jobs <n>] [--out <file.jsonl>] [--quiet]",
            );
            for e in extras {
                u.push_str(&format!(" [{} {}]", e.name, e.help));
            }
            u
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut flag_value = |flag: &str| {
                args.next()
                    .unwrap_or_else(|| die(&format!("{flag} expects a value")))
            };
            match arg.as_str() {
                "--seed" => out.seed = parse_u64("--seed", &flag_value("--seed")),
                "--jobs" => out.jobs = parse_u64("--jobs", &flag_value("--jobs")) as usize,
                "--out" => out.out = Some(PathBuf::from(flag_value("--out"))),
                "--quiet" => out.quiet = true,
                "--help" | "-h" => {
                    println!("{usage}");
                    std::process::exit(0);
                }
                other if other.starts_with("--") => match extras.iter().find(|e| e.name == other) {
                    Some(e) if e.takes_value => {
                        let value = flag_value(e.name);
                        out.extras.push((e.name.to_string(), value));
                    }
                    Some(e) => out.extras.push((e.name.to_string(), String::new())),
                    None => die(&format!("unknown flag {other}\n{usage}")),
                },
                _ => out.positionals.push(arg),
            }
        }
        out
    }

    /// The value of a declared extra flag, if it was passed (boolean
    /// switches yield `Some("")`). The last occurrence wins.
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a declared extra flag parsed as `u64` (decimal or
    /// `0x…`), or `default` when absent.
    pub fn extra_u64(&self, name: &str, default: u64) -> u64 {
        match self.extra(name) {
            Some(text) => parse_u64(name, text),
            None => default,
        }
    }

    /// `true` when the declared boolean switch was passed.
    pub fn extra_flag(&self, name: &str) -> bool {
        self.extra(name).is_some()
    }

    /// The next positional argument parsed as `T`, or `default`.
    pub fn positional<T: std::str::FromStr>(&mut self, default: T) -> T {
        let Some(text) = self.positionals.get(self.cursor) else {
            return default;
        };
        self.cursor += 1;
        text.parse()
            .unwrap_or_else(|_| die(&format!("positional argument {text:?} did not parse")))
    }

    /// The campaign options these flags describe.
    pub fn campaign_options(&self) -> CampaignOptions {
        CampaignOptions {
            workers: self.jobs,
            progress: !self.quiet,
            ..CampaignOptions::default()
        }
    }

    /// The `--out` sink of the campaign `name` over `jobs`, or `None`
    /// without `--out`. Exits with a clean CLI error (rather than a panic)
    /// when the artifact belongs to a different campaign or the path is
    /// unwritable.
    pub fn open_out(&self, name: &str, jobs: &[Job]) -> Option<JsonlSink> {
        self.out.as_ref().map(|path| {
            let manifest = Manifest::for_jobs(name, self.seed, jobs);
            JsonlSink::open(path, &manifest).unwrap_or_else(|e| die(&e.to_string()))
        })
    }

    /// Runs the campaign `name` over `jobs` with these flags' options and
    /// `--out` sink, and warns on stderr when jobs failed.
    ///
    /// # Panics
    ///
    /// Panics when writing the `--out` artifact fails.
    pub fn run_campaign<S>(
        &self,
        name: &str,
        jobs: &[Job],
        init: impl Fn() -> S + Sync,
        run_job: impl Fn(&mut S, &Job) -> JobResult + Sync,
    ) -> CampaignReport {
        let mut sink = self.open_out(name, jobs);
        let report =
            run_campaign_scoped(jobs, &self.campaign_options(), sink.as_mut(), init, run_job)
                .expect("campaign I/O");
        if !report.failures.is_empty() {
            eprintln!(
                "warning: {} job(s) failed; see the failures artifact",
                report.failures.len()
            );
        }
        report
    }
}

// ---------------------------------------------------------------------------
// Fleet (sharded) execution
// ---------------------------------------------------------------------------

/// The shared fleet flags. Campaign-backed binaries concatenate these with
/// their own [`ExtraFlag`]s (via [`with_shard_flags`]) and hand the parsed
/// [`CliArgs`] plus their job list to [`fleet`]; every such binary gains
/// crash-tolerant sharded execution, verified merging and chaos injection
/// without binary-specific code.
pub const SHARD_FLAGS: &[ExtraFlag] = &[
    ExtraFlag::value("--shard", "<k/n: run shard k of an n-shard fleet>"),
    ExtraFlag::value("--shard-dir", "<dir: fleet coordination directory>"),
    ExtraFlag::switch("--merge", "(verify + merge a finished fleet)"),
    ExtraFlag::switch("--scavenge", "(reclaim stale shards after finishing)"),
    ExtraFlag::value("--chaos", "<kill|truncate|flip|dup|stale>"),
    ExtraFlag::value("--stale-after-ms", "<ms: lease staleness threshold>"),
];

/// A binary's own flags plus the shared fleet flags, for
/// [`CliArgs::parse_with_extras`].
pub fn with_shard_flags(own: &[ExtraFlag]) -> Vec<ExtraFlag> {
    own.iter().chain(SHARD_FLAGS.iter()).copied().collect()
}

fn parse_shard_spec(text: &str) -> (u64, u64) {
    if let Some((k, n)) = text.split_once('/') {
        let (k, n) = (parse_u64("--shard", k), parse_u64("--shard", n));
        if n >= 1 && k < n {
            return (k, n);
        }
    }
    die(&format!("--shard expects <k/n> with k < n, got {text:?}"))
}

/// Where the merged artifact goes: `--out` when given, else
/// `<shard-dir>/merged.jsonl`.
fn merged_out(cli: &CliArgs, dir: &Path) -> PathBuf {
    cli.out.clone().unwrap_or_else(|| dir.join("merged.jsonl"))
}

#[allow(clippy::too_many_arguments)]
fn merge_and_gate(
    dir: &Path,
    jobs: &[Job],
    manifest: &Manifest,
    shards: u64,
    out: &Path,
    gate: &dyn Fn(&Totals) -> Option<String>,
    demanded: bool,
    quiet: bool,
) -> i32 {
    match merge_shards(dir, jobs, manifest, shards, out) {
        Ok(summary) => {
            if !quiet || demanded {
                let dedup = if summary.deduplicated > 0 {
                    format!(", {} duplicate(s) deduplicated", summary.deduplicated)
                } else {
                    String::new()
                };
                println!(
                    "merged {} job(s) from {shards} shard(s) -> {} \
                     (campaign anchor {:#018x}{dedup})",
                    summary.jobs,
                    out.display(),
                    summary.campaign_anchor,
                );
            }
            match gate(&summary.totals) {
                Some(finding) => {
                    eprintln!("finding: {finding}");
                    exit_code::FINDING
                }
                None => exit_code::CONSISTENT,
            }
        }
        // A worker's opportunistic merge defers on an unfinished shard
        // (another worker may still be racing its anchor in); a demanded
        // `--merge` reports it through the exit-code contract instead.
        Err(MergeError::Incomplete {
            shard,
            detail,
            live,
        }) if !demanded => {
            if !quiet {
                let state = if live { "live" } else { "unclaimed or stale" };
                eprintln!("merge deferred — shard {shard} ({state}): {detail}");
            }
            exit_code::CONSISTENT
        }
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

/// The shared fleet driver. Returns `None` when no fleet flag was passed
/// (the binary proceeds with its ordinary single-process path) and
/// `Some(exit_code)` when this invocation was a fleet worker or merge.
///
/// * `--shard k/n --shard-dir d` claims and executes shard `k`, then
///   opportunistically merges when every anchor is committed (an
///   unfinished fleet is exit 0: run the remaining shards);
/// * `--merge --shard-dir d` verifies and merges a finished fleet,
///   surfacing integrity failures through the exit-code contract;
/// * `gate` inspects the merged [`Totals`] and returns a finding message
///   to exit [`exit_code::FINDING`], mirroring the binary's
///   single-process verdict;
/// * in fleet mode `--out` names the merged artifact (per-shard
///   transcripts always live in the shard directory).
pub fn fleet<S>(
    cli: &CliArgs,
    name: &str,
    jobs: &[Job],
    init: impl Fn() -> S + Sync,
    run_job: impl Fn(&mut S, &Job) -> JobResult + Sync,
    gate: impl Fn(&Totals) -> Option<String>,
) -> Option<i32> {
    let shard_spec = cli.extra("--shard");
    let merge_only = cli.extra_flag("--merge");
    if shard_spec.is_none() && !merge_only {
        for flag in ["--shard-dir", "--chaos", "--stale-after-ms"] {
            if cli.extra(flag).is_some() {
                die(&format!("{flag} requires --shard <k/n> or --merge"));
            }
        }
        if cli.extra_flag("--scavenge") {
            die("--scavenge requires --shard <k/n>");
        }
        return None;
    }
    let dir = PathBuf::from(
        cli.extra("--shard-dir")
            .unwrap_or_else(|| die("fleet mode requires --shard-dir <dir>")),
    );
    let manifest = Manifest::for_jobs(name, cli.seed, jobs);

    if merge_only {
        if shard_spec.is_some() || cli.extra("--chaos").is_some() || cli.extra_flag("--scavenge") {
            die("--merge verifies a finished fleet; drop --shard/--chaos/--scavenge");
        }
        // The committed fleet manifest knows the shard count; merge_shards
        // re-verifies it against this binary's own campaign manifest.
        let shards = match FleetManifest::load(&dir) {
            Ok(fleet) => fleet.shards,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!(
                    "error: {} is not a shard directory (no campaign.json)",
                    dir.display()
                );
                return Some(exit_code::USAGE);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return Some(exit_code::IO);
            }
        };
        let out = merged_out(cli, &dir);
        return Some(merge_and_gate(
            &dir, jobs, &manifest, shards, &out, &gate, true, cli.quiet,
        ));
    }

    let (k, n) = parse_shard_spec(shard_spec.unwrap());
    let chaos = cli.extra("--chaos").map(|t| {
        ChaosMode::from_name(t).unwrap_or_else(|| {
            die(&format!(
                "--chaos expects kill|truncate|flip|dup|stale, got {t:?}"
            ))
        })
    });
    let opts = FleetOptions {
        campaign: cli.campaign_options(),
        stale_after: Duration::from_millis(cli.extra_u64("--stale-after-ms", 30_000)),
        scavenge: cli.extra_flag("--scavenge"),
        chaos,
        ..FleetOptions::default()
    };
    let statuses = match run_fleet_worker(&dir, jobs, &manifest, k, n, &opts, init, run_job) {
        Ok(statuses) => statuses,
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::InvalidInput | std::io::ErrorKind::InvalidData
            ) =>
        {
            eprintln!("error: {e}");
            return Some(exit_code::USAGE);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return Some(exit_code::IO);
        }
    };
    if !cli.quiet {
        for s in &statuses {
            let what = match &s.outcome {
                ShardOutcome::Completed(ran) => format!("completed ({ran} job(s) executed)"),
                ShardOutcome::AlreadyDone => "already done".to_string(),
                ShardOutcome::Busy(lease) => format!("busy (live worker pid {})", lease.pid),
                ShardOutcome::Failed(ran) => {
                    format!("FAILED after {ran} job(s); no anchor committed")
                }
            };
            eprintln!("shard {}/{n}: {what}", s.shard);
        }
    }
    if statuses
        .iter()
        .any(|s| matches!(s.outcome, ShardOutcome::Failed(_)))
    {
        return Some(exit_code::FINDING);
    }
    if !merge_ready(&dir, n) {
        if !cli.quiet {
            eprintln!("fleet incomplete; run the remaining shards, then --merge");
        }
        return Some(exit_code::CONSISTENT);
    }
    let out = merged_out(cli, &dir);
    Some(merge_and_gate(
        &dir, jobs, &manifest, n, &out, &gate, false, cli.quiet,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_positionals_mix() {
        let mut cli = CliArgs::parse_from(
            strs(&["5000", "--seed", "0xFEED", "--jobs", "4", "8", "--quiet"]),
            1,
        );
        assert_eq!(cli.seed, 0xFEED);
        assert_eq!(cli.jobs, 4);
        assert!(cli.quiet);
        assert!(cli.out.is_none());
        assert_eq!(cli.positional(0u64), 5000);
        assert_eq!(cli.positional(0usize), 8);
        assert_eq!(cli.positional(42usize), 42, "exhausted -> default");
        let opts = cli.campaign_options();
        assert_eq!(opts.workers, 4);
        assert!(!opts.progress);
    }

    #[test]
    fn defaults_hold_without_arguments() {
        let mut cli = CliArgs::parse_from(strs(&[]), 7);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.jobs, 0);
        assert_eq!(cli.positional(123u32), 123);
    }

    #[test]
    fn out_flag_sets_the_artifact_path() {
        let cli = CliArgs::parse_from(strs(&["--out", "runs/mc.jsonl"]), 1);
        assert_eq!(cli.out, Some(PathBuf::from("runs/mc.jsonl")));
    }

    #[test]
    fn declared_extra_flags_parse_alongside_common_ones() {
        let extras = [
            ExtraFlag::value("--corpus", "<dir>"),
            ExtraFlag::value("--max-errors", "<n>"),
            ExtraFlag::switch("--strict", ""),
        ];
        let mut cli = CliArgs::parse_from_with_extras(
            strs(&[
                "600",
                "--corpus",
                "corpus",
                "--seed",
                "9",
                "--strict",
                "--max-errors",
                "0x4",
            ]),
            1,
            &extras,
        );
        assert_eq!(cli.seed, 9);
        assert_eq!(cli.positional(0u64), 600);
        assert_eq!(cli.extra("--corpus"), Some("corpus"));
        assert_eq!(cli.extra_u64("--max-errors", 2), 4);
        assert_eq!(cli.extra_u64("--nodes", 3), 3, "absent -> default");
        assert!(cli.extra_flag("--strict"));
        assert!(!cli.extra_flag("--other"));
    }

    #[test]
    fn shard_flags_parse_alongside_a_binarys_own() {
        let own = [ExtraFlag::value("--corpus", "<dir>")];
        let all = with_shard_flags(&own);
        assert_eq!(all.len(), own.len() + SHARD_FLAGS.len());
        let cli = CliArgs::parse_from_with_extras(
            strs(&[
                "--corpus",
                "c",
                "--shard",
                "1/3",
                "--shard-dir",
                "d",
                "--scavenge",
            ]),
            1,
            &all,
        );
        assert_eq!(cli.extra("--shard"), Some("1/3"));
        assert_eq!(cli.extra("--shard-dir"), Some("d"));
        assert!(cli.extra_flag("--scavenge"));
        assert!(!cli.extra_flag("--merge"));
        assert_eq!(parse_shard_spec("1/3"), (1, 3));
        assert_eq!(parse_shard_spec("0/1"), (0, 1));
    }

    #[test]
    fn last_occurrence_of_an_extra_wins() {
        let extras = [ExtraFlag::value("--corpus", "<dir>")];
        let cli =
            CliArgs::parse_from_with_extras(strs(&["--corpus", "a", "--corpus", "b"]), 1, &extras);
        assert_eq!(cli.extra("--corpus"), Some("b"));
    }
}
