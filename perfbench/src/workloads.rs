//! The four workloads, their untraced repetitions through the entry
//! points the bins call, and the output checks every correct build
//! passes.
//!
//! One *repetition* is one run a user launches: a `falsify` campaign, an
//! `attack_surface` sweep or one E17 soak cell. Repetition `r` of a
//! benchmark run with seed `s` uses campaign seed [`rep_seed`]`(s, r)`;
//! repetition 0 uses `s` itself, so `--seed` set to a bin's default seed
//! reproduces that bin's default run exactly.

use majorcan_campaign::{
    derive_trial_seed, CampaignOptions, FaultSpec, Job, ProtocolSpec, Totals, WorkloadSpec,
};
use majorcan_falsify::{
    build_attack_jobs, build_jobs, run_attack_search, run_search, AttackSearchConfig,
    AttackSearchReport, SearchConfig, SearchReport,
};
use majorcan_traffic::{run_soak, SoakOutcome, SoakSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `falsify` bin's default campaign at 600 schedules per target.
    Falsify,
    /// The same search over MajorCAN_3/4/5 only, 20 000 schedules per
    /// target.
    FalsifyMajor,
    /// The `attack_surface` sweep at 200 attacks per target.
    Attack,
    /// One E17 soak cell: MajorCAN_5, 8 nodes, 90 % load, clean bus.
    Soak,
}

/// Frames released by one soak repetition.
pub const SOAK_FRAMES: u64 = 30_000;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Falsify,
        Workload::FalsifyMajor,
        Workload::Attack,
        Workload::Soak,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Falsify => "falsify",
            Workload::FalsifyMajor => "falsify_major",
            Workload::Attack => "attack",
            Workload::Soak => "soak",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The default seed of the bin this workload mirrors.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Falsify | Workload::FalsifyMajor => 0xFA15,
            Workload::Attack => 0xA77AC4,
            Workload::Soak => 0x7AF1C,
        }
    }

    /// Work of one repetition: schedules or attacks per target, or soak
    /// frames.
    pub fn default_size(self) -> u64 {
        match self {
            Workload::Falsify => 600,
            Workload::FalsifyMajor => 20_000,
            Workload::Attack => 200,
            Workload::Soak => SOAK_FRAMES,
        }
    }
}

/// The campaign seed of repetition `rep` of a run seeded with `seed`.
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    if rep == 0 {
        seed
    } else {
        derive_trial_seed(seed, rep)
    }
}

/// The search campaign of `workload` (`Falsify` or `FalsifyMajor`) with the
/// `falsify` bin's defaults.
pub fn search_config(workload: Workload, seed: u64, per_target: u64) -> SearchConfig {
    let mut cfg = SearchConfig::new(seed, per_target);
    cfg.targets = match workload {
        Workload::FalsifyMajor => vec![
            ProtocolSpec::MajorCan { m: 3 },
            ProtocolSpec::MajorCan { m: 4 },
            ProtocolSpec::MajorCan { m: 5 },
        ],
        _ => vec![
            ProtocolSpec::StandardCan,
            ProtocolSpec::MinorCan,
            ProtocolSpec::MajorCan { m: 5 },
            ProtocolSpec::TotCan,
        ],
    };
    cfg
}

/// The attack sweep with the `attack_surface` bin's defaults.
pub fn attack_config(seed: u64, per_target: u64) -> AttackSearchConfig {
    AttackSearchConfig::new(seed, per_target)
}

/// The soak cell: MajorCAN_5, 8 nodes, 90 % load, clean bus, online
/// checker on.
pub fn soak_spec(seed: u64, frames: u64) -> SoakSpec {
    SoakSpec::new(ProtocolSpec::MajorCan { m: 5 }, 8, 0.9, frames, seed)
}

/// One shrunk minimum, in the form the digest covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Minimum {
    /// Target protocol.
    pub target: ProtocolSpec,
    /// Outcome class token.
    pub class: String,
    /// Attack cost, or the disturbance count of a benign minimum.
    pub cost: u64,
    /// Canonical schedule key plus provenance.
    pub line: String,
}

/// A campaign's merged counters as an ordered map.
pub fn counters_of(totals: &Totals) -> BTreeMap<String, u64> {
    totals
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// A finished search or attack campaign, normalised so the untraced
/// entry point and the traced re-drive can be compared field by field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignOutput {
    /// Outcome counters (`outcome/…` or `attack/…`).
    pub counters: BTreeMap<String, u64>,
    /// Trials the finished jobs report.
    pub frames: u64,
    /// Jobs that finished.
    pub jobs: u64,
    /// Deduplicated raw findings.
    pub findings: usize,
    /// Archived minima, in archive order.
    pub minima: Vec<Minimum>,
    /// Findings dropped by class caps.
    pub dropped: usize,
    /// Oracle evaluations spent shrinking.
    pub shrink_evaluations: usize,
}

impl CampaignOutput {
    /// Normalises a [`run_search`] report.
    pub fn from_search(report: &SearchReport) -> CampaignOutput {
        CampaignOutput {
            counters: counters_of(&report.totals),
            frames: report.totals.frames,
            jobs: report.totals.jobs,
            findings: report.findings.len(),
            minima: report
                .entries
                .iter()
                .map(|e| Minimum {
                    target: e.protocol,
                    class: e.expected.clone(),
                    cost: e.schedule.len() as u64,
                    line: format!(
                        "{} job {} trial {}",
                        e.schedule.key(),
                        e.provenance.job_id,
                        e.provenance.trial
                    ),
                })
                .collect(),
            dropped: report.dropped,
            shrink_evaluations: report.shrink_evaluations,
        }
    }

    /// Normalises a [`run_attack_search`] report.
    pub fn from_attack(report: &AttackSearchReport) -> CampaignOutput {
        CampaignOutput {
            counters: counters_of(&report.totals),
            frames: report.totals.frames,
            jobs: report.totals.jobs,
            findings: report.findings.len(),
            minima: report
                .entries
                .iter()
                .map(|e| Minimum {
                    target: e.protocol,
                    class: e.expected.clone(),
                    cost: e.provenance.cost,
                    line: format!(
                        "{} {} job {} trial {}",
                        e.provenance.strategy,
                        e.schedule.key(),
                        e.provenance.job_id,
                        e.provenance.trial
                    ),
                })
                .collect(),
            dropped: report.dropped,
            shrink_evaluations: report.shrink_evaluations,
        }
    }

    /// The canonical text the digest hashes.
    pub fn digest_text(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(s, "{k}={v}");
        }
        let _ = writeln!(
            s,
            "frames={} jobs={} findings={} dropped={} shrink_evaluations={}",
            self.frames, self.jobs, self.findings, self.dropped, self.shrink_evaluations
        );
        for m in &self.minima {
            let _ = writeln!(s, "min {} {} cost {} {}", m.target, m.class, m.cost, m.line);
        }
        s
    }

    fn token_count(&self, token: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.rsplit('/').next() == Some(token))
            .map(|(_, v)| v)
            .sum()
    }

    /// The cheapest archived Agreement-class break of `target`.
    pub fn cheapest_agreement(&self, target: ProtocolSpec) -> Option<u64> {
        self.minima
            .iter()
            .filter(|m| {
                m.target == target && matches!(m.class.as_str(), "double" | "omission" | "validity")
            })
            .map(|m| m.cost)
            .min()
    }
}

/// The campaign job the `traffic` bin would run for a clean-bus `spec`.
pub fn soak_job(spec: &SoakSpec) -> Job {
    Job::new(
        0,
        spec.seed,
        spec.protocol,
        FaultSpec::None,
        WorkloadSpec::SustainedTraffic {
            load: spec.load,
            frames: spec.frames,
            sporadic_permille: spec.sporadic_permille,
        },
        spec.n_nodes,
        spec.frames,
    )
}

/// The soak cell's integer counters (the traffic bin's campaign line).
pub fn soak_counters(spec: &SoakSpec, out: &SoakOutcome) -> BTreeMap<String, u64> {
    let r = out.to_result(&soak_job(spec));
    let mut counters: BTreeMap<String, u64> =
        r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect();
    counters.insert("bits".to_string(), out.bits);
    counters
}

/// What one repetition produced, checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Operations attempted: schedules, attacks or frames.
    pub attempted: u64,
    /// Operations failed: panics, truncated runs, failed jobs, or every
    /// frame of a soak cell that did not drain or overran its window.
    pub failed: u64,
    /// The canonical output text.
    pub digest_text: String,
    /// Output checks that failed (empty on a correct build).
    pub problems: Vec<String>,
}

impl Checked {
    /// FNV-1a 64 of the canonical output text.
    pub fn digest(&self) -> u64 {
        fnv1a(self.digest_text.as_bytes())
    }
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Checks a search campaign of `cfg`.
pub fn check_search(cfg: &SearchConfig, out: &CampaignOutput) -> Checked {
    let attempted = cfg.targets.len() as u64 * cfg.schedules_per_target;
    let jobs_total = build_jobs(cfg).len() as u64;
    check_campaign(attempted, jobs_total, out)
}

/// Checks an attack sweep of `cfg`, including the §E18 gate: CAN's
/// cheapest Agreement break costs 1 and every MajorCAN_m's costs more.
pub fn check_attack(cfg: &AttackSearchConfig, out: &CampaignOutput) -> Checked {
    let attempted = cfg.targets.len() as u64 * cfg.attacks_per_target;
    let jobs_total = build_attack_jobs(cfg).len() as u64;
    let mut checked = check_campaign(attempted, jobs_total, out);
    if cfg.targets.contains(&ProtocolSpec::StandardCan) {
        let can = out.cheapest_agreement(ProtocolSpec::StandardCan);
        if can != Some(1) {
            checked.problems.push(format!(
                "E18: CAN's cheapest Agreement break costs {can:?}, not 1"
            ));
        }
        for &target in &cfg.targets {
            if let (ProtocolSpec::MajorCan { .. }, Some(cost)) =
                (target, out.cheapest_agreement(target))
            {
                if can.is_none_or(|floor| cost <= floor) {
                    checked.problems.push(format!(
                        "E18: {target} breaks at cost {cost}, not above CAN's {can:?}"
                    ));
                }
            }
        }
    }
    checked
}

fn check_campaign(attempted: u64, jobs_total: u64, out: &CampaignOutput) -> Checked {
    let mut problems = Vec::new();
    let counted: u64 = out.counters.values().sum();
    if counted != out.frames {
        problems.push(format!(
            "outcome counters sum to {counted}, but the jobs explored {}",
            out.frames
        ));
    }
    if out.jobs == jobs_total && out.frames != attempted {
        problems.push(format!(
            "every job finished but explored {} of {attempted}",
            out.frames
        ));
    }
    let missing = attempted.saturating_sub(out.frames);
    let failed = missing + out.token_count("panic") + out.token_count("truncated");
    Checked {
        attempted,
        failed,
        digest_text: out.digest_text(),
        problems,
    }
}

/// Checks a soak cell: consistent verdict, drained, no window overrun,
/// every frame released.
pub fn check_soak(spec: &SoakSpec, counters: &BTreeMap<String, u64>) -> Checked {
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    let mut problems = Vec::new();
    if get("verdict/consistent") != 1 {
        problems.push("soak verdict is not consistent".to_string());
    }
    if get("drained") != 1 {
        problems.push("soak cell did not drain".to_string());
    }
    if get("window_exceeded") != 0 {
        problems.push(format!(
            "soak cell exceeded its window {} time(s)",
            get("window_exceeded")
        ));
    }
    if get("released") != spec.frames {
        problems.push(format!(
            "soak released {} of {} frames",
            get("released"),
            spec.frames
        ));
    }
    let failed = if get("drained") != 1 || get("window_exceeded") != 0 {
        spec.frames
    } else {
        0
    };
    let mut digest_text = String::new();
    for (k, v) in counters {
        let _ = writeln!(digest_text, "{k}={v}");
    }
    Checked {
        attempted: spec.frames,
        failed,
        digest_text,
        problems,
    }
}

/// Runs one untraced repetition of `workload` through the entry point
/// its bin calls (`run_search`, `run_attack_search`, `run_soak`) and
/// checks the output.
pub fn run_rep(workload: Workload, seed: u64, size: u64, workers: usize) -> Checked {
    let opts = CampaignOptions::quiet(workers);
    match workload {
        Workload::Falsify | Workload::FalsifyMajor => {
            let cfg = search_config(workload, seed, size);
            let report = run_search(&cfg, &opts, None).expect("in-memory search has no I/O");
            check_search(&cfg, &CampaignOutput::from_search(&report))
        }
        Workload::Attack => {
            let cfg = attack_config(seed, size);
            let report =
                run_attack_search(&cfg, &opts, None).expect("in-memory attack search has no I/O");
            check_attack(&cfg, &CampaignOutput::from_attack(&report))
        }
        Workload::Soak => {
            let spec = soak_spec(seed, size);
            let out = run_soak(&spec, None).expect("a soak without an exporter has no I/O");
            check_soak(&spec, &soak_counters(&spec, &out))
        }
    }
}

/// Worker threads a campaign of `jobs` jobs starts: one per CPU, never
/// more than there are jobs (the campaign runner's rule for `--jobs 0`).
pub fn campaign_workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(jobs)
        .max(1)
}

/// CPU time (all threads) of one set-up of `workload`: everything a
/// repetition pays before its first operation. For a campaign that is
/// building the job list, one `Testbed` per target and starting the
/// workers (each building its oracle); for the soak cell it is the
/// testbed, the traffic stream, the windowed checker and the trackers.
///
/// CPU time, not wall time: on a small shared host the wall time of
/// starting a thread is mostly the wait for a CPU to run it, which moved
/// the median of a run's set-ups between 0.1 and 0.9 ms with no change
/// to the work.
pub fn setup_once(workload: Workload, seed: u64, size: u64) -> std::time::Duration {
    use majorcan_falsify::{AttackOracle, Oracle, ATTACK_BUDGET};
    use majorcan_testbed::{BusChannel, Testbed};
    use majorcan_traffic::{LatencyTracker, ResidencyTracker, TrafficSpec, TrafficStream};
    use std::hint::black_box;

    let t0 = crate::measure::process_cpu();
    // Kept alive past the clock read: tear-down is not set-up.
    let built: Box<dyn std::any::Any> = match workload {
        Workload::Falsify | Workload::FalsifyMajor => {
            let cfg = search_config(workload, seed, size);
            let jobs = build_jobs(&cfg);
            let testbeds: Vec<Testbed> = cfg
                .targets
                .iter()
                .map(|&t| Testbed::builder(t).nodes(cfg.n_nodes).build())
                .collect();
            let engine = cfg.engine;
            std::thread::scope(|s| {
                for _ in 0..campaign_workers(jobs.len()) {
                    s.spawn(move || black_box(Oracle::with_engine(engine)));
                }
            });
            Box::new((jobs, testbeds))
        }
        Workload::Attack => {
            let cfg = attack_config(seed, size);
            let jobs = build_attack_jobs(&cfg);
            let testbeds: Vec<Testbed> = cfg
                .targets
                .iter()
                .map(|&t| {
                    Testbed::builder(t)
                        .nodes(cfg.n_nodes)
                        .budget(ATTACK_BUDGET)
                        .shutoff_at_warning(false)
                        .build()
                })
                .collect();
            std::thread::scope(|s| {
                for _ in 0..campaign_workers(jobs.len()) {
                    s.spawn(|| black_box(AttackOracle::new()));
                }
            });
            Box::new((jobs, testbeds))
        }
        Workload::Soak => {
            let spec = soak_spec(seed, size);
            let mut tb = Testbed::builder(spec.protocol).nodes(spec.n_nodes).build();
            tb.set_shutoff_at_warning(spec.shutoff_at_warning);
            tb.reset_with(BusChannel::NoFaults);
            let traffic = TrafficSpec::mixed_load(
                spec.n_nodes,
                spec.load,
                majorcan_traffic::DEFAULT_FRAME_BITS,
                spec.sporadic_permille,
            );
            let stream = TrafficStream::new(traffic, derive_trial_seed(spec.seed, 0), spec.frames);
            let checker = majorcan_abcast::WindowedChecker::new(spec.n_nodes, spec.window);
            let latency = LatencyTracker::new(spec.window);
            let residency = ResidencyTracker::new(spec.n_nodes);
            Box::new((tb, stream, checker, latency, residency))
        }
    };
    let elapsed = crate::measure::process_cpu() - t0;
    drop(black_box(built));
    elapsed
}
