//! The cost-aware attack search: synthesize budgeted attack schedules,
//! hunt breaks, shrink findings to their **cheapest** form.
//!
//! Mirrors the benign search ([`run_search`](crate::run_search)) on the
//! deterministic campaign runner — trial `t` of job `j` derives its RNG
//! from `(campaign seed, j, t)`, so the explored attack space is
//! bit-identical for any `--jobs` worker count — but differs in what it
//! optimizes: the shrinker minimizes the schedule's nominal **cost** (not
//! just its action count), and the archive keeps the *cheapest* minima
//! per `(target, outcome)` class. Every archived entry is a
//! cheapest-attack certificate: "breaking this variant this way costs at
//! most N units".

use crate::attack::{
    AttackCorpusEntry, AttackOracle, AttackOutcome, AttackProvenance, AttackSchedule, ATTACK_BUDGET,
};
use crate::generator::{seed_schedules, tail_disturbance, Geometry};
use crate::shrink_phase::{cap_per_class, shrink_phase, RawFinding, ShrinkPhase, ShrinkResult};
use majorcan_bench::jobs::chunked_frames;
use majorcan_campaign::{
    derive_trial_seed, run_campaign_in_memory_scoped, run_campaign_scoped, CampaignOptions,
    FaultSpec, Job, JobResult, JsonlSink, ProtocolSpec, Totals, WorkloadSpec,
};
use majorcan_faults::{AttackAction, Disturbance, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::Mutex;

/// Attack schedules per campaign job — the parallelization granule.
pub const ATTACKS_PER_JOB: u64 = 50;

/// Judgements one attack shrink may spend, whether run or answered by
/// the oracle's memo.
pub const MAX_ATTACK_EVALUATIONS: usize = 400;

/// Configuration of one attack-search campaign.
#[derive(Debug, Clone)]
pub struct AttackSearchConfig {
    /// Campaign seed: the whole explored attack space derives from it.
    pub campaign_seed: u64,
    /// Link-layer protocol targets, each attacked independently.
    pub targets: Vec<ProtocolSpec>,
    /// Bus size.
    pub n_nodes: usize,
    /// Attack schedules synthesized per target.
    pub attacks_per_target: u64,
    /// Maximum nominal schedule cost in budget units.
    pub max_cost: u64,
    /// Archived entries kept per `(target, outcome)` class — the cheapest
    /// ones; the shrink queue admits four times this many raw findings
    /// per class.
    pub keep_per_class: usize,
}

impl AttackSearchConfig {
    /// A campaign over the attack-surface protagonists (CAN, MinorCAN,
    /// MajorCAN_3/4/5) with the default budgets.
    pub fn new(campaign_seed: u64, attacks_per_target: u64) -> AttackSearchConfig {
        AttackSearchConfig {
            campaign_seed,
            targets: vec![
                ProtocolSpec::StandardCan,
                ProtocolSpec::MinorCan,
                ProtocolSpec::MajorCan { m: 3 },
                ProtocolSpec::MajorCan { m: 4 },
                ProtocolSpec::MajorCan { m: 5 },
            ],
            n_nodes: 3,
            attacks_per_target,
            max_cost: 40,
            keep_per_class: 2,
        }
    }
}

/// One raw (pre-shrink) break discovered by the attack search.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackFinding {
    /// Target protocol.
    pub target: ProtocolSpec,
    /// Discovering job.
    pub job_id: u64,
    /// Discovering trial within the job.
    pub trial: u64,
    /// The oracle's classification.
    pub outcome: AttackOutcome,
    /// The synthesized schedule, as generated.
    pub schedule: AttackSchedule,
}

impl RawFinding for AttackFinding {
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

/// Everything a finished attack search produced.
#[derive(Debug)]
pub struct AttackSearchReport {
    /// Campaign totals; outcome counters are keyed
    /// `attack/<protocol>/<token>`.
    pub totals: Totals,
    /// Deduplicated raw findings in `(job id, trial)` order.
    pub findings: Vec<AttackFinding>,
    /// Cost-shrunk, deduplicated corpus entries — the cheapest
    /// `keep_per_class` per `(target, outcome)` class, cheapest first.
    pub entries: Vec<AttackCorpusEntry>,
    /// Findings dropped by the per-class caps (reported, never silent).
    pub dropped: usize,
    /// Judgements spent shrinking
    /// ([`ShrunkAttack::evaluations`](field@ShrunkAttack::evaluations)
    /// summed).
    pub shrink_evaluations: usize,
    /// Simulator runs among them
    /// ([`ShrunkAttack::runs`](field@ShrunkAttack::runs) summed) — the
    /// same for any worker count.
    pub shrink_runs: usize,
}

impl AttackSearchReport {
    /// Number of deduplicated raw findings against `target`.
    pub fn findings_for(&self, target: ProtocolSpec) -> usize {
        self.findings.iter().filter(|f| f.target == target).count()
    }

    /// The explored-schedule count for `target` (sum of its outcome
    /// counters).
    pub fn explored_for(&self, target: ProtocolSpec) -> u64 {
        let prefix = format!("attack/{target}/");
        self.totals
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The cheapest archived certificate for `target` in outcome class
    /// `token`, if any.
    pub fn cheapest_for(&self, target: ProtocolSpec, token: &str) -> Option<&AttackCorpusEntry> {
        self.entries
            .iter()
            .filter(|e| e.protocol == target && e.expected == token)
            .min_by_key(|e| (e.provenance.cost, e.schedule.key()))
    }
}

/// Builds the job list of an attack campaign: per target,
/// `attacks_per_target` trials chunked into [`ATTACKS_PER_JOB`]-sized
/// [`FaultSpec::AttackSearch`] jobs.
///
/// # Panics
///
/// Panics on a higher-level-protocol target: attacks address frame
/// positions of the CAN link format itself.
pub fn build_attack_jobs(cfg: &AttackSearchConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &target in &cfg.targets {
        assert!(
            !target.is_hlp(),
            "attack search targets link-layer protocols, got {target}"
        );
        for chunk in chunked_frames(cfg.attacks_per_target, ATTACKS_PER_JOB) {
            jobs.push(Job::new(
                jobs.len() as u64,
                cfg.campaign_seed,
                target,
                FaultSpec::AttackSearch {
                    max_cost: cfg.max_cost,
                },
                WorkloadSpec::SingleBroadcast,
                cfg.n_nodes,
                chunk,
            ));
        }
    }
    jobs
}

fn pulse_of(d: &Disturbance) -> AttackAction {
    // Stuff-bit targeting collapses onto the nominal position: the
    // attacker aims at field bits.
    AttackAction::Pulse {
        node: d.node,
        field: d.field,
        index: d.index,
        occurrence: d.occurrence,
    }
}

/// Clamps a schedule's nominal cost to `max_cost`: actions keep their
/// schedule order; a scalar action that would overshoot is trimmed to the
/// remaining allowance, anything past a spent budget is dropped.
fn clamp_cost(actions: Vec<AttackAction>, max_cost: u64) -> Vec<AttackAction> {
    let mut kept = Vec::with_capacity(actions.len());
    let mut acc = 0u64;
    for mut action in actions {
        let remaining = max_cost - acc;
        if remaining == 0 {
            break;
        }
        if action.cost() > remaining {
            match &mut action {
                AttackAction::Flood { len, .. } => *len = remaining,
                AttackAction::Hammer { reps, .. } => *reps = remaining as u32,
                AttackAction::Pulse { .. } => continue, // cost 1 > remaining = 0, unreachable
            }
        }
        acc += action.cost();
        kept.push(action);
    }
    kept
}

/// Synthesizes one budgeted attack schedule of nominal cost
/// `1..=max_cost`: a quarter translated paper archetypes (the figure
/// schedules as dominant pulses), strategy archetypes (bus-off hammers,
/// counter manipulation, dominant floods) and fresh biased pulse mixes.
pub fn generate_attack(rng: &mut StdRng, geo: &Geometry, max_cost: u64) -> AttackSchedule {
    let max_cost = max_cost.max(1);
    let roll = rng.gen_range(0..100);
    let actions: Vec<AttackAction> = if roll < 25 {
        // Paper archetypes, translated to dominant pulses and sometimes
        // retargeted — the EOF tail bits they strike are recessive, so
        // the translation is exact.
        let seeds = seed_schedules(geo);
        let mut s: Vec<AttackAction> = seeds[rng.gen_range(0..seeds.len())]
            .iter()
            .map(pulse_of)
            .collect();
        if rng.gen_bool(0.3) {
            let i = rng.gen_range(0..s.len());
            if let AttackAction::Pulse { node, .. } = &mut s[i] {
                *node = rng.gen_range(0..geo.n_nodes);
            }
        }
        s
    } else if roll < 45 {
        Strategy::BusOffAttack {
            victim: rng.gen_range(0..geo.n_nodes),
            reps: rng.gen_range(8..=36),
        }
        .actions()
    } else if roll < 60 {
        Strategy::CounterManipulation {
            victim: rng.gen_range(0..geo.n_nodes),
            reps: rng.gen_range(10..=24),
        }
        .actions()
    } else if roll < 70 {
        Strategy::DominantFlood {
            start: rng.gen_range(12..=200),
            len: rng.gen_range(5..=25),
        }
        .actions()
    } else {
        let count = match rng.gen_range(0..100) {
            0..=39 => 1,
            40..=74 => 2,
            75..=89 => 3,
            _ => 4,
        };
        (0..count)
            .map(|_| pulse_of(&tail_disturbance(rng, geo)))
            .collect()
    };
    let mut clamped = clamp_cost(actions, max_cost);
    if clamped.is_empty() {
        // Guarantee a non-vacuous minimum schedule under any budget.
        clamped = vec![pulse_of(&tail_disturbance(rng, geo))];
    }
    AttackSchedule::new(clamped)
}

/// An attack schedule shrunk to its cheapest preserving form.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkAttack {
    /// The minimized schedule.
    pub schedule: AttackSchedule,
    /// Its outcome, judged once more at the end of the shrink. Unless the
    /// run panicked, the memo answers that final judgement: the minimum
    /// was judged when the shrinker accepted it.
    pub outcome: AttackOutcome,
    /// Judgements spent, whether run or answered by the memo.
    pub evaluations: usize,
    /// Simulator runs among them: the judgements the memo could not
    /// answer.
    pub runs: usize,
}

impl ShrinkResult for ShrunkAttack {
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

fn preserves(
    oracle: &mut AttackOracle,
    target: ProtocolSpec,
    candidate: &AttackSchedule,
    n_nodes: usize,
    token: &str,
    evaluations: &mut usize,
) -> bool {
    if *evaluations >= MAX_ATTACK_EVALUATIONS {
        return false;
    }
    *evaluations += 1;
    oracle.judge(target, candidate, n_nodes).token() == token
}

/// Rewrites the scalar cost knob of action `i` (hammer reps / flood
/// length), returning `None` for actions without one below `current`.
fn with_scalar(schedule: &AttackSchedule, i: usize, value: u64) -> AttackSchedule {
    let mut actions = schedule.to_vec();
    match &mut actions[i] {
        AttackAction::Flood { len, .. } => *len = value,
        AttackAction::Hammer { reps, .. } => *reps = value as u32,
        AttackAction::Pulse { .. } => unreachable!("pulses have no scalar"),
    }
    AttackSchedule::new(actions)
}

fn scalar_of(action: &AttackAction) -> Option<u64> {
    match action {
        AttackAction::Flood { len, .. } => Some(*len),
        AttackAction::Hammer { reps, .. } => Some(u64::from(*reps)),
        AttackAction::Pulse { .. } => None,
    }
}

/// Shrinks a breaking attack schedule while preserving its outcome token,
/// minimizing **cost**: pass 1 drops whole actions to a fixpoint, pass 2
/// minimizes each action's scalar cost (binary descent on hammer reps and
/// flood lengths, occurrence normalization on pulses), pass 3 puts the
/// survivors in canonical order. Every run is judged through the
/// caller's oracle ([`AttackOracle::judge`]), so the testbed cache and the
/// verdict memo carry across shrinks of one target; the minimum and
/// [`ShrunkAttack::evaluations`](field@ShrunkAttack::evaluations) do not
/// depend on the memo.
pub fn shrink_attack_with(
    oracle: &mut AttackOracle,
    target: ProtocolSpec,
    schedule: &AttackSchedule,
    n_nodes: usize,
) -> ShrunkAttack {
    let runs_before = oracle.judge_runs();
    let mut evaluations = 0usize;
    let mut current = schedule.clone();
    let outcome = oracle.judge(target, &current, n_nodes);
    evaluations += 1;
    let token = outcome.token();

    // Pass 1: drop actions to a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < current.len() {
            if current.len() == 1 {
                break;
            }
            let mut actions = current.to_vec();
            actions.remove(i);
            let candidate = AttackSchedule::new(actions);
            if preserves(oracle, target, &candidate, n_nodes, token, &mut evaluations) {
                current = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
    }

    // Pass 2: minimize each action's scalar cost — halve while it
    // preserves, then step down — and normalize pulse occurrences.
    for i in 0..current.len() {
        if let Some(mut value) = scalar_of(&current.actions()[i]) {
            while value > 1 {
                let half = value / 2;
                let halved = with_scalar(&current, i, half);
                if preserves(oracle, target, &halved, n_nodes, token, &mut evaluations) {
                    current = halved;
                    value = half;
                    continue;
                }
                let stepped = with_scalar(&current, i, value - 1);
                if preserves(oracle, target, &stepped, n_nodes, token, &mut evaluations) {
                    current = stepped;
                    value -= 1;
                    continue;
                }
                break;
            }
        } else if let AttackAction::Pulse { occurrence, .. } = current.actions()[i] {
            if occurrence > 1 {
                let mut actions = current.to_vec();
                if let AttackAction::Pulse { occurrence, .. } = &mut actions[i] {
                    *occurrence = 1;
                }
                let candidate = AttackSchedule::new(actions);
                if preserves(oracle, target, &candidate, n_nodes, token, &mut evaluations) {
                    current = candidate;
                }
            }
        }
    }

    // Pass 3: canonical order (stable serialization sort), kept only if
    // the reordering preserves the outcome.
    let mut sorted = current.to_vec();
    sorted.sort_by_key(action_sort_key);
    let candidate = AttackSchedule::new(sorted);
    if candidate != current
        && preserves(oracle, target, &candidate, n_nodes, token, &mut evaluations)
    {
        current = candidate;
    }

    let outcome = oracle.judge(target, &current, n_nodes);
    evaluations += 1;
    ShrunkAttack {
        schedule: current,
        outcome,
        evaluations,
        runs: oracle.judge_runs() - runs_before,
    }
}

fn action_sort_key(a: &AttackAction) -> (u8, u64, usize, String, u16, u64) {
    match a {
        AttackAction::Flood { start, len } => (0, *start, 0, String::new(), 0, *len),
        AttackAction::Pulse {
            node,
            field,
            index,
            occurrence,
        } => (
            1,
            0,
            *node,
            field.to_string(),
            *index,
            u64::from(*occurrence),
        ),
        AttackAction::Hammer {
            node,
            field,
            index,
            reps,
        } => (2, 0, *node, field.to_string(), *index, u64::from(*reps)),
    }
}

/// Executes one attack-search job: synthesize and evaluate `job.frames`
/// schedules, counting outcomes and reporting breaks into the side
/// channel.
fn execute_attack_job(
    oracle: &mut AttackOracle,
    job: &Job,
    findings: Option<&Mutex<Vec<AttackFinding>>>,
) -> JobResult {
    let FaultSpec::AttackSearch { max_cost } = job.fault else {
        panic!("attack executor got a non-attack job {}", job.id);
    };
    let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
    let mut out = JobResult::for_job(job);
    for trial in 0..job.frames {
        let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
        let schedule = generate_attack(&mut rng, &geo, max_cost);
        let outcome = oracle.evaluate(job.protocol, &schedule, job.n_nodes);
        out.counters
            .add(&format!("attack/{}/{}", job.protocol, outcome.token()), 1);
        out.frames += 1;
        out.bits += ATTACK_BUDGET;
        if outcome.is_break() {
            if let Some(findings) = findings {
                findings.lock().unwrap().push(AttackFinding {
                    target: job.protocol,
                    job_id: job.id,
                    trial,
                    outcome,
                    schedule: schedule.clone(),
                });
            }
        }
    }
    out
}

/// Executes one attack-search job for its counters alone — the fleet
/// (sharded) execution path. Cost shrinking and certificate archiving
/// need the in-process finding channel, so they remain single-process
/// concerns; transcript bytes are identical to the single-process
/// executor's and shard anchors verify against an unsharded run.
pub fn execute_attack_search_job(oracle: &mut AttackOracle, job: &Job) -> JobResult {
    execute_attack_job(oracle, job, None)
}

/// Runs an attack-search campaign: explore, collect, cost-shrink, archive
/// the cheapest minima per class.
///
/// Exploration and the per-target shrinks both run on the worker pool of
/// `opts`. Results — counters, findings, shrunk entries and the shrink
/// counts — are bit-identical for any worker count.
///
/// # Errors
///
/// Only sink I/O errors fail a search; job panics become findings or
/// failure artifacts.
pub fn run_attack_search(
    cfg: &AttackSearchConfig,
    opts: &CampaignOptions,
    sink: Option<&mut JsonlSink>,
) -> io::Result<AttackSearchReport> {
    let jobs = build_attack_jobs(cfg);
    let findings = Mutex::new(Vec::new());
    let run =
        |oracle: &mut AttackOracle, job: &Job| execute_attack_job(oracle, job, Some(&findings));
    let report = match sink {
        Some(s) => run_campaign_scoped(&jobs, opts, s, AttackOracle::new, run)?,
        None => run_campaign_in_memory_scoped(&jobs, opts, AttackOracle::new, run),
    };
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
        AttackOracle::new,
        |oracle, f: &AttackFinding| shrink_attack_with(oracle, f.target, &f.schedule, cfg.n_nodes),
    );
    let mut candidates: Vec<AttackCorpusEntry> = minima
        .into_iter()
        .map(|(i, shrunk)| {
            let finding = &findings[i];
            AttackCorpusEntry {
                protocol: finding.target,
                n_nodes: cfg.n_nodes,
                expected: shrunk.outcome.token().to_string(),
                provenance: AttackProvenance {
                    campaign_seed: cfg.campaign_seed,
                    job_id: finding.job_id,
                    trial: finding.trial,
                    strategy: shrunk.schedule.strategy_name().to_string(),
                    cost: shrunk.schedule.cost(),
                },
                schedule: shrunk.schedule,
            }
        })
        .collect();

    // Cheapest-first archive: within each class keep the keep_per_class
    // lowest-cost certificates (ties broken by the canonical key, so the
    // archive is deterministic).
    candidates.sort_by_key(|e| {
        (
            e.protocol.to_string(),
            e.expected.clone(),
            e.provenance.cost,
            e.schedule.key(),
        )
    });
    let (entries, capped) = cap_per_class(candidates, cfg.keep_per_class, |e| {
        (e.protocol.to_string(), e.expected.clone())
    });

    Ok(AttackSearchReport {
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
    use majorcan_can::Field;
    use std::collections::BTreeSet;

    #[test]
    fn job_list_covers_every_target_deterministically() {
        let cfg = AttackSearchConfig::new(0xA77, 120);
        let jobs = build_attack_jobs(&cfg);
        assert_eq!(jobs.len(), 15, "5 targets x ceil(120/50)");
        assert_eq!(jobs, build_attack_jobs(&cfg));
        assert!(jobs
            .iter()
            .all(|j| matches!(j.fault, FaultSpec::AttackSearch { max_cost: 40 })));
    }

    #[test]
    #[should_panic(expected = "link-layer")]
    fn hlp_targets_are_rejected() {
        let mut cfg = AttackSearchConfig::new(1, 10);
        cfg.targets = vec![ProtocolSpec::TotCan];
        build_attack_jobs(&cfg);
    }

    #[test]
    fn generation_is_deterministic_and_respects_the_cost_cap() {
        let geo = Geometry::for_protocol(ProtocolSpec::MajorCan { m: 3 }, 3);
        let a: Vec<AttackSchedule> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..200)
                .map(|_| generate_attack(&mut rng, &geo, 40))
                .collect()
        };
        let b: Vec<AttackSchedule> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..200)
                .map(|_| generate_attack(&mut rng, &geo, 40))
                .collect()
        };
        assert_eq!(a, b);
        for s in &a {
            assert!(!s.is_empty());
            assert!(s.cost() >= 1 && s.cost() <= 40, "{s} costs {}", s.cost());
        }
    }

    #[test]
    fn generator_emits_every_strategy_family() {
        let geo = Geometry::for_protocol(ProtocolSpec::StandardCan, 3);
        let mut rng = StdRng::seed_from_u64(0xA77);
        let mut families: BTreeSet<&'static str> = BTreeSet::new();
        for _ in 0..300 {
            families.insert(generate_attack(&mut rng, &geo, 40).strategy_name());
        }
        for family in ["busoff", "counter", "flood", "pulse"] {
            assert!(families.contains(family), "missing {family}: {families:?}");
        }
    }

    #[test]
    fn clamp_trims_scalars_and_drops_overflow() {
        let actions = vec![
            AttackAction::Hammer {
                node: 0,
                field: Field::CrcDelim,
                index: 0,
                reps: 30,
            },
            AttackAction::Pulse {
                node: 1,
                field: Field::Eof,
                index: 6,
                occurrence: 1,
            },
        ];
        let clamped = clamp_cost(actions, 10);
        assert_eq!(
            clamped,
            vec![AttackAction::Hammer {
                node: 0,
                field: Field::CrcDelim,
                index: 0,
                reps: 10,
            }]
        );
    }

    #[test]
    fn shrinking_minimizes_hammer_cost_not_just_action_count() {
        // An over-provisioned bus-off hammer (36 reps) plus a decoy pulse:
        // the shrinker must drop the decoy AND descend the reps to the
        // actual bus-off threshold (TEC 0 → 256 at +8 per strike = 32).
        let overfunded = AttackSchedule::new(vec![
            AttackAction::Hammer {
                node: 0,
                field: Field::CrcDelim,
                index: 0,
                reps: 36,
            },
            AttackAction::Pulse {
                node: 2,
                field: Field::Intermission,
                index: 0,
                occurrence: 1,
            },
        ]);
        let mut oracle = AttackOracle::new();
        let shrunk = shrink_attack_with(&mut oracle, ProtocolSpec::StandardCan, &overfunded, 3);
        assert_eq!(shrunk.outcome.token(), "busoff");
        assert_eq!(shrunk.schedule.len(), 1, "{}", shrunk.schedule);
        assert!(
            shrunk.schedule.cost() < overfunded.cost(),
            "no cost reduction: {} -> {}",
            overfunded.cost(),
            shrunk.schedule.cost()
        );
    }

    #[test]
    fn small_attack_search_breaks_can_and_archives_cheapest_entries() {
        let mut cfg = AttackSearchConfig::new(5, 60);
        cfg.targets = vec![ProtocolSpec::StandardCan];
        let report = run_attack_search(&cfg, &CampaignOptions::quiet(2), None).unwrap();
        assert_eq!(report.explored_for(ProtocolSpec::StandardCan), 60);
        assert!(
            report.findings_for(ProtocolSpec::StandardCan) >= 1,
            "60 biased attacks must break standard CAN: {:?}",
            report.totals.counters
        );
        assert!(!report.entries.is_empty());
        for entry in &report.entries {
            assert_eq!(entry.replay().token(), entry.expected, "{}", entry.schedule);
            assert_eq!(entry.provenance.cost, entry.schedule.cost());
            assert_eq!(entry.provenance.strategy, entry.schedule.strategy_name());
        }
    }
}
