//! The falsification oracle: schedule in, verdict out.
//!
//! The oracle is a thin, panic-containing wrapper around the
//! [`Testbed`](majorcan_testbed::Testbed) facade. [`Oracle::evaluate`]
//! runs one disturbance [`Schedule`] against any protocol target — a
//! link-layer variant, or one of the FTCS'98 higher-level protocols over
//! a standard-CAN link — through the testbed's allocation-free
//! [`run_schedule`](majorcan_testbed::Testbed::run_schedule) hot loop, and
//! classifies the run into the shared [`Outcome`] vocabulary:
//!
//! * [`Outcome::Consistent`] — every checked property held and the whole
//!   schedule actually fired;
//! * [`Outcome::Vacuous`] — consistent, but part of the schedule never
//!   applied (a position the geometry lacks, an occurrence the traffic
//!   never reached) — **not** evidence of robustness;
//! * [`Outcome::Violation`] — a broken property, graded by the checker's
//!   [`Verdict`](majorcan_abcast::Verdict) (double reception / omission /
//!   validity loss);
//! * [`Outcome::CheckerPanic`] — the simulator or checker itself blew up,
//!   which is always a finding (panics are caught, never propagated).
//!
//! A long-lived [`Oracle`] caches one testbed per (target, node-count)
//! pair, so a search worker evaluating thousands of schedules against the
//! same target reuses the cluster instead of reassembling it per run.
//! It also keeps a verdict memo on that testbed. [`Oracle::judge`] reads
//! and fills it for the shrinker, whose candidates repeat across the
//! findings of one target. On the default engine,
//! [`Oracle::evaluate_batch`] reads and fills it for one-disturbance
//! schedules: the campaign generator draws each target's few hundred
//! one-disturbance schedules over and over, so nearly every one repeats
//! an earlier one. Longer schedules stay out of the batch memo; they
//! repeat less and would grow it by thousands of keys. The free
//! [`evaluate`] keeps the historical one-shot signature for callers that
//! grade a single schedule (corpus replay, tests).
//!
//! The cache, the memo and the panic containment are the oracle core,
//! which the [`AttackOracle`](crate::AttackOracle) shares: the two
//! oracles differ only in how they build the testbed and in what they
//! run on it.

use crate::schedule::Schedule;
use majorcan_campaign::{panic_message, ProtocolSpec};
use majorcan_faults::Disturbance;
use majorcan_testbed::{Testbed, TestbedBuilder};
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use majorcan_testbed::{budget_for, classify, Outcome, HLP_BUDGET, LINK_BUDGET};

/// The testbed settings an oracle applies on top of the builder's
/// defaults for the target and node count.
pub(crate) type Settings = fn(TestbedBuilder) -> TestbedBuilder;

/// What both oracles are made of: the testbed of the most recent
/// (target, node-count) pair, the verdicts judged on it (keyed by `K`),
/// and the containment of build and run panics.
///
/// Search workers evaluate in target-major order, so one cached testbed
/// suffices. After a contained panic the cached testbed is dropped — a
/// cluster that unwound mid-run is in an unknown state and must not be
/// reused. The memo belongs to the cached testbed and goes with it.
#[derive(Debug)]
pub(crate) struct OracleCore<K, V> {
    cached: Option<((ProtocolSpec, usize), Testbed)>,
    memo: HashMap<K, V>,
    judge_runs: usize,
}

impl<K, V> Default for OracleCore<K, V> {
    fn default() -> Self {
        OracleCore {
            cached: None,
            memo: HashMap::new(),
            judge_runs: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> OracleCore<K, V> {
    /// Runs `run` on the testbed cached for `(target, n_nodes)`, built
    /// with `settings` on a miss. A panic while building (e.g. an invalid
    /// MajorCAN tolerance) or running comes back as its message; one while
    /// running also drops the testbed.
    pub(crate) fn run<R>(
        &mut self,
        target: ProtocolSpec,
        n_nodes: usize,
        settings: Settings,
        run: impl FnOnce(&mut Testbed) -> R,
    ) -> Result<R, String> {
        let key = (target, n_nodes);
        if self.cached.as_ref().map(|(k, _)| *k) != Some(key) {
            self.cached = None; // drop the old cluster before building
            self.memo.clear();
            let built = catch_unwind(AssertUnwindSafe(|| {
                settings(Testbed::builder(target).nodes(n_nodes)).build()
            }));
            self.cached = Some((key, built.map_err(panic_message)?));
        }
        let testbed = &mut self.cached.as_mut().expect("testbed cached above").1;
        catch_unwind(AssertUnwindSafe(|| run(testbed))).map_err(|payload| {
            self.cached = None;
            panic_message(payload)
        })
    }

    /// As [`OracleCore::run`], but a `key` already judged on the cached
    /// testbed is not run again: the recorded verdict comes back
    /// instead. The key is copied only when a verdict is recorded, and a
    /// run that panicked is never recorded.
    pub(crate) fn judge(
        &mut self,
        target: ProtocolSpec,
        n_nodes: usize,
        settings: Settings,
        key: &K,
        run: impl FnOnce(&mut Testbed) -> V,
    ) -> Result<V, String> {
        if let Some(verdict) = self.recall(target, n_nodes, key) {
            return Ok(verdict.clone());
        }
        self.judge_runs += 1;
        let verdict = self.run(target, n_nodes, settings, run)?;
        self.memo.insert(key.clone(), verdict.clone());
        Ok(verdict)
    }

    /// The verdict recorded for `key`, if the cached testbed is the one
    /// for `(target, n_nodes)` and holds one.
    pub(crate) fn recall(&self, target: ProtocolSpec, n_nodes: usize, key: &K) -> Option<&V> {
        let cached = self.cached.as_ref().map(|(k, _)| *k) == Some((target, n_nodes));
        cached.then(|| self.memo.get(key)).flatten()
    }

    /// Simulator runs [`OracleCore::judge`] has made over this core's
    /// life: the judgements its memo could not answer.
    pub(crate) fn judge_runs(&self) -> usize {
        self.judge_runs
    }
}

/// The schedule oracle's testbed: the builder's defaults.
fn defaults(builder: TestbedBuilder) -> TestbedBuilder {
    builder
}

/// The schedule oracle's run: `disturbances` for `budget` bits.
fn scripted(
    disturbances: &[Disturbance],
    budget: u64,
) -> impl FnOnce(&mut Testbed) -> Outcome + '_ {
    move |testbed| {
        testbed.set_budget(budget);
        testbed.run_schedule(disturbances)
    }
}

/// Which evaluation engine [`Oracle::evaluate_batch`] routes a job's
/// schedules through. The two are gated on outcome equality (the
/// lane-equivalence property suite plus the JSONL diff gates in
/// `scripts/check.sh`): the same campaign must produce byte-identical
/// artifacts whichever engine runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One shared fault-free trunk per batch
    /// ([`run_lanes`](majorcan_testbed::Testbed::run_lanes)) — the
    /// default: random campaign schedules are prefix-free, and every
    /// one of them still shares the fault-free run up to its first
    /// firing disturbance. A one-disturbance schedule the oracle's
    /// verdict memo holds is answered from it instead of run.
    #[default]
    Lanes,
    /// Schedule-by-schedule scalar hot loop, memo-free — the `--scalar`
    /// escape hatch and the reference the trunk engine and its memo are
    /// checked against.
    Scalar,
}

/// A reusable schedule evaluator with a cached testbed.
///
/// The cache holds the testbed of the most recent (target, node-count)
/// pair, built with the builder's defaults. After a contained panic the
/// cached testbed is dropped. The verdicts [`Oracle::judge`] and
/// [`Oracle::evaluate_batch`] record belong to the cached testbed and go
/// with it.
#[derive(Debug, Default)]
pub struct Oracle {
    core: OracleCore<(u64, Vec<Disturbance>), Outcome>,
    /// The memo lookup key, refilled per lookup so a hit allocates nothing.
    key: (u64, Vec<Disturbance>),
    engine: Engine,
}

impl Oracle {
    /// A fresh oracle with an empty testbed cache, evaluating batches
    /// through the default [`Engine::Lanes`].
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// A fresh oracle evaluating batches through `engine`.
    pub fn with_engine(engine: Engine) -> Oracle {
        Oracle {
            engine,
            ..Oracle::default()
        }
    }

    /// Evaluates `schedule` against `target` for `budget` bit times and
    /// classifies the run. Panics inside the simulator or checker are
    /// caught and reported as [`Outcome::CheckerPanic`] — the oracle
    /// itself never unwinds.
    pub fn evaluate(
        &mut self,
        target: ProtocolSpec,
        schedule: &Schedule,
        n_nodes: usize,
        budget: u64,
    ) -> Outcome {
        self.core
            .run(
                target,
                n_nodes,
                defaults,
                scripted(schedule.disturbances(), budget),
            )
            .unwrap_or_else(Outcome::CheckerPanic)
    }

    /// As [`Oracle::evaluate`], but a disturbance list this oracle already
    /// judged at `budget` on the cached testbed is not run again: the
    /// recorded verdict comes back instead. The shrinkers judge every
    /// candidate, because the findings of one target converge on the same
    /// minima. The memo is cleared whenever the cached testbed is rebuilt,
    /// and an [`Outcome::CheckerPanic`] is never recorded.
    pub fn judge(
        &mut self,
        target: ProtocolSpec,
        disturbances: &[Disturbance],
        n_nodes: usize,
        budget: u64,
    ) -> Outcome {
        self.key.0 = budget;
        disturbances.clone_into(&mut self.key.1);
        self.core
            .judge(
                target,
                n_nodes,
                defaults,
                &self.key,
                scripted(disturbances, budget),
            )
            .unwrap_or_else(Outcome::CheckerPanic)
    }

    /// Simulator runs [`Oracle::judge`] has made over this oracle's life:
    /// the judgements its memo could not answer.
    pub(crate) fn judge_runs(&self) -> usize {
        self.core.judge_runs()
    }

    /// Evaluates a whole batch of schedules against one target through
    /// the oracle's configured [`Engine`] — the shared-trunk engine
    /// ([`run_lanes`](majorcan_testbed::Testbed::run_lanes)) by default —
    /// returning one outcome per schedule in input order, each identical
    /// to what [`Oracle::evaluate`] would have returned.
    ///
    /// On [`Engine::Lanes`], the verdict memo [`Oracle::judge`] fills
    /// answers every one-disturbance schedule already judged at `budget`
    /// on the cached testbed, a one-disturbance schedule repeated within
    /// the batch runs once, and every one-disturbance outcome the batch
    /// runs is recorded. Only the rest goes through `run_lanes`.
    /// [`Engine::Scalar`] neither reads nor fills the memo.
    ///
    /// Panic containment matches the scalar path per schedule: if the
    /// batch build or run unwinds anywhere, every schedule is evaluated
    /// one by one, so exactly the schedules that panic classify as
    /// [`Outcome::CheckerPanic`] and the rest keep their real outcomes;
    /// nothing is recorded then. A truncated run ([`Outcome::Truncated`])
    /// propagates through unchanged — the campaign counters carry its
    /// `truncated` token instead of a spurious clean verdict.
    pub fn evaluate_batch(
        &mut self,
        target: ProtocolSpec,
        schedules: &[Schedule],
        n_nodes: usize,
        budget: u64,
    ) -> Vec<Outcome> {
        if self.engine == Engine::Lanes {
            if let Some(outcomes) = self.lanes_batch(target, schedules, n_nodes, budget) {
                return outcomes;
            }
        }
        schedules
            .iter()
            .map(|s| self.evaluate(target, s, n_nodes, budget))
            .collect()
    }

    /// [`Oracle::evaluate_batch`] on [`Engine::Lanes`]; `None` if the
    /// batch panicked.
    fn lanes_batch(
        &mut self,
        target: ProtocolSpec,
        schedules: &[Schedule],
        n_nodes: usize,
        budget: u64,
    ) -> Option<Vec<Outcome>> {
        // `answers[i]` is schedule i's memo verdict, or else the index of
        // the run in `runs` that answers it.
        let mut answers: Vec<Result<Outcome, usize>> = Vec::with_capacity(schedules.len());
        let mut runs: Vec<&[Disturbance]> = Vec::with_capacity(schedules.len());
        self.key.0 = budget;
        for schedule in schedules {
            let disturbances = schedule.disturbances();
            if disturbances.len() == 1 {
                disturbances.clone_into(&mut self.key.1);
                if let Some(verdict) = self.core.recall(target, n_nodes, &self.key) {
                    answers.push(Ok(verdict.clone()));
                    continue;
                }
                if let Some(run) = runs.iter().position(|&r| r == disturbances) {
                    answers.push(Err(run));
                    continue;
                }
            }
            answers.push(Err(runs.len()));
            runs.push(disturbances);
        }
        let ran = if runs.is_empty() {
            Vec::new()
        } else {
            self.core
                .run(target, n_nodes, defaults, |testbed| {
                    testbed.set_budget(budget);
                    testbed.run_lanes(&runs)
                })
                .ok()?
        };
        for (run, outcome) in runs.iter().zip(&ran) {
            if run.len() == 1 {
                self.core
                    .memo
                    .insert((budget, run.to_vec()), outcome.clone());
            }
        }
        let outcomes = answers
            .into_iter()
            .map(|answer| answer.unwrap_or_else(|run| ran[run].clone()))
            .collect();
        Some(outcomes)
    }
}

/// Evaluates `schedule` against `target` on a fresh testbed (see
/// [`Oracle::evaluate`]). Loops should hold an [`Oracle`] instead.
pub fn evaluate(target: ProtocolSpec, schedule: &Schedule, n_nodes: usize, budget: u64) -> Outcome {
    Oracle::new().evaluate(target, schedule, n_nodes, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_abcast::Verdict;
    use majorcan_can::Field;
    use majorcan_faults::{Disturbance, Scenario};

    fn sched(ds: Vec<Disturbance>) -> Schedule {
        Schedule::new(ds)
    }

    #[test]
    fn clean_schedule_is_consistent_everywhere() {
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MinorCan,
            ProtocolSpec::MajorCan { m: 5 },
            ProtocolSpec::EdCan,
            ProtocolSpec::RelCan,
            ProtocolSpec::TotCan,
        ] {
            let outcome = evaluate(target, &sched(vec![]), 3, budget_for(target));
            assert_eq!(outcome, Outcome::Consistent, "{target}");
        }
    }

    #[test]
    fn fig1b_is_a_double_reception_on_can_only() {
        let s = sched(Scenario::fig1b().disturbances);
        assert_eq!(
            evaluate(ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET),
            Outcome::Violation(Verdict::DoubleReception)
        );
        assert_eq!(
            evaluate(ProtocolSpec::MinorCan, &s, 3, LINK_BUDGET),
            Outcome::Consistent
        );
        assert_eq!(
            evaluate(ProtocolSpec::MajorCan { m: 5 }, &s, 3, LINK_BUDGET),
            Outcome::Consistent
        );
    }

    #[test]
    fn fig3a_breaks_can_minorcan_and_the_tx_bound_hlps() {
        let s = sched(Scenario::fig3a().disturbances);
        for target in [ProtocolSpec::StandardCan, ProtocolSpec::MinorCan] {
            assert_eq!(
                evaluate(target, &s, 3, LINK_BUDGET),
                Outcome::Violation(Verdict::Omission),
                "{target}"
            );
        }
        assert_eq!(
            evaluate(ProtocolSpec::MajorCan { m: 5 }, &s, 3, LINK_BUDGET),
            Outcome::Consistent
        );
        // EDCAN recovers (every receiver retransmits); RELCAN and TOTCAN
        // only act when the transmitter fails — Section 4's verdict.
        assert_eq!(
            evaluate(ProtocolSpec::EdCan, &s, 3, HLP_BUDGET),
            Outcome::Consistent
        );
        for target in [ProtocolSpec::RelCan, ProtocolSpec::TotCan] {
            assert!(
                matches!(
                    evaluate(target, &s, 3, HLP_BUDGET),
                    Outcome::Violation(Verdict::Omission)
                ),
                "{target}"
            );
        }
    }

    #[test]
    fn unfired_schedules_classify_as_vacuous_not_consistent() {
        // A MajorCAN-only position under standard CAN never fires.
        let s = sched(vec![Disturbance::first(1, Field::AgreementHold, 13)]);
        assert_eq!(
            evaluate(ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET),
            Outcome::Vacuous { unfired: 1 }
        );
        assert_eq!(
            evaluate(ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET).token(),
            "vacuous"
        );
    }

    #[test]
    fn oracle_contains_panics() {
        // m = 2 is rejected by MajorCan::new — the oracle must catch the
        // panic and classify, not unwind into the caller.
        let outcome = evaluate(
            ProtocolSpec::MajorCan { m: 2 },
            &sched(vec![]),
            3,
            LINK_BUDGET,
        );
        assert!(outcome.is_finding());
        match outcome {
            Outcome::CheckerPanic(msg) => {
                assert!(msg.contains("invalid MajorCAN tolerance"), "{msg}")
            }
            other => panic!("expected CheckerPanic, got {other:?}"),
        }
    }

    #[test]
    fn cached_oracle_agrees_with_fresh_evaluations_across_targets() {
        let mut oracle = Oracle::new();
        let schedules = [
            sched(vec![]),
            sched(Scenario::fig1b().disturbances),
            sched(Scenario::fig3a().disturbances),
            sched(vec![Disturbance::first(1, Field::AgreementHold, 13)]),
        ];
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MajorCan { m: 5 },
            ProtocolSpec::TotCan,
        ] {
            let budget = budget_for(target);
            for s in &schedules {
                assert_eq!(
                    oracle.evaluate(target, s, 3, budget),
                    evaluate(target, s, 3, budget),
                    "{target}"
                );
            }
        }
    }

    #[test]
    fn judge_agrees_with_evaluate_across_targets_and_budgets() {
        let mut oracle = Oracle::new();
        let schedules = [
            sched(vec![]),
            sched(Scenario::fig1b().disturbances),
            sched(Scenario::fig3a().disturbances),
        ];
        // A 60-bit budget cuts every run short, so its verdicts differ
        // from the full budget's: the memo must key on the budget too.
        assert_ne!(
            evaluate(ProtocolSpec::StandardCan, &schedules[0], 3, 60),
            evaluate(ProtocolSpec::StandardCan, &schedules[0], 3, LINK_BUDGET)
        );
        for (target, budget) in [
            (ProtocolSpec::StandardCan, LINK_BUDGET),
            (ProtocolSpec::StandardCan, 60),
            (ProtocolSpec::TotCan, HLP_BUDGET),
            (ProtocolSpec::MinorCan, LINK_BUDGET),
            (ProtocolSpec::StandardCan, LINK_BUDGET),
            (ProtocolSpec::TotCan, LINK_BUDGET),
        ] {
            for s in &schedules {
                assert_eq!(
                    oracle.judge(target, s.disturbances(), 3, budget),
                    evaluate(target, s, 3, budget),
                    "{target} at {budget} bits: {s}"
                );
            }
        }
    }

    #[test]
    fn judge_runs_a_repeated_schedule_once() {
        let mut oracle = Oracle::new();
        let fig1b = Scenario::fig1b().disturbances;
        let first = oracle.judge(ProtocolSpec::StandardCan, &fig1b, 3, LINK_BUDGET);
        for _ in 0..3 {
            assert_eq!(
                oracle.judge(ProtocolSpec::StandardCan, &fig1b, 3, LINK_BUDGET),
                first
            );
        }
        assert_eq!(oracle.judge_runs(), 1);
        // evaluate neither reads nor fills the memo.
        let fig3a = sched(Scenario::fig3a().disturbances);
        oracle.evaluate(ProtocolSpec::StandardCan, &fig3a, 3, LINK_BUDGET);
        oracle.judge(
            ProtocolSpec::StandardCan,
            fig3a.disturbances(),
            3,
            LINK_BUDGET,
        );
        assert_eq!(oracle.judge_runs(), 2);
        // A new target rebuilds the testbed and forgets its verdicts.
        oracle.judge(ProtocolSpec::MinorCan, &fig1b, 3, LINK_BUDGET);
        oracle.judge(ProtocolSpec::StandardCan, &fig1b, 3, LINK_BUDGET);
        assert_eq!(oracle.judge_runs(), 4);
    }

    #[test]
    fn judge_never_records_a_panic_and_recovers() {
        let mut oracle = Oracle::new();
        for _ in 0..2 {
            let bad = oracle.judge(ProtocolSpec::MajorCan { m: 2 }, &[], 3, LINK_BUDGET);
            assert!(matches!(bad, Outcome::CheckerPanic(_)), "{bad:?}");
        }
        assert_eq!(oracle.judge_runs(), 2, "a panic verdict is never recorded");
        assert_eq!(
            oracle.judge(ProtocolSpec::StandardCan, &[], 3, LINK_BUDGET),
            Outcome::Consistent
        );
    }

    #[test]
    fn oracle_recovers_after_a_contained_panic() {
        let mut oracle = Oracle::new();
        let bad = oracle.evaluate(
            ProtocolSpec::MajorCan { m: 2 },
            &sched(vec![]),
            3,
            LINK_BUDGET,
        );
        assert!(matches!(bad, Outcome::CheckerPanic(_)));
        assert_eq!(
            oracle.evaluate(ProtocolSpec::StandardCan, &sched(vec![]), 3, LINK_BUDGET),
            Outcome::Consistent
        );
    }

    /// One-disturbance schedules that repeat within a batch and across
    /// batches, mixed with longer ones and an empty one.
    fn repeating_batches() -> Vec<Vec<Schedule>> {
        let eof = |node, bit| Disturbance::eof(node, bit);
        let single = |d: Disturbance| sched(vec![d]);
        vec![
            vec![
                single(eof(1, 6)),
                single(eof(2, 7)),
                single(eof(1, 6)),
                sched(Scenario::fig3a().disturbances),
                single(Disturbance::first(0, Field::AckSlot, 0)),
                sched(vec![]),
                single(eof(1, 6)),
            ],
            vec![
                single(Disturbance::first(0, Field::AckSlot, 0)),
                single(eof(2, 7)),
                sched(vec![eof(1, 6), eof(2, 7)]),
                single(Disturbance::stuff_bit(1, Field::Crc, 12)),
                single(Disturbance::stuff_bit(1, Field::Crc, 12)),
            ],
        ]
    }

    #[test]
    fn batch_memo_agrees_with_fresh_evaluations_across_budgets_and_targets() {
        let mut oracle = Oracle::new();
        // A 60-bit budget cuts every run short, and a target switch
        // rebuilds the testbed: the memo keys on the budget and forgets
        // the old target's verdicts.
        for (target, budget) in [
            (ProtocolSpec::StandardCan, LINK_BUDGET),
            (ProtocolSpec::StandardCan, 60),
            (ProtocolSpec::TotCan, HLP_BUDGET),
            (ProtocolSpec::TotCan, 60),
            (ProtocolSpec::StandardCan, LINK_BUDGET),
            (ProtocolSpec::StandardCan, 60),
        ] {
            for batch in repeating_batches() {
                let fresh: Vec<Outcome> = batch
                    .iter()
                    .map(|s| evaluate(target, s, 3, budget))
                    .collect();
                assert_eq!(
                    oracle.evaluate_batch(target, &batch, 3, budget),
                    fresh,
                    "{target} at {budget} bits"
                );
            }
        }
        let single = sched(vec![Disturbance::eof(1, 6)]);
        assert_ne!(
            evaluate(ProtocolSpec::StandardCan, &single, 3, 60),
            evaluate(ProtocolSpec::StandardCan, &single, 3, LINK_BUDGET),
            "the two budgets grade the same schedule differently"
        );
    }

    #[test]
    fn a_batch_of_repeats_runs_no_simulation() {
        let mut oracle = Oracle::new();
        let target = ProtocolSpec::StandardCan;
        let batches = repeating_batches();
        let first = oracle.evaluate_batch(target, &batches[0], 3, LINK_BUDGET);
        let recorded = oracle.core.memo.len();
        assert_eq!(
            recorded, 3,
            "one verdict per distinct one-disturbance schedule"
        );
        let repeats: Vec<Schedule> = batches[0]
            .iter()
            .filter(|s| s.disturbances().len() == 1)
            .cloned()
            .collect();
        // Leave the cached testbed at a mark no run of the batch would
        // leave it at: 7 bits into a fault-free run.
        let testbed = &mut oracle.core.cached.as_mut().expect("testbed cached").1;
        testbed.set_budget(7);
        testbed.run_schedule(&[]);
        let expected: Vec<Outcome> = batches[0]
            .iter()
            .zip(&first)
            .filter(|(s, _)| s.disturbances().len() == 1)
            .map(|(_, o)| o.clone())
            .collect();
        assert_eq!(
            oracle.evaluate_batch(target, &repeats, 3, LINK_BUDGET),
            expected
        );
        let testbed = &oracle.core.cached.as_ref().expect("testbed cached").1;
        assert_eq!(
            (testbed.now(), testbed.budget()),
            (7, 7),
            "the memo answered the batch without touching the testbed"
        );
        assert_eq!(oracle.core.memo.len(), recorded);
    }

    #[test]
    fn judge_answers_what_the_batch_recorded() {
        let mut oracle = Oracle::new();
        let target = ProtocolSpec::MinorCan;
        let batch = &repeating_batches()[1];
        let outcomes = oracle.evaluate_batch(target, batch, 3, LINK_BUDGET);
        for (s, outcome) in batch.iter().zip(&outcomes) {
            if s.disturbances().len() == 1 {
                assert_eq!(
                    &oracle.judge(target, s.disturbances(), 3, LINK_BUDGET),
                    outcome,
                    "{s}"
                );
            }
        }
        assert_eq!(oracle.judge_runs(), 0, "every judgement came from the memo");
        // Longer schedules stay out of the batch memo.
        oracle.judge(target, batch[2].disturbances(), 3, LINK_BUDGET);
        assert_eq!(oracle.judge_runs(), 1);
    }

    #[test]
    fn batch_memo_records_no_panic_and_scalar_records_nothing() {
        let batch = &repeating_batches()[0];
        let mut oracle = Oracle::new();
        oracle.evaluate_batch(ProtocolSpec::StandardCan, batch, 3, LINK_BUDGET);
        assert!(!oracle.core.memo.is_empty());
        let panicked =
            oracle.evaluate_batch(ProtocolSpec::MajorCan { m: 2 }, batch, 3, LINK_BUDGET);
        assert!(
            panicked
                .iter()
                .all(|o| matches!(o, Outcome::CheckerPanic(_))),
            "{panicked:?}"
        );
        assert!(
            oracle.core.memo.is_empty(),
            "a panic verdict is never recorded"
        );

        let mut scalar = Oracle::with_engine(Engine::Scalar);
        let outcomes = scalar.evaluate_batch(ProtocolSpec::StandardCan, batch, 3, LINK_BUDGET);
        assert_eq!(
            outcomes,
            Oracle::new().evaluate_batch(ProtocolSpec::StandardCan, batch, 3, LINK_BUDGET)
        );
        assert!(
            scalar.core.memo.is_empty(),
            "the scalar engine stays memo-free"
        );
    }
}
