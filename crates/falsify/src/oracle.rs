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
//! [`Oracle::judge`] adds a verdict memo on that testbed for the shrinker,
//! whose candidates repeat across the findings of one target. The free
//! [`evaluate`] keeps the historical one-shot signature for callers that
//! grade a single schedule (corpus replay, tests).

use crate::schedule::Schedule;
use majorcan_campaign::ProtocolSpec;
use majorcan_faults::Disturbance;
use majorcan_testbed::Testbed;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use majorcan_testbed::{budget_for, classify, Outcome, HLP_BUDGET, LINK_BUDGET};

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
    /// possible disturbance.
    #[default]
    Lanes,
    /// Schedule-by-schedule scalar hot loop — the `--scalar` escape
    /// hatch and the reference the trunk engine is checked against.
    Scalar,
}

/// A reusable schedule evaluator with a cached testbed.
///
/// The cache holds the testbed of the most recent (target, node-count)
/// pair; search workers evaluate in target-major order, so one entry
/// suffices. After a contained panic the cached testbed is dropped — a
/// cluster that unwound mid-run is in an unknown state and must not be
/// reused. The verdicts [`Oracle::judge`] records belong to the cached
/// testbed and go with it.
#[derive(Debug, Default)]
pub struct Oracle {
    cached: Option<((ProtocolSpec, usize), Testbed)>,
    memo: HashMap<(u64, Vec<Disturbance>), Outcome>,
    judge_runs: usize,
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

    /// Builds (or reuses) the cached testbed for `(target, n_nodes)`.
    /// Returns the contained panic message when assembly itself unwinds
    /// (e.g. an invalid MajorCAN tolerance).
    fn testbed_for(
        &mut self,
        target: ProtocolSpec,
        n_nodes: usize,
    ) -> Result<&mut Testbed, String> {
        let key = (target, n_nodes);
        if self.cached.as_ref().map(|(k, _)| *k) != Some(key) {
            self.cached = None; // drop the old cluster before building
            self.memo.clear();
            let built = catch_unwind(AssertUnwindSafe(|| {
                Testbed::builder(target).nodes(n_nodes).build()
            }));
            match built {
                Ok(testbed) => self.cached = Some((key, testbed)),
                Err(payload) => return Err(panic_text(payload)),
            }
        }
        Ok(&mut self.cached.as_mut().expect("testbed cached above").1)
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
        let testbed = match self.testbed_for(target, n_nodes) {
            Ok(testbed) => testbed,
            Err(msg) => return Outcome::CheckerPanic(msg),
        };
        testbed.set_budget(budget);
        let run = catch_unwind(AssertUnwindSafe(|| {
            testbed.run_schedule(schedule.disturbances())
        }));
        match run {
            Ok(outcome) => outcome,
            Err(payload) => {
                self.cached = None;
                Outcome::CheckerPanic(panic_text(payload))
            }
        }
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
        let key = (budget, disturbances.to_vec());
        if self.cached.as_ref().map(|(k, _)| *k) == Some((target, n_nodes)) {
            if let Some(outcome) = self.memo.get(&key) {
                return outcome.clone();
            }
        }
        self.judge_runs += 1;
        let outcome = self.evaluate(target, &Schedule::new(key.1.clone()), n_nodes, budget);
        if !matches!(outcome, Outcome::CheckerPanic(_)) {
            self.memo.insert(key, outcome.clone());
        }
        outcome
    }

    /// Simulator runs [`Oracle::judge`] has made over this oracle's life:
    /// the judgements its memo could not answer.
    pub(crate) fn judge_runs(&self) -> usize {
        self.judge_runs
    }

    /// Evaluates a whole batch of schedules against one target through
    /// the oracle's configured [`Engine`] — the shared-trunk engine
    /// ([`run_lanes`](majorcan_testbed::Testbed::run_lanes)) by default —
    /// returning one outcome per schedule in input order, each identical
    /// to what [`Oracle::evaluate`] would have returned.
    ///
    /// Panic containment matches the scalar path per schedule: if the
    /// batch run unwinds anywhere, the cached cluster is dropped and
    /// every schedule is re-evaluated one by one, so exactly the
    /// schedules that panic classify as [`Outcome::CheckerPanic`] and the
    /// rest keep their real outcomes. A truncated run
    /// ([`Outcome::Truncated`]) propagates through unchanged — the
    /// campaign counters carry its `truncated` token instead of a
    /// spurious clean verdict.
    pub fn evaluate_batch(
        &mut self,
        target: ProtocolSpec,
        schedules: &[Schedule],
        n_nodes: usize,
        budget: u64,
    ) -> Vec<Outcome> {
        if self.engine == Engine::Scalar {
            return schedules
                .iter()
                .map(|s| self.evaluate(target, s, n_nodes, budget))
                .collect();
        }
        let testbed = match self.testbed_for(target, n_nodes) {
            Ok(testbed) => testbed,
            Err(msg) => return vec![Outcome::CheckerPanic(msg); schedules.len()],
        };
        testbed.set_budget(budget);
        let refs: Vec<&[Disturbance]> = schedules.iter().map(Schedule::disturbances).collect();
        let run = catch_unwind(AssertUnwindSafe(|| testbed.run_lanes(&refs)));
        match run {
            Ok(outcomes) => outcomes,
            Err(_) => {
                self.cached = None;
                schedules
                    .iter()
                    .map(|s| self.evaluate(target, s, n_nodes, budget))
                    .collect()
            }
        }
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
}
