//! Delta-debugging counterexample minimization.
//!
//! A raw finding often carries passenger disturbances that play no part in
//! the violation. [`shrink`] minimizes a schedule while preserving its
//! outcome *class* (the [`Outcome::token`]): first drop disturbances one
//! at a time to a fixpoint (ddmin at granularity 1 — schedules are short),
//! then normalize each survivor to its canonical form — first occurrence,
//! real bit rather than stuff bit, earliest bit index that still
//! reproduces — and finally sort into a canonical order if that preserves
//! the class. The result is deterministic: same schedule in, same minimum
//! out, bounded by [`MAX_EVALUATIONS`] judgements. Each judgement goes
//! through [`Oracle::judge`], so a candidate the oracle already judged
//! costs no simulator run.
//!
//! The attack shrinker
//! ([`shrink_attack_with`](crate::shrink_attack_with)) runs the same
//! judgement cap, drop pass and canonical-order pass over attack actions
//! (this module's `Shrinker`); only the passes between them differ.

use crate::oracle::{Oracle, Outcome};
use crate::schedule::Schedule;
use majorcan_campaign::ProtocolSpec;
use majorcan_faults::Disturbance;

/// Hard cap on judgements per shrink (the greedy passes converge far
/// earlier in practice). A judgement the oracle's memo answers counts
/// like one it runs, so the cap and every minimum are independent of what
/// the oracle judged before.
pub const MAX_EVALUATIONS: usize = 400;

/// The result of a shrink: the minimized schedule, the preserved outcome,
/// and how many judgements and simulator runs it took.
#[derive(Debug, Clone, PartialEq)]
pub struct Shrunk {
    /// The minimized schedule (reproduces the same outcome token).
    pub schedule: Schedule,
    /// The outcome of the original schedule, which the minimized one
    /// still produces.
    pub outcome: Outcome,
    /// Judgements spent, whether run or answered by the memo.
    pub evaluations: usize,
    /// Simulator runs among them: the judgements the memo could not
    /// answer.
    pub runs: usize,
}

/// One shrink in progress: the current minimum, the outcome token it
/// must keep, and the judgements spent on it, capped at `max`. `judge`
/// returns a candidate's outcome token.
pub(crate) struct Shrinker<T, J> {
    /// The current minimum.
    pub(crate) best: Vec<T>,
    token: &'static str,
    judge: J,
    evaluations: usize,
    max: usize,
}

impl<T: Clone + PartialEq, J: FnMut(&[T]) -> &'static str> Shrinker<T, J> {
    /// A shrink of `start`, whose own judgement (already spent) gave
    /// `token`.
    pub(crate) fn new(start: Vec<T>, token: &'static str, max: usize, judge: J) -> Self {
        Shrinker {
            best: start,
            token,
            judge,
            evaluations: 1,
            max,
        }
    }

    /// Judges `candidate` and makes it the minimum if it keeps the token.
    /// Once the cap is spent, nothing is judged and nothing is kept.
    pub(crate) fn keep_if_preserved(&mut self, candidate: Vec<T>) -> bool {
        if self.evaluations >= self.max {
            return false;
        }
        self.evaluations += 1;
        let kept = (self.judge)(&candidate) == self.token;
        if kept {
            self.best = candidate;
        }
        kept
    }

    /// Drops entries one at a time to a fixpoint (ddmin at granularity
    /// 1), never below one entry.
    pub(crate) fn drop_to_fixpoint(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = 0;
            while i < self.best.len() && self.best.len() > 1 {
                let mut candidate = self.best.clone();
                candidate.remove(i);
                if self.keep_if_preserved(candidate) {
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Sorts the minimum by `key` (stably), kept only if the order does
    /// not matter to the outcome.
    pub(crate) fn sort_canonically<K: Ord>(&mut self, key: impl FnMut(&T) -> K) {
        let mut sorted = self.best.clone();
        sorted.sort_by_key(key);
        if sorted != self.best {
            self.keep_if_preserved(sorted);
        }
    }

    /// The minimum and the judgements spent on it.
    pub(crate) fn finish(self) -> (Vec<T>, usize) {
        (self.best, self.evaluations)
    }
}

fn canonical_key(d: &Disturbance) -> (usize, String, u16, u32, bool) {
    (d.node, d.field.to_string(), d.index, d.occurrence, d.stuff)
}

/// Minimizes `schedule` against `target`, preserving its outcome class.
///
/// Intended for findings (violations and panics), but works for any
/// outcome; the minimum of a one-disturbance violating schedule is
/// itself.
pub fn shrink(target: ProtocolSpec, schedule: &Schedule, n_nodes: usize, budget: u64) -> Shrunk {
    shrink_with(&mut Oracle::new(), target, schedule, n_nodes, budget)
}

/// As [`shrink`], judging every run through a caller-provided [`Oracle`]
/// ([`Oracle::judge`]): the candidates share one cached testbed, and a
/// candidate the oracle already judged for `target` — in this shrink or an
/// earlier one — is answered from its memo instead of run again. The
/// minimum and [`Shrunk::evaluations`] do not depend on the memo; only
/// [`Shrunk::runs`] does.
pub fn shrink_with(
    oracle: &mut Oracle,
    target: ProtocolSpec,
    schedule: &Schedule,
    n_nodes: usize,
    budget: u64,
) -> Shrunk {
    let runs_before = oracle.judge_runs();
    let outcome = oracle.judge(target, schedule.disturbances(), n_nodes, budget);
    let mut s = Shrinker::new(
        schedule.to_vec(),
        outcome.token(),
        MAX_EVALUATIONS,
        |candidate: &[Disturbance]| oracle.judge(target, candidate, n_nodes, budget).token(),
    );

    // Pass 1 — drop passengers to a fixpoint.
    s.drop_to_fixpoint();

    // Pass 2 — normalize each survivor: first occurrence, the field bit
    // rather than its stuff bit, then the earliest index that still
    // reproduces.
    for i in 0..s.best.len() {
        if s.best[i].occurrence != 1 {
            let mut candidate = s.best.clone();
            candidate[i].occurrence = 1;
            s.keep_if_preserved(candidate);
        }
        if s.best[i].stuff {
            let mut candidate = s.best.clone();
            candidate[i].stuff = false;
            s.keep_if_preserved(candidate);
        }
        for index in 0..s.best[i].index {
            let mut candidate = s.best.clone();
            candidate[i].index = index;
            if s.keep_if_preserved(candidate) {
                break;
            }
        }
    }

    // Pass 3 — canonical order, when order doesn't matter to the outcome.
    s.sort_canonically(canonical_key);

    let (best, evaluations) = s.finish();
    Shrunk {
        schedule: Schedule::new(best),
        outcome,
        evaluations,
        runs: oracle.judge_runs() - runs_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::LINK_BUDGET;
    use majorcan_abcast::Verdict;
    use majorcan_can::Field;
    use majorcan_faults::Scenario;

    #[test]
    fn passenger_disturbances_are_dropped() {
        // Fig. 1b plus two passengers that do not change the verdict.
        let mut ds = Scenario::fig1b().disturbances;
        ds.push(Disturbance::first(2, Field::Intermission, 1));
        ds.push(Disturbance::first(2, Field::Crc, 12));
        let shrunk = shrink(
            ProtocolSpec::StandardCan,
            &Schedule::new(ds),
            3,
            LINK_BUDGET,
        );
        assert_eq!(shrunk.outcome, Outcome::Violation(Verdict::DoubleReception));
        assert_eq!(
            shrunk.schedule.to_vec(),
            Scenario::fig1b().disturbances,
            "only the causal flip survives"
        );
        assert!(shrunk.evaluations <= MAX_EVALUATIONS);
    }

    #[test]
    fn fig3a_is_already_minimal() {
        let s = Schedule::new(Scenario::fig3a().disturbances);
        let shrunk = shrink(ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET);
        assert_eq!(shrunk.outcome, Outcome::Violation(Verdict::Omission));
        assert_eq!(
            shrunk.schedule.len(),
            2,
            "both flips are causal: {}",
            shrunk.schedule
        );
    }

    #[test]
    fn occurrence_and_index_normalize_toward_the_canonical_repro() {
        // The same double-reception class, written with a needlessly exotic
        // schedule: the shrinker should find an equivalent ≤-sized repro
        // producing the same token.
        let baroque = Schedule::new(vec![
            Disturbance {
                node: 1,
                field: Field::Eof,
                index: 5,
                occurrence: 1,
                stuff: false,
            },
            Disturbance::first(1, Field::Intermission, 2),
        ]);
        let shrunk = shrink(ProtocolSpec::StandardCan, &baroque, 3, LINK_BUDGET);
        assert_eq!(shrunk.outcome.token(), "double");
        assert_eq!(shrunk.schedule.len(), 1);
        assert_eq!(shrunk.schedule.disturbances()[0].occurrence, 1);
    }

    #[test]
    fn a_warm_oracle_saves_runs_but_not_judgements() {
        let mut ds = Scenario::fig1b().disturbances;
        ds.push(Disturbance::first(2, Field::Intermission, 1));
        ds.push(Disturbance::first(2, Field::Crc, 12));
        let s = Schedule::new(ds);
        let mut oracle = Oracle::new();
        let cold = shrink_with(&mut oracle, ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET);
        let warm = shrink_with(&mut oracle, ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET);
        assert!(cold.runs >= 1 && cold.runs <= cold.evaluations, "{cold:?}");
        assert_eq!(warm.runs, 0, "every candidate was judged before");
        assert_eq!(
            Shrunk { runs: 0, ..cold },
            warm,
            "same minimum, outcome and judgements"
        );
    }

    #[test]
    fn shrinking_is_deterministic() {
        let mut ds = Scenario::fig3a().disturbances;
        ds.push(Disturbance::first(2, Field::Delim, 3));
        let s = Schedule::new(ds);
        let a = shrink(ProtocolSpec::MinorCan, &s, 3, LINK_BUDGET);
        let b = shrink(ProtocolSpec::MinorCan, &s, 3, LINK_BUDGET);
        assert_eq!(a, b);
    }
}
