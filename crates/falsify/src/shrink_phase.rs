//! The shrink phase both searches end with.
//!
//! [`run_search`](crate::run_search) and
//! [`run_attack_search`](crate::run_attack_search) turn their raw findings
//! into an archive in the same three steps:
//!
//! 1. **Admit.** Sort the findings by `(job id, trial)` — the runner hands
//!    them over in completion order — drop a schedule already found
//!    against the same target, and cap the shrink queue at four times
//!    `keep_per_class` per `(target, outcome)` class. Admission never
//!    depends on a shrink result.
//! 2. **Shrink per target.** The admitted findings of one target form one
//!    group, shrunk in admission order on a fresh oracle. Findings of one
//!    target converge on the same minima, so the oracle's verdict memo
//!    answers many of a group's judgements without a run. The groups run
//!    on the campaign's worker pool ([`map_ordered`]); the fresh oracle
//!    makes the set of runs, and so every count, independent of which
//!    worker takes a group.
//! 3. **Fold back.** The shrink results return in admission order. A
//!    minimum already found for its class is skipped; the caller turns the
//!    rest into archive entries, and [`cap_per_class`] keeps
//!    `keep_per_class` of them per class.

use majorcan_campaign::{map_ordered, CampaignOptions, ProtocolSpec};
use std::collections::{BTreeMap, BTreeSet};

/// What the shrink phase reads off a raw finding.
pub(crate) trait RawFinding: Sync {
    /// The target protocol.
    fn target(&self) -> ProtocolSpec;
    /// `(job id, trial)`: the finding's place in the canonical order.
    fn coords(&self) -> (u64, u64);
    /// The outcome token, the second half of the finding's class.
    fn token(&self) -> &'static str;
    /// The schedule's canonical key.
    fn key(&self) -> String;
}

/// What the shrink phase reads off a shrink result.
pub(crate) trait ShrinkResult: Send {
    /// The minimum's canonical key.
    fn key(&self) -> String;
    /// Judgements the shrink spent.
    fn evaluations(&self) -> usize;
    /// Simulator runs among them.
    fn runs(&self) -> usize;
}

/// What the shrink phase produced.
pub(crate) struct ShrinkPhase<F, S> {
    /// Deduplicated raw findings in `(job id, trial)` order.
    pub findings: Vec<F>,
    /// Every admitted finding whose minimum is new to its class, as an
    /// index into `findings`, with its shrink result; in admission order.
    pub minima: Vec<(usize, S)>,
    /// Findings the shrink-queue cap turned away.
    pub dropped: usize,
    /// Judgements spent over all shrinks.
    pub evaluations: usize,
    /// Simulator runs spent over all shrinks.
    pub runs: usize,
}

fn class_of<F: RawFinding>(finding: &F) -> (String, &'static str) {
    (finding.target().to_string(), finding.token())
}

/// Admits `raw`, shrinks the admitted findings per target on the worker
/// pool of `opts` — each target group on its own `new_oracle()` — and
/// folds the minima back in admission order (see the module docs).
/// Every output is identical for any worker count.
pub(crate) fn shrink_phase<F, S, O>(
    mut raw: Vec<F>,
    keep_per_class: usize,
    opts: &CampaignOptions,
    new_oracle: impl Fn() -> O + Sync,
    shrink: impl Fn(&mut O, &F) -> S + Sync,
) -> ShrinkPhase<F, S>
where
    F: RawFinding,
    S: ShrinkResult,
{
    // 1. Admit.
    raw.sort_by_key(F::coords);
    let mut seen = BTreeSet::new();
    let findings: Vec<F> = raw
        .into_iter()
        .filter(|f| seen.insert((f.target().to_string(), f.key())))
        .collect();
    let shrink_cap = keep_per_class * 4;
    let mut queued: BTreeMap<(String, &str), usize> = BTreeMap::new();
    let mut admitted = Vec::new();
    let mut dropped = 0usize;
    for (i, finding) in findings.iter().enumerate() {
        let in_queue = queued.entry(class_of(finding)).or_insert(0);
        if *in_queue >= shrink_cap {
            dropped += 1;
            continue;
        }
        *in_queue += 1;
        admitted.push(i);
    }

    // 2. Shrink per target.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in &admitted {
        let target = findings[i].target();
        match groups
            .iter_mut()
            .find(|g| findings[g[0]].target() == target)
        {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    let shrunk = map_ordered(&groups, opts, |group| {
        let mut oracle = new_oracle();
        group
            .iter()
            .map(|&i| shrink(&mut oracle, &findings[i]))
            .collect::<Vec<S>>()
    });
    let mut results: Vec<Option<S>> = findings.iter().map(|_| None).collect();
    for (group, shrunk) in groups.iter().zip(shrunk) {
        for (&i, s) in group.iter().zip(shrunk) {
            results[i] = Some(s);
        }
    }

    // 3. Fold back.
    let mut minima_seen = BTreeSet::new();
    let mut minima = Vec::new();
    let mut evaluations = 0usize;
    let mut runs = 0usize;
    for i in admitted {
        let shrunk = results[i].take().expect("every admitted finding is shrunk");
        evaluations += shrunk.evaluations();
        runs += shrunk.runs();
        let (target, token) = class_of(&findings[i]);
        if minima_seen.insert((target, token, shrunk.key())) {
            minima.push((i, shrunk));
        }
    }
    ShrinkPhase {
        findings,
        minima,
        dropped,
        evaluations,
        runs,
    }
}

/// Keeps the first `keep` entries of each class `class_of` names, in
/// `entries` order; returns them with the number turned away.
pub(crate) fn cap_per_class<E>(
    entries: Vec<E>,
    keep: usize,
    class_of: impl Fn(&E) -> (String, String),
) -> (Vec<E>, usize) {
    let mut kept_per_class: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut kept = Vec::new();
    let mut dropped = 0usize;
    for entry in entries {
        let count = kept_per_class.entry(class_of(&entry)).or_insert(0);
        if *count >= keep {
            dropped += 1;
            continue;
        }
        *count += 1;
        kept.push(entry);
    }
    (kept, dropped)
}
