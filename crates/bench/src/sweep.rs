//! Randomized consistency sweeps — the paper's Section 5 headline claim,
//! tested adversarially:
//!
//! > MajorCAN_m provides Atomic Broadcast in the presence of up to `m`
//! > randomly distributed errors per frame.
//!
//! Each trial broadcasts one frame over a fresh bus while up to
//! `errors_per_frame` random view-flips land in the frame's *tail region*
//! (the EOF, agreement window and early interframe space — the only region
//! where accept/reject decisions can diverge; errors elsewhere force a
//! plain retransmission). The Atomic Broadcast checker then grades the run.
//!
//! Standard CAN and MinorCAN accumulate Agreement/At-most-once violations
//! already at 1–2 errors; MajorCAN_m must stay spotless for every trial
//! with ≤ m errors.

use crate::jobs::{protocol_spec_of, JobRunner};
use majorcan_campaign::{
    run_campaign_in_memory_scoped, CampaignOptions, FaultSpec, Job, ProtocolSpec, Totals,
    WorkloadSpec,
};
use majorcan_can::{Field, Variant};
use majorcan_faults::Disturbance;
use rand::Rng;
use std::fmt::Write as _;

/// Aggregate outcome of a consistency sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Protocol variant name.
    pub protocol: String,
    /// Number of injected errors per frame.
    pub errors_per_frame: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials violating AB2 Agreement (inconsistent message omissions).
    pub agreement_violations: usize,
    /// Trials violating AB3 At-most-once (double receptions).
    pub double_deliveries: usize,
    /// Trials violating AB1 Validity.
    pub validity_violations: usize,
}

impl SweepOutcome {
    /// `true` when no property was ever violated.
    pub fn spotless(&self) -> bool {
        self.agreement_violations == 0
            && self.double_deliveries == 0
            && self.validity_violations == 0
    }
}

/// Draws one random tail-region disturbance for a bus of `n_nodes` nodes
/// under a variant with `eof_len` EOF bits and agreement end `agree_end`
/// (EOF-relative, 0 when absent). Public because the campaign job
/// interpreter ([`crate::jobs`]) replays exactly this adversary.
pub fn random_tail_disturbance<R: Rng>(
    rng: &mut R,
    n_nodes: usize,
    eof_len: usize,
    agree_end: usize,
) -> Disturbance {
    let node = rng.gen_range(0..n_nodes);
    // Weight the EOF bits heavily; sprinkle agreement-hold and intermission
    // positions where they exist.
    let roll = rng.gen_range(0..100);
    if roll < 70 || agree_end == 0 {
        Disturbance::eof(node, rng.gen_range(1..=eof_len) as u16)
    } else if roll < 90 {
        Disturbance::first(
            node,
            Field::AgreementHold,
            rng.gen_range(eof_len + 1..=agree_end) as u16,
        )
    } else {
        Disturbance::first(node, Field::Intermission, rng.gen_range(0..3))
    }
}

/// Trials per campaign job — the granule a sweep parallelizes over.
pub const TRIALS_PER_JOB: u64 = 250;

/// Builds the campaign job list of one sweep cell (`trials` single
/// broadcasts under exactly `errors_per_frame` random tail flips), chunked
/// into jobs with ids starting at `first_id`.
pub fn sweep_jobs(
    first_id: u64,
    campaign_seed: u64,
    protocol: ProtocolSpec,
    n_nodes: usize,
    errors_per_frame: usize,
    trials: u64,
) -> Vec<Job> {
    crate::jobs::chunked_frames(trials, TRIALS_PER_JOB)
        .into_iter()
        .enumerate()
        .map(|(k, chunk)| {
            Job::new(
                first_id + k as u64,
                campaign_seed,
                protocol,
                FaultSpec::RandomTail { errors_per_frame },
                WorkloadSpec::SingleBroadcast,
                n_nodes,
                chunk,
            )
        })
        .collect()
}

/// Folds campaign totals back into a [`SweepOutcome`] for one cell.
pub fn outcome_from_totals(
    protocol: String,
    errors_per_frame: usize,
    totals: &Totals,
) -> SweepOutcome {
    SweepOutcome {
        protocol,
        errors_per_frame,
        trials: totals.frames as usize,
        agreement_violations: totals.counters.get("imo") as usize,
        double_deliveries: totals.counters.get("double") as usize,
        validity_violations: totals.counters.get("validity") as usize,
    }
}

/// Runs `trials` single-broadcast trials under `variant` with exactly
/// `errors_per_frame` random tail-region disturbances each, and grades
/// every run with the Atomic Broadcast checker. Internally an in-memory
/// campaign on the `majorcan-campaign` runner: parallel across CPUs,
/// results independent of worker count.
pub fn sweep<V: Variant>(
    variant: &V,
    n_nodes: usize,
    errors_per_frame: usize,
    trials: usize,
    seed: u64,
) -> SweepOutcome {
    let jobs = sweep_jobs(
        0,
        seed,
        protocol_spec_of(variant),
        n_nodes,
        errors_per_frame,
        trials as u64,
    );
    let report = run_campaign_in_memory_scoped(
        &jobs,
        &CampaignOptions::quiet(0),
        JobRunner::new,
        |runner, job| runner.run_job(job),
    );
    outcome_from_totals(variant.name(), errors_per_frame, &report.totals)
}

/// Renders the sweep as the experiment's summary table.
pub fn render_sweep(rows: &[SweepOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Randomized tail-region error sweep ({} trials per cell)",
        rows.first().map_or(0, |r| r.trials)
    );
    let _ = writeln!(
        out,
        "{:<12} | {:>6} | {:>10} | {:>10} | {:>9} | verdict",
        "protocol", "errors", "AB2 broken", "AB3 broken", "AB1 broken"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} | {:>6} | {:>10} | {:>10} | {:>9} | {}",
            r.protocol,
            r.errors_per_frame,
            r.agreement_violations,
            r.double_deliveries,
            r.validity_violations,
            if r.spotless() { "atomic" } else { "VIOLATIONS" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_can::StandardCan;
    use majorcan_core::{MajorCan, MinorCan};

    const TRIALS: usize = if cfg!(debug_assertions) { 60 } else { 250 };

    #[test]
    fn majorcan_stays_spotless_up_to_m_errors() {
        for errors in 1..=5 {
            let outcome = sweep(
                &MajorCan::proposed(),
                4,
                errors,
                TRIALS,
                0xCAFE + errors as u64,
            );
            assert!(
                outcome.spotless(),
                "MajorCAN_5 with {errors} errors: {outcome:?}"
            );
        }
    }

    #[test]
    fn standard_can_breaks_within_two_errors() {
        let one = sweep(&StandardCan, 4, 1, TRIALS, 0xBEEF);
        assert!(
            one.double_deliveries > 0,
            "one tail error already yields double receptions: {one:?}"
        );
        // The Fig. 3a combination (a receiver hit at the last-but-one EOF
        // bit AND the transmitter blinded at the last) is one of ~780
        // equally likely 2-flip placements, so give it enough trials.
        let two = sweep(&StandardCan, 4, 2, 2_000, 0xBEEF);
        assert!(
            two.agreement_violations > 0,
            "two tail errors yield inconsistent omissions: {two:?}"
        );
    }

    #[test]
    fn minorcan_fixes_single_errors_but_not_two() {
        let one = sweep(&MinorCan, 4, 1, TRIALS, 0x5EED);
        assert!(one.spotless(), "MinorCAN handles any single error: {one:?}");
        let two = sweep(&MinorCan, 4, 2, 4 * TRIALS, 0x5EED);
        assert!(
            two.agreement_violations > 0,
            "the Fig. 3b pattern appears among random 2-error trials: {two:?}"
        );
    }
}
