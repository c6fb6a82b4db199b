//! E16 — the single-error atlas: one view-flip at **every** position of a
//! frame, for every node, under each protocol variant, classified by the
//! Atomic Broadcast checker.
//!
//! This maps the complete single-error behaviour of each protocol:
//!
//! * which positions are **benign** (recovered by a retransmission or the
//!   agreement machinery),
//! * which cause **double receptions** (standard CAN's EOF asymmetry),
//! * which cause **omissions** — under a *single* error these are always
//!   desynchronization cases (finding F1): flips of stuff bits or
//!   field-length-relevant bits that shift the victim's frame clock.

use crate::jobs::{protocol_spec_of, JobRunner};
use majorcan_campaign::{
    run_campaign_in_memory_scoped, CampaignOptions, FaultSpec, Job, JobResult, ProtocolSpec,
    WorkloadSpec,
};
use majorcan_can::{encode_frame, Field, Variant};
use majorcan_faults::{scenario_frame, Disturbance};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use majorcan_abcast::Verdict;

/// Number of nodes on the atlas bus (transmitter + two receivers — the
/// smallest bus where receiver/receiver disagreement is visible).
pub const ATLAS_NODES: usize = 3;

/// One atlas entry: where the flip landed and what happened.
#[derive(Debug, Clone)]
pub struct AtlasEntry {
    /// Victim node (0 = transmitter).
    pub node: usize,
    /// The disturbed position.
    pub disturbance: Disturbance,
    /// Checker verdict.
    pub verdict: Verdict,
}

/// Every on-wire position of the reference frame under `variant`,
/// stuff bits included.
pub fn frame_positions<V: Variant>(variant: &V) -> Vec<(Field, u16, bool)> {
    encode_frame(&scenario_frame(), variant)
        .into_iter()
        .map(|wb| (wb.pos.field, wb.pos.index, wb.pos.stuff))
        .collect()
}

/// Builds the campaign job list of a full single-error atlas for
/// `protocol`: one single-flip job per `(node, frame position)`, with ids
/// starting at `first_id`. `positions` comes from [`frame_positions`] of
/// the matching variant.
pub fn atlas_jobs(
    first_id: u64,
    campaign_seed: u64,
    protocol: ProtocolSpec,
    positions: &[(Field, u16, bool)],
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for node in 0..ATLAS_NODES {
        for &(field, index, stuff) in positions {
            jobs.push(Job::new(
                first_id + jobs.len() as u64,
                campaign_seed,
                protocol,
                FaultSpec::SingleFlip {
                    node,
                    field,
                    index,
                    stuff,
                },
                WorkloadSpec::SingleBroadcast,
                ATLAS_NODES,
                1,
            ));
        }
    }
    jobs
}

/// Reads the single [`Verdict`] a one-flip job recorded.
pub fn verdict_of(result: &JobResult) -> Verdict {
    for v in [
        Verdict::ValidityLoss,
        Verdict::Omission,
        Verdict::DoubleReception,
        Verdict::Consistent,
    ] {
        if result.counters.get(&format!("verdict/{}", v.token())) > 0 {
            return v;
        }
    }
    Verdict::Consistent
}

/// Reconstructs atlas entries by joining a job list with its campaign
/// results on job id (results may be a superset, e.g. when several atlases
/// share one campaign artifact).
pub fn entries_from(jobs: &[Job], results: &[JobResult]) -> Vec<AtlasEntry> {
    let by_id: BTreeMap<u64, &JobResult> = results.iter().map(|r| (r.job_id, r)).collect();
    jobs.iter()
        .filter_map(|job| {
            let FaultSpec::SingleFlip {
                node,
                field,
                index,
                stuff,
            } = job.fault
            else {
                return None;
            };
            let result = by_id.get(&job.id)?;
            let disturbance = if stuff {
                Disturbance::stuff_bit(node, field, index)
            } else {
                Disturbance::first(node, field, index)
            };
            Some(AtlasEntry {
                node,
                disturbance,
                verdict: verdict_of(result),
            })
        })
        .collect()
}

/// Builds the full single-error atlas for `variant`: every frame position
/// of every node's view, flipped once. Internally an in-memory campaign on
/// the `majorcan-campaign` runner (one job per flip).
pub fn build_atlas<V: Variant>(variant: &V) -> Vec<AtlasEntry> {
    let jobs = atlas_jobs(0, 0, protocol_spec_of(variant), &frame_positions(variant));
    let report = run_campaign_in_memory_scoped(
        &jobs,
        &CampaignOptions::quiet(0),
        JobRunner::new,
        |runner, job| runner.run_job(job),
    );
    entries_from(&jobs, &report.results)
}

/// Aggregates an atlas into per-(field, verdict) counts.
pub fn summarize(entries: &[AtlasEntry]) -> BTreeMap<(String, Verdict), usize> {
    let mut counts = BTreeMap::new();
    for e in entries {
        let key = (
            format!(
                "{}{}",
                e.disturbance.field,
                if e.disturbance.stuff { "+s" } else { "" }
            ),
            e.verdict,
        );
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
}

/// Renders the atlas of one protocol as a field × verdict table.
pub fn render_atlas<V: Variant>(variant: &V) -> String {
    render_entries(&variant.name(), &build_atlas(variant))
}

/// Renders pre-built atlas entries (binaries that ran the campaign
/// themselves use this instead of [`render_atlas`]).
pub fn render_entries(name: &str, entries: &[AtlasEntry]) -> String {
    let counts = summarize(entries);
    let mut out = String::new();
    let total = entries.len();
    let _ = writeln!(
        out,
        "Single-error atlas for {name} ({total} trials: 3 nodes × every frame position)"
    );
    let fields: Vec<String> = {
        let mut f: Vec<String> = counts.keys().map(|(f, _)| f.clone()).collect();
        f.dedup();
        f
    };
    let _ = writeln!(
        out,
        "{:<10} | {:>10} | {:>10} | {:>9} | {:>9}",
        "field", "consistent", "double rx", "omission", "validity"
    );
    for field in fields {
        let get = |v: Verdict| counts.get(&(field.clone(), v)).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<10} | {:>10} | {:>10} | {:>9} | {:>9}",
            field,
            get(Verdict::Consistent),
            get(Verdict::DoubleReception),
            get(Verdict::Omission),
            get(Verdict::ValidityLoss),
        );
    }
    let omissions: Vec<&AtlasEntry> = entries
        .iter()
        .filter(|e| e.verdict == Verdict::Omission || e.verdict == Verdict::ValidityLoss)
        .collect();
    if omissions.is_empty() {
        let _ = writeln!(out, "no single-error omissions");
    } else {
        let _ = writeln!(out, "omission-causing flips ({}):", omissions.len());
        for e in omissions.iter().take(24) {
            let _ = writeln!(out, "  {} -> {}", e.disturbance, e.verdict);
        }
        if omissions.len() > 24 {
            let _ = writeln!(out, "  … and {} more", omissions.len() - 24);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_can::StandardCan;
    use majorcan_core::MajorCan;

    #[test]
    fn atlas_covers_three_views_of_every_position() {
        let entries = build_atlas(&StandardCan);
        assert_eq!(entries.len(), 3 * frame_positions(&StandardCan).len());
    }

    #[test]
    fn standard_can_single_error_map() {
        let entries = build_atlas(&StandardCan);
        // Double receptions arise exactly from the EOF asymmetry: a flip at
        // a receiver's last-but-one EOF bit, or at the transmitter's view
        // of its own tail.
        let doubles: Vec<&AtlasEntry> = entries
            .iter()
            .filter(|e| e.verdict == Verdict::DoubleReception)
            .collect();
        assert!(!doubles.is_empty());
        for e in &doubles {
            assert!(
                matches!(
                    e.disturbance.field,
                    Field::Eof | Field::AckDelim | Field::CrcDelim | Field::AckSlot
                ),
                "unexpected double-reception source: {}",
                e.disturbance
            );
        }
        // Single-error omissions, if any, are desynchronization cases:
        // they originate in the stuffed body (stuff bits or field bits),
        // never in the EOF region itself.
        for e in entries.iter().filter(|e| e.verdict == Verdict::Omission) {
            assert!(
                !matches!(e.disturbance.field, Field::Eof),
                "single EOF flip must not cause an omission on CAN: {}",
                e.disturbance
            );
        }
    }

    #[test]
    fn majorcan_eof_region_is_single_error_proof() {
        let entries = build_atlas(&MajorCan::proposed());
        for e in &entries {
            if e.disturbance.field == Field::Eof {
                assert_eq!(
                    e.verdict,
                    Verdict::Consistent,
                    "MajorCAN_5 EOF flip must be absorbed: {}",
                    e.disturbance
                );
            }
        }
    }

    #[test]
    fn majorcan_single_error_omissions_are_exactly_the_desync_class() {
        // The F1 finding, pinned down: every single-flip omission under
        // MajorCAN_5 comes from the stuffed frame body (where a flip can
        // shift the victim's frame clock), never from the EOF/tail.
        let entries = build_atlas(&MajorCan::proposed());
        let omissions: Vec<&AtlasEntry> = entries
            .iter()
            .filter(|e| e.verdict == Verdict::Omission)
            .collect();
        assert!(
            !omissions.is_empty(),
            "the desynchronization hole must be visible in the atlas"
        );
        for e in &omissions {
            assert!(
                matches!(
                    e.disturbance.field,
                    Field::Sof
                        | Field::Id
                        | Field::Rtr
                        | Field::Ide
                        | Field::R0
                        | Field::Dlc
                        | Field::Data
                        | Field::Crc
                ),
                "omission outside the desync class: {}",
                e.disturbance
            );
            assert_ne!(e.node, 0, "the transmitter cannot desync on its own frame");
        }
    }
}
