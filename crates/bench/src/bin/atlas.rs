//! E16 — prints the single-error atlas: the verdict of one view-flip at
//! every frame position, per node, per protocol (see EXPERIMENTS.md, F1).
//! The three protocol atlases run as one campaign on the
//! `majorcan-campaign` runner (parallel across flips, deterministic for
//! any `--jobs`, resumable via `--out`).
//!
//! ```text
//! cargo run --release -p majorcan-bench --bin atlas -- \
//!     [--seed <u64>] [--jobs <n>] [--out atlas.jsonl] [--quiet]
//! ```

use majorcan_bench::atlas::{atlas_jobs, entries_from, frame_positions, render_entries};
use majorcan_bench::cli::CliArgs;
use majorcan_bench::jobs::{protocol_spec_of, JobRunner};
use majorcan_campaign::Job;
use majorcan_can::{StandardCan, Variant};
use majorcan_core::{MajorCan, MinorCan};
use std::ops::Range;

fn add_section<V: Variant>(
    jobs: &mut Vec<Job>,
    sections: &mut Vec<(String, Range<usize>)>,
    seed: u64,
    variant: &V,
) {
    let start = jobs.len();
    jobs.extend(atlas_jobs(
        start as u64,
        seed,
        protocol_spec_of(variant),
        &frame_positions(variant),
    ));
    sections.push((variant.name(), start..jobs.len()));
}

fn main() {
    let cli = CliArgs::parse(0);

    // One campaign spanning the three protocol atlases, ids in protocol
    // order so the artifact layout is stable.
    let mut jobs: Vec<Job> = Vec::new();
    let mut sections: Vec<(String, Range<usize>)> = Vec::new();
    add_section(&mut jobs, &mut sections, cli.seed, &StandardCan);
    add_section(&mut jobs, &mut sections, cli.seed, &MinorCan);
    add_section(&mut jobs, &mut sections, cli.seed, &MajorCan::proposed());

    let report = cli.run_campaign("atlas", &jobs, JobRunner::new, JobRunner::run_job);

    for (name, range) in &sections {
        let entries = entries_from(&jobs[range.clone()], &report.results);
        println!("{}", render_entries(name, &entries));
    }
}
