//! The Section 5 headline experiment (E13): randomized tail-region error
//! sweep over CAN, MinorCAN and MajorCAN_5, run as one campaign on the
//! `majorcan-campaign` runner (parallel, deterministic for any `--jobs`,
//! resumable via `--out`).
//!
//! ```text
//! cargo run --release -p majorcan-bench --bin sweep -- \
//!     [<trials> [n_nodes]] [--seed <u64>] [--jobs <n>] [--out sweep.jsonl]
//! ```

use majorcan_bench::cli::CliArgs;
use majorcan_bench::jobs::JobRunner;
use majorcan_bench::sweep::{outcome_from_totals, render_sweep, sweep_jobs, SweepOutcome};
use majorcan_campaign::{Job, ProtocolSpec, Totals};

/// One sweep cell and its slice of the campaign's job-id space.
struct Cell {
    protocol: ProtocolSpec,
    errors: usize,
    first_id: u64,
    last_id: u64,
}

fn main() {
    let mut cli = CliArgs::parse(0xC0FFEE);
    let trials: usize = cli.positional(500);
    let n_nodes: usize = cli.positional(4);

    // The sweep table (protocol × error budget) plus the MajorCAN_m
    // boundary cells, laid out in one fixed job-id order.
    let protocols = [
        ProtocolSpec::StandardCan,
        ProtocolSpec::MinorCan,
        ProtocolSpec::MajorCan { m: 5 },
    ];
    let mut cells: Vec<Cell> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for errors in 1..=5usize {
        for &protocol in &protocols {
            let first_id = jobs.len() as u64;
            jobs.extend(sweep_jobs(
                first_id,
                cli.seed,
                protocol,
                n_nodes,
                errors,
                trials as u64,
            ));
            cells.push(Cell {
                protocol,
                errors,
                first_id,
                last_id: jobs.len() as u64,
            });
        }
    }
    // Boundary cells: MajorCAN_m at and beyond its error budget.
    let mut boundary: Vec<usize> = Vec::new();
    for m in [3usize, 5] {
        for errors in [m, m + 1, m + 3] {
            let first_id = jobs.len() as u64;
            jobs.extend(sweep_jobs(
                first_id,
                cli.seed,
                ProtocolSpec::MajorCan { m },
                n_nodes,
                errors,
                trials as u64,
            ));
            cells.push(Cell {
                protocol: ProtocolSpec::MajorCan { m },
                errors,
                first_id,
                last_id: jobs.len() as u64,
            });
            boundary.push(cells.len() - 1);
        }
    }

    let report = cli.run_campaign("sweep", &jobs, JobRunner::new, JobRunner::run_job);

    let outcome_of = |cell: &Cell| -> SweepOutcome {
        let mut totals = Totals::default();
        for r in &report.results {
            if (cell.first_id..cell.last_id).contains(&r.job_id) {
                totals.absorb(r);
            }
        }
        outcome_from_totals(cell.protocol.to_string(), cell.errors, &totals)
    };

    let table_rows: Vec<SweepOutcome> = cells
        .iter()
        .take(cells.len() - boundary.len())
        .map(outcome_of)
        .collect();
    println!("{}", render_sweep(&table_rows));

    println!("MajorCAN_m at and beyond its error budget:");
    for &i in &boundary {
        let cell = &cells[i];
        let ProtocolSpec::MajorCan { m } = cell.protocol else {
            continue;
        };
        let outcome = outcome_of(cell);
        println!(
            "  MajorCAN_{m} with {} tail errors: AB2 broken {} / AB3 broken {} of {} trials{}",
            cell.errors,
            outcome.agreement_violations,
            outcome.double_deliveries,
            outcome.trials,
            if cell.errors <= m {
                "  (within budget)"
            } else {
                ""
            }
        );
    }
}
