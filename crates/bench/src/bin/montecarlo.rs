//! Monte-Carlo validation of the paper's probability model (E1b) plus the
//! desynchronization finding.
//!
//! Three layers of validation, strongest last:
//!
//! 1. direct sampling of Eq. 4/5's own event definitions (from
//!    `majorcan-analysis`) against the closed forms;
//! 2. the bit-level simulator under EOF-confined random errors against the
//!    Eq. 4 pattern probability;
//! 3. the bit-level simulator under unrestricted random errors — exposing
//!    the first-order desynchronization omissions outside the paper's
//!    model (EXPERIMENTS.md, finding F1).
//!
//! Layers 2–3 run as **one campaign** on the `majorcan-campaign` runner:
//! parallel across CPUs, deterministic for any `--jobs`, and resumable —
//! re-invoking with the same `--out` skips completed jobs.
//!
//! ```text
//! cargo run --release -p majorcan-bench --bin montecarlo -- \
//!     [<frames>] [--seed <u64>] [--jobs <n>] [--out mc.jsonl] [--quiet]
//! ```

use majorcan_analysis::{
    estimate_new_scenario, estimate_old_scenario, p_new_scenario, p_old_scenario,
};
use majorcan_bench::cli::CliArgs;
use majorcan_bench::jobs::JobRunner;
use majorcan_bench::montecarlo::{
    imo_jobs, measurement_from_totals, render_measurement, ErrorDomain,
};
use majorcan_campaign::{DomainSpec, FaultSpec, Job, ProtocolSpec, Totals};
use majorcan_can::StandardCan;
use majorcan_core::{MajorCan, MinorCan};

/// One measurement cell: a slice of the campaign's job-id space plus the
/// recipe to fold its totals back into a printable measurement.
struct Cell {
    first_id: u64,
    last_id: u64,
    render: Box<dyn Fn(&Totals) -> String>,
}

struct Plan {
    jobs: Vec<Job>,
    cells: Vec<Cell>,
    seed: u64,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        Plan {
            jobs: Vec::new(),
            cells: Vec::new(),
            seed,
        }
    }

    fn add(
        &mut self,
        protocol: ProtocolSpec,
        n_nodes: usize,
        fault: FaultSpec,
        frames: u64,
        render: Box<dyn Fn(&Totals) -> String>,
    ) {
        let first_id = self.jobs.len() as u64;
        self.jobs.extend(imo_jobs(
            first_id, self.seed, protocol, n_nodes, fault, frames,
        ));
        self.cells.push(Cell {
            first_id,
            last_id: self.jobs.len() as u64,
            render,
        });
    }
}

fn imo_cell<V: majorcan_can::Variant + 'static>(
    plan: &mut Plan,
    variant: V,
    n_nodes: usize,
    ber_star: f64,
    frames: u64,
    domain: ErrorDomain,
) {
    let spec = majorcan_bench::jobs::protocol_spec_of(&variant);
    let fault_domain = match domain {
        ErrorDomain::FullFrame => DomainSpec::FullFrame,
        ErrorDomain::EofOnly => DomainSpec::EofOnly,
    };
    plan.add(
        spec,
        n_nodes,
        FaultSpec::IndependentBitErrors {
            ber_star,
            domain: fault_domain,
        },
        frames,
        Box::new(move |totals| {
            render_measurement(&measurement_from_totals(
                &variant, n_nodes, ber_star, domain, totals,
            ))
        }),
    );
}

fn global_cell(plan: &mut Plan, n_nodes: usize, ber: f64, frames: u64) {
    plan.add(
        ProtocolSpec::StandardCan,
        n_nodes,
        FaultSpec::GlobalEventErrors { ber },
        frames,
        Box::new(move |totals| {
            let mut m = measurement_from_totals(
                &StandardCan,
                n_nodes,
                ber / n_nodes as f64,
                ErrorDomain::EofOnly,
                totals,
            );
            m.protocol = "CAN (global-event channel)".to_string();
            render_measurement(&m)
        }),
    );
}

fn main() {
    let mut cli = CliArgs::parse(0xFEED);
    let frames: u64 = cli.positional(20_000);

    println!("== 1. Direct sampling of the Eq. 4/5 event definitions ==");
    let (n, b, tau) = (8, 0.01, 20);
    let analytic = p_new_scenario(n, b, tau);
    let mc = estimate_new_scenario(n, b, tau, 2_000_000, 42);
    println!(
        "Eq.4  (N={n}, ber*={b}, tau={tau}): closed form {analytic:.4e}, sampled {:.4e} ± {:.1e}",
        mc.p_hat, mc.std_err
    );
    let (lambda, dt) = (1e-3, 5e-3);
    let analytic5 = p_old_scenario(6, 0.02, 16, lambda, dt);
    let mc5 = estimate_old_scenario(6, 0.02, 16, lambda, dt, 1_000_000, 7);
    println!(
        "Eq.5  (N=6, ber*=0.02, tau=16):   closed form {analytic5:.4e}, sampled {:.4e} ± {:.1e}",
        mc5.p_hat, mc5.std_err
    );

    // Layers 2–3 as one campaign. Cell order fixes job ids, so the same
    // seed + frames always produces the same artifact.
    let mut plan = Plan::new(cli.seed);
    imo_cell(
        &mut plan,
        StandardCan,
        4,
        0.02,
        frames,
        ErrorDomain::EofOnly,
    );
    imo_cell(
        &mut plan,
        MinorCan,
        4,
        0.02,
        frames / 2,
        ErrorDomain::EofOnly,
    );
    imo_cell(
        &mut plan,
        MajorCan::proposed(),
        4,
        0.02,
        frames / 2,
        ErrorDomain::EofOnly,
    );
    global_cell(&mut plan, 4, 0.02 * 4.0, frames / 2);
    imo_cell(
        &mut plan,
        StandardCan,
        4,
        4e-3,
        frames / 4,
        ErrorDomain::FullFrame,
    );
    imo_cell(
        &mut plan,
        MinorCan,
        4,
        4e-3,
        frames / 4,
        ErrorDomain::FullFrame,
    );
    imo_cell(
        &mut plan,
        MajorCan::proposed(),
        4,
        4e-3,
        frames / 4,
        ErrorDomain::FullFrame,
    );

    let report = cli.run_campaign("montecarlo", &plan.jobs, JobRunner::new, JobRunner::run_job);

    let cell_totals: Vec<Totals> = plan
        .cells
        .iter()
        .map(|cell| {
            let mut totals = Totals::default();
            for r in &report.results {
                if (cell.first_id..cell.last_id).contains(&r.job_id) {
                    totals.absorb(r);
                }
            }
            totals
        })
        .collect();
    let rendered: Vec<String> = plan
        .cells
        .iter()
        .zip(&cell_totals)
        .map(|(cell, totals)| (cell.render)(totals))
        .collect();

    println!("\n== 2. Bit-level simulator, EOF-confined errors (the paper's domain) ==");
    for text in &rendered[0..3] {
        print!("{text}");
    }
    println!("(CAN matches the Eq.4 pattern; MinorCAN kills the double receptions but keeps");
    println!(" the two-flip omission; MajorCAN_5 is spotless in this domain.)");

    println!("\n== 2b. Channel-model ablation (independent ber* vs global events) ==");
    print!("{}", rendered[3]);
    println!("(Charzinski's two-stage model correlates hits within a bit time: the");
    println!(" hit-and-clean pairing of Fig. 3a carries (1-p_eff) where the independent");
    println!(" model has (1-ber*), so at N=4 the global-event rate sits ≈0.75× below the");
    println!(" independent one; the models converge as N grows — at the paper's N=32 the");
    println!(" Eq. 3 simplification costs under 4%.)");

    println!("\n== 3. Bit-level simulator, unrestricted errors (finding F1) ==");
    for text in &rendered[4..7] {
        print!("{text}");
    }
    println!("(Unrestricted flips desynchronize receivers' frame decoding; the resulting");
    println!(" omissions are first-order in ber* and affect every variant — a failure class");
    println!(" outside the paper's synchronized-node error model. See EXPERIMENTS.md, F1.)");
}
