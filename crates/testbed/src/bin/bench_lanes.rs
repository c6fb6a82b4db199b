//! Regenerates `BENCH_lanes.json`: runs/sec of the 64-lane cohort engine
//! (`Testbed::run_lanes`) against the scalar reused hot loop
//! (`Testbed::run_schedule`), per link-layer protocol, on a prefix-free
//! random campaign — the shape the falsifier's random fault models emit.
//!
//! ```text
//! cargo run --release -p majorcan-testbed --bin bench_lanes -- \
//!     [--quick] [--seed <u64>] [--out BENCH_lanes.json]
//! ```
//!
//! When the output file already exists, its schema is compared against the
//! freshly rendered document first; any drift (keys added, removed or
//! renamed) is an error, so `scripts/check.sh` catches accidental format
//! changes before they reach the committed artifact. Measured numbers are
//! machine-dependent and expected to differ run to run; the full (default)
//! mode additionally enforces the ≥8× throughput multiple the lane API
//! exists for.

use majorcan_campaign::json;
use majorcan_testbed::lanesbench::{
    measure, prefix_free_pool, report_to_json, schema_fingerprint, LANES_PROTOCOLS,
};

const N_NODES: usize = 3;
const FULL_SCHEDULES: usize = 512;
const QUICK_SCHEDULES: usize = 64;
const REQUIRED_SPEEDUP: f64 = 8.0;

fn main() {
    let mut quick = false;
    let mut seed: u64 = 0x1A9E5;
    let mut out = String::from("BENCH_lanes.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                seed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| v.parse())
                    .expect("--seed wants an integer");
            }
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let (mode, count) = if quick {
        ("quick", QUICK_SCHEDULES)
    } else {
        ("full", FULL_SCHEDULES)
    };
    let pool = prefix_free_pool(seed, count);

    let mut rows = Vec::new();
    for protocol in LANES_PROTOCOLS {
        let row = measure(protocol, N_NODES, &pool);
        println!(
            "{:<12} scalar {:>10.1} runs/s   laned {:>10.1} runs/s   {:.1}x",
            row.protocol.to_string(),
            row.scalar_runs_per_sec,
            row.lane_runs_per_sec,
            row.speedup()
        );
        rows.push(row);
    }
    let doc = report_to_json(mode, seed, &rows);

    if let Ok(existing) = std::fs::read_to_string(&out) {
        let old = json::parse(&existing)
            .unwrap_or_else(|e| panic!("{out} exists but does not parse as JSON: {e}"));
        if schema_fingerprint(&old) != schema_fingerprint(&doc) {
            eprintln!("error: schema drift against existing {out}");
            eprintln!("  committed: {:?}", schema_fingerprint(&old));
            eprintln!("  generated: {:?}", schema_fingerprint(&doc));
            std::process::exit(1);
        }
    }

    std::fs::write(&out, format!("{doc}\n")).expect("write artifact");
    println!("wrote {out} ({mode} mode, {count} schedules per protocol)");

    let min = rows
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    if !quick && min < REQUIRED_SPEEDUP {
        eprintln!("error: minimum speedup {min:.1}x is below the required {REQUIRED_SPEEDUP:.0}x");
        std::process::exit(1);
    }
}
