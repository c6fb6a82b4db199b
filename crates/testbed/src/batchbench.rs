//! Batch-vs-scalar throughput measurement: prefix-fork execution
//! ([`Testbed::run_batch`]) against the scalar reused hot loop
//! ([`Testbed::run_schedule`]).
//!
//! The workload is shaped like the falsifier's: schedules arrive in
//! families sharing a disturbance prefix and differing in a tail-biased
//! last edit (EOF, error-flag and frame-tail-delimiter positions). The
//! scalar loop replays every family member from bit zero; the batch
//! engine simulates each shared prefix once and forks the tails from a
//! snapshot. Both leap a run's settled tail (`Simulator::run`), so the
//! multiple prices prefix sharing alone. [`measure`] asserts both paths classify every schedule identically
//! before it reports a rate, and the result is rendered as the
//! `BENCH_batch.json` artifact (schema-guarded by `scripts/check.sh`).

use crate::hotpath::schema_fingerprint as hotpath_fingerprint;
use crate::outcome::Outcome;
use crate::testbed::Testbed;
use majorcan_campaign::json::Value;
use majorcan_campaign::ProtocolSpec;
use majorcan_can::Field;
use majorcan_faults::Disturbance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Schema tag written into `BENCH_batch.json`; bump when the layout of
/// the artifact changes. `scripts/check.sh` fails when a regenerated
/// artifact's key structure drifts from the committed one.
pub const BATCH_SCHEMA: &str = "majorcan-bench-batch-v1";

/// The link-layer protocols the artifact reports on (the batch engine's
/// prefix-fork path is link-layer; HLP clusters fall back to scalar).
pub const BATCH_PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// Schedules per prefix family in [`tail_pool`].
const FAMILY: usize = 8;

/// A deterministic pool of tail-biased schedule families: every chunk of
/// [`FAMILY`] schedules shares a 1–2 disturbance prefix (mid-frame data /
/// CRC hits) and differs only in one last frame-tail edit — the shape the
/// falsifier's generator concentrates on, and the shape prefix-fork
/// execution exists for. A sprinkle of empty and occurrence-2 schedules
/// keeps the scalar fallback and occurrence accounting honest.
pub fn tail_pool(seed: u64, count: usize) -> Vec<Vec<Disturbance>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let mut prefix = vec![Disturbance::first(
            rng.gen_range(0..3),
            Field::Data,
            rng.gen_range(0..16),
        )];
        if rng.gen_bool(0.5) {
            prefix.push(Disturbance::first(
                rng.gen_range(0..3),
                Field::Crc,
                rng.gen_range(0..15),
            ));
        }
        for _ in 0..FAMILY {
            if pool.len() >= count {
                break;
            }
            if rng.gen_range(0..16) == 0 {
                pool.push(Vec::new()); // fault-free runs ride along
                continue;
            }
            let node = rng.gen_range(0..3);
            let mut tail = match rng.gen_range(0..4) {
                0 => Disturbance::eof(node, rng.gen_range(1..=7)),
                1 => Disturbance::first(node, Field::ErrorFlag, rng.gen_range(0..6)),
                2 => Disturbance::first(node, Field::AckDelim, 0),
                _ => Disturbance::first(node, Field::CrcDelim, 0),
            };
            if rng.gen_range(0..10) == 0 {
                tail.occurrence = 2;
            }
            let mut schedule = prefix.clone();
            schedule.push(tail);
            pool.push(schedule);
        }
    }
    pool
}

/// One protocol's measurement.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// The protocol measured.
    pub protocol: ProtocolSpec,
    /// Cluster width.
    pub n_nodes: usize,
    /// Schedules evaluated per mode.
    pub schedules: usize,
    /// Scalar reused-testbed (`run_schedule`) throughput.
    pub scalar_runs_per_sec: f64,
    /// Prefix-fork batch (`run_batch`) throughput.
    pub batch_runs_per_sec: f64,
}

impl BatchRow {
    /// Throughput multiple of the batch engine over the scalar loop.
    pub fn speedup(&self) -> f64 {
        self.batch_runs_per_sec / self.scalar_runs_per_sec
    }
}

/// Times both evaluation paths for `protocol` over `pool` and returns
/// their throughputs. Panics if any schedule classifies differently
/// through the batch engine than through the scalar hot loop — the
/// speedup must not change a single verdict.
pub fn measure(protocol: ProtocolSpec, n_nodes: usize, pool: &[Vec<Disturbance>]) -> BatchRow {
    let refs: Vec<&[Disturbance]> = pool.iter().map(Vec::as_slice).collect();
    let mut tb = Testbed::builder(protocol).nodes(n_nodes).build();

    // Correctness first: identical outcomes, schedule by schedule.
    let scalar: Vec<Outcome> = pool.iter().map(|s| tb.run_schedule(s)).collect();
    let batch = tb.run_batch(&refs);
    for (i, (b, s)) in batch.iter().zip(&scalar).enumerate() {
        assert_eq!(
            b, s,
            "{protocol}: schedule {i} classifies differently batch vs scalar"
        );
    }

    let start = Instant::now();
    for schedule in pool {
        std::hint::black_box(tb.run_schedule(schedule));
    }
    let scalar_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    std::hint::black_box(tb.run_batch(&refs));
    let batch_secs = start.elapsed().as_secs_f64();

    BatchRow {
        protocol,
        n_nodes,
        schedules: pool.len(),
        scalar_runs_per_sec: pool.len() as f64 / scalar_secs.max(1e-9),
        batch_runs_per_sec: pool.len() as f64 / batch_secs.max(1e-9),
    }
}

/// Renders measurement rows as the `BENCH_batch.json` document.
pub fn report_to_json(mode: &str, seed: u64, rows: &[BatchRow]) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", BATCH_SCHEMA.into());
    doc.set("mode", mode.into());
    doc.set("seed", seed.into());
    let mut arr = Vec::with_capacity(rows.len());
    for row in rows {
        let mut r = Value::obj();
        r.set("protocol", row.protocol.to_string().into());
        r.set("n_nodes", row.n_nodes.into());
        r.set("schedules", row.schedules.into());
        r.set("scalar_runs_per_sec", Value::F64(row.scalar_runs_per_sec));
        r.set("batch_runs_per_sec", Value::F64(row.batch_runs_per_sec));
        r.set("speedup", Value::F64(row.speedup()));
        arr.push(r);
    }
    doc.set("rows", Value::Arr(arr));
    let min = rows
        .iter()
        .map(BatchRow::speedup)
        .fold(f64::INFINITY, f64::min);
    doc.set("min_speedup", Value::F64(min));
    doc
}

/// The canonical key-path set of a `BENCH_batch.json` document — the
/// schema drift guard (same walk as the hotpath artifact's).
pub fn schema_fingerprint(doc: &Value) -> Vec<String> {
    hotpath_fingerprint(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_pool_is_deterministic_and_family_shaped() {
        assert_eq!(tail_pool(7, 40), tail_pool(7, 40));
        assert_ne!(tail_pool(7, 40), tail_pool(8, 40));
        let pool = tail_pool(7, 64);
        assert_eq!(pool.len(), 64);
        // Families share prefixes: plenty of consecutive schedule pairs
        // agree on their first disturbance.
        let shared = pool
            .windows(2)
            .filter(|w| !w[0].is_empty() && w[0].first() == w[1].first())
            .count();
        assert!(shared >= 16, "only {shared} prefix-sharing neighbours");
    }

    #[test]
    fn batch_matches_scalar_on_every_protocol() {
        let pool = tail_pool(0xBA7C4, 24);
        for protocol in BATCH_PROTOCOLS {
            // measure() itself asserts outcome identity before timing.
            let row = measure(protocol, 3, &pool);
            assert_eq!(row.schedules, 24);
        }
    }

    #[test]
    fn report_schema_is_stable_across_modes_and_measurements() {
        let rows = [
            BatchRow {
                protocol: ProtocolSpec::StandardCan,
                n_nodes: 3,
                schedules: 10,
                scalar_runs_per_sec: 100.0,
                batch_runs_per_sec: 900.0,
            },
            BatchRow {
                protocol: ProtocolSpec::MinorCan,
                n_nodes: 3,
                schedules: 10,
                scalar_runs_per_sec: 50.0,
                batch_runs_per_sec: 300.0,
            },
        ];
        let quick = report_to_json("quick", 1, &rows[..1]);
        let full = report_to_json("full", 2, &rows);
        assert_eq!(schema_fingerprint(&quick), schema_fingerprint(&full));
        assert_eq!(full.get("min_speedup").and_then(Value::as_f64), Some(6.0));
        let mut truncated = Value::obj();
        truncated.set("schema", BATCH_SCHEMA.into());
        assert_ne!(schema_fingerprint(&quick), schema_fingerprint(&truncated));
    }
}
