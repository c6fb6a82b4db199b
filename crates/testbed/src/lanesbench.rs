//! Lane-vs-scalar throughput measurement: 64-lane cohort execution
//! ([`Testbed::run_lanes`]) against the scalar reused hot loop
//! ([`Testbed::run_schedule`]).
//!
//! The workload is the one the lane engine exists for: **prefix-free**
//! random schedules, as produced by the falsifier's random fault models —
//! every schedule's first disturbance is drawn independently, so no two
//! share a prefix worth reusing. The scalar loop replays every schedule
//! from bit zero; the lane engine rides up to 64 schedules on one
//! fault-free trunk and peels each at its first possible divergence bit.
//! Both leap a run's settled tail (`Simulator::run`), so the multiple
//! prices trunk sharing alone. [`measure`] asserts both paths classify
//! every schedule identically before it reports a rate, and the result
//! is rendered as the `BENCH_lanes.json` artifact (schema-guarded by
//! `scripts/check.sh`).

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

/// Schema tag written into `BENCH_lanes.json`; bump when the layout of
/// the artifact changes. `scripts/check.sh` fails when a regenerated
/// artifact's key structure drifts from the committed one.
pub const LANES_SCHEMA: &str = "majorcan-bench-lanes-v1";

/// The link-layer protocols the artifact reports on (the lane cohort
/// path is link-layer; HLP clusters fall back to scalar).
pub const LANES_PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// Lane-eligible fields the pool draws from — frame-interior and
/// frame-tail positions, the falsifier's bread and butter.
const POOL_FIELDS: [Field; 8] = [
    Field::Id,
    Field::Dlc,
    Field::Data,
    Field::Crc,
    Field::CrcDelim,
    Field::AckSlot,
    Field::AckDelim,
    Field::ErrorFlag,
];

/// A deterministic pool of **prefix-free** schedules: 1–3 disturbances
/// each, every one drawn independently, so no two schedules share a
/// leading disturbance by construction bias (collisions are possible but
/// rare — the point is there are no *families*). A sprinkle of empty
/// schedules, occurrence-2 entries, stuff-bit targets and scalar-only
/// (`Idle`-targeting) schedules keeps the peel bookkeeping and the
/// scalar fallback honest.
pub fn prefix_free_pool(seed: u64, count: usize) -> Vec<Vec<Disturbance>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(count);
    for _ in 0..count {
        if rng.gen_range(0..24) == 0 {
            pool.push(Vec::new()); // fault-free lanes ride the trunk whole
            continue;
        }
        if rng.gen_range(0..16) == 0 {
            // A scalar-only lane: Idle is a drive-phase-transition field.
            pool.push(vec![Disturbance::first(
                rng.gen_range(0..3),
                Field::Idle,
                0,
            )]);
            continue;
        }
        let n = rng.gen_range(1..=3);
        let mut schedule = Vec::with_capacity(n);
        for _ in 0..n {
            let node = rng.gen_range(0..3);
            let field = POOL_FIELDS[rng.gen_range(0..POOL_FIELDS.len())];
            let index = match field {
                Field::Id => rng.gen_range(0..11),
                Field::Dlc => rng.gen_range(0..4),
                Field::Data => rng.gen_range(0..16),
                Field::Crc => rng.gen_range(0..15),
                Field::ErrorFlag => rng.gen_range(0..6),
                _ => 0,
            };
            let mut d = Disturbance::first(node, field, index);
            if rng.gen_range(0..12) == 0 {
                d.occurrence = 2;
            }
            if rng.gen_range(0..12) == 0 && matches!(field, Field::Id | Field::Data) {
                d.stuff = true;
            }
            schedule.push(d);
        }
        pool.push(schedule);
    }
    pool
}

/// One protocol's measurement.
#[derive(Debug, Clone)]
pub struct LaneRow {
    /// The protocol measured.
    pub protocol: ProtocolSpec,
    /// Cluster width.
    pub n_nodes: usize,
    /// Schedules evaluated per mode.
    pub schedules: usize,
    /// Scalar reused-testbed (`run_schedule`) throughput.
    pub scalar_runs_per_sec: f64,
    /// 64-lane cohort (`run_lanes`) throughput.
    pub lane_runs_per_sec: f64,
}

impl LaneRow {
    /// Throughput multiple of the lane engine over the scalar loop.
    pub fn speedup(&self) -> f64 {
        self.lane_runs_per_sec / self.scalar_runs_per_sec
    }
}

/// Times both evaluation paths for `protocol` over `pool` and returns
/// their throughputs. Panics if any schedule classifies differently
/// through the lane engine than through the scalar hot loop — the
/// speedup must not change a single verdict.
pub fn measure(protocol: ProtocolSpec, n_nodes: usize, pool: &[Vec<Disturbance>]) -> LaneRow {
    let refs: Vec<&[Disturbance]> = pool.iter().map(Vec::as_slice).collect();
    let mut tb = Testbed::builder(protocol).nodes(n_nodes).build();

    // Correctness first: identical outcomes, schedule by schedule.
    let scalar: Vec<Outcome> = pool.iter().map(|s| tb.run_schedule(s)).collect();
    let laned = tb.run_lanes(&refs);
    for (i, (l, s)) in laned.iter().zip(&scalar).enumerate() {
        assert_eq!(
            l, s,
            "{protocol}: schedule {i} classifies differently laned vs scalar"
        );
    }

    let start = Instant::now();
    for schedule in pool {
        std::hint::black_box(tb.run_schedule(schedule));
    }
    let scalar_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    std::hint::black_box(tb.run_lanes(&refs));
    let lane_secs = start.elapsed().as_secs_f64();

    LaneRow {
        protocol,
        n_nodes,
        schedules: pool.len(),
        scalar_runs_per_sec: pool.len() as f64 / scalar_secs.max(1e-9),
        lane_runs_per_sec: pool.len() as f64 / lane_secs.max(1e-9),
    }
}

/// Renders measurement rows as the `BENCH_lanes.json` document.
pub fn report_to_json(mode: &str, seed: u64, rows: &[LaneRow]) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", LANES_SCHEMA.into());
    doc.set("mode", mode.into());
    doc.set("seed", seed.into());
    let mut arr = Vec::with_capacity(rows.len());
    for row in rows {
        let mut r = Value::obj();
        r.set("protocol", row.protocol.to_string().into());
        r.set("n_nodes", row.n_nodes.into());
        r.set("schedules", row.schedules.into());
        r.set("scalar_runs_per_sec", Value::F64(row.scalar_runs_per_sec));
        r.set("lane_runs_per_sec", Value::F64(row.lane_runs_per_sec));
        r.set("speedup", Value::F64(row.speedup()));
        arr.push(r);
    }
    doc.set("rows", Value::Arr(arr));
    let min = rows
        .iter()
        .map(LaneRow::speedup)
        .fold(f64::INFINITY, f64::min);
    doc.set("min_speedup", Value::F64(min));
    doc
}

/// The canonical key-path set of a `BENCH_lanes.json` document — the
/// schema drift guard (same walk as the hotpath artifact's).
pub fn schema_fingerprint(doc: &Value) -> Vec<String> {
    hotpath_fingerprint(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic_and_prefix_free() {
        assert_eq!(prefix_free_pool(7, 40), prefix_free_pool(7, 40));
        assert_ne!(prefix_free_pool(7, 40), prefix_free_pool(8, 40));
        let pool = prefix_free_pool(7, 128);
        assert_eq!(pool.len(), 128);
        // No families: consecutive schedules almost never share a first
        // disturbance.
        let shared = pool
            .windows(2)
            .filter(|w| !w[0].is_empty() && w[0].first() == w[1].first())
            .count();
        assert!(
            shared <= 6,
            "{shared} prefix-sharing neighbours — pool grew families"
        );
    }

    #[test]
    fn laned_matches_scalar_on_every_protocol() {
        let pool = prefix_free_pool(0x1A9E5, 24);
        for protocol in LANES_PROTOCOLS {
            // measure() itself asserts outcome identity before timing.
            let row = measure(protocol, 3, &pool);
            assert_eq!(row.schedules, 24);
        }
    }

    #[test]
    fn report_schema_is_stable_across_modes_and_measurements() {
        let rows = [
            LaneRow {
                protocol: ProtocolSpec::StandardCan,
                n_nodes: 3,
                schedules: 10,
                scalar_runs_per_sec: 100.0,
                lane_runs_per_sec: 900.0,
            },
            LaneRow {
                protocol: ProtocolSpec::MinorCan,
                n_nodes: 3,
                schedules: 10,
                scalar_runs_per_sec: 50.0,
                lane_runs_per_sec: 600.0,
            },
        ];
        let quick = report_to_json("quick", 1, &rows[..1]);
        let full = report_to_json("full", 2, &rows);
        assert_eq!(schema_fingerprint(&quick), schema_fingerprint(&full));
        assert_eq!(full.get("min_speedup").and_then(Value::as_f64), Some(9.0));
        let mut truncated = Value::obj();
        truncated.set("schema", LANES_SCHEMA.into());
        assert_ne!(schema_fingerprint(&quick), schema_fingerprint(&truncated));
    }
}
