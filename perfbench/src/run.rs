//! One benchmark run: the untraced measurement loop or the traced
//! profile, the result line and the raw output.

use crate::measure::{host_speed_probe, median, peak_rss_mb, Diag, DiagClock};
use crate::profile::{metric, run_traced, Metric};
use crate::trace::Tracer;
use crate::workloads::{rep_seed, run_rep, setup_once, Workload};
use majorcan_campaign::json::Value;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups timed per untraced run; the median is reported.
pub const SETUP_SAMPLES: u64 = 41;

/// The host-speed probe time the reported times are scaled to, in
/// seconds: a time metric reads what it would on a host where
/// [`host_speed_probe`] takes exactly this long.
///
/// On a shared two-vCPU virtual machine, host speed moved by up to 1.6×
/// within an hour (the probe took 14 ms in one batch and 24 ms in
/// another), far beyond any bound a regression gate could use, and the
/// probe moved with the workloads:
/// the `falsify` repetition's CPU time fell 37 % between two batches
/// while its ratio to the probe moved 5 %. Each repetition is therefore
/// scaled by the probe runs that bracket it; the raw figures stay in
/// the raw output.
pub const PROBE_REF_S: f64 = 0.020;

/// One repetition of an untraced run.
#[derive(Debug, Clone)]
struct Rep {
    seed: u64,
    ops: u64,
    failed: u64,
    digest: u64,
    diag: Diag,
    /// Mean CPU seconds of the host-speed probes run just before and
    /// just after it.
    probe_s: f64,
}

impl Rep {
    /// Host time scaled to the reference host speed.
    fn scale(&self) -> f64 {
        PROBE_REF_S / self.probe_s
    }
}

/// A finished run, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// The raw output document.
    pub raw: Value,
    /// The span log of a traced run, one JSON object per line.
    pub spans: String,
}

fn num(v: f64) -> Value {
    Value::F64(v)
}

fn diag_json(d: &Diag) -> Value {
    let mut v = Value::obj();
    v.set("wall_s", num(d.wall_s))
        .set("cpu_s", num(d.cpu_s))
        .set("steal_s", num(d.steal_s))
        .set("runq_wait_s", num(d.runq_wait_s));
    v
}

fn metrics_json(metrics: &[Metric], samples: bool) -> Value {
    let mut m = Value::obj();
    for x in metrics {
        let mut v = Value::obj();
        v.set("value", num(x.value))
            .set("unit", Value::Str(x.unit.to_string()));
        if samples {
            v.set("samples", Value::U64(x.samples));
        }
        m.set(x.name, v);
    }
    m
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_line(&self) -> String {
        let mut v = Value::obj();
        v.set("correct", Value::Bool(self.correct))
            .set("attempted", Value::U64(self.attempted))
            .set("failed", Value::U64(self.failed))
            .set("metrics", metrics_json(&self.metrics, false));
        v.to_string()
    }
}

/// The untraced run: set-up timed [`SETUP_SAMPLES`] times, then
/// repetitions through the entry point until `seconds` have passed (at
/// least one). Reports medians over repetitions.
pub fn untraced(workload: Workload, seed: u64, size: u64, seconds: f64) -> RunResult {
    let before = host_speed_probe();
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup_once(workload, seed, size).as_secs_f64())
        .collect();
    let setup_probe_s = (before + host_speed_probe()) / 2.0;
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut problems = Vec::new();
    while reps.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        let rep_seed = rep_seed(seed, reps.len() as u64);
        let before = host_speed_probe();
        let clock = DiagClock::start();
        let checked = run_rep(workload, rep_seed, size, 0);
        let diag = clock.stop();
        let probe_s = (before + host_speed_probe()) / 2.0;
        problems.extend(
            checked
                .problems
                .iter()
                .map(|p| format!("seed {rep_seed:#x}: {p}")),
        );
        reps.push(Rep {
            seed: rep_seed,
            ops: checked.attempted,
            failed: checked.failed,
            digest: checked.digest(),
            diag,
            probe_s,
        });
    }
    let ops_per_s: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.diag.wall_s).collect();
    let cpu: Vec<f64> = reps.iter().map(|r| r.diag.cpu_s).collect();
    let scaled_ops: Vec<f64> = reps
        .iter()
        .map(|r| r.ops as f64 / (r.diag.wall_s * r.scale()))
        .collect();
    let scaled_cpu: Vec<f64> = reps.iter().map(|r| r.diag.cpu_s * r.scale()).collect();
    let n = reps.len() as u64;
    let metrics = vec![
        metric("ops_per_s", median(&scaled_ops), n),
        metric("cpu_s", median(&scaled_cpu), n),
        metric(
            "setup_s",
            median(&setups) * PROBE_REF_S / setup_probe_s,
            SETUP_SAMPLES,
        ),
        metric("peak_rss_mb", peak_rss_mb(), 1),
    ];
    let probes: Vec<f64> = reps.iter().map(|r| r.probe_s).collect();
    let unscaled = format!(
        "unscaled medians: ops_per_s {:.3} 1/s, cpu_s {:.6} s, setup_s {:.9} s; probe {:.6} s (reference {PROBE_REF_S} s)",
        median(&ops_per_s),
        median(&cpu),
        median(&setups),
        median(&probes)
    );

    let mut lines = Vec::new();
    let mut raw_reps = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        lines.push(format!(
            "rep {i:>3} seed {:#018x} ops {:>6} failed {} wall {:.4}s cpu {:.4}s steal {:.3}s runq {:.4}s probe {:.4}s digest {:016x}",
            r.seed, r.ops, r.failed, r.diag.wall_s, r.diag.cpu_s, r.diag.steal_s, r.diag.runq_wait_s, r.probe_s, r.digest
        ));
        let mut v = diag_json(&r.diag);
        v.set("seed", Value::U64(r.seed))
            .set("ops", Value::U64(r.ops))
            .set("failed", Value::U64(r.failed))
            .set("digest", Value::Str(format!("{:016x}", r.digest)))
            .set("probe_s", num(r.probe_s));
        raw_reps.push(v);
    }
    lines.push(format!(
        "digest {} {:016x} (repetition 0)",
        workload.name(),
        reps[0].digest
    ));
    lines.push(unscaled.clone());
    lines.extend(metric_table(&metrics));
    let mut raw = Value::obj();
    raw.set("workload", Value::Str(workload.name().to_string()))
        .set("seed", Value::U64(seed))
        .set("size", Value::U64(size))
        .set("trace", Value::U64(0))
        .set("probe_ref_s", num(PROBE_REF_S))
        .set("setup_probe_s", num(setup_probe_s))
        .set("unscaled", Value::Str(unscaled))
        .set("repetitions", Value::Arr(raw_reps))
        .set(
            "setup_s",
            Value::Arr(setups.iter().map(|&s| num(s)).collect()),
        )
        .set("metrics", metrics_json(&metrics, true));
    RunResult {
        correct: problems.is_empty(),
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        problems,
        lines,
        raw,
        spans: String::new(),
    }
}

fn metric_table(metrics: &[Metric]) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<42} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    )];
    for m in metrics {
        lines.push(format!(
            "{:<42} {:>16.6} {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        ));
    }
    lines
}

/// The traced run: repetition 0 untraced and traced, probes and engine
/// attribution until `seconds` have passed.
pub fn traced(workload: Workload, seed: u64, size: u64, seconds: f64) -> RunResult {
    let tracer = Tracer::default();
    let t = run_traced(workload, seed, size, seconds, &tracer);
    let overhead = t.traced_wall_s - t.untraced_diag.wall_s;
    let mut lines = vec![
        format!(
            "digest {} untraced {:016x} traced {:016x} {}",
            workload.name(),
            t.untraced.digest(),
            t.traced.digest(),
            if t.untraced.digest() == t.traced.digest() {
                "equal"
            } else {
                "DIFFERENT"
            }
        ),
        format!(
            "tracing overhead {}: traced {:.4}s - untraced {:.4}s = {:+.4}s ({:+.1}%)",
            workload.name(),
            t.traced_wall_s,
            t.untraced_diag.wall_s,
            overhead,
            100.0 * overhead / t.untraced_diag.wall_s
        ),
    ];
    lines.extend(metric_table(&t.metrics));
    let spans = tracer.spans();
    let mut span_text = String::new();
    for s in &spans {
        let _ = writeln!(
            span_text,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    let mut raw = Value::obj();
    raw.set("workload", Value::Str(workload.name().to_string()))
        .set("seed", Value::U64(seed))
        .set("size", Value::U64(size))
        .set("trace", Value::U64(1))
        .set("untraced", diag_json(&t.untraced_diag))
        .set("traced_wall_s", num(t.traced_wall_s))
        .set("overhead_s", num(overhead))
        .set(
            "digest_untraced",
            Value::Str(format!("{:016x}", t.untraced.digest())),
        )
        .set(
            "digest_traced",
            Value::Str(format!("{:016x}", t.traced.digest())),
        )
        .set("spans", Value::U64(spans.len() as u64))
        .set("metrics", metrics_json(&t.metrics, true));
    RunResult {
        correct: t.problems.is_empty(),
        attempted: t.untraced.attempted,
        failed: t.untraced.failed,
        metrics: t.metrics,
        problems: t.problems,
        lines,
        raw,
        spans: span_text,
    }
}
