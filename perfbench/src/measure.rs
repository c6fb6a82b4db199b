//! Host-side measurement: process CPU time, peak memory, `/proc`
//! diagnostics and the order statistics every metric is reported with.

use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and calls clock_gettime: 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time consumed so far by every thread of this
/// process, finished threads included, at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields in C order on 64-bit Linux, enforced by the compile_error
    // above), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set of this process in MiB (`VmHWM`). Every benchmark
/// process runs exactly one workload, so this is that run's own peak.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Host-wide steal time so far (`/proc/stat`, in `USER_HZ` = 100 Hz ticks),
/// as seconds.
fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Run-queue wait so far of the calling thread (`/proc/thread-self/schedstat`,
/// second field, ns), as seconds.
fn runq_wait_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// What one repetition cost the host, for explaining a noisy pair after
/// the fact.
#[derive(Debug, Clone, Copy)]
pub struct Diag {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds over all threads.
    pub cpu_s: f64,
    /// Host-wide steal seconds (all CPUs) during the repetition.
    pub steal_s: f64,
    /// Seconds the driving thread spent runnable but waiting for a CPU.
    pub runq_wait_s: f64,
}

/// Starts a [`Diag`] measurement.
pub struct DiagClock {
    wall: Instant,
    cpu: Duration,
    steal: f64,
    wait: f64,
}

impl DiagClock {
    /// Reads every clock now.
    pub fn start() -> DiagClock {
        DiagClock {
            wall: Instant::now(),
            cpu: process_cpu(),
            steal: steal_s(),
            wait: runq_wait_s(),
        }
    }

    /// The cost since [`DiagClock::start`].
    pub fn stop(&self) -> Diag {
        Diag {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: (process_cpu() - self.cpu).as_secs_f64(),
            steal_s: steal_s() - self.steal,
            runq_wait_s: runq_wait_s() - self.wait,
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What timing a span costs, calibrated on this host.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// What an empty span reads, ns: subtracted from every sampled
    /// reading.
    pub floor_ns: f64,
    /// What one timed span adds to the wall time around it, ns:
    /// subtracted from enclosing timings.
    pub cost_ns: f64,
}

/// Calibrates [`SpanCost`]: medians over batches of back-to-back empty
/// spans (`Instant::now` then `elapsed`).
pub fn span_cost() -> SpanCost {
    let mut floors = Vec::new();
    let mut costs = Vec::new();
    for _ in 0..31 {
        let mut read = Duration::ZERO;
        let t0 = Instant::now();
        for _ in 0..1000 {
            let t = Instant::now();
            read += std::hint::black_box(t).elapsed();
        }
        costs.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        floors.push(std::hint::black_box(read).as_nanos() as f64 / 1000.0);
    }
    SpanCost {
        floor_ns: median(&floors),
        cost_ns: median(&costs),
    }
}

/// A fixed CPU workload that no change to the repository can speed up
/// or slow down: bit-serial CAN CRC-15 and bit stuffing over a xorshift
/// bit stream, plus a walk over a 32 KiB table — the kind of branchy,
/// cache-resident bit work the simulator does. Returns the CPU seconds it
/// took, which tracks how fast the host runs at that moment.
pub fn host_speed_probe() -> f64 {
    let mut table = [0u32; 8192];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u32).wrapping_mul(0x9E37_79B9);
    }
    let t0 = process_cpu();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let (mut crc, mut run, mut last, mut stuffed, mut acc) = (0u16, 0u32, 0u64, 0u64, 0u32);
    for _ in 0..40_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for b in 0..64 {
            let bit = (x >> b) & 1;
            if (bit as u16) ^ ((crc >> 14) & 1) != 0 {
                crc = ((crc << 1) & 0x7FFF) ^ 0x4599;
            } else {
                crc = (crc << 1) & 0x7FFF;
            }
            if bit == last {
                run += 1;
                if run == 5 {
                    stuffed += 1;
                    run = 0;
                }
            } else {
                run = 1;
                last = bit;
            }
            let slot = &mut table[(acc as usize ^ crc as usize) & 8191];
            *slot = slot.wrapping_add(bit as u32 + 1);
            acc = acc.rotate_left(3) ^ *slot;
        }
    }
    std::hint::black_box((crc, stuffed, acc));
    (process_cpu() - t0).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > before, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
