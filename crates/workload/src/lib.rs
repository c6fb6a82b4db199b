//! # majorcan-workload — traffic generation for CAN simulations
//!
//! The paper's Table 1 assumes a bus at 90 % load moving 110-bit frames;
//! the throughput and stress experiments need that traffic reproduced. This
//! crate provides:
//!
//! * [`PeriodicSource`] / [`PoissonSource`] — per-node frame sources with
//!   unique `(origin, seq)` payload tagging;
//! * [`Workload`] — a schedule of sources releasing frames over simulated
//!   bit time;
//! * [`plan_periodic_load`] — source periods hitting a target bus load,
//!   matching the paper's reference configuration;
//! * [`drive_source`] — the driver stepping any simulator of
//!   [`FrameSink`] nodes while feeding released frames to their queues
//!   (a [`Workload`] or any other [`ReleaseSource`], which lets soak
//!   generators stream releases lazily);
//! * [`BusStats`] — throughput/occupation statistics from event logs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stats;

pub use stats::BusStats;

use majorcan_can::{Controller, Frame, FrameId, Variant};
use majorcan_sim::{BitNode, ChannelModel, NodeId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Anything that can accept frames for transmission — implemented for the
/// CAN controller so workload drivers stay generic over protocol variants.
pub trait FrameSink {
    /// Queues `frame` for transmission.
    fn enqueue_frame(&mut self, frame: Frame);
}

impl<V: Variant> FrameSink for Controller<V> {
    fn enqueue_frame(&mut self, frame: Frame) {
        self.enqueue(frame);
    }
}

/// A release of one frame by one node at one bit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Release {
    /// Release bit time.
    pub at: u64,
    /// Releasing node.
    pub node: usize,
    /// The frame to queue.
    pub frame: Frame,
}

/// Builds the unique payload tag `(origin, seq)` used so every released
/// frame is a distinct broadcast message to the checker.
pub fn tagged_payload(origin: usize, seq: u32, extra_len: usize) -> Vec<u8> {
    let mut payload = vec![origin as u8];
    payload.extend_from_slice(&seq.to_be_bytes()[1..]); // 24-bit seq
    payload.extend(std::iter::repeat_n(0xA5, extra_len.min(4)));
    payload
}

/// A strictly periodic frame source.
#[derive(Debug, Clone)]
pub struct PeriodicSource {
    /// Emitting node index.
    pub node: usize,
    /// Frame identifier used by this source.
    pub id: FrameId,
    /// Release period in bit times.
    pub period: u64,
    /// First release time.
    pub phase: u64,
    /// Extra payload bytes beyond the 4-byte tag (0–4).
    pub extra_len: usize,
}

impl PeriodicSource {
    /// Releases within `[0, horizon)`.
    pub fn releases(&self, horizon: u64) -> Vec<Release> {
        let mut out = Vec::new();
        let mut at = self.phase;
        let mut seq = 0u32;
        while at < horizon {
            out.push(Release {
                at,
                node: self.node,
                frame: Frame::new(self.id, &tagged_payload(self.node, seq, self.extra_len))
                    .expect("workload frames are valid"),
            });
            seq += 1;
            at += self.period;
        }
        out
    }
}

/// A Poisson frame source with exponential inter-release times.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    /// Emitting node index.
    pub node: usize,
    /// Frame identifier used by this source.
    pub id: FrameId,
    /// Mean inter-release gap in bit times.
    pub mean_gap: f64,
    /// RNG seed (per-source, so workloads are reproducible).
    pub seed: u64,
    /// Extra payload bytes beyond the 4-byte tag (0–4).
    pub extra_len: usize,
}

impl PoissonSource {
    /// Releases within `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is not positive.
    pub fn releases(&self, horizon: u64) -> Vec<Release> {
        assert!(self.mean_gap > 0.0, "mean gap must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        let mut at = 0f64;
        let mut seq = 0u32;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            at += -u.ln() * self.mean_gap;
            if at >= horizon as f64 {
                break;
            }
            out.push(Release {
                at: at as u64,
                node: self.node,
                frame: Frame::new(self.id, &tagged_payload(self.node, seq, self.extra_len))
                    .expect("workload frames are valid"),
            });
            seq += 1;
        }
        out
    }
}

/// A stream of frame releases consumed in time order.
///
/// [`Workload`] implements this over a pre-computed, sorted vector; the
/// soak traffic generator implements it by *generating* releases lazily so
/// million-frame runs never materialize their schedule.
pub trait ReleaseSource {
    /// Release time of the next pending release, if any. Must be
    /// non-decreasing across calls.
    fn next_at(&self) -> Option<u64>;

    /// Pops the release [`next_at`](Self::next_at) announced.
    fn pop(&mut self) -> Option<Release>;
}

/// A complete traffic schedule: the time-sorted union of all sources.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    releases: Vec<Release>,
    cursor: usize,
}

impl Workload {
    /// Builds a workload from pre-computed releases (sorted internally).
    pub fn new(mut releases: Vec<Release>) -> Workload {
        releases.sort_by_key(|r| r.at);
        Workload {
            releases,
            cursor: 0,
        }
    }

    /// Builds the merged schedule of `sources` over `[0, horizon)` — the
    /// common "every node streams periodically" setup in one call.
    pub fn from_periodic(sources: &[PeriodicSource], horizon: u64) -> Workload {
        Workload::new(sources.iter().flat_map(|s| s.releases(horizon)).collect())
    }

    /// Total number of releases.
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// `true` when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }

    /// All releases (for inspection).
    pub fn releases(&self) -> &[Release] {
        &self.releases
    }
}

impl ReleaseSource for Workload {
    fn next_at(&self) -> Option<u64> {
        self.releases.get(self.cursor).map(|r| r.at)
    }

    fn pop(&mut self) -> Option<Release> {
        let release = self.releases.get(self.cursor).cloned();
        if release.is_some() {
            self.cursor += 1;
        }
        release
    }
}

impl FromIterator<Release> for Workload {
    fn from_iter<T: IntoIterator<Item = Release>>(iter: T) -> Self {
        Workload::new(iter.into_iter().collect())
    }
}

/// Computes periodic sources for `n_nodes` nodes jointly producing
/// `load` (0–1) of the bus bandwidth with frames of `frame_bits` on-wire
/// bits. Each node gets one source with a distinct identifier and a
/// staggered phase; the paper's reference point is
/// `plan_periodic_load(32, 0.9, 110)`.
///
/// # Panics
///
/// Panics if `load` is not in `(0, 1]` or no nodes are given.
pub fn plan_periodic_load(n_nodes: usize, load: f64, frame_bits: usize) -> Vec<PeriodicSource> {
    assert!(n_nodes > 0, "need at least one node");
    assert!(load > 0.0 && load <= 1.0, "load must be in (0,1]");
    // Each node sends every `period` bits; total load = n · frame / period.
    let period = (n_nodes as f64 * frame_bits as f64 / load).ceil() as u64;
    (0..n_nodes)
        .map(|node| PeriodicSource {
            node,
            id: FrameId::new(0x100 + node as u16).expect("id in range"),
            period,
            phase: 20 + (node as u64 * period) / n_nodes as u64,
            extra_len: 4,
        })
        .collect()
}

/// Steps `sim` for `horizon` bits, queueing every due release of any
/// [`ReleaseSource`] on its node. Returns the number of frames queued.
///
/// Two leaps keep this cheap, and both are bit-identical to stepping:
/// state, events and timestamps are unchanged.
///
/// - At every bit a frame could start, [`Simulator::leap_frame`] tries to
///   carry the whole bus across the next frame in one call (every node
///   idle and error-active, the channel promising a clean frame). The
///   releases that fell due inside a leapt frame are queued right after
///   it, in release order: nothing a release changes is visible before
///   the bus is idle again.
/// - Otherwise, a drained bus runs through [`Simulator::run`] up to the
///   next release, leaping quiet stretches (see
///   [`Simulator::quiet_horizon`]); a busy one steps a bit.
///
/// So clean traffic costs time per frame, disturbed traffic per busy bit,
/// and neither costs anything per idle bit. No leap crosses `horizon`.
pub fn drive_source<N, C, S>(sim: &mut Simulator<N, C>, source: &mut S, horizon: u64) -> usize
where
    N: BitNode + FrameSink,
    C: ChannelModel<N::Tag>,
    S: ReleaseSource + ?Sized,
{
    let mut queued = 0;
    let end = sim.now() + horizon;
    while sim.now() < end {
        let now = sim.now();
        queued += queue_due(sim, source, now + 1);
        if sim.leap_frame(end) {
            queued += queue_due(sim, source, sim.now());
            continue;
        }
        if sim.quiet_horizon() > now {
            // A quiet bus has nothing queued: no frame starts before the
            // next release.
            let next_release = source.next_at().unwrap_or(u64::MAX).min(end);
            sim.run(next_release - now);
        } else {
            sim.step();
        }
    }
    queued
}

/// Queues every release of `source` due before bit `before`, in release
/// order. Returns how many it queued.
fn queue_due<N, C, S>(sim: &mut Simulator<N, C>, source: &mut S, before: u64) -> usize
where
    N: BitNode + FrameSink,
    C: ChannelModel<N::Tag>,
    S: ReleaseSource + ?Sized,
{
    let mut queued = 0;
    while source.next_at().is_some_and(|at| at < before) {
        let release = source.pop().expect("next_at announced a release");
        sim.node_mut(NodeId(release.node))
            .enqueue_frame(release.frame);
        queued += 1;
    }
    queued
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_can::{CanEvent, StandardCan};
    use majorcan_sim::NoFaults;

    #[test]
    fn periodic_release_times() {
        let src = PeriodicSource {
            node: 1,
            id: FrameId::new(0x10).unwrap(),
            period: 100,
            phase: 5,
            extra_len: 0,
        };
        let rel = src.releases(350);
        let times: Vec<u64> = rel.iter().map(|r| r.at).collect();
        assert_eq!(times, vec![5, 105, 205, 305]);
        let payloads: std::collections::BTreeSet<_> =
            rel.iter().map(|r| r.frame.data().to_vec()).collect();
        assert_eq!(payloads.len(), 4, "sequence numbers make payloads unique");
    }

    #[test]
    fn poisson_mean_gap_roughly_respected() {
        let src = PoissonSource {
            node: 0,
            id: FrameId::new(0x20).unwrap(),
            mean_gap: 500.0,
            seed: 11,
            extra_len: 0,
        };
        let rel = src.releases(2_000_000);
        let n = rel.len() as f64;
        let expected = 2_000_000.0 / 500.0;
        assert!((n - expected).abs() < expected * 0.1, "n={n}");
    }

    #[test]
    fn workload_is_a_release_source() {
        let src = PeriodicSource {
            node: 0,
            id: FrameId::new(0x10).unwrap(),
            period: 10,
            phase: 3,
            extra_len: 0,
        };
        let mut w: Workload = src.releases(30).into_iter().collect();
        assert_eq!(w.next_at(), Some(3));
        let first = w.pop().expect("three releases");
        assert_eq!(first.at, 3);
        assert_eq!(w.next_at(), Some(13));
        assert_eq!(w.pop().map(|r| r.at), Some(13));
        assert_eq!(w.next_at(), Some(23));
        assert_eq!(w.pop().map(|r| r.at), Some(23));
        assert_eq!(w.next_at(), None);
        assert!(w.pop().is_none());
    }

    #[test]
    fn plan_hits_target_load() {
        let sources = plan_periodic_load(32, 0.9, 110);
        assert_eq!(sources.len(), 32);
        let period = sources[0].period as f64;
        let achieved = 32.0 * 110.0 / period;
        assert!((achieved - 0.9).abs() < 0.01, "load={achieved}");
        let ids: std::collections::BTreeSet<_> = sources.iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids.len(), 32, "distinct identifiers per node");
    }

    #[test]
    fn drive_delivers_workload_over_real_bus() {
        let mut sim = Simulator::new(NoFaults);
        for _ in 0..3 {
            sim.attach(Controller::new(StandardCan));
        }
        let sources = plan_periodic_load(3, 0.5, 110);
        let mut releases = Vec::new();
        for s in &sources {
            releases.extend(s.releases(4000));
        }
        let mut w = Workload::new(releases);
        let queued = drive_source(&mut sim, &mut w, 6000);
        assert!(queued >= 3, "queued={queued}");
        let delivered = sim
            .events()
            .iter()
            .filter(|e| matches!(e.event, CanEvent::Delivered { .. }))
            .count();
        assert_eq!(
            delivered,
            queued * 2,
            "every queued frame reaches the other two nodes"
        );
    }

    #[test]
    #[should_panic(expected = "load must be in (0,1]")]
    fn plan_rejects_silly_load() {
        plan_periodic_load(4, 1.5, 110);
    }

    /// The pre-leap driver, kept verbatim as the reference: step every
    /// bit, queue due releases.
    fn drive_stepped<N, C, S>(sim: &mut Simulator<N, C>, source: &mut S, horizon: u64) -> usize
    where
        N: BitNode + FrameSink,
        C: ChannelModel<N::Tag>,
        S: ReleaseSource + ?Sized,
    {
        let mut queued = 0;
        let end = sim.now() + horizon;
        while sim.now() < end {
            let now = sim.now();
            while source.next_at().is_some_and(|at| at <= now) {
                let release = source.pop().expect("next_at announced a release");
                sim.node_mut(NodeId(release.node))
                    .enqueue_frame(release.frame);
                queued += 1;
            }
            sim.step();
        }
        queued
    }

    fn cluster<C: ChannelModel<majorcan_can::WirePos>>(
        channel: C,
    ) -> Simulator<Controller<StandardCan>, C> {
        let mut sim = Simulator::new(channel);
        for _ in 0..3 {
            sim.attach(Controller::new(StandardCan));
        }
        sim
    }

    /// The clean-stretch leap is bit-identical to stepping: a low-load
    /// workload (long idle gaps between frames) driven in soak-sized
    /// chunks produces the same events at the same timestamps either way.
    #[test]
    fn leap_fast_path_matches_bit_stepping() {
        let sources = plan_periodic_load(3, 0.08, 110);
        let mut releases = Vec::new();
        for s in &sources {
            releases.extend(s.releases(30_000));
        }
        let mut fast_w = Workload::new(releases.clone());
        let mut slow_w = Workload::new(releases);
        let mut fast = cluster(NoFaults);
        let mut slow = cluster(NoFaults);
        let (mut fq, mut sq) = (0, 0);
        for _ in 0..20 {
            fq += drive_source(&mut fast, &mut fast_w, 2_000);
            sq += drive_stepped(&mut slow, &mut slow_w, 2_000);
            assert_eq!(fast.now(), slow.now());
        }
        assert_eq!(fq, sq, "same releases queued");
        assert!(fq > 0, "the workload released frames");
        assert_eq!(fast.events(), slow.events(), "identical timed event logs");
        assert_eq!(
            fast.quiet_horizon(),
            u64::MAX,
            "the drained clean bus is leapable without bound"
        );
    }

    /// Same equivalence under a bursty channel: `quiet_until` bounds the
    /// leap at the next burst window, so disturbed bits (and the rng
    /// stream behind them) land exactly as in a stepped run.
    #[test]
    fn leap_respects_burst_windows() {
        use majorcan_faults::BurstErrors;
        let sources = plan_periodic_load(3, 0.1, 110);
        let mut releases = Vec::new();
        for s in &sources {
            releases.extend(s.releases(20_000));
        }
        let mut fast_w = Workload::new(releases.clone());
        let mut slow_w = Workload::new(releases);
        let mut fast = cluster(BurstErrors::new(1_700, 25, 0.4, 0xB5));
        let mut slow = cluster(BurstErrors::new(1_700, 25, 0.4, 0xB5));
        drive_source(&mut fast, &mut fast_w, 30_000);
        drive_stepped(&mut slow, &mut slow_w, 30_000);
        assert_eq!(fast.now(), slow.now());
        assert_eq!(fast.events(), slow.events(), "identical under bursts");
        assert!(
            fast.events()
                .iter()
                .any(|e| matches!(e.event, CanEvent::ErrorDetected { .. })),
            "the bursts actually disturbed traffic"
        );
    }

    /// Saturated traffic leaps frame by frame, but never while a trace
    /// records: a trace must hold every bit.
    #[test]
    fn frames_are_leapt_unless_a_trace_records() {
        let sources = plan_periodic_load(3, 0.9, 110);
        let releases: Vec<Release> = sources.iter().flat_map(|s| s.releases(4_000)).collect();
        let mut fast = cluster(NoFaults);
        drive_source(&mut fast, &mut Workload::new(releases.clone()), 4_000);
        let mut traced = cluster(NoFaults);
        traced.record_trace();
        drive_source(&mut traced, &mut Workload::new(releases), 4_000);
        assert_eq!(fast.events(), traced.events());
        assert_eq!(traced.trace().map(|t| t.len()), Some(4_000));
        let mut probe = cluster(NoFaults);
        probe
            .node_mut(NodeId(0))
            .enqueue(Frame::new(FrameId::new(0x10).unwrap(), &[1]).unwrap());
        probe.run(11); // integration
        assert!(
            probe.leap_frame(u64::MAX),
            "an idle bus with a frame queued leaps"
        );
        probe.record_trace();
        probe
            .node_mut(NodeId(0))
            .enqueue(Frame::new(FrameId::new(0x10).unwrap(), &[2]).unwrap());
        assert!(!probe.leap_frame(u64::MAX), "no leap while a trace records");
    }

    #[test]
    fn tagged_payload_structure() {
        let p = tagged_payload(7, 0x0203, 2);
        assert_eq!(p, vec![7, 0, 2, 3, 0xA5, 0xA5]);
        assert!(tagged_payload(1, 1, 10).len() <= 8);
    }
}
