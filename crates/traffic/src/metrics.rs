//! Constant-memory measurement of a sustained run: latency/jitter
//! histograms and error-regime residency, all integer-valued so campaign
//! artifacts stay bit-identical across worker counts and platforms.

use majorcan_abcast::{msg_id_of, MsgId};
use majorcan_can::CanEvent;
use majorcan_sim::TimedEvent;
use std::collections::BTreeMap;

/// Buckets: exact below 16, then 16 log-linear sub-buckets per octave
/// (≈6 % relative resolution) up to `2^63`.
const EXACT: usize = 16;
const SUBS: usize = 16;
const N_BUCKETS: usize = EXACT + (64 - 4) * SUBS;

/// A fixed-size log-linear histogram of `u64` samples.
///
/// Quantiles are reported as the upper bound of the covering bucket, so
/// they are deterministic integers; the mean is exact (sums in `u128`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (octave - 4)) & 0xF) as usize;
    EXACT + (octave - 4) * SUBS + sub
}

fn upper_bound(bucket: usize) -> u64 {
    if bucket < EXACT {
        return bucket as u64;
    }
    let octave = 4 + (bucket - EXACT) / SUBS;
    let sub = ((bucket - EXACT) % SUBS) as u64;
    let width = 1u64 << (octave - 4);
    (1u64 << octave) + (sub + 1) * width - 1
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; N_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean scaled by 1000 (integer, deterministic).
    pub fn mean_milli(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        (self.sum * 1000 / self.total as u128) as u64
    }

    /// The `p`-per-mille quantile (`500` = median, `990` = p99), as the
    /// upper bound of the covering bucket.
    pub fn quantile_permille(&self, p: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (self.total * p).div_ceil(1000).max(1);
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// Streams per-message latency out of the raw event log.
///
/// Release times are held in a window-pruned map (the same O(live
/// messages) bound as the checker); deliveries landing after their
/// release record was pruned are counted in [`unmatched`] rather than
/// silently mis-measured.
///
/// [`unmatched`]: LatencyTracker::unmatched
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    window: u64,
    pending: BTreeMap<MsgId, u64>,
    next_sweep: u64,
    peak_pending: usize,
    unmatched: u64,
    /// Release → `Delivered` at each receiver.
    pub delivery: Histogram,
    /// Release → `TxSucceeded` at the transmitter (commit latency,
    /// including queueing, arbitration losses and retransmissions).
    pub commit: Histogram,
}

impl LatencyTracker {
    /// A tracker pruning release records `2·window` bits after release.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> LatencyTracker {
        assert!(window > 0, "window must be positive");
        LatencyTracker {
            window,
            pending: BTreeMap::new(),
            next_sweep: window,
            peak_pending: 0,
            unmatched: 0,
            delivery: Histogram::new(),
            commit: Histogram::new(),
        }
    }

    /// Notes a frame release (call once per queued frame).
    pub fn note_release(&mut self, at: u64, msg: MsgId) {
        self.pending.insert(msg, at);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Feeds one controller event.
    pub fn observe(&mut self, e: &TimedEvent<CanEvent>) {
        match &e.event {
            CanEvent::Delivered { frame, .. } => match self.pending.get(&msg_id_of(frame)) {
                Some(&rel) => self.delivery.record(e.at.saturating_sub(rel)),
                None => self.unmatched += 1,
            },
            CanEvent::TxSucceeded { frame, .. } => match self.pending.get(&msg_id_of(frame)) {
                Some(&rel) => self.commit.record(e.at.saturating_sub(rel)),
                None => self.unmatched += 1,
            },
            _ => {}
        }
        if e.at >= self.next_sweep {
            let horizon = e.at.saturating_sub(2 * self.window);
            self.pending.retain(|_, &mut rel| rel >= horizon);
            self.next_sweep = e.at + (self.window / 4).max(1);
        }
    }

    /// Deliveries whose release record was already pruned (0 when the
    /// window covers every message lifetime).
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// High-water mark of tracked in-flight messages.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }
}

/// A node's fault-confinement regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    Active,
    Passive,
    BusOff,
    Crashed,
}

/// Bits spent per error regime plus transition counts, summed over nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Residency {
    /// Bits of error-active residency.
    pub active_bits: u64,
    /// Bits of error-passive residency.
    pub passive_bits: u64,
    /// Bits of bus-off residency.
    pub busoff_bits: u64,
    /// `ErrorWarning` events (TEC/REC reached 96).
    pub warnings: u64,
    /// Entries into the error-passive state.
    pub passive_entries: u64,
    /// Bus-off events.
    pub bus_offs: u64,
    /// Crashes (injected or warning-shutoff).
    pub crashes: u64,
}

/// Accumulates [`Residency`] from the event stream.
#[derive(Debug, Clone)]
pub struct ResidencyTracker {
    nodes: Vec<(Regime, u64)>,
    totals: Residency,
}

impl ResidencyTracker {
    /// All nodes start error-active at bit 0.
    pub fn new(n_nodes: usize) -> ResidencyTracker {
        ResidencyTracker {
            nodes: vec![(Regime::Active, 0); n_nodes],
            totals: Residency::default(),
        }
    }

    fn transition(&mut self, node: usize, at: u64, to: Regime) {
        let (regime, since) = self.nodes[node];
        let span = at.saturating_sub(since);
        match regime {
            Regime::Active => self.totals.active_bits += span,
            Regime::Passive => self.totals.passive_bits += span,
            Regime::BusOff => self.totals.busoff_bits += span,
            Regime::Crashed => return, // crashed nodes are off the books
        }
        self.nodes[node] = (to, at);
    }

    /// Feeds one controller event.
    pub fn observe(&mut self, e: &TimedEvent<CanEvent>) {
        let node = e.node.index();
        match e.event {
            CanEvent::ErrorWarning => self.totals.warnings += 1,
            CanEvent::EnteredErrorPassive => {
                self.totals.passive_entries += 1;
                self.transition(node, e.at, Regime::Passive);
            }
            CanEvent::ReturnedErrorActive => self.transition(node, e.at, Regime::Active),
            CanEvent::WentBusOff => {
                self.totals.bus_offs += 1;
                self.transition(node, e.at, Regime::BusOff);
            }
            CanEvent::Crashed => {
                self.totals.crashes += 1;
                self.transition(node, e.at, Regime::Crashed);
            }
            _ => {}
        }
    }

    /// Closes every open span at `end` and returns the totals.
    pub fn finish(mut self, end: u64) -> Residency {
        for node in 0..self.nodes.len() {
            self.transition(node, end, Regime::Crashed);
        }
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_can::{DecisionBasis, Frame, FrameId};
    use majorcan_sim::NodeId;

    #[test]
    fn histogram_buckets_cover_and_order() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 15, 16, 100, 1_000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert!(h.quantile_permille(500) >= 15);
        assert!(h.quantile_permille(500) <= 16);
        assert_eq!(h.quantile_permille(1000), 1_000_000);
        // Bucket upper bounds are within ~6.25 % of the sample.
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let q = h.quantile_permille(900);
        assert!((1_000..1_070).contains(&q), "p90={q}");
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(31);
        assert_eq!(h.mean_milli(), 20_333);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX >> 1]) {
            let b = bucket_of(v);
            assert!(upper_bound(b) >= v, "v={v} bucket={b}");
            if b > 0 {
                assert!(upper_bound(b - 1) < v || b < EXACT, "v={v} bucket={b}");
            }
        }
    }

    #[test]
    fn latency_tracker_measures_and_prunes() {
        let f = Frame::new(FrameId::new(0x123).unwrap(), &[1, 2]).unwrap();
        let mut t = LatencyTracker::new(1_000);
        t.note_release(100, msg_id_of(&f));
        t.observe(&TimedEvent {
            at: 350,
            node: NodeId(1),
            event: CanEvent::Delivered {
                frame: f.clone(),
                basis: DecisionBasis::CleanEof,
            },
        });
        assert_eq!(t.delivery.total(), 1);
        assert_eq!(t.delivery.max(), 250);
        // Long after 2·window the record is pruned; a late delivery is
        // counted as unmatched, not mis-measured.
        t.observe(&TimedEvent {
            at: 10_000,
            node: NodeId(2),
            event: CanEvent::Delivered {
                frame: f.clone(),
                basis: DecisionBasis::CleanEof,
            },
        });
        t.observe(&TimedEvent {
            at: 10_001,
            node: NodeId(2),
            event: CanEvent::Delivered {
                frame: f,
                basis: DecisionBasis::CleanEof,
            },
        });
        assert_eq!(t.unmatched(), 1, "first late event sweeps, second misses");
    }

    #[test]
    fn residency_splits_regimes_at_transitions() {
        let mut r = ResidencyTracker::new(2);
        let ev = |at, node, event| TimedEvent {
            at,
            node: NodeId(node),
            event,
        };
        r.observe(&ev(100, 0, CanEvent::ErrorWarning));
        r.observe(&ev(100, 0, CanEvent::EnteredErrorPassive));
        r.observe(&ev(400, 0, CanEvent::ReturnedErrorActive));
        r.observe(&ev(600, 1, CanEvent::WentBusOff));
        let totals = r.finish(1_000);
        // Node 0: active [0,100)+[400,1000), passive [100,400).
        // Node 1: active [0,600), bus-off [600,1000).
        assert_eq!(
            totals,
            Residency {
                active_bits: 100 + 600 + 600,
                passive_bits: 300,
                busoff_bits: 400,
                warnings: 1,
                passive_entries: 1,
                bus_offs: 1,
                crashes: 0,
            }
        );
    }
}
