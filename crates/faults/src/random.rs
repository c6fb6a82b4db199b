//! Random bit-error channels implementing the paper's spatial error model.
//!
//! Section 4 of the paper models disturbances with two parameters
//! (following Charzinski):
//!
//! * `ber` — the probability that *some* error occurs on the network during
//!   a bit time;
//! * `p_eff = 1/N` — the probability that an error occurring somewhere is
//!   effective at (i.e. corrupts the view of) a particular node.
//!
//! Combining them gives `ber* = ber / N` (Eq. 3): the per-bit probability
//! that a given node's view is corrupted. Two channel models are provided:
//!
//! * [`IndependentBitErrors`] — every `(bit, node)` view flips independently
//!   with probability `ber*`. This is the product-form model the paper's
//!   Eq. 4 and Eq. 5 assume.
//! * [`GlobalEventErrors`] — per bit, one global error event occurs with
//!   probability `ber`, and each node is then affected independently with
//!   probability `p_eff`. This is Charzinski's original two-stage model.
//!
//! For `p_eff = 1/N` the two models have identical per-node marginals but
//! different inter-node correlation; the `montecarlo` reproduction target
//! compares them (DESIGN.md ablation ▸).

use majorcan_sim::{ChannelModel, Level, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent per-view bit errors at rate `ber*` (Eq. 3).
///
/// # Examples
///
/// ```
/// use majorcan_faults::IndependentBitErrors;
/// use majorcan_sim::{ChannelModel, Level, NodeId};
///
/// let mut ch = IndependentBitErrors::new(0.5, 7);
/// let mut flips = 0;
/// for bit in 0..1000 {
///     if ch.disturb(bit, NodeId(0), &(), Level::Recessive) {
///         flips += 1;
///     }
/// }
/// assert!((300..700).contains(&flips), "≈ half the views flip");
/// ```
#[derive(Debug, Clone)]
pub struct IndependentBitErrors {
    ber_star: f64,
    rng: StdRng,
}

impl IndependentBitErrors {
    /// Creates a channel flipping each node's view of each bit with
    /// probability `ber_star`, deterministically seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= ber_star <= 1.0`.
    pub fn new(ber_star: f64, seed: u64) -> IndependentBitErrors {
        assert!(
            (0.0..=1.0).contains(&ber_star),
            "ber* must be a probability, got {ber_star}"
        );
        IndependentBitErrors {
            ber_star,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The per-view error probability.
    pub fn ber_star(&self) -> f64 {
        self.ber_star
    }
}

impl<Tag> ChannelModel<Tag> for IndependentBitErrors {
    fn disturb(&mut self, _bit: u64, _node: NodeId, _tag: &Tag, _wire: Level) -> bool {
        self.rng.gen_bool(self.ber_star)
    }
}

/// Charzinski's two-stage model: a global error event with probability
/// `ber` per bit, affecting each node independently with probability
/// `p_eff`.
#[derive(Debug, Clone)]
pub struct GlobalEventErrors {
    ber: f64,
    p_eff: f64,
    rng: StdRng,
    current_bit: Option<u64>,
    event_active: bool,
}

impl GlobalEventErrors {
    /// Creates the two-stage channel.
    ///
    /// # Panics
    ///
    /// Panics unless both `ber` and `p_eff` are probabilities.
    pub fn new(ber: f64, p_eff: f64, seed: u64) -> GlobalEventErrors {
        assert!((0.0..=1.0).contains(&ber), "ber must be a probability");
        assert!((0.0..=1.0).contains(&p_eff), "p_eff must be a probability");
        GlobalEventErrors {
            ber,
            p_eff,
            rng: StdRng::seed_from_u64(seed),
            current_bit: None,
            event_active: false,
        }
    }

    /// The paper's choice `p_eff = 1/N` for an `n`-node network.
    pub fn with_uniform_spread(ber: f64, n: usize, seed: u64) -> GlobalEventErrors {
        GlobalEventErrors::new(ber, 1.0 / n as f64, seed)
    }

    /// The global per-bit error probability.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// The per-node effectivity.
    pub fn p_eff(&self) -> f64 {
        self.p_eff
    }
}

impl<Tag> ChannelModel<Tag> for GlobalEventErrors {
    fn disturb(&mut self, bit: u64, _node: NodeId, _tag: &Tag, _wire: Level) -> bool {
        if self.current_bit != Some(bit) {
            self.current_bit = Some(bit);
            self.event_active = self.rng.gen_bool(self.ber);
        }
        self.event_active && self.rng.gen_bool(self.p_eff)
    }
}

/// Periodic error bursts: every `period` bits the bus enters a burst of
/// `len` bits during which views flip independently at rate `ber_star`;
/// outside bursts the bus is clean.
///
/// This is the in-stream impairment model of the soak experiments: real
/// EMI hits a bus in clustered episodes (switching transients, ignition
/// pulses), and it is exactly the clustered shape that walks TEC/REC
/// toward error-passive while traffic keeps flowing.
#[derive(Debug, Clone)]
pub struct BurstErrors {
    period: u64,
    len: u64,
    inner: IndependentBitErrors,
}

impl BurstErrors {
    /// Creates a burst channel with bursts of `len` bits every `period`
    /// bits, flipping views inside a burst at rate `ber_star`.
    ///
    /// # Panics
    ///
    /// Panics if `len > period`, `period == 0`, or `ber_star` is not a
    /// probability.
    pub fn new(period: u64, len: u64, ber_star: f64, seed: u64) -> BurstErrors {
        assert!(period > 0, "burst period must be positive");
        assert!(len <= period, "burst length cannot exceed the period");
        BurstErrors {
            period,
            len,
            inner: IndependentBitErrors::new(ber_star, seed),
        }
    }

    /// The burst repetition period in bits.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The burst length in bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no bits are ever disturbed.
    pub fn is_empty(&self) -> bool {
        self.len == 0 || self.inner.ber_star() == 0.0
    }

    /// `true` while `bit` falls inside a burst.
    pub fn in_burst(&self, bit: u64) -> bool {
        bit % self.period < self.len
    }
}

impl<Tag> ChannelModel<Tag> for BurstErrors {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &Tag, wire: Level) -> bool {
        // The rng is only consulted inside bursts, so the stream stays
        // deterministic regardless of how much clean time passes between.
        self.in_burst(bit) && self.inner.disturb(bit, node, tag, wire)
    }

    fn quiet_until(&self, now: u64) -> u64 {
        // Outside a burst neither the verdict nor the rng stream depends
        // on the skipped bits, so the stretch up to the next burst start
        // is leapable; inside one, no promise.
        if self.is_empty() {
            u64::MAX
        } else if self.in_burst(now) {
            now
        } else {
            (now - now % self.period) + self.period
        }
    }

    fn clean_until(&self, now: u64) -> u64 {
        // The promise above never looks at a tag or a node, so it holds
        // whatever the nodes are doing.
        ChannelModel::<Tag>::quiet_until(self, now)
    }
}

/// Composes two channel models: a view is flipped iff **exactly one** of the
/// two would flip it (two simultaneous physical disturbances of the same
/// sample cancel).
#[derive(Debug, Clone)]
pub struct Compose<A, B> {
    first: A,
    second: B,
}

impl<A, B> Compose<A, B> {
    /// Combines `first` and `second`.
    pub fn new(first: A, second: B) -> Compose<A, B> {
        Compose { first, second }
    }

    /// The first combined model.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second combined model.
    pub fn second(&self) -> &B {
        &self.second
    }
}

impl<Tag, A: ChannelModel<Tag>, B: ChannelModel<Tag>> ChannelModel<Tag> for Compose<A, B> {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &Tag, wire: Level) -> bool {
        // Both models must be consulted every bit so stateful models stay
        // in sync with bit time.
        let a = self.first.disturb(bit, node, tag, wire);
        let b = self.second.disturb(bit, node, tag, wire);
        a ^ b
    }

    fn quiet_until(&self, now: u64) -> u64 {
        // A skipped bit skips both inner calls, so the promise holds only
        // while both models make it.
        self.first
            .quiet_until(now)
            .min(self.second.quiet_until(now))
    }

    fn clean_until(&self, now: u64) -> u64 {
        self.first
            .clean_until(now)
            .min(self.second.clean_until(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip_rate<C: ChannelModel<()>>(ch: &mut C, nodes: usize, bits: u64) -> f64 {
        let mut flips = 0u64;
        for bit in 0..bits {
            for n in 0..nodes {
                if ch.disturb(bit, NodeId(n), &(), Level::Recessive) {
                    flips += 1;
                }
            }
        }
        flips as f64 / (bits * nodes as u64) as f64
    }

    #[test]
    fn independent_rate_matches_ber_star() {
        let mut ch = IndependentBitErrors::new(0.01, 42);
        let rate = flip_rate(&mut ch, 8, 50_000);
        assert!((rate - 0.01).abs() < 0.001, "rate={rate}");
    }

    #[test]
    fn independent_zero_and_one() {
        let mut zero = IndependentBitErrors::new(0.0, 1);
        assert_eq!(flip_rate(&mut zero, 4, 1000), 0.0);
        let mut one = IndependentBitErrors::new(1.0, 1);
        assert_eq!(flip_rate(&mut one, 4, 1000), 1.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn independent_rejects_bad_rate() {
        IndependentBitErrors::new(1.5, 0);
    }

    #[test]
    fn global_event_marginal_is_ber_times_peff() {
        // Marginal flip probability = ber × p_eff = ber* (Eq. 2).
        let n = 4;
        let ber = 0.08;
        let mut ch = GlobalEventErrors::with_uniform_spread(ber, n, 7);
        let rate = flip_rate(&mut ch, n, 100_000);
        let expected = ber / n as f64;
        assert!(
            (rate - expected).abs() < 0.002,
            "rate={rate} expected≈{expected}"
        );
    }

    #[test]
    fn global_event_correlates_within_a_bit() {
        // With p_eff = 1, every node is hit whenever the event fires: the
        // per-bit outcomes across nodes must be perfectly correlated.
        let mut ch = GlobalEventErrors::new(0.3, 1.0, 3);
        for bit in 0..2000 {
            let a = ch.disturb(bit, NodeId(0), &(), Level::Recessive);
            let b = ch.disturb(bit, NodeId(1), &(), Level::Recessive);
            assert_eq!(a, b, "bit {bit}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = IndependentBitErrors::new(0.1, 99);
        let mut b = IndependentBitErrors::new(0.1, 99);
        for bit in 0..1000 {
            assert_eq!(
                a.disturb(bit, NodeId(0), &(), Level::Recessive),
                b.disturb(bit, NodeId(0), &(), Level::Recessive)
            );
        }
    }

    #[test]
    fn bursts_confined_to_burst_windows() {
        let mut ch = BurstErrors::new(100, 10, 1.0, 5);
        for bit in 0..1000 {
            let hit = ch.disturb(bit, NodeId(0), &(), Level::Recessive);
            assert_eq!(hit, bit % 100 < 10, "bit {bit}");
        }
    }

    #[test]
    fn bursts_deterministic_and_rate_scaled() {
        let mut a = BurstErrors::new(50, 5, 0.3, 9);
        let mut b = BurstErrors::new(50, 5, 0.3, 9);
        let mut hits = 0u64;
        for bit in 0..100_000 {
            let x = a.disturb(bit, NodeId(0), &(), Level::Recessive);
            assert_eq!(x, b.disturb(bit, NodeId(0), &(), Level::Recessive));
            hits += x as u64;
        }
        // Expected rate = (len/period) · ber = 0.1 · 0.3 = 0.03.
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.03).abs() < 0.005, "rate={rate}");
        assert!(!a.is_empty());
        assert!(BurstErrors::new(50, 0, 0.3, 9).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed the period")]
    fn bursts_reject_len_over_period() {
        BurstErrors::new(10, 11, 0.1, 0);
    }

    #[test]
    fn compose_xors_flips() {
        let always = IndependentBitErrors::new(1.0, 0);
        let never = IndependentBitErrors::new(0.0, 0);
        let mut both = Compose::new(
            IndependentBitErrors::new(1.0, 1),
            IndependentBitErrors::new(1.0, 2),
        );
        let mut one = Compose::new(always, never);
        assert_eq!(flip_rate(&mut both, 2, 100), 0.0, "two flips cancel");
        assert_eq!(flip_rate(&mut one, 2, 100), 1.0);
    }
}
