//! The closed set of fault channels a [`Testbed`](crate::Testbed) run can
//! install.
//!
//! Every experiment path in the workspace uses one of a handful of channel
//! shapes; enumerating them here lets the testbed hold a single concrete
//! simulator type per protocol (no generics explosion, no boxing on the
//! per-bit hot path) while still swapping the fault model per run.

use majorcan_can::WirePos;
use majorcan_faults::{
    ActiveAfter, AttackAction, Attacker, BurstErrors, Disturbance, FieldFiltered,
    GlobalEventErrors, IndependentBitErrors, ScriptedFaults,
};
use majorcan_sim::{ChannelModel, Level, NodeId};

/// A fault channel for one testbed run.
///
/// The variants cover every channel composition the experiment binaries
/// use: a clean bus, a deterministic disturbance script, and the three
/// random models of the Monte-Carlo campaigns (always armed only after the
/// 11-bit bus-integration phase, matching the probability model's lack of a
/// start-up phase).
#[derive(Debug)]
pub enum BusChannel {
    /// Fault-free bus.
    NoFaults,
    /// Deterministic disturbance script (scenarios, falsifier schedules).
    Scripted(ScriptedFaults),
    /// Independent per-node-per-bit errors over the whole frame.
    IndepFull(ActiveAfter<IndependentBitErrors>),
    /// Independent errors confined to the EOF (the paper's model domain).
    IndepEof(ActiveAfter<FieldFiltered<IndependentBitErrors>>),
    /// Globally correlated error events confined to the EOF.
    GlobalEof(ActiveAfter<FieldFiltered<GlobalEventErrors>>),
    /// Periodic error bursts over the whole frame (the soak-traffic
    /// impairment model).
    Bursts(ActiveAfter<BurstErrors>),
    /// A budgeted adversary injecting dominant levels (attack campaigns
    /// and bus-off soak threading).
    Attack(Attacker),
}

/// Manual impl so same-variant `clone_from` reuses the destination's
/// backing storage: the batch peel restores the snapshotted script into
/// a live channel once per peeled schedule, and a derived `clone_from`
/// would reallocate the script's backing `Vec` every time.
impl Clone for BusChannel {
    fn clone(&self) -> Self {
        match self {
            BusChannel::NoFaults => BusChannel::NoFaults,
            BusChannel::Scripted(c) => BusChannel::Scripted(c.clone()),
            BusChannel::IndepFull(c) => BusChannel::IndepFull(c.clone()),
            BusChannel::IndepEof(c) => BusChannel::IndepEof(c.clone()),
            BusChannel::GlobalEof(c) => BusChannel::GlobalEof(c.clone()),
            BusChannel::Bursts(c) => BusChannel::Bursts(c.clone()),
            BusChannel::Attack(c) => BusChannel::Attack(c.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (BusChannel::Scripted(dst), BusChannel::Scripted(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl BusChannel {
    /// A scripted channel over `disturbances`.
    pub fn scripted(disturbances: Vec<Disturbance>) -> BusChannel {
        BusChannel::Scripted(ScriptedFaults::new(disturbances))
    }

    /// Independent bit errors at raw rate `ber_star`, armed after bus
    /// integration, over the whole frame.
    pub fn indep_full(ber_star: f64, seed: u64) -> BusChannel {
        BusChannel::IndepFull(ActiveAfter::new(
            11,
            IndependentBitErrors::new(ber_star, seed),
        ))
    }

    /// Independent bit errors confined to the EOF.
    pub fn indep_eof(ber_star: f64, seed: u64) -> BusChannel {
        BusChannel::IndepEof(ActiveAfter::new(
            11,
            FieldFiltered::eof_only(IndependentBitErrors::new(ber_star, seed)),
        ))
    }

    /// Globally correlated EOF error events at rate `ber` with the uniform
    /// node spread.
    pub fn global_eof(ber: f64, n_nodes: usize, seed: u64) -> BusChannel {
        BusChannel::GlobalEof(ActiveAfter::new(
            11,
            FieldFiltered::eof_only(GlobalEventErrors::with_uniform_spread(ber, n_nodes, seed)),
        ))
    }

    /// Periodic error bursts of `len` bits every `period` bits at
    /// per-view rate `ber_star`, armed after bus integration.
    pub fn bursts(period: u64, len: u64, ber_star: f64, seed: u64) -> BusChannel {
        BusChannel::Bursts(ActiveAfter::new(
            11,
            BurstErrors::new(period, len, ber_star, seed),
        ))
    }

    /// A budgeted attacker channel over `actions`.
    pub fn attack(actions: Vec<AttackAction>, budget: u64) -> BusChannel {
        BusChannel::Attack(Attacker::new(actions, budget))
    }

    /// The armed attacker, if this channel is an attack channel.
    pub fn attacker(&self) -> Option<&Attacker> {
        match self {
            BusChannel::Attack(a) => Some(a),
            _ => None,
        }
    }

    /// The scripted disturbances that have not fired, in script order
    /// (empty for non-scripted channels; attack actions are reported by
    /// [`Attacker::unfired_actions`] instead, since they are not
    /// [`Disturbance`]s).
    pub fn unfired(&self) -> Vec<Disturbance> {
        match self {
            BusChannel::Scripted(s) => s.unfired(),
            _ => Vec::new(),
        }
    }

    /// Number of scripted disturbances or attack actions that have not
    /// fired.
    pub fn unfired_len(&self) -> usize {
        match self {
            BusChannel::Scripted(s) => s.remaining(),
            BusChannel::Attack(a) => a.unfired_len(),
            _ => 0,
        }
    }
}

impl ChannelModel<WirePos> for BusChannel {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
        match self {
            BusChannel::NoFaults => false,
            BusChannel::Scripted(c) => c.disturb(bit, node, tag, wire),
            BusChannel::IndepFull(c) => c.disturb(bit, node, tag, wire),
            BusChannel::IndepEof(c) => c.disturb(bit, node, tag, wire),
            BusChannel::GlobalEof(c) => c.disturb(bit, node, tag, wire),
            BusChannel::Bursts(c) => c.disturb(bit, node, tag, wire),
            BusChannel::Attack(c) => c.disturb(bit, node, tag, wire),
        }
    }

    fn quiet_until(&self, now: u64) -> u64 {
        match self {
            BusChannel::NoFaults => u64::MAX,
            BusChannel::Scripted(c) => c.quiet_until(now),
            BusChannel::Bursts(c) => ChannelModel::<WirePos>::quiet_until(c, now),
            BusChannel::Attack(c) => c.quiet_until(now),
            // The per-call-rng models draw on every bit: no promise.
            BusChannel::IndepFull(_) | BusChannel::IndepEof(_) | BusChannel::GlobalEof(_) => now,
        }
    }

    fn clean_until(&self, now: u64) -> u64 {
        match self {
            BusChannel::NoFaults => u64::MAX,
            // A script promises a clean bus once every entry has fired.
            BusChannel::Scripted(c) => c.clean_until(now),
            BusChannel::Bursts(c) => ChannelModel::<WirePos>::clean_until(c, now),
            // An attacker matches on the tags a busy frame reports. A
            // spent one is inert, but leaping after it would reach only
            // about 2 % of the attack campaign's stepped bits, so it
            // promises nothing. The per-call-rng models draw on every
            // bit.
            BusChannel::Attack(_)
            | BusChannel::IndepFull(_)
            | BusChannel::IndepEof(_)
            | BusChannel::GlobalEof(_) => now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_channel_reports_unfired() {
        let ch = BusChannel::scripted(vec![Disturbance::eof(1, 6)]);
        assert_eq!(ch.unfired_len(), 1);
        assert_eq!(ch.unfired(), vec![Disturbance::eof(1, 6)]);
        assert_eq!(BusChannel::NoFaults.unfired_len(), 0);
    }
}
