//! Channel fault models: how disturbances corrupt individual nodes' views.
//!
//! The MajorCAN paper (following Charzinski) models errors *spatially*: a bit
//! error occurring somewhere in the network affects a given node's view of
//! that bit with probability `p_eff`. A [`ChannelModel`] therefore decides,
//! per `(bit time, node)`, whether that node's **sample** of the resolved bus
//! level is inverted — the wire itself is never mutated, only views of it.
//!
//! Richer models (random `ber*` channels, scripted frame-relative
//! disturbances, composites) live in the `majorcan-faults` crate; this module
//! only defines the interface and the trivial fault-free model.

use crate::{Level, NodeId};

/// Decides, for every node's view of every bit, whether a disturbance
/// inverts the sampled level.
///
/// `Tag` is the frame-relative position metadata supplied by the node (see
/// [`BitNode::Tag`](crate::BitNode::Tag)); scripted models match on it to
/// target bits symbolically (e.g. "the last-but-one EOF bit of node 2").
pub trait ChannelModel<Tag> {
    /// Returns `true` if node `node`'s sample of bit `bit` must be inverted.
    ///
    /// `wire` is the fault-free resolved bus level, and `tag` is `node`'s own
    /// description of where in a frame this bit falls.
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &Tag, wire: Level) -> bool;

    /// First bit time at or after `now` where this model might disturb a
    /// view **or** consume hidden per-bit state (e.g. a PRNG draw): for
    /// every bit in `now..quiet_until(now)`, **while every node is
    /// quiescent**, skipping the [`disturb`](ChannelModel::disturb) calls
    /// entirely leaves the model in the same state as making them, and
    /// they would all have returned `false`. The quiet-stretch leap in
    /// [`Simulator::run`](crate::Simulator::run) relies on this; the
    /// proviso mirrors the recessive-view one on
    /// [`BitNode::quiescent_until`](crate::BitNode::quiescent_until) and
    /// holds there because the engine only leaps when every node's
    /// promise covers the stretch too. A model may therefore promise
    /// quiet over bits whose tags only a busy node reports.
    ///
    /// The default promises nothing (`now`), which is always sound.
    fn quiet_until(&self, now: u64) -> u64 {
        now
    }

    /// First bit time at or after `now` where this model might disturb a
    /// view or consume hidden per-bit state, **whatever the nodes do**:
    /// for every bit in `now..clean_until(now)`, every
    /// [`disturb`](ChannelModel::disturb) call would return `false` for
    /// any node, tag and wire level, and skipping the calls leaves the
    /// model in the same state as making them. This is the stronger
    /// promise the frame leap ([`Simulator::leap_frame`]) needs, because
    /// a leapt frame is busy: its nodes report every frame field. Models
    /// whose verdict depends on the tag (scripts, attackers) or that draw
    /// randomness every bit keep the default.
    ///
    /// The default promises nothing (`now`), which is always sound.
    ///
    /// [`Simulator::leap_frame`]: crate::Simulator::leap_frame
    fn clean_until(&self, now: u64) -> u64 {
        now
    }
}

/// The fault-free channel: every node sees the true bus level.
///
/// # Examples
///
/// ```
/// use majorcan_sim::{ChannelModel, Level, NoFaults, NodeId};
///
/// let mut ch = NoFaults;
/// assert!(!ch.disturb(0, NodeId(0), &(), Level::Recessive));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl<Tag> ChannelModel<Tag> for NoFaults {
    #[inline]
    fn disturb(&mut self, _bit: u64, _node: NodeId, _tag: &Tag, _wire: Level) -> bool {
        false
    }

    #[inline]
    fn quiet_until(&self, _now: u64) -> u64 {
        u64::MAX
    }

    #[inline]
    fn clean_until(&self, _now: u64) -> u64 {
        u64::MAX
    }
}

/// Adapts a closure into a [`ChannelModel`], for ad-hoc fault models in
/// tests and examples.
///
/// # Examples
///
/// ```
/// use majorcan_sim::{ChannelModel, FnChannel, Level, NodeId};
///
/// let mut ch = FnChannel(|bit: u64, node: NodeId, _tag: &(), _wire| {
///     bit == 3 && node == NodeId(1)
/// });
/// assert!(ch.disturb(3, NodeId(1), &(), Level::Recessive));
/// assert!(!ch.disturb(3, NodeId(0), &(), Level::Recessive));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnChannel<F>(pub F);

impl<Tag, F> ChannelModel<Tag> for FnChannel<F>
where
    F: FnMut(u64, NodeId, &Tag, Level) -> bool,
{
    #[inline]
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &Tag, wire: Level) -> bool {
        (self.0)(bit, node, tag, wire)
    }
}

/// Boxed channel models are channel models, enabling heterogeneous
/// composition at runtime.
impl<Tag> ChannelModel<Tag> for Box<dyn ChannelModel<Tag>> {
    #[inline]
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &Tag, wire: Level) -> bool {
        (**self).disturb(bit, node, tag, wire)
    }

    #[inline]
    fn quiet_until(&self, now: u64) -> u64 {
        (**self).quiet_until(now)
    }

    #[inline]
    fn clean_until(&self, now: u64) -> u64 {
        (**self).clean_until(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_disturbs() {
        let mut ch = NoFaults;
        for bit in 0..100 {
            for node in 0..8 {
                assert!(!ch.disturb(bit, NodeId(node), &(), Level::Dominant));
                assert!(!ch.disturb(bit, NodeId(node), &(), Level::Recessive));
            }
        }
    }

    #[test]
    fn fn_channel_adapts_closures() {
        let mut flips = 0u32;
        let mut ch = FnChannel(|bit: u64, node: NodeId, _tag: &u8, _wire: Level| {
            bit == 3 && node == NodeId(1)
        });
        for bit in 0..5 {
            for node in 0..3 {
                if ch.disturb(bit, NodeId(node), &0u8, Level::Recessive) {
                    flips += 1;
                }
            }
        }
        assert_eq!(flips, 1);
    }

    #[test]
    fn boxed_models_dispatch() {
        let mut boxed: Box<dyn ChannelModel<()>> = Box::new(NoFaults);
        assert!(!boxed.disturb(0, NodeId(0), &(), Level::Dominant));
    }
}
