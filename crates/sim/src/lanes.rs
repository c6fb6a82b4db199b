//! Lane-parallel cohort execution: up to 64 runs behind one simulator.
//!
//! The falsifier's random campaigns evaluate thousands of *prefix-free*
//! schedules — their disturbances are drawn independently, so they
//! rarely share a prefix — yet almost every one of those runs spends its
//! first hundred-odd bits replaying the **identical fault-free trunk**
//! before its first disturbance can possibly match. This module packs up
//! to 64 such runs ("lanes") into `u64` bit masks and steps the trunk
//! **once** for all of them:
//!
//! * a [`LaneSim`] carries the per-lane *activity mask* — bit `k` set
//!   means lane `k` is still riding the shared cohort;
//! * a [`WatchTable`] maps `(node, tag-slot)` to the `u64` mask of lanes
//!   whose pending disturbances could match a bit the node reports in
//!   that slot — so the per-bit divergence test is a handful of `u64`
//!   ORs, not a per-lane scan;
//! * the cohort loop ([`LaneSim::run_cohort`]) *peeks* every node's tag
//!   before each step and **peels** any lane whose watch mask trips:
//!   the lane leaves the cohort at the first bit where its own timeline
//!   could diverge, and the caller (handed the simulator *pre-step*, so
//!   the peeled lane has executed zero diverging bits) snapshots there
//!   and later replays the lane's tail on the scalar path.
//!
//! The engine stays protocol-agnostic: what a "tag slot" is (the
//! testbed uses the frame-field ordinal), which lanes must never join a
//! cohort (drive-phase-transition fields) and how a peeled lane finishes
//! are the caller's business (`majorcan-testbed`'s `lanes` module makes
//! the argument for scripted schedules): a pre-step tag peek can never
//! miss the first potential match for the fields cohorts are allowed to
//! watch, so peeling is conservative — peeling *earlier* than necessary
//! is always sound, and a lane that never trips is bit-identical to the
//! fault-free trunk.

use crate::{BitNode, ChannelModel, Simulator};

/// Maximum number of lanes one cohort can carry — the width of the `u64`
/// activity mask.
pub const MAX_LANES: usize = 64;

/// How a cohort run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortEnd {
    /// Every lane peeled off to the scalar path.
    Peeled,
    /// The caller's quiescence predicate fired with lanes still riding.
    Settled,
    /// The bit budget elapsed with lanes still riding.
    Budget,
}

/// The per-lane activity mask of one cohort: up to [`MAX_LANES`] runs
/// stepped together through a single [`Simulator`].
#[derive(Debug, Clone)]
pub struct LaneSim {
    active: u64,
}

impl LaneSim {
    /// A cohort of `n_lanes` live lanes (bits `0..n_lanes` set).
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes` exceeds [`MAX_LANES`].
    pub fn new(n_lanes: usize) -> LaneSim {
        assert!(
            n_lanes <= MAX_LANES,
            "{n_lanes} lanes exceed the {MAX_LANES}-lane cohort width"
        );
        let active = if n_lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << n_lanes) - 1
        };
        LaneSim { active }
    }

    /// The current activity mask: bit `k` set ⇔ lane `k` still rides the
    /// cohort.
    pub fn active(&self) -> u64 {
        self.active
    }

    /// `true` while lane `lane` still rides the cohort.
    pub fn is_live(&self, lane: usize) -> bool {
        lane < MAX_LANES && self.active & (1u64 << lane) != 0
    }

    /// Number of lanes still riding the cohort.
    pub fn live_count(&self) -> u32 {
        self.active.count_ones()
    }

    /// Removes the lanes in `mask` from the cohort and returns the subset
    /// that was actually live.
    pub fn peel(&mut self, mask: u64) -> u64 {
        let peeled = self.active & mask;
        self.active &= !mask;
        peeled
    }

    /// Runs the shared cohort until every lane peeled, the caller's
    /// `settled` predicate fires, or the absolute bit budget elapses.
    ///
    /// Per bit, **before** stepping, `peek` reports the `u64` mask of
    /// lanes whose own timeline could diverge on the bit in flight
    /// (typically a [`WatchTable`] lookup over every node's pre-step
    /// tag). Newly tripped live lanes are peeled and handed to `on_peel`
    /// together with the simulator in its pre-step state — one callback
    /// per divergence bit, so lanes peeling at the same bit share
    /// whatever snapshot the callback takes. `settled` is evaluated
    /// after each step; return `true` once the bus can never change
    /// again and the surviving lanes' outcomes are decided.
    pub fn run_cohort<N, C>(
        &mut self,
        sim: &mut Simulator<N, C>,
        budget: u64,
        mut peek: impl FnMut(&Simulator<N, C>) -> u64,
        mut on_peel: impl FnMut(&Simulator<N, C>, u64),
        mut settled: impl FnMut(&Simulator<N, C>) -> bool,
    ) -> CohortEnd
    where
        N: BitNode,
        C: ChannelModel<N::Tag>,
    {
        while self.active != 0 {
            if sim.now() >= budget {
                return CohortEnd::Budget;
            }
            let tripped = self.peel(peek(sim));
            if tripped != 0 {
                on_peel(sim, tripped);
                if self.active == 0 {
                    break;
                }
            }
            sim.step();
            if settled(sim) {
                return CohortEnd::Settled;
            }
        }
        CohortEnd::Peeled
    }
}

/// A dense `(node, tag-slot) → lane mask` table: the cohort's per-bit
/// divergence test.
///
/// The caller maps whatever its nodes' tags are onto small integer slots
/// (the testbed uses the frame-field ordinal) and registers, per lane,
/// every `(node, slot)` its pending disturbances could match. The
/// cohort loop then ORs one mask per node per bit — `O(nodes)` `u64`
/// ops regardless of how many lanes ride.
#[derive(Debug, Clone)]
pub struct WatchTable {
    slots: usize,
    masks: Vec<u64>,
}

impl WatchTable {
    /// An empty table for `n_nodes` nodes × `slots` tag slots.
    pub fn new(n_nodes: usize, slots: usize) -> WatchTable {
        WatchTable {
            slots,
            masks: vec![0; n_nodes * slots],
        }
    }

    /// Registers lane `lane` as watching `(node, slot)`.
    ///
    /// # Panics
    ///
    /// Panics if `node`/`slot` exceed the table shape or `lane` is not
    /// below [`MAX_LANES`].
    pub fn watch(&mut self, node: usize, slot: usize, lane: usize) {
        assert!(lane < MAX_LANES, "lane {lane} out of cohort range");
        assert!(slot < self.slots, "slot {slot} out of table range");
        self.masks[node * self.slots + slot] |= 1u64 << lane;
    }

    /// The mask of lanes watching `(node, slot)`.
    pub fn mask(&self, node: usize, slot: usize) -> u64 {
        self.masks[node * self.slots + slot]
    }

    /// ORs the masks for one slot per node — `slots_by_node` yields each
    /// node's current tag slot in node order — giving the mask of lanes
    /// that could diverge on the bit in flight.
    pub fn trip(&self, slots_by_node: impl Iterator<Item = usize>) -> u64 {
        slots_by_node
            .enumerate()
            .fold(0u64, |acc, (node, slot)| acc | self.mask(node, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, NoFaults};

    /// Drives recessive forever, tags its own observed-bit count.
    #[derive(Clone)]
    struct Counter {
        seen: usize,
    }

    impl BitNode for Counter {
        type Tag = usize;
        type Event = ();

        fn drive(&mut self, _now: u64) -> Level {
            Level::Recessive
        }

        fn tag(&self) -> usize {
            self.seen
        }

        fn observe(&mut self, _now: u64, _seen: Level, _ev: &mut Vec<()>) {
            self.seen += 1;
        }
    }

    #[test]
    fn mask_construction_and_peel() {
        let mut lanes = LaneSim::new(3);
        assert_eq!(lanes.active(), 0b111);
        assert_eq!(lanes.live_count(), 3);
        assert!(lanes.is_live(0) && lanes.is_live(2) && !lanes.is_live(3));
        assert_eq!(lanes.peel(0b110), 0b110, "only live lanes peel");
        assert_eq!(lanes.peel(0b110), 0, "peeling is idempotent");
        assert_eq!(lanes.active(), 0b001);
        assert_eq!(LaneSim::new(MAX_LANES).active(), u64::MAX);
        assert_eq!(LaneSim::new(0).active(), 0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_lanes_panic() {
        LaneSim::new(MAX_LANES + 1);
    }

    #[test]
    fn watch_table_trips_per_node_slot() {
        let mut watch = WatchTable::new(2, 4);
        watch.watch(0, 1, 0); // lane 0 watches node 0's slot 1
        watch.watch(1, 3, 1); // lane 1 watches node 1's slot 3
        watch.watch(1, 3, 5); // lane 5 too
        assert_eq!(watch.mask(0, 1), 0b000001);
        assert_eq!(watch.mask(1, 3), 0b100010);
        assert_eq!(watch.trip([0, 0].into_iter()), 0);
        assert_eq!(watch.trip([1, 0].into_iter()), 0b000001);
        assert_eq!(watch.trip([1, 3].into_iter()), 0b100011);
    }

    #[test]
    fn cohort_peels_at_pre_step_tag_and_reports_end() {
        // Two recessive counters; lane 0 watches node 0's slot 3, lane 1
        // watches node 1's slot 5. Tag = bits observed so far, so the
        // peel must arrive with sim.now() == watched slot (pre-step).
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Counter { seen: 0 });
        sim.attach(Counter { seen: 0 });
        let mut watch = WatchTable::new(2, 10);
        watch.watch(0, 3, 0);
        watch.watch(1, 5, 1);

        let mut lanes = LaneSim::new(2);
        let mut peels: Vec<(u64, u64)> = Vec::new();
        let end = lanes.run_cohort(
            &mut sim,
            100,
            |s| watch.trip(s.nodes().map(|n| n.tag())),
            |s, mask| peels.push((s.now(), mask)),
            |_| false,
        );
        assert_eq!(end, CohortEnd::Peeled);
        assert_eq!(peels, vec![(3, 0b01), (5, 0b10)]);
        assert_eq!(lanes.active(), 0);
        assert_eq!(sim.now(), 5, "cohort stops once the last lane peels");
    }

    #[test]
    fn cohort_respects_budget_and_settled() {
        let mut sim = Simulator::new(NoFaults);
        sim.attach(Counter { seen: 0 });
        let watch = WatchTable::new(1, 1000);

        let mut lanes = LaneSim::new(2);
        let end = lanes.run_cohort(
            &mut sim,
            7,
            |s| watch.trip(s.nodes().map(|n| n.tag())),
            |_, _| panic!("nothing watched, nothing peels"),
            |_| false,
        );
        assert_eq!(end, CohortEnd::Budget);
        assert_eq!(sim.now(), 7);
        assert_eq!(lanes.live_count(), 2, "survivors stay live");

        let end = lanes.run_cohort(
            &mut sim,
            100,
            |s| watch.trip(s.nodes().map(|n| n.tag())),
            |_, _| panic!("nothing watched, nothing peels"),
            |s| s.now() >= 9,
        );
        assert_eq!(end, CohortEnd::Settled);
        assert_eq!(sim.now(), 9);
    }
}
