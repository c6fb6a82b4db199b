//! 64-lane cohort execution over scripted schedules.
//!
//! The prefix-fork batcher (`crate::batch`) exploits schedules sharing a
//! disturbance *prefix*; the falsifier's random fault models produce
//! mostly prefix-free schedules, where it degenerates to groups of one.
//! But even prefix-free schedules share something: until a schedule's
//! first disturbance can possibly fire, its run is **bit-identical to
//! the fault-free run**. This module exploits exactly that with the
//! `u64` lane machinery from `majorcan-sim` ([`LaneSim`] /
//! [`WatchTable`]):
//!
//! 1. **Pack** up to 64 schedules into one cohort. Schedules targeting a
//!    field in [`NO_FORK_FIELDS`] never join (same drive-phase-transition
//!    caveat as the batcher's fork rule) and run scalar instead.
//! 2. **Trunk** — run the *fault-free* cluster once, ORing per bit the
//!    watch masks of every node's pre-step frame field. Any lane whose
//!    mask trips is **peeled**: a snapshot is taken at that bit (shared
//!    by all lanes peeling there), and the lane finishes later on the
//!    scalar path with its full schedule reloaded from the snapshot.
//! 3. **Survivors** — lanes whose watch never tripped are classified
//!    straight from the cohort: their script never fired (every entry
//!    unfired), so the cohort's verdict, quiescence cut and truncation
//!    status are exactly theirs.
//!
//! Why the peel is sound, in terms of the batcher's own invariant: a
//! scripted disturbance fires only on a full `(node, field, index,
//! stuff)` match, and for every field outside [`NO_FORK_FIELDS`] the
//! disturb-time field equals the pre-step field. The peel bit is the
//! *first* bit where any of the lane's `(node, field)` pairs matches
//! pre-step — so at that bit none of the lane's entries has matched
//! (let alone fired), the cohort state equals the lane's scalar state
//! bit-for-bit, and `restore + reload(full schedule) + run` is the
//! scalar run. Peeling earlier than strictly necessary (the watch is
//! field-granular, ignoring index/stuff) only costs trunk sharing,
//! never correctness. Gated by `tests/lane_equivalence.rs` and the
//! lane-vs-scalar diff in `scripts/check.sh`.

use crate::batch::{load, outcome_of, run_one, truncated, LinkSim, NO_FORK_FIELDS};
use crate::channel::BusChannel;
use crate::outcome::{classify, Outcome};
use majorcan_abcast::trace_from_can_events;
use majorcan_can::{Controller, Field, Variant};
use majorcan_faults::Disturbance;
use majorcan_sim::{BitNode, LaneSim, SimSnapshot, WatchTable, MAX_LANES};

/// Evaluates every schedule in `schedules` and returns their outcomes in
/// input order, each bit-identical to `Testbed::run_schedule` on the same
/// (reused) testbed.
pub(crate) fn run_lanes_link<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    schedules: &[&[Disturbance]],
) -> Vec<Outcome> {
    sim.set_record_trace(false);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; schedules.len()];
    for start in (0..schedules.len()).step_by(MAX_LANES) {
        let end = (start + MAX_LANES).min(schedules.len());
        run_chunk(
            sim,
            n_nodes,
            budget,
            &schedules[start..end],
            &mut outcomes[start..end],
        );
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every lane classified"))
        .collect()
}

/// One ≤64-lane cohort: scalar-only lanes first, then the shared
/// fault-free trunk, survivor classification, and peeled-lane replays.
fn run_chunk<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    schedules: &[&[Disturbance]],
    outcomes: &mut [Option<Outcome>],
) {
    debug_assert!(schedules.len() <= MAX_LANES);
    let mut lanes = LaneSim::new(schedules.len());
    let mut watch = WatchTable::new(n_nodes, Field::ALL.len());
    for (lane, schedule) in schedules.iter().enumerate() {
        if schedule
            .iter()
            .any(|d| NO_FORK_FIELDS.contains(&d.field) || d.node >= n_nodes)
        {
            // Drive-phase-transition targets (and out-of-range nodes the
            // watch table cannot represent) take the scalar path whole.
            outcomes[lane] = Some(run_one(sim, n_nodes, budget, schedule));
            lanes.peel(1u64 << lane);
            continue;
        }
        for d in schedule.iter() {
            watch.watch(d.node, d.field.ordinal(), lane);
        }
    }
    if lanes.active() == 0 {
        return;
    }

    // The shared trunk: the fault-free run every live lane is riding.
    load(sim, &[]);
    let mut peels: Vec<(SimSnapshot<Controller<V>, BusChannel>, u64)> = Vec::new();
    lanes.run_cohort(
        sim,
        budget,
        |s| watch.trip(s.nodes().map(|n| n.tag().field.ordinal())),
        |s, peeled| peels.push((s.snapshot(), peeled)),
        |s| s.quiet_horizon() >= budget,
    );

    // Survivors first — their verdict lives in the cohort's event log,
    // which the replays below clobber. No entry of theirs ever fired, so
    // the whole schedule counts unfired, and the cohort's truncation
    // status is theirs too.
    if lanes.active() != 0 {
        let verdict = trace_from_can_events(sim.events(), n_nodes)
            .check()
            .verdict();
        let cut = truncated(sim, budget);
        for (lane, schedule) in schedules.iter().enumerate() {
            if lanes.is_live(lane) {
                outcomes[lane] = Some(classify(verdict, schedule.len()).truncate_if(cut));
            }
        }
    }

    // Peeled lanes: every lane peeling at the same bit shares one
    // snapshot; each replays from it with its full schedule (nothing has
    // fired yet at the peel bit, so a fresh reload is the scalar run).
    for (snap, peeled) in &peels {
        let mut mask = *peeled;
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            sim.restore_from(snap);
            match sim.channel_mut() {
                BusChannel::Scripted(script) => script.reload(schedules[lane]),
                _ => unreachable!("the cohort loaded a scripted channel"),
            }
            sim.run(budget - sim.now());
            outcomes[lane] = Some(outcome_of(sim, n_nodes, budget));
        }
    }
}
