//! 64-lane cohort execution over scripted schedules — the testbed's one
//! packed engine, checked against the scalar [`Testbed::run_schedule`]
//! reference path.
//!
//! The falsifier's random fault models produce mostly prefix-free
//! schedules, yet every one of them shares something: until a
//! schedule's first disturbance can possibly fire, its run is
//! **bit-identical to the fault-free run**. This module exploits exactly
//! that with the `u64` lane machinery from `majorcan-sim` ([`LaneSim`] /
//! [`WatchTable`]):
//!
//! 1. **Pack** up to 64 schedules into one cohort. Schedules targeting a
//!    field in [`NO_FORK_FIELDS`] never join (a pre-step peek could miss
//!    a match there) and run scalar instead.
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
//! Why the peel is sound: a scripted disturbance fires only on a full
//! `(node, field, index, stuff)` match, and for every field outside
//! [`NO_FORK_FIELDS`] the disturb-time field equals the pre-step field.
//! The peel bit is the *first* bit where any of the lane's `(node,
//! field)` pairs matches pre-step — so at that bit none of the lane's
//! entries has matched (let alone fired), the cohort state equals the
//! lane's scalar state bit-for-bit, and `restore + reload(full
//! schedule) + run` is the scalar run. Peeling earlier than strictly
//! necessary (the watch is field-granular, ignoring index/stuff) only
//! costs trunk sharing, never correctness. Runs finish through [`Simulator::run`],
//! which leaps the bus fixpoint, and every frame sent once the lane's
//! script has fully fired, exactly as the scalar path does. Gated by
//! `tests/lane_equivalence.rs` and the lane-vs-scalar diffs in
//! `scripts/check.sh`.
//!
//! [`Testbed::run_schedule`]: crate::Testbed::run_schedule
//! [`Simulator::run`]: majorcan_sim::Simulator::run

use crate::channel::BusChannel;
use crate::outcome::{classify, Outcome};
use majorcan_abcast::check_can_events;
use majorcan_can::{Controller, Field, Variant};
use majorcan_faults::{scenario_frame, Disturbance};
use majorcan_sim::{BitNode, LaneSim, NodeId, SimSnapshot, Simulator, WatchTable, MAX_LANES};

/// Fields that keep a schedule out of every cohort: `Sof` and `Crashed`
/// can be entered during the drive phase (so a pre-step peek would miss
/// them), and the integration/shutdown fields are kept scalar out of
/// caution — no falsifier schedule targets them on the hot path.
const NO_FORK_FIELDS: &[Field] = &[
    Field::Idle,
    Field::Sof,
    Field::Integrating,
    Field::Crashed,
    Field::BusOff,
];

type LinkSim<V> = Simulator<Controller<V>, BusChannel>;

/// Rewinds the cluster onto `schedule` and queues the canonical stimulus
/// (node 0 transmits the scenario frame) — the engine-local equivalent
/// of `Testbed::load_script` + `enqueue`.
fn load<V: Variant>(sim: &mut LinkSim<V>, schedule: &[Disturbance]) {
    if let BusChannel::Scripted(script) = sim.channel_mut() {
        script.reload(schedule);
        sim.reset();
    } else {
        sim.reset_with_channel(BusChannel::scripted(schedule.to_vec()));
    }
    for node in sim.nodes_mut() {
        node.set_fail_at(None);
        node.reset();
    }
    sim.node_mut(NodeId(0)).enqueue(scenario_frame());
}

/// `true` when every node is idle with an empty queue or crashed — the
/// one drain predicate behind `Testbed::is_drained`, and the condition
/// the truncation distinction rests on: a run whose budget elapses while
/// `!drained` executed a *prefix* of its schedule's consequences.
pub(crate) fn drained<V: Variant>(sim: &LinkSim<V>) -> bool {
    sim.nodes()
        .all(|n| (n.is_idle() && n.pending() == 0) || n.is_crashed())
}

/// `true` when the run that just ended was cut by the bit budget rather
/// than by quiescence — mirrors the `!is_drained()` check in the scalar
/// `Testbed::run_schedule` exactly, so laned and scalar classifications
/// stay bit-identical. (A cohort that settled before the budget is
/// drained by construction; a drained-at-budget run is complete either
/// way.)
fn truncated<V: Variant>(sim: &LinkSim<V>, budget: u64) -> bool {
    sim.now() >= budget && !drained(sim)
}

fn outcome_of<V: Variant>(sim: &LinkSim<V>, n_nodes: usize, budget: u64) -> Outcome {
    let verdict = check_can_events(sim.events(), n_nodes).verdict();
    classify(verdict, sim.channel().unfired_len()).truncate_if(truncated(sim, budget))
}

/// One scalar evaluation (`run_schedule` on the engine's simulator).
fn run_one<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    schedule: &[Disturbance],
) -> Outcome {
    load(sim, schedule);
    sim.run(budget);
    outcome_of(sim, n_nodes, budget)
}

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
        let verdict = check_can_events(sim.events(), n_nodes).verdict();
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
