//! Prefix-fork batch execution over scripted schedules.
//!
//! Falsifier schedules differ mostly in their disturbance *tail* (the
//! generator concentrates edits in the last frame), so evaluating a batch
//! one-by-one replays the same fault-free prefix over and over. This
//! module executes a whole batch instead:
//!
//! 1. **Sort** the schedules lexicographically (requires `Ord` on
//!    [`Disturbance`]) so schedules sharing a prefix become neighbours,
//!    and group maximal runs that share at least the first disturbance.
//! 2. **Trunk** — run each group's shared prefix once, peeking every
//!    node's frame-relative tag *before* each step and stopping at the
//!    first bit where any group member's tail entry could match
//!    (conservatively, by `(node, field)` alone).
//! 3. **Fork** — snapshot there ([`Simulator::snapshot`]) and, per
//!    member, restore + append the member's tail + run out the budget.
//!    If the trunk never reached a potential tail match, no fork is
//!    needed at all: every member's outcome is the trunk's verdict with
//!    the tail counted unfired.
//!
//! Correctness rests on two facts, both gated by the batch-vs-scalar
//! property test in `tests/batch_equivalence.rs`:
//!
//! * A scripted disturbance fires only when the victim's tag matches it,
//!   and a node's tag field at disturb time equals its pre-step tag field
//!   for every field except the drive-phase transitions (`Idle` →
//!   `Sof`/`Crashed`); groups whose tails watch those fields (or the
//!   other integration/shutdown fields) fall back to scalar runs
//!   ([`NO_FORK_FIELDS`]). So the pre-step peek can never miss the first
//!   potential tail match, and forking *earlier* than necessary is
//!   always sound (forking at bit 0 is a full replay).
//! * Runs finish through [`Simulator::run`], which leaps the bus
//!   fixpoint (every node idle with an empty queue or crashed, no
//!   pending script entry on `Idle`/`Crashed` — see
//!   [`Simulator::quiet_horizon`]) exactly as the scalar
//!   `Testbed::run_schedule` does, so neither path steps a settled bus
//!   and the group trunk stops as soon as its horizon covers the budget.

use crate::channel::BusChannel;
use crate::outcome::{classify, Outcome};
use majorcan_abcast::trace_from_can_events;
use majorcan_can::{Controller, Field, Variant};
use majorcan_faults::{scenario_frame, Disturbance};
use majorcan_sim::{BitNode, NodeId, Simulator};

/// Tail fields that forbid forking for their group: `Sof` and `Crashed`
/// can be entered during the drive phase (so a pre-step peek would miss
/// them), and the integration/shutdown fields are kept scalar out of
/// caution — no falsifier schedule targets them on the hot path.
pub(crate) const NO_FORK_FIELDS: &[Field] = &[
    Field::Idle,
    Field::Sof,
    Field::Integrating,
    Field::Crashed,
    Field::BusOff,
];

pub(crate) type LinkSim<V> = Simulator<Controller<V>, BusChannel>;

/// Evaluates every schedule in `schedules` and returns their outcomes in
/// input order, each bit-identical to `Testbed::run_schedule` on the same
/// (reused) testbed.
pub(crate) fn run_batch_link<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    schedules: &[&[Disturbance]],
) -> Vec<Outcome> {
    sim.set_record_trace(false);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; schedules.len()];
    let mut order: Vec<usize> = (0..schedules.len()).collect();
    order.sort_by(|&a, &b| schedules[a].cmp(schedules[b]));

    let mut i = 0;
    while i < order.len() {
        // Maximal run of sorted schedules sharing ≥ 1 leading disturbance
        // with the run's first member; in sorted order the common prefix
        // against the base is non-increasing, so stop at the first zero.
        let base = schedules[order[i]];
        let mut prefix_len = base.len();
        let mut j = i + 1;
        while j < order.len() {
            let l = common_prefix(base, schedules[order[j]]);
            if l == 0 {
                break;
            }
            prefix_len = prefix_len.min(l);
            j += 1;
        }
        let group = &order[i..j];
        if group.len() == 1 || prefix_len == 0 {
            for &k in group {
                outcomes[k] = Some(run_one(sim, n_nodes, budget, schedules[k]));
            }
        } else {
            run_group(
                sim,
                n_nodes,
                budget,
                group,
                prefix_len,
                schedules,
                &mut outcomes,
            );
        }
        i = j;
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every schedule classified"))
        .collect()
}

fn common_prefix(a: &[Disturbance], b: &[Disturbance]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Rewinds the cluster onto `schedule` and queues the canonical stimulus
/// (node 0 transmits the scenario frame) — the batch-local equivalent of
/// `Testbed::load_script` + `enqueue`.
pub(crate) fn load<V: Variant>(sim: &mut LinkSim<V>, schedule: &[Disturbance]) {
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
/// same drain condition `Testbed::is_drained` exposes, and the condition
/// the truncation distinction rests on: a run whose budget elapses while
/// `!drained` executed a *prefix* of its schedule's consequences.
pub(crate) fn drained<V: Variant>(sim: &LinkSim<V>) -> bool {
    sim.nodes()
        .all(|n| (n.is_idle() && n.pending() == 0) || n.is_crashed())
}

/// `true` when the run that just ended was cut by the bit budget rather
/// than by quiescence — mirrors the `!is_drained()` check in the scalar
/// `Testbed::run_schedule` exactly, so batch and scalar classifications
/// stay bit-identical. (A trunk that settled before the budget is drained
/// by construction; a drained-at-budget run is complete either way.)
pub(crate) fn truncated<V: Variant>(sim: &LinkSim<V>, budget: u64) -> bool {
    sim.now() >= budget && !drained(sim)
}

pub(crate) fn outcome_of<V: Variant>(sim: &LinkSim<V>, n_nodes: usize, budget: u64) -> Outcome {
    let verdict = trace_from_can_events(sim.events(), n_nodes)
        .check()
        .verdict();
    classify(verdict, sim.channel().unfired_len()).truncate_if(truncated(sim, budget))
}

/// One scalar evaluation (`run_schedule` on the batch's simulator).
pub(crate) fn run_one<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    schedule: &[Disturbance],
) -> Outcome {
    load(sim, schedule);
    sim.run(budget);
    outcome_of(sim, n_nodes, budget)
}

/// `true` when any node's bit-in-flight could match a tail entry — the
/// trunk must stop *before* this bit.
fn peeks_match<V: Variant>(sim: &LinkSim<V>, watch: &[(usize, Field)]) -> bool {
    sim.nodes().enumerate().any(|(i, node)| {
        let field = node.tag().field;
        watch.iter().any(|&(n, f)| n == i && f == field)
    })
}

#[allow(clippy::too_many_arguments)]
fn run_group<V: Variant>(
    sim: &mut LinkSim<V>,
    n_nodes: usize,
    budget: u64,
    group: &[usize],
    prefix_len: usize,
    schedules: &[&[Disturbance]],
    outcomes: &mut [Option<Outcome>],
) {
    let prefix = &schedules[group[0]][..prefix_len];
    let mut watch: Vec<(usize, Field)> = Vec::new();
    for &k in group {
        for d in &schedules[k][prefix_len..] {
            if !watch.contains(&(d.node, d.field)) {
                watch.push((d.node, d.field));
            }
        }
    }
    if watch.iter().any(|&(_, f)| NO_FORK_FIELDS.contains(&f)) {
        for &k in group {
            outcomes[k] = Some(run_one(sim, n_nodes, budget, schedules[k]));
        }
        return;
    }

    // Trunk: the shared prefix, stopped before the first potential tail
    // match.
    load(sim, prefix);
    let mut tripped = false;
    while sim.now() < budget {
        if peeks_match(sim, &watch) {
            tripped = true;
            break;
        }
        sim.step();
        if sim.quiet_horizon() >= budget {
            break;
        }
    }

    if !tripped {
        // No tail entry could ever have fired within the budget: every
        // member is bit-identical to the trunk with its tail unfired.
        // A trunk cut by the budget rather than by quiescence demotes
        // every member to `Truncated` — before this distinction existed,
        // a budget-exhausted trunk silently classified the whole group
        // as clean.
        let verdict = trace_from_can_events(sim.events(), n_nodes)
            .check()
            .verdict();
        let unfired = sim.channel().unfired_len();
        let cut = truncated(sim, budget);
        for &k in group {
            let tail_len = schedules[k].len() - prefix_len;
            outcomes[k] = Some(classify(verdict, unfired + tail_len).truncate_if(cut));
        }
        return;
    }

    let snap = sim.snapshot();
    for &k in group {
        sim.restore_from(&snap);
        match sim.channel_mut() {
            BusChannel::Scripted(script) => script.append_tail(&schedules[k][prefix_len..]),
            _ => unreachable!("the trunk loaded a scripted channel"),
        }
        sim.run(budget - sim.now());
        outcomes[k] = Some(outcome_of(sim, n_nodes, budget));
    }
}
