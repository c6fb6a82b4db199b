//! The batch engine's correctness gate: one shared fault-free trunk per
//! batch ([`Testbed::run_lanes`]) must classify every schedule exactly
//! like the scalar hot loop ([`Testbed::run_schedule`]) on the same
//! reused testbed, on all six stacks (link and higher-level-protocol
//! clusters ride the same trunk) — both on the prefix-free workload the
//! trunk exists for and on prefix families shaped like the falsifier's
//! tail-biased schedules.
//!
//! The schedule generator deliberately covers the awkward cases: empty
//! schedules, duplicate schedules, occurrence-2 and stuff-bit entries,
//! the no-fork fields (`Sof`, `Crashed`, `Idle`), which must take the
//! scalar path before the trunk even starts, and the integration and
//! bus-off fields, which ride the trunk. Dedicated tests cover the
//! visit counting of the exact-fire peel, a batch larger than any
//! production batch and a testbed left with an armed attacker channel.

use majorcan_campaign::ProtocolSpec;
use majorcan_can::{CanEvent, Field};
use majorcan_faults::{AttackAction, Disturbance};
use majorcan_hlp::HlpEvent;
use majorcan_sim::NodeId;
use majorcan_testbed::{Outcome, Testbed};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALL_PROTOCOLS: [ProtocolSpec; 6] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
    ProtocolSpec::EdCan,
    ProtocolSpec::RelCan,
    ProtocolSpec::TotCan,
];

const LINK_PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// Every field class the falsifier's generator reaches, the no-fork
/// fields (`Sof`, `Crashed`, `Idle`) whose schedules take the scalar path
/// whole, and the other fields only a node outside a frame shows
/// (`Integrating`, `BusOff`), which ride the trunk.
const FIELDS: [Field; 15] = [
    Field::Integrating,
    Field::Idle,
    Field::Sof,
    Field::Id,
    Field::Data,
    Field::Crc,
    Field::CrcDelim,
    Field::AckSlot,
    Field::AckDelim,
    Field::Eof,
    Field::Intermission,
    Field::ErrorFlag,
    Field::AgreementHold,
    Field::BusOff,
    Field::Crashed,
];

fn arb_disturbance() -> impl Strategy<Value = Disturbance> {
    (0usize..3, 0usize..FIELDS.len(), 0u16..16, 0u32..20).prop_map(|(node, field, index, salt)| {
        let mut d = if salt % 7 == 0 {
            Disturbance::stuff_bit(node, FIELDS[field], index)
        } else {
            Disturbance::first(node, FIELDS[field], index)
        };
        if salt % 5 == 0 {
            d.occurrence = 2 + salt % 2;
        }
        d
    })
}

/// Independent draws: the prefix-free workload of the falsifier's random
/// fault models.
fn arb_schedules() -> impl Strategy<Value = Vec<Vec<Disturbance>>> {
    proptest::collection::vec(proptest::collection::vec(arb_disturbance(), 0..5), 1..12)
}

/// Nudges independent schedules into prefix families the way the
/// falsifier's tail-biased generator does: every second schedule inherits
/// its predecessor's leading disturbances.
fn familyize(mut schedules: Vec<Vec<Disturbance>>) -> Vec<Vec<Disturbance>> {
    for i in 1..schedules.len() {
        if i % 2 == 0 {
            continue;
        }
        let prefix: Vec<Disturbance> = schedules[i - 1]
            .iter()
            .take(schedules[i - 1].len().saturating_sub(1))
            .cloned()
            .collect();
        let mut family = prefix;
        family.extend(schedules[i].iter().cloned());
        family.truncate(5);
        schedules[i] = family;
    }
    schedules
}

/// Trunk-eligible fields the fixed pool draws from: frame-interior and
/// frame-tail positions, the falsifier's bread and butter.
const POOL_FIELDS: [Field; 8] = [
    Field::Id,
    Field::Dlc,
    Field::Data,
    Field::Crc,
    Field::CrcDelim,
    Field::AckSlot,
    Field::AckDelim,
    Field::ErrorFlag,
];

/// A deterministic pool of **prefix-free** schedules: 1–3 disturbances
/// each, every one drawn independently, so no two schedules share a
/// leading disturbance by construction bias (collisions are possible but
/// rare; the point is there are no *families*). A sprinkle of empty
/// schedules, occurrence-2 entries, stuff-bit targets and scalar-only
/// (`Sof`-targeting) schedules keeps the peel bookkeeping and the
/// scalar fallback honest.
fn prefix_free_pool(seed: u64, count: usize) -> Vec<Vec<Disturbance>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(count);
    for _ in 0..count {
        if rng.gen_range(0..24) == 0 {
            pool.push(Vec::new()); // fault-free schedules ride the trunk whole
            continue;
        }
        if rng.gen_range(0..16) == 0 {
            // A scalar-only schedule: drive enters Sof, so a pre-step
            // look would miss it.
            pool.push(vec![Disturbance::first(rng.gen_range(0..3), Field::Sof, 0)]);
            continue;
        }
        let n = rng.gen_range(1..=3);
        let mut schedule = Vec::with_capacity(n);
        for _ in 0..n {
            let node = rng.gen_range(0..3);
            let field = POOL_FIELDS[rng.gen_range(0..POOL_FIELDS.len())];
            let index = match field {
                Field::Id => rng.gen_range(0..11),
                Field::Dlc => rng.gen_range(0..4),
                Field::Data => rng.gen_range(0..16),
                Field::Crc => rng.gen_range(0..15),
                Field::ErrorFlag => rng.gen_range(0..6),
                _ => 0,
            };
            let mut d = Disturbance::first(node, field, index);
            if rng.gen_range(0..12) == 0 {
                d.occurrence = 2;
            }
            if rng.gen_range(0..12) == 0 && matches!(field, Field::Id | Field::Data) {
                d.stuff = true;
            }
            schedule.push(d);
        }
        pool.push(schedule);
    }
    pool
}

/// The fixed pool is the workload the trunk exists for only if it
/// has no prefix families: consecutive schedules almost never share a
/// first disturbance.
#[test]
fn pool_is_deterministic_and_prefix_free() {
    assert_eq!(prefix_free_pool(7, 40), prefix_free_pool(7, 40));
    assert_ne!(prefix_free_pool(7, 40), prefix_free_pool(8, 40));
    let pool = prefix_free_pool(7, 128);
    assert_eq!(pool.len(), 128);
    let shared = pool
        .windows(2)
        .filter(|w| !w[0].is_empty() && w[0].first() == w[1].first())
        .count();
    assert!(
        shared <= 6,
        "{shared} prefix-sharing neighbours: the pool grew families"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The engine's gate: batch outcomes equal scalar outcomes, schedule
    // by schedule, on all six stacks, for the independent draws and for
    // the same draws nudged into prefix families.
    #[test]
    fn lanes_classify_every_schedule_like_the_scalar_loop(
        raw in arb_schedules()
    ) {
        for schedules in [familyize(raw.clone()), raw] {
            let refs: Vec<&[Disturbance]> = schedules.iter().map(Vec::as_slice).collect();
            for protocol in ALL_PROTOCOLS {
                let mut tb = Testbed::builder(protocol).nodes(3).build();
                let scalar: Vec<Outcome> =
                    schedules.iter().map(|s| tb.run_schedule(s)).collect();
                let laned = tb.run_lanes(&refs);
                prop_assert_eq!(&laned, &scalar, "{}", protocol);
                // A second pass on the same (now warm) testbed must agree too.
                let again = tb.run_lanes(&refs);
                prop_assert_eq!(&again, &scalar, "{} (warm)", protocol);
            }
        }
    }
}

/// The cases the exact-fire peel's visit counting must get right, on
/// frame-tail positions every stack's fault-free run shows: entries at
/// occurrence 2 and 3, two entries on one position in both orders (a
/// firing entry hides its bit from the entries after it), entries of
/// two nodes firing and counting on the same bit, `Idle` entries at
/// occurrence 2 and up (scalar-first: a node starting a frame shows
/// `Idle` before the step and `Sof` to the channel), entries that never
/// fire, and a first fire on the trunk's last stepped bit, the last
/// intermission bit, which the never-firing schedules keep the trunk
/// running to.
fn exact_peel_pool() -> Vec<Vec<Disturbance>> {
    let at = |node, field, index, occurrence| Disturbance {
        occurrence,
        ..Disturbance::first(node, field, index)
    };
    let positions = [
        (Field::Crc, 12),
        (Field::CrcDelim, 0),
        (Field::AckSlot, 0),
        (Field::Eof, 3),
        (Field::Intermission, 1),
    ];
    let mut pool = Vec::new();
    for (field, index) in positions {
        for node in 0..3 {
            let other = (node + 1) % 3;
            for occ in [2, 3] {
                pool.push(vec![at(node, field, index, occ)]);
            }
            for (a, b) in [(1, 2), (2, 1), (1, 3), (3, 1)] {
                pool.push(vec![at(node, field, index, a), at(node, field, index, b)]);
            }
            pool.push(vec![at(other, field, index, 2), at(node, field, index, 1)]);
            pool.push(vec![at(node, field, index, 1), at(other, field, index, 3)]);
        }
    }
    for node in 0..3 {
        for occ in 2..=4 {
            pool.push(vec![at(node, Field::Idle, 0, occ)]);
            pool.push(vec![
                at(node, Field::Eof, 3, 1),
                at(node, Field::Idle, 0, occ),
            ]);
            pool.push(vec![at(node, Field::Intermission, 2, occ - 1)]);
        }
        pool.push(vec![
            at(node, Field::Intermission, 2, 1),
            at(node, Field::Eof, 3, 2),
        ]);
    }
    // Never fire on the trunk: a position the fault-free run never
    // shows, an occurrence it never reaches, an index past the field.
    pool.push(vec![at(1, Field::AgreementHold, 13, 1)]);
    pool.push(vec![at(2, Field::Eof, 3, 9)]);
    pool.push(vec![at(0, Field::ErrorFlag, 5, 1), at(1, Field::Id, 40, 1)]);
    pool
}

/// The exact-fire pool classifies like the scalar loop on all six
/// stacks, in one batch and again on the warm testbed.
#[test]
fn exact_fire_peel_counts_visits_like_the_script() {
    let pool = exact_peel_pool();
    for protocol in ALL_PROTOCOLS {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        assert_batch_matches_scalar(&mut tb, &pool);
        assert_batch_matches_scalar(&mut tb, &pool);
    }
}

/// One batch larger than any production batch (a falsifier job runs at
/// most 50 schedules): 145 schedules share one trunk, with outcomes
/// still in input order and scalar-identical, on all six stacks.
#[test]
fn multi_block_packing_matches_scalar() {
    let pool = prefix_free_pool(0xB10C5, 64 + 64 + 17);
    let refs: Vec<&[Disturbance]> = pool.iter().map(Vec::as_slice).collect();
    for protocol in ALL_PROTOCOLS {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        let scalar: Vec<Outcome> = pool.iter().map(|s| tb.run_schedule(s)).collect();
        let laned = tb.run_lanes(&refs);
        assert_eq!(laned, scalar, "{protocol}");
    }
}

/// `count` hits on the transmitter's ACK slot, every one at occurrence
/// 1: a firing entry hides its bit from the entries after it, so each
/// fires on a successive attempt, and every hit costs the transmitter 8
/// error-counter points.
fn ack_hammer(count: usize) -> Vec<Disturbance> {
    vec![Disturbance::first(0, Field::AckSlot, 0); count]
}

/// `true` when node 0 crashed in the testbed's last run.
fn transmitter_crashed(tb: &Testbed) -> bool {
    if tb.protocol().is_hlp() {
        tb.hlp_events()
            .iter()
            .any(|e| e.node == NodeId(0) && e.event == HlpEvent::Crashed)
    } else {
        tb.can_events()
            .iter()
            .any(|e| e.node == NodeId(0) && e.event == CanEvent::Crashed)
    }
}

/// Batch outcomes equal scalar outcomes on `tb` for `schedules`.
fn assert_batch_matches_scalar(tb: &mut Testbed, schedules: &[Vec<Disturbance>]) {
    let refs: Vec<&[Disturbance]> = schedules.iter().map(Vec::as_slice).collect();
    let scalar: Vec<Outcome> = schedules.iter().map(|s| tb.run_schedule(s)).collect();
    let laned = tb.run_lanes(&refs);
    assert_eq!(laned, scalar, "{}", tb.protocol());
}

/// Schedules that crash the transmitter or drive it to bus-off (or
/// target the bus-off / crashed fields directly) must classify
/// identically: the crashed and idle targets take the scalar path
/// whole, the bus-off target rides the trunk to the end, and a trunk
/// survivor's verdict is untouched by another schedule's crash or
/// bus-off replay.
#[test]
fn bus_off_and_crash_lanes_peel_to_scalar() {
    let light = [
        vec![Disturbance::first(1, Field::BusOff, 0)],
        vec![Disturbance::first(2, Field::Crashed, 0)],
        vec![],
        vec![Disturbance::first(1, Field::Eof, 2)],
        vec![Disturbance::first(0, Field::Idle, 0)],
    ];
    // Twelve lost ACKs reach the warning level (96), where the default
    // policy crashes the transmitter, on every stack.
    let crash = ack_hammer(12);
    for protocol in ALL_PROTOCOLS {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        tb.run_schedule(&crash);
        assert!(transmitter_crashed(&tb), "{protocol}: no warning crash");
        assert_batch_matches_scalar(&mut tb, &[[crash.clone()].as_slice(), &light].concat());
    }
    // With the shutoff off, 32 lost ACKs reach bus-off (256).
    let bus_off = ack_hammer(32);
    for protocol in LINK_PROTOCOLS {
        let mut tb = Testbed::builder(protocol)
            .nodes(3)
            .shutoff_at_warning(false)
            .build();
        tb.run_schedule(&bus_off);
        let went_bus_off = tb
            .can_events()
            .iter()
            .any(|e| e.node == NodeId(0) && e.event == CanEvent::WentBusOff);
        assert!(
            went_bus_off,
            "{protocol}: the transmitter never went bus-off"
        );
        assert_batch_matches_scalar(&mut tb, &[[bus_off.clone()].as_slice(), &light].concat());
    }
}

/// A testbed left with an armed attacker channel must be rejected
/// cleanly by the batch path: `run_lanes` installs its own scripted
/// channel (exactly like `run_schedule`), never panics on the foreign
/// channel, and still matches scalar outcomes.
#[test]
fn attacker_channel_testbed_is_rescripted_not_wedged() {
    let actions = vec![AttackAction::Pulse {
        node: 1,
        field: Field::Eof,
        index: 2,
        occurrence: 1,
    }];
    let pool = prefix_free_pool(0xA77AC, 12);
    let refs: Vec<&[Disturbance]> = pool.iter().map(Vec::as_slice).collect();
    for protocol in LINK_PROTOCOLS {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        tb.load_attack(&actions, 8); // leave an armed attacker behind
        let laned = tb.run_lanes(&refs);
        let scalar: Vec<Outcome> = pool.iter().map(|s| tb.run_schedule(s)).collect();
        assert_eq!(laned, scalar, "{protocol}");
    }
}
