//! Assembles a traced run: the workload's own repetition re-driven with
//! spans, small probes of the layers the workload never calls, engine
//! attribution on sampled link schedules, and the per-layer metrics.
//!
//! Every per-layer metric is reported on every workload. Layers on the
//! workload's own path are measured on its repetition 0; layers off it
//! are measured on a probe of fixed size made from the same seed
//! (`PROBE_*`), so a change to one layer shows on the workload that
//! runs it and stays flat elsewhere.

use crate::measure::{quantile, span_cost, Diag, DiagClock};
use crate::probe::{attack_runs, scripted_runs, traced_soak, BitSplit, SoakTrace};
use crate::trace::{
    as_campaign_job, job_schedules, traced_attack, traced_search, CampaignStats, Stat, Tracer,
};
use crate::workloads::{
    attack_config, campaign_workers, check_attack, check_search, check_soak, run_rep,
    search_config, soak_counters, soak_job, soak_spec, CampaignOutput, Checked, Workload,
};
use majorcan_campaign::{derive_trial_seed, CampaignOptions, FaultSpec, Job, ProtocolSpec};
use majorcan_can::CanEvent;
use majorcan_falsify::{
    budget_for, build_attack_jobs, build_jobs, generate_attack, run_attack_search, run_search,
    AttackSearchConfig, Geometry, Schedule, SearchConfig, ATTACK_BUDGET,
};
use majorcan_faults::{AttackAction, Disturbance};
use majorcan_testbed::{Outcome, Testbed};
use majorcan_traffic::run_soak;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Schedules per target of the search probe.
pub const PROBE_SCHEDULES: u64 = 50;
/// Attacks per target of the attack probe.
pub const PROBE_ATTACKS: u64 = 20;
/// Frames of the soak probe.
pub const PROBE_FRAMES: u64 = 3_000;
/// Bit sampling period of the adapters on 5,000- and 12,000-bit runs.
const K_RUNS: u64 = 16;
/// Bit sampling period of the adapters on soak cells.
const K_SOAK: u64 = 64;

/// The end-to-end metrics, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with units.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("campaign.busy_share", "ratio"),
    ("campaign.job_ms_p50", "ms"),
    ("campaign.job_ms_p90", "ms"),
    ("falsify.generate_ns", "ns"),
    ("falsify.vacuous_ratio", "ratio"),
    ("falsify.shrink_evals", "count"),
    ("falsify.shrink_us", "us"),
    ("falsify.serial_share", "ratio"),
    ("attack.evaluate_us", "us"),
    ("attack.shrink_evals", "count"),
    ("attack.shrink_us", "us"),
    ("attack.serial_share", "ratio"),
    ("testbed.lanes_us", "us"),
    ("testbed.batch_us", "us"),
    ("testbed.scalar_us", "us"),
    ("testbed.hlp_us", "us"),
    ("testbed.bits_per_run.scalar", "bits"),
    ("testbed.bits_per_run.hlp", "bits"),
    ("testbed.bits_per_run.attack", "bits"),
    ("testbed.grade_us", "us"),
    ("testbed.snapshot_us", "us"),
    ("testbed.restore_us", "us"),
    ("sim.step_ns_per_bit.scripted", "ns"),
    ("sim.step_ns_per_bit.attack", "ns"),
    ("sim.step_ns_per_bit.soak", "ns"),
    ("sim.self_ns_per_bit", "ns"),
    ("sim.leap_share", "ratio"),
    ("can.controller_ns_per_node_bit", "ns"),
    ("faults.disturb_ns_per_node_bit.scripted", "ns"),
    ("faults.disturb_ns_per_node_bit.attacker", "ns"),
    ("faults.disturb_ns_per_node_bit.none", "ns"),
    ("abcast.windowed_ns_per_event", "ns"),
    ("abcast.peak_live", "count"),
    ("traffic.drive_share", "ratio"),
    ("traffic.stream_ns_per_release", "ns"),
    ("traffic.metrics_ns_per_event", "ns"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: u64,
}

/// Looks up the unit of a per-layer or end-to-end metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Builds a metric from a value and its sample count.
pub fn metric(name: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        unit: unit_of(name),
        value,
        samples,
    }
}

/// A finished traced run.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// The untraced repetition 0, checked.
    pub untraced: Checked,
    /// What the untraced repetition cost.
    pub untraced_diag: Diag,
    /// The traced repetition 0, checked.
    pub traced: Checked,
    /// Wall time of the traced repetition, s.
    pub traced_wall_s: f64,
    /// Failed output checks of the whole traced run.
    pub problems: Vec<String>,
}

#[derive(Default)]
struct Engines {
    lanes: Stat,
    batch: Stat,
    scalar: Stat,
    hlp: Stat,
    bits_scalar: Stat,
    bits_hlp: Stat,
    grade: Stat,
    snapshot: Stat,
    restore: Stat,
    split: BitSplit,
}

fn timed<R>(stat: &mut Stat, n: u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    stat.add(t.elapsed().as_nanos() as f64, n);
    r
}

/// Runs `Testbed::run_lanes`, `run_batch` and `run_schedule` on the same
/// link schedules (and `run_schedule` on the HLP ones), asserting one
/// outcome per schedule across all three engines and the adapter replay.
/// Round `r` samples the `r`-th job of every target, starting over when
/// a target's jobs run out; rounds continue until `deadline`, at least
/// one.
fn attribute_engines(
    link: &SearchConfig,
    hlp: &SearchConfig,
    deadline: Instant,
    problems: &mut Vec<String>,
) -> Engines {
    let mut e = Engines::default();
    let link_jobs = build_jobs(link);
    let hlp_jobs: Vec<Job> = build_jobs(hlp)
        .into_iter()
        .filter(|j| j.protocol.is_hlp())
        .collect();
    let mut testbeds: Vec<(ProtocolSpec, Testbed)> = Vec::new();
    for round in 0.. {
        for &target in link
            .targets
            .iter()
            .chain(hlp.targets.iter().filter(|t| t.is_hlp()))
        {
            let pool = if target.is_hlp() {
                &hlp_jobs
            } else {
                &link_jobs
            };
            let jobs: Vec<&Job> = pool.iter().filter(|j| j.protocol == target).collect();
            if jobs.is_empty() {
                continue;
            }
            let job = jobs[round % jobs.len()];
            let schedules = job_schedules(job);
            let refs: Vec<&[Disturbance]> = schedules.iter().map(Schedule::disturbances).collect();
            let n = refs.len() as u64;
            let budget = budget_for(target);
            let tb = match testbeds.iter().position(|(t, _)| *t == target) {
                Some(i) => &mut testbeds[i].1,
                None => {
                    let mut tb = Testbed::builder(target).nodes(job.n_nodes).build();
                    tb.set_budget(budget);
                    testbeds.push((target, tb));
                    &mut testbeds.last_mut().expect("just pushed").1
                }
            };
            if target.is_hlp() {
                for s in &refs {
                    timed(&mut e.hlp, 1, || tb.run_schedule(s));
                    e.bits_hlp.add(tb.now() as f64, 1);
                }
                continue;
            }
            let lanes = timed(&mut e.lanes, n, || tb.run_lanes(&refs));
            let batch = timed(&mut e.batch, n, || tb.run_batch(&refs));
            let mut scalar = Vec::with_capacity(refs.len());
            for s in &refs {
                let outcome = timed(&mut e.scalar, 1, || tb.run_schedule(s));
                e.bits_scalar.add(tb.now() as f64, 1);
                let graded: Outcome = timed(&mut e.grade, 1, || tb.outcome());
                if graded.truncate_if(!tb.is_drained()) != outcome {
                    problems.push(format!(
                        "{target}: Testbed::outcome() re-grades differently"
                    ));
                }
                let snap = timed(&mut e.snapshot, 1, || tb.snapshot());
                timed(&mut e.restore, 1, || tb.restore(&snap));
                scalar.push(outcome);
            }
            let adapter = scripted_runs(target, job.n_nodes, budget, &refs, K_RUNS, &mut e.split);
            for (name, other) in [("lanes", &lanes), ("batch", &batch), ("adapter", &adapter)] {
                if *other != scalar {
                    problems.push(format!(
                        "{target} job {}: {name} outcomes differ from run_schedule",
                        job.id
                    ));
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    e
}

#[derive(Default)]
struct AttackRuns {
    bits: Stat,
    split: BitSplit,
}

/// Replays the first job of every attack target on the testbed and on
/// the adapter simulator, asserting identical outcomes and bus-off nodes.
fn attribute_attacks(cfg: &AttackSearchConfig, problems: &mut Vec<String>) -> AttackRuns {
    let mut r = AttackRuns::default();
    let jobs = build_attack_jobs(cfg);
    for &target in &cfg.targets {
        let Some(job) = jobs.iter().find(|j| j.protocol == target) else {
            continue;
        };
        let FaultSpec::AttackSearch { max_cost } = job.fault else {
            panic!("attack job {} is not an attack search", job.id);
        };
        let geo = Geometry::for_protocol(target, job.n_nodes);
        let attacks: Vec<(Vec<AttackAction>, u64)> = (0..job.frames)
            .map(|trial| {
                let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
                let s = generate_attack(&mut rng, &geo, max_cost);
                (s.to_vec(), s.cost())
            })
            .collect();
        let mut tb = Testbed::builder(target)
            .nodes(job.n_nodes)
            .budget(ATTACK_BUDGET)
            .shutoff_at_warning(false)
            .build();
        let reference: Vec<(Outcome, Option<usize>)> = attacks
            .iter()
            .map(|(actions, cost)| {
                let outcome = tb.run_attack(actions, *cost);
                r.bits.add(tb.now() as f64, 1);
                let bus_off = tb
                    .can_events()
                    .iter()
                    .find(|e| matches!(e.event, CanEvent::WentBusOff))
                    .map(|e| e.node.index());
                (outcome, bus_off)
            })
            .collect();
        let adapter = attack_runs(
            target,
            job.n_nodes,
            ATTACK_BUDGET,
            &attacks,
            K_RUNS,
            &mut r.split,
        );
        if adapter != reference {
            problems.push(format!(
                "{target}: adapter attack runs differ from run_attack"
            ));
        }
    }
    r
}

/// Runs the traced profile of `workload`: the untraced repetition 0, the
/// same repetition re-driven with spans, the probes, and engine
/// attribution until `seconds` have passed.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    size: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Traced {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let span = span_cost();
    let mut problems = Vec::new();

    let search_cfg = match workload {
        Workload::Falsify | Workload::FalsifyMajor => search_config(workload, seed, size),
        _ => search_config(Workload::Falsify, seed, PROBE_SCHEDULES),
    };
    let hlp_cfg = match workload {
        Workload::Falsify => search_cfg.clone(),
        _ => search_config(Workload::Falsify, seed, PROBE_SCHEDULES),
    };
    let attack_cfg = attack_config(
        seed,
        if workload == Workload::Attack {
            size
        } else {
            PROBE_ATTACKS
        },
    );
    let spec = soak_spec(
        seed,
        if workload == Workload::Soak {
            size
        } else {
            PROBE_FRAMES
        },
    );
    let search_workers = campaign_workers(build_jobs(&search_cfg).len());
    let attack_workers = campaign_workers(build_attack_jobs(&attack_cfg).len());

    // Repetition 0, untraced through the entry point, then traced.
    let clock = DiagClock::start();
    let untraced = run_rep(workload, seed, size, 0);
    let untraced_diag = clock.stop();

    let t = Instant::now();
    let root = tracer.open(workload.name(), 0);
    let (traced, own_campaign, search, attack, soak): (
        Checked,
        CampaignStats,
        Option<_>,
        Option<_>,
        Option<SoakTrace>,
    ) = match workload {
        Workload::Falsify | Workload::FalsifyMajor => {
            let st = traced_search(&search_cfg, search_workers, tracer, root.id);
            (
                check_search(&search_cfg, &st.output),
                st.campaign.clone(),
                Some(st),
                None,
                None,
            )
        }
        Workload::Attack => {
            let at = traced_attack(&attack_cfg, attack_workers, tracer, root.id);
            (
                check_attack(&attack_cfg, &at.output),
                at.campaign.clone(),
                None,
                Some(at),
                None,
            )
        }
        Workload::Soak => {
            let (st, stats) = as_campaign_job(&soak_job(&spec), tracer, root.id, |p| {
                traced_soak(&spec, K_SOAK, tracer, p)
            });
            (check_soak(&spec, &st.counters), stats, None, None, Some(st))
        }
    };
    tracer.close(root);
    let traced_wall_s = t.elapsed().as_secs_f64();
    if traced.digest() != untraced.digest() {
        problems.push(format!(
            "traced digest {:016x} differs from untraced {:016x}",
            traced.digest(),
            untraced.digest()
        ));
    }

    // Probes of the layers this workload does not call, each checked
    // against its own untraced entry point.
    let probe = tracer.open("probes", 0);
    let search = search.unwrap_or_else(|| {
        let st = traced_search(&search_cfg, search_workers, tracer, probe.id);
        let report = run_search(&search_cfg, &CampaignOptions::quiet(search_workers), None)
            .expect("in-memory search has no I/O");
        if CampaignOutput::from_search(&report) != st.output {
            problems.push("search probe: traced output differs from run_search".to_string());
        }
        st
    });
    let attack = attack.unwrap_or_else(|| {
        let at = traced_attack(&attack_cfg, attack_workers, tracer, probe.id);
        let report = run_attack_search(&attack_cfg, &CampaignOptions::quiet(attack_workers), None)
            .expect("in-memory attack search has no I/O");
        if CampaignOutput::from_attack(&report) != at.output {
            problems.push("attack probe: traced output differs from run_attack_search".to_string());
        }
        at
    });
    let soak = soak.unwrap_or_else(|| {
        let st = traced_soak(&spec, K_SOAK, tracer, probe.id);
        let out = run_soak(&spec, None).expect("a soak without an exporter has no I/O");
        if soak_counters(&spec, &out) != st.counters {
            problems.push("soak probe: traced counters differ from run_soak".to_string());
        }
        st
    });
    tracer.close(probe);

    let s = tracer.open("engine_attribution", 0);
    let engines = attribute_engines(&search_cfg, &hlp_cfg, deadline, &mut problems);
    let attacks = attribute_attacks(&attack_cfg, &mut problems);
    tracer.close(s);

    let own_split = match workload {
        Workload::Falsify | Workload::FalsifyMajor => engines.split,
        Workload::Attack => attacks.split,
        Workload::Soak => soak.split,
    };
    let explored = search.output.frames;
    let vacuous: u64 = search
        .output
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with("/vacuous"))
        .map(|(_, v)| v)
        .sum();
    let jobs = own_campaign.job_ms.len() as u64;
    let us = |s: Stat| Stat::from_total(s.total * 1e-3, s.n);
    let ns_net = |s: Stat| Stat::from_total(s.total - span.floor_ns * s.n as f64, s.n);
    let stats: Vec<(&'static str, Stat)> = vec![
        ("campaign.busy_share", own_campaign.busy_share),
        (
            "campaign.job_ms_p50",
            Stat::from_total(quantile(&own_campaign.job_ms, 0.5) * jobs as f64, jobs),
        ),
        (
            "campaign.job_ms_p90",
            Stat::from_total(quantile(&own_campaign.job_ms, 0.9) * jobs as f64, jobs),
        ),
        ("falsify.generate_ns", search.generate),
        ("falsify.vacuous_ratio", Stat::ratio(vacuous, explored)),
        (
            "falsify.shrink_evals",
            Stat::from_total(search.output.shrink_evaluations as f64, 1),
        ),
        ("falsify.shrink_us", us(search.shrink)),
        ("falsify.serial_share", search.serial_share),
        ("attack.evaluate_us", us(attack.evaluate)),
        (
            "attack.shrink_evals",
            Stat::from_total(attack.output.shrink_evaluations as f64, 1),
        ),
        ("attack.shrink_us", us(attack.shrink)),
        ("attack.serial_share", attack.serial_share),
        ("testbed.lanes_us", us(engines.lanes)),
        ("testbed.batch_us", us(engines.batch)),
        ("testbed.scalar_us", us(engines.scalar)),
        ("testbed.hlp_us", us(engines.hlp)),
        ("testbed.bits_per_run.scalar", engines.bits_scalar),
        ("testbed.bits_per_run.hlp", engines.bits_hlp),
        ("testbed.bits_per_run.attack", attacks.bits),
        ("testbed.grade_us", us(engines.grade)),
        ("testbed.snapshot_us", us(engines.snapshot)),
        ("testbed.restore_us", us(engines.restore)),
        ("sim.step_ns_per_bit.scripted", engines.split.step(span)),
        ("sim.step_ns_per_bit.attack", attacks.split.step(span)),
        ("sim.step_ns_per_bit.soak", soak.split.step(span)),
        ("sim.self_ns_per_bit", own_split.engine_self(span)),
        ("sim.leap_share", soak.split.leap_share()),
        ("can.controller_ns_per_node_bit", own_split.controller()),
        (
            "faults.disturb_ns_per_node_bit.scripted",
            engines.split.disturb(),
        ),
        (
            "faults.disturb_ns_per_node_bit.attacker",
            attacks.split.disturb(),
        ),
        ("faults.disturb_ns_per_node_bit.none", soak.split.disturb()),
        ("abcast.windowed_ns_per_event", soak.push),
        (
            "abcast.peak_live",
            Stat::from_total(soak.peak_live as f64, 1),
        ),
        (
            "traffic.drive_share",
            Stat::from_total(soak.drive.total / soak.wall_ns, 1),
        ),
        ("traffic.stream_ns_per_release", ns_net(soak.pop)),
        ("traffic.metrics_ns_per_event", soak.observe),
    ];
    let metrics = stats
        .into_iter()
        .map(|(name, s)| metric(name, s.mean(), s.n))
        .collect();
    problems.extend(untraced.problems.iter().cloned());
    problems.extend(traced.problems.iter().cloned());
    Traced {
        metrics,
        untraced,
        untraced_diag,
        traced,
        traced_wall_s,
        problems,
    }
}
