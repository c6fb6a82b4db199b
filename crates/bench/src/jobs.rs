//! The canonical campaign-job interpreter: turns a declarative
//! [`Job`] into a [`JobResult`] by running the
//! bit-level simulator through the [`Testbed`] facade.
//!
//! Every experiment binary (montecarlo, sweep, atlas) builds a job list and
//! hands a [`JobRunner`] to the campaign runner (one per worker, so each
//! worker reuses a single testbed across its whole job stream); the library
//! entry points in [`crate::montecarlo`], [`crate::sweep`] and
//! [`crate::atlas`] merge the resulting counters back into their domain
//! types.
//!
//! # Counter schema
//!
//! | key | meaning |
//! |-----|---------|
//! | `imo` | trials violating AB2 Agreement (inconsistent omissions) |
//! | `double` | trials violating AB3 At-most-once (double receptions) |
//! | `validity` | trials violating AB1 Validity |
//! | `verdict/<token>` | per-trial *worst* verdict (see [`majorcan_abcast::Verdict::token`]) |
//! | `retx` | retransmissions scheduled across all trials |
//!
//! Property counters (`imo`, `double`, `validity`) are independent — one
//! trial can increment several — while the `verdict/…` family partitions
//! trials. All keys merge associatively, so shard totals never depend on
//! worker count.
//!
//! # Determinism
//!
//! Trial `t` of a job draws all randomness from
//! [`derive_trial_seed`]`(job.seed, t)`; nothing depends on wall clock,
//! worker identity, scheduling, or whether the interpreting testbed is
//! fresh or reused. [`run_job`] on the same job is therefore a pure
//! function, and [`JobRunner::run_job`] computes the same function with a
//! warm cache.

use majorcan_abcast::check_can_events;
use majorcan_campaign::{
    derive_trial_seed, DomainSpec, FaultSpec, Job, JobResult, ProtocolSpec, WorkloadSpec,
};
use majorcan_can::{CanEvent, Frame, FrameId, StandardCan, Variant};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_faults::{scenario_frame, Disturbance};
use majorcan_sim::TimedEvent;
use majorcan_testbed::{BusChannel, Testbed};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use majorcan_testbed::spec_of as protocol_spec_of;

/// Bit budget for one single-broadcast trial under a random channel
/// (matches the historical montecarlo budget).
const RANDOM_TRIAL_BUDGET: u64 = 4_000;
/// Bit budget for one scripted-disturbance trial (sweep/atlas budgets).
const SCRIPTED_TRIAL_BUDGET: u64 = 5_000;
/// Bits the bus needs to stay calm before a trial counts as settled.
const SETTLE_BITS: u64 = 25;

/// The reference frame of random-channel measurements (1 data byte,
/// distinct from the scripted scenario frame for historical comparability).
pub fn trial_frame() -> Frame {
    Frame::new(FrameId::new(0x2A5).unwrap(), &[0x5C]).unwrap()
}

/// A reusable job interpreter: one cached [`Testbed`] per worker, rewound
/// per trial instead of reassembled.
///
/// The cache holds the testbed of the most recent (protocol, node-count)
/// pair; campaign job lists are protocol-major, so one entry suffices.
/// Build one runner per worker thread (the campaign runner's scoped
/// variants do exactly that) and feed it the worker's whole job stream.
#[derive(Debug, Default)]
pub struct JobRunner {
    cached: Option<((ProtocolSpec, usize), Testbed)>,
}

impl JobRunner {
    /// A fresh runner with an empty testbed cache.
    pub fn new() -> JobRunner {
        JobRunner { cached: None }
    }

    /// Executes one campaign job on the bit-level simulator.
    ///
    /// # Panics
    ///
    /// Panics on meaningless jobs (an invalid MajorCAN `m`, a fault model
    /// that needs agreement geometry the protocol lacks, …). The campaign
    /// runner catches the panic, records a failure artifact with the
    /// replay seed, and rebuilds the worker's runner.
    pub fn run_job(&mut self, job: &Job) -> JobResult {
        match job.protocol {
            ProtocolSpec::MajorCan { m } => {
                MajorCan::new(m).unwrap_or_else(|e| {
                    panic!("job {} has invalid MajorCAN tolerance: {e}", job.id)
                });
            }
            ProtocolSpec::EdCan | ProtocolSpec::RelCan | ProtocolSpec::TotCan => panic!(
                "job {}: higher-level protocol {} jobs are interpreted by the \
                 majorcan-falsify oracle, not the experiment interpreter",
                job.id, job.protocol
            ),
            ProtocolSpec::StandardCan | ProtocolSpec::MinorCan => {}
        }
        let mut out = JobResult::for_job(job);
        match job.workload {
            WorkloadSpec::SingleBroadcast => {
                for trial in 0..job.frames {
                    self.single_broadcast_trial(job, trial, &mut out);
                }
            }
            WorkloadSpec::SustainedTraffic { .. } => panic!(
                "job {}: sustained-traffic jobs are interpreted by the \
                 majorcan-traffic soak executor, not the experiment interpreter",
                job.id
            ),
        }
        out
    }

    /// The cached testbed for (protocol, node count), building on a miss.
    fn testbed_for(&mut self, protocol: ProtocolSpec, n_nodes: usize) -> &mut Testbed {
        let key = (protocol, n_nodes);
        if self.cached.as_ref().map(|(k, _)| *k) != Some(key) {
            self.cached = Some((key, Testbed::builder(protocol).nodes(n_nodes).build()));
        }
        &mut self.cached.as_mut().expect("testbed cached above").1
    }

    /// Runs one rewound-bus single broadcast and returns `(bits, events)`.
    fn broadcast_once(
        &mut self,
        job: &Job,
        channel: &BusChannel,
        shutoff_at_warning: bool,
        frame: Frame,
        budget: u64,
    ) -> (u64, Vec<TimedEvent<CanEvent>>) {
        let testbed = self.testbed_for(job.protocol, job.n_nodes);
        testbed.set_shutoff_at_warning(shutoff_at_warning);
        // Borrow-based reset: same-variant `clone_from` reuses the cached
        // testbed's channel storage trial after trial.
        testbed.reset_with_ref(channel);
        testbed.enqueue(0, frame);
        let bits = testbed.run_until_quiescent(SETTLE_BITS, budget);
        (bits, testbed.take_can_events())
    }

    fn single_broadcast_trial(&mut self, job: &Job, trial: u64, out: &mut JobResult) {
        let trial_seed = derive_trial_seed(job.seed, trial);
        let (bits, events) = match &job.fault {
            FaultSpec::None => self.broadcast_once(
                job,
                &BusChannel::NoFaults,
                true,
                trial_frame(),
                RANDOM_TRIAL_BUDGET,
            ),
            // Random faults arm only after bus integration (11 recessive
            // bits): the probability model has no start-up phase. Counter
            // shutoffs are disabled so nodes stay correct throughout a
            // measurement (each trial uses a rewound bus, so fault
            // confinement plays no role).
            FaultSpec::IndependentBitErrors { ber_star, domain } => {
                let channel = match domain {
                    DomainSpec::FullFrame => BusChannel::indep_full(*ber_star, trial_seed),
                    DomainSpec::EofOnly => BusChannel::indep_eof(*ber_star, trial_seed),
                };
                self.broadcast_once(job, &channel, false, trial_frame(), RANDOM_TRIAL_BUDGET)
            }
            FaultSpec::GlobalEventErrors { ber } => self.broadcast_once(
                job,
                &BusChannel::global_eof(*ber, job.n_nodes, trial_seed),
                false,
                trial_frame(),
                RANDOM_TRIAL_BUDGET,
            ),
            FaultSpec::RandomTail { errors_per_frame } => {
                let mut rng = StdRng::seed_from_u64(trial_seed);
                let (eof_len, agree_end) = tail_geometry(job.protocol);
                let disturbances: Vec<Disturbance> = (0..*errors_per_frame)
                    .map(|_| {
                        crate::sweep::random_tail_disturbance(
                            &mut rng,
                            job.n_nodes,
                            eof_len,
                            agree_end,
                        )
                    })
                    .collect();
                self.broadcast_once(
                    job,
                    &BusChannel::scripted(disturbances),
                    true,
                    scenario_frame(),
                    SCRIPTED_TRIAL_BUDGET,
                )
            }
            FaultSpec::SingleFlip {
                node,
                field,
                index,
                stuff,
            } => {
                let d = if *stuff {
                    Disturbance::stuff_bit(*node, *field, *index)
                } else {
                    Disturbance::first(*node, *field, *index)
                };
                // The atlas runs a fixed window instead of quiescing: some
                // flips legitimately leave a node desynchronized forever.
                let testbed = self.testbed_for(job.protocol, job.n_nodes);
                testbed.set_shutoff_at_warning(true);
                testbed.load_script(&[d]);
                testbed.enqueue(0, scenario_frame());
                testbed.run(2_500);
                (2_500, testbed.take_can_events())
            }
            FaultSpec::AdversarialSearch { .. } => panic!(
                "job {}: adversarial-search jobs are interpreted by the \
                 majorcan-falsify executor, not the experiment interpreter",
                job.id
            ),
            FaultSpec::ErrorBursts { .. } => panic!(
                "job {}: error-burst jobs are interpreted by the \
                 majorcan-traffic soak executor, not the experiment interpreter",
                job.id
            ),
            FaultSpec::AttackSearch { .. } => panic!(
                "job {}: attack-search jobs are interpreted by the \
                 majorcan-falsify attack executor, not the experiment interpreter",
                job.id
            ),
            FaultSpec::BusOffAttack { .. } => panic!(
                "job {}: bus-off-attack jobs are interpreted by the \
                 majorcan-traffic soak executor, not the experiment interpreter",
                job.id
            ),
        };
        out.frames += 1;
        out.bits += bits;
        grade(&events, job.n_nodes, out);
    }
}

/// Executes one campaign job on a one-shot [`JobRunner`] (see
/// [`JobRunner::run_job`]). Campaign loops should hold a runner per worker
/// instead — the scoped campaign entry points do.
pub fn run_job(job: &Job) -> JobResult {
    JobRunner::new().run_job(job)
}

/// Grades one trial's event log into the counter schema.
fn grade(events: &[TimedEvent<CanEvent>], n_nodes: usize, out: &mut JobResult) {
    let report = check_can_events(events, n_nodes);
    if !report.agreement.holds {
        out.counters.add("imo", 1);
    }
    if !report.at_most_once.holds {
        out.counters.add("double", 1);
    }
    if !report.validity.holds {
        out.counters.add("validity", 1);
    }
    out.counters
        .add(&format!("verdict/{}", report.verdict().token()), 1);
    let retx = events
        .iter()
        .filter(|e| matches!(e.event, CanEvent::RetransmissionScheduled { .. }))
        .count() as u64;
    out.counters.add("retx", retx);
}

/// The `(eof_len, agreement_end)` geometry the random-tail generator
/// samples positions from, per link protocol.
fn tail_geometry(protocol: ProtocolSpec) -> (usize, usize) {
    fn of<V: Variant>(variant: &V) -> (usize, usize) {
        (variant.eof_len(), variant.agreement_end().unwrap_or(0))
    }
    match protocol {
        ProtocolSpec::StandardCan => of(&StandardCan),
        ProtocolSpec::MinorCan => of(&MinorCan),
        ProtocolSpec::MajorCan { m } => of(&MajorCan::new(m).expect("validated by run_job")),
        other => panic!("no link geometry for higher-level protocol {other}"),
    }
}

/// Splits `total` trials into per-job chunks of at most `chunk` — the
/// granularity campaigns parallelize over. The split never changes results
/// (per-trial seeds depend only on the job seed and in-job trial index),
/// only scheduling.
pub fn chunked_frames(total: u64, chunk: u64) -> Vec<u64> {
    assert!(chunk > 0, "chunk must be positive");
    let mut left = total;
    let mut out = Vec::new();
    while left > 0 {
        let take = left.min(chunk);
        out.push(take);
        left -= take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_campaign::Job;

    #[test]
    fn run_job_is_a_pure_function_of_the_job() {
        let job = Job::new(
            0,
            0xD15EA5E,
            ProtocolSpec::StandardCan,
            FaultSpec::IndependentBitErrors {
                ber_star: 0.02,
                domain: DomainSpec::EofOnly,
            },
            WorkloadSpec::SingleBroadcast,
            4,
            40,
        );
        let a = run_job(&job);
        let b = run_job(&job);
        assert_eq!(a, b);
        assert_eq!(a.frames, 40);
        assert!(a.bits > 0);
        assert_eq!(
            a.counters.get("verdict/consistent")
                + a.counters.get("verdict/double")
                + a.counters.get("verdict/omission")
                + a.counters.get("verdict/validity"),
            40
        );
    }

    #[test]
    fn reused_runner_matches_one_shot_interpretation() {
        // The same runner interprets jobs of different protocols, node
        // counts and fault families back to back; every result must equal
        // the fresh-testbed interpretation.
        let jobs = [
            Job::new(
                0,
                7,
                ProtocolSpec::StandardCan,
                FaultSpec::None,
                WorkloadSpec::SingleBroadcast,
                3,
                2,
            ),
            Job::new(
                1,
                8,
                ProtocolSpec::StandardCan,
                FaultSpec::IndependentBitErrors {
                    ber_star: 0.03,
                    domain: DomainSpec::FullFrame,
                },
                WorkloadSpec::SingleBroadcast,
                3,
                10,
            ),
            Job::new(
                2,
                9,
                ProtocolSpec::MajorCan { m: 5 },
                FaultSpec::RandomTail {
                    errors_per_frame: 3,
                },
                WorkloadSpec::SingleBroadcast,
                4,
                10,
            ),
        ];
        let mut runner = JobRunner::new();
        for job in &jobs {
            assert_eq!(runner.run_job(job), run_job(job), "job {}", job.id);
        }
    }

    #[test]
    fn clean_bus_single_broadcasts_are_all_consistent() {
        let job = Job::new(
            1,
            1,
            ProtocolSpec::MajorCan { m: 5 },
            FaultSpec::None,
            WorkloadSpec::SingleBroadcast,
            3,
            3,
        );
        let r = run_job(&job);
        assert_eq!(r.counters.get("verdict/consistent"), 3);
        assert_eq!(r.counters.get("imo"), 0);
        assert_eq!(r.counters.get("retx"), 0);
    }

    #[test]
    fn chunking_covers_the_total_exactly() {
        assert_eq!(chunked_frames(10, 4), vec![4, 4, 2]);
        assert_eq!(chunked_frames(4, 4), vec![4]);
        assert!(chunked_frames(0, 4).is_empty());
        assert_eq!(chunked_frames(3, 100), vec![3]);
    }

    #[test]
    fn protocol_specs_round_trip_through_names() {
        assert_eq!(protocol_spec_of(&StandardCan), ProtocolSpec::StandardCan);
        assert_eq!(protocol_spec_of(&MinorCan), ProtocolSpec::MinorCan);
        assert_eq!(
            protocol_spec_of(&MajorCan::proposed()),
            ProtocolSpec::MajorCan { m: 5 }
        );
    }
}
