//! The soak runner: sustain a message set over a cluster, check it
//! online, measure it, and optionally export the bus log — all in
//! constant memory.
//!
//! One [`SoakSpec`] describes one campaign cell; [`run_soak`] executes it
//! chunk by chunk, draining the testbed's event log into the
//! [`WindowedChecker`], the latency/residency trackers and the exporter
//! after every chunk, so a million-frame run never holds more than a few
//! thousand events at once.

use crate::export::TraceExporter;
use crate::metrics::{LatencyTracker, Residency, ResidencyTracker};
use crate::spec::{TrafficSpec, DEFAULT_FRAME_BITS};
use crate::stream::TrafficStream;
use majorcan_abcast::{msg_id_of, MsgId, OnlineReport, WindowedChecker, MAX_NODES};
use majorcan_campaign::{derive_trial_seed, FaultSpec, Job, JobResult, ProtocolSpec, WorkloadSpec};
use majorcan_can::CanEvent;
use majorcan_faults::Attacker;
use majorcan_testbed::{BusChannel, Testbed};
use majorcan_workload::{Release, ReleaseSource};
use std::io;

/// Default checker/latency window: comfortably above any message
/// lifetime the soak workloads produce (observed gaps stay below ~10 k
/// bits even at 90 % load under error bursts), small enough that the
/// live set stays in the hundreds.
pub const DEFAULT_WINDOW: u64 = 50_000;

/// Bits simulated per chunk between event-log drains.
const CHUNK: u64 = 2_048;

/// An error-burst channel shape (see
/// [`BurstErrors`](majorcan_faults::BurstErrors)).
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSpec {
    /// Burst repetition period in bits.
    pub period: u64,
    /// Burst length in bits.
    pub len: u64,
    /// Per-view flip probability inside a burst.
    pub ber_star: f64,
}

/// A sustained bus-off attacker riding a soak cell (see
/// [`Attacker::sustained_bus_off`]): dominant injections on the victim's
/// CRC-delimiter view, re-knocking it after every recovery, until the
/// attack budget runs dry.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSpec {
    /// Node whose error counters the attacker drives.
    pub victim: usize,
    /// Attack budget in injected dominant bits.
    pub budget: u64,
}

/// One soak cell: protocol × traffic shape × fault shape × seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakSpec {
    /// Link-layer protocol under test.
    pub protocol: ProtocolSpec,
    /// Bus size.
    pub n_nodes: usize,
    /// Joint target bus load in `(0, 1]`.
    pub load: f64,
    /// Frames to release before draining.
    pub frames: u64,
    /// Per-mille of senders that are sporadic.
    pub sporadic_permille: u16,
    /// Error-burst channel, or `None` for a clean bus.
    pub burst: Option<BurstSpec>,
    /// Sustained bus-off attacker, or `None` for an unattacked bus.
    /// Mutually exclusive with `burst` — one channel shape per cell.
    pub attack: Option<AttackSpec>,
    /// Seed of the whole cell (stream and channel lanes are derived).
    pub seed: u64,
    /// Checker / latency window in bits.
    pub window: u64,
    /// Fail-silent policy: crash nodes at the error-warning level. The
    /// soak default is **off** so error-passive and bus-off residency is
    /// observable (the paper's fail-silent policy would crash the node
    /// first).
    pub shutoff_at_warning: bool,
    /// Run the incremental checker online. With it off the outcome
    /// carries no verdict, and every field the checker does not compute
    /// is unchanged: the checker only observes the event stream.
    pub online_check: bool,
}

impl SoakSpec {
    /// A clean-bus soak cell with the default window and policies.
    pub fn new(
        protocol: ProtocolSpec,
        n_nodes: usize,
        load: f64,
        frames: u64,
        seed: u64,
    ) -> SoakSpec {
        SoakSpec {
            protocol,
            n_nodes,
            load,
            frames,
            sporadic_permille: 250,
            burst: None,
            attack: None,
            seed,
            window: DEFAULT_WINDOW,
            shutoff_at_warning: false,
            online_check: true,
        }
    }

    /// The cell a campaign [`Job`] describes.
    ///
    /// # Panics
    ///
    /// Panics if the job's workload is not
    /// [`WorkloadSpec::SustainedTraffic`], its fault is none of
    /// [`FaultSpec::None`], [`FaultSpec::ErrorBursts`] or
    /// [`FaultSpec::BusOffAttack`], or its protocol is a higher-level
    /// protocol (the soak runner drives link-layer clusters).
    pub fn for_job(job: &Job) -> SoakSpec {
        let WorkloadSpec::SustainedTraffic {
            load,
            frames,
            sporadic_permille,
        } = job.workload
        else {
            panic!(
                "soak runner wants WorkloadSpec::SustainedTraffic, job {} has {:?}",
                job.id, job.workload
            );
        };
        let (burst, attack) = match job.fault {
            FaultSpec::None => (None, None),
            FaultSpec::ErrorBursts {
                period,
                len,
                ber_star,
            } => (
                Some(BurstSpec {
                    period,
                    len,
                    ber_star,
                }),
                None,
            ),
            FaultSpec::BusOffAttack { victim, budget } => {
                assert!(
                    victim < job.n_nodes,
                    "job {}: attack victim {victim} outside the {}-node bus",
                    job.id,
                    job.n_nodes
                );
                (None, Some(AttackSpec { victim, budget }))
            }
            ref other => panic!(
                "soak runner wants FaultSpec::None, ErrorBursts or BusOffAttack, job {} has {other:?}",
                job.id
            ),
        };
        assert!(
            !job.protocol.is_hlp(),
            "soak runner drives link-layer clusters, not {}",
            job.protocol
        );
        SoakSpec {
            protocol: job.protocol,
            n_nodes: job.n_nodes,
            load,
            frames,
            sporadic_permille,
            burst,
            attack,
            seed: job.seed,
            window: DEFAULT_WINDOW,
            shutoff_at_warning: false,
            online_check: true,
        }
    }
}

/// Everything one soak run produced.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Frames released by the generator.
    pub released: u64,
    /// `TxStarted` events (attempts, including retransmissions).
    pub attempts: u64,
    /// `TxSucceeded` events (committed broadcasts).
    pub successes: u64,
    /// `RetransmissionScheduled` events.
    pub retransmissions: u64,
    /// `Delivered` events (receiver-side deliveries).
    pub deliveries: u64,
    /// `ArbitrationLost` events (real bus contention at work).
    pub arb_losses: u64,
    /// `ErrorDetected` events.
    pub errors: u64,
    /// Simulated bits.
    pub bits: u64,
    /// `true` when the run ended with the bus idle and all queues empty
    /// (`false` means the runaway cap cut it off).
    pub drained: bool,
    /// The online verdict (`None` when `online_check` was off).
    pub report: Option<OnlineReport>,
    /// Time and description of the first flagged violation.
    pub first_violation: Option<(u64, String)>,
    /// Checker live-set high-water mark (the O(window) memory witness).
    pub peak_live: usize,
    /// Longest intra-message event gap the checker saw (must stay below
    /// the window for the verdict to be exact).
    pub max_gap: u64,
    /// Release → receiver-delivery latency.
    pub delivery_latency: crate::metrics::Histogram,
    /// Release → transmitter-commit latency.
    pub commit_latency: crate::metrics::Histogram,
    /// Deliveries whose release record was pruned (diagnostic; 0 in
    /// correctly-windowed runs).
    pub unmatched: u64,
    /// Error-regime residency totals.
    pub residency: Residency,
    /// Attack-budget bits the attacker actually spent (`None` when the
    /// cell ran without an attacker).
    pub attack_spent: Option<u64>,
}

impl SoakOutcome {
    /// Renders the outcome as the deterministic counter set of a campaign
    /// [`JobResult`] (all-integer, so artifacts are byte-identical for
    /// any worker count).
    pub fn to_result(&self, job: &Job) -> JobResult {
        let mut r = JobResult::for_job(job);
        r.frames = self.released;
        r.bits = self.bits;
        let c = &mut r.counters;
        c.add("released", self.released);
        c.add("attempts", self.attempts);
        c.add("successes", self.successes);
        c.add("retx", self.retransmissions);
        c.add("deliveries", self.deliveries);
        c.add("arb_lost", self.arb_losses);
        c.add("errors", self.errors);
        c.add("drained", self.drained as u64);
        c.add("warnings", self.residency.warnings);
        c.add("passive_entries", self.residency.passive_entries);
        c.add("bus_offs", self.residency.bus_offs);
        c.add("crashes", self.residency.crashes);
        c.add("active_bits", self.residency.active_bits);
        c.add("passive_bits", self.residency.passive_bits);
        c.add("busoff_bits", self.residency.busoff_bits);
        c.add("lat_p50", self.delivery_latency.quantile_permille(500));
        c.add("lat_p90", self.delivery_latency.quantile_permille(900));
        c.add("lat_p99", self.delivery_latency.quantile_permille(990));
        c.add("lat_mean_milli", self.delivery_latency.mean_milli());
        c.add("lat_max", self.delivery_latency.max());
        c.add("commit_p50", self.commit_latency.quantile_permille(500));
        c.add("commit_p99", self.commit_latency.quantile_permille(990));
        c.add("commit_max", self.commit_latency.max());
        c.add("unmatched", self.unmatched);
        c.add("peak_live", self.peak_live as u64);
        c.add("max_gap", self.max_gap);
        if let Some(spent) = self.attack_spent {
            c.add("attack_spent", spent);
        }
        if let Some(report) = &self.report {
            c.add("validity", report.validity_violations);
            c.add("imo", report.imo_messages);
            c.add("double", report.double_deliveries);
            c.add("spurious", report.spurious_deliveries);
            c.add("order", report.order_violated as u64);
            c.add("window_exceeded", report.window_exceeded);
            c.add(&format!("verdict/{}", report.verdict().token()), 1);
        }
        r
    }
}

/// Forwards a [`TrafficStream`] while noting each release for the
/// latency tracker.
struct Tap<'a> {
    inner: &'a mut TrafficStream,
    log: &'a mut Vec<(u64, MsgId)>,
}

impl ReleaseSource for Tap<'_> {
    fn next_at(&self) -> Option<u64> {
        self.inner.next_at()
    }

    fn pop(&mut self) -> Option<Release> {
        let release = self.inner.pop()?;
        self.log.push((release.at, msg_id_of(&release.frame)));
        Some(release)
    }
}

/// Runs one soak cell. I/O errors can only come from the exporter.
///
/// # Panics
///
/// Panics on a higher-level-protocol spec or more than
/// [`MAX_NODES`] nodes.
pub fn run_soak(
    spec: &SoakSpec,
    mut exporter: Option<&mut TraceExporter>,
) -> io::Result<SoakOutcome> {
    assert!(spec.n_nodes <= MAX_NODES, "checker masks are 64-bit");
    let mut tb = Testbed::builder(spec.protocol).nodes(spec.n_nodes).build();
    tb.set_shutoff_at_warning(spec.shutoff_at_warning);
    tb.reset_with(match (&spec.burst, &spec.attack) {
        (None, None) => BusChannel::NoFaults,
        (Some(b), None) => {
            BusChannel::bursts(b.period, b.len, b.ber_star, derive_trial_seed(spec.seed, 1))
        }
        (None, Some(a)) => BusChannel::Attack(Attacker::sustained_bus_off(a.victim, a.budget)),
        (Some(_), Some(_)) => panic!("one channel shape per cell: burst or attack, not both"),
    });
    let traffic = TrafficSpec::mixed_load(
        spec.n_nodes,
        spec.load,
        DEFAULT_FRAME_BITS,
        spec.sporadic_permille,
    );
    let mut stream = TrafficStream::new(traffic, derive_trial_seed(spec.seed, 0), spec.frames);

    let mut checker = spec
        .online_check
        .then(|| WindowedChecker::new(spec.n_nodes, spec.window));
    let mut latency = LatencyTracker::new(spec.window);
    let mut residency = ResidencyTracker::new(spec.n_nodes);
    let mut out = SoakOutcome {
        released: 0,
        attempts: 0,
        successes: 0,
        retransmissions: 0,
        deliveries: 0,
        arb_losses: 0,
        errors: 0,
        bits: 0,
        drained: false,
        report: None,
        first_violation: None,
        peak_live: 0,
        max_gap: 0,
        delivery_latency: crate::metrics::Histogram::new(),
        commit_latency: crate::metrics::Histogram::new(),
        unmatched: 0,
        residency: Residency::default(),
        attack_spent: None,
    };

    // Runaway cap: twice the nominal release span plus drain slack, so a
    // fully-jammed bus (every transmitter bus-off under bursts) still
    // terminates.
    let span = (spec.frames as f64 * DEFAULT_FRAME_BITS as f64 / spec.load) as u64;
    let cap = span * 2 + 500_000;

    let mut release_log: Vec<(u64, MsgId)> = Vec::new();
    loop {
        {
            let mut tap = Tap {
                inner: &mut stream,
                log: &mut release_log,
            };
            tb.drive_source(&mut tap, CHUNK);
        }
        for (at, msg) in release_log.drain(..) {
            latency.note_release(at, msg);
        }
        for e in tb.take_can_events() {
            if let Some(c) = checker.as_mut() {
                c.push_can(&e);
            }
            latency.observe(&e);
            residency.observe(&e);
            match &e.event {
                CanEvent::TxStarted { .. } => out.attempts += 1,
                CanEvent::TxSucceeded { .. } => out.successes += 1,
                CanEvent::RetransmissionScheduled { .. } => out.retransmissions += 1,
                CanEvent::Delivered { .. } => out.deliveries += 1,
                CanEvent::ArbitrationLost { .. } => out.arb_losses += 1,
                CanEvent::ErrorDetected { .. } => out.errors += 1,
                _ => {}
            }
            if let Some(x) = exporter.as_deref_mut() {
                x.record(&e)?;
            }
        }
        if stream.is_exhausted() && tb.is_drained() {
            out.drained = true;
            break;
        }
        if tb.now() >= cap {
            break;
        }
    }

    out.released = stream.released();
    out.bits = tb.now();
    out.delivery_latency = latency.delivery.clone();
    out.commit_latency = latency.commit.clone();
    out.unmatched = latency.unmatched();
    out.residency = residency.finish(out.bits);
    if spec.attack.is_some() {
        out.attack_spent = Some(tb.attacker().map_or(0, |a| a.spent()));
    }
    if let Some(c) = checker {
        out.peak_live = c.peak_live();
        out.max_gap = c.max_observed_gap();
        out.first_violation = c.first_violation().cloned();
        out.report = Some(c.finish());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_soak_drains_consistently() {
        let mut spec = SoakSpec::new(ProtocolSpec::MajorCan { m: 5 }, 4, 0.6, 120, 0xA1);
        spec.sporadic_permille = 250;
        let out = run_soak(&spec, None).unwrap();
        assert!(out.drained, "bus drains after the budget");
        assert_eq!(out.released, 120);
        assert_eq!(out.successes, 120, "every frame commits on a clean bus");
        assert_eq!(
            out.deliveries,
            120 * 3,
            "every frame reaches the three receivers"
        );
        let report = out.report.expect("checker was online");
        assert!(report.atomic_broadcast(), "clean bus is atomic");
        assert_eq!(report.messages, 120);
        assert_eq!(out.unmatched, 0);
        assert!(out.max_gap < spec.window, "window precondition held");
        assert!(out.arb_losses > 0, "load 0.6 over 4 nodes contends");
        assert_eq!(out.commit_latency.total(), 120);
        assert_eq!(out.delivery_latency.total(), 360);
        // A frame (4–8 byte payload, so ≥ ~75 on-wire bits) can never be
        // delivered faster than its own transmission.
        assert!(
            out.delivery_latency.min() >= 70,
            "min latency below a frame"
        );
    }

    #[test]
    fn soak_is_deterministic() {
        let job = Job::new(
            3,
            0xFACE,
            ProtocolSpec::StandardCan,
            FaultSpec::ErrorBursts {
                period: 2_500,
                len: 20,
                ber_star: 0.3,
            },
            WorkloadSpec::SustainedTraffic {
                load: 0.7,
                frames: 150,
                sporadic_permille: 250,
            },
            4,
            150,
        );
        let spec = SoakSpec::for_job(&job);
        let a = run_soak(&spec, None).unwrap().to_result(&job);
        let b = run_soak(&spec, None).unwrap().to_result(&job);
        assert_eq!(a, b, "same spec, same counters");
    }

    #[test]
    fn undersized_window_is_detected_not_trusted() {
        // A window far below a frame's lifetime retires messages between
        // their broadcast and their last delivery whenever another frame's
        // events land in between (arbitration losses and retransmissions
        // make such gaps routine under contention). The checker must not
        // silently return a half-judged verdict: the revivals show up in
        // `window_exceeded`, and the counter reaches the campaign artifact
        // so the gate can refuse the run.
        let mut spec = SoakSpec::new(ProtocolSpec::StandardCan, 5, 0.9, 120, 0xE7);
        spec.sporadic_permille = 250;
        spec.window = 10;
        spec.burst = Some(BurstSpec {
            period: 1_500,
            len: 30,
            ber_star: 0.5,
        });
        let out = run_soak(&spec, None).unwrap();
        let report = out.report.as_ref().expect("checker was online");
        assert!(
            report.window_exceeded > 0,
            "undersized window must be detected: {report:?}"
        );
        assert!(!report.exact());
        assert!(
            out.max_gap > spec.window,
            "the proven gap exceeds the window"
        );
        let job = Job::new(
            0,
            0xE7,
            ProtocolSpec::StandardCan,
            FaultSpec::None,
            WorkloadSpec::SustainedTraffic {
                load: 0.9,
                frames: 120,
                sporadic_permille: 250,
            },
            5,
            120,
        );
        let r = out.to_result(&job);
        assert_eq!(r.counters.get("window_exceeded"), report.window_exceeded);
    }

    #[test]
    fn bursty_soak_walks_the_error_regimes() {
        let mut spec = SoakSpec::new(ProtocolSpec::StandardCan, 4, 0.7, 200, 0xB0);
        spec.burst = Some(BurstSpec {
            period: 1_500,
            len: 40,
            ber_star: 0.5,
        });
        let out = run_soak(&spec, None).unwrap();
        assert!(out.errors > 0, "bursts disturb frames");
        assert!(out.retransmissions > 0, "disturbed frames retransmit");
        assert!(
            out.residency.warnings > 0,
            "error counters reach the warning level"
        );
        assert!(
            out.residency.passive_bits > 0,
            "some node spends time error-passive"
        );
        assert!(out.max_gap < spec.window, "window still covers lifetimes");
    }

    #[test]
    fn attacked_soak_drives_the_victim_bus_off() {
        let mut spec = SoakSpec::new(ProtocolSpec::MajorCan { m: 5 }, 4, 0.6, 150, 0xC4);
        spec.attack = Some(AttackSpec {
            victim: 0,
            budget: 4_000,
        });
        let out = run_soak(&spec, None).unwrap();
        assert!(
            out.residency.bus_offs >= 1,
            "sustained attack reaches bus-off: {:?}",
            out.residency
        );
        assert!(out.residency.busoff_bits > 0, "bus-off residency accrues");
        let spent = out.attack_spent.expect("attacker was installed");
        assert!(
            spent >= 32,
            "bus-off needs at least 32 injections, spent {spent}"
        );
        assert!(spent <= 4_000, "the attacker cannot outspend its budget");
        // En route to bus-off the victim transits error-passive, where its
        // error flags turn recessive and the healthy majority no longer
        // sees its rejections: while the victim holds the transmitter
        // role, the attacker extracts genuine double deliveries before
        // silencing it (the EXPERIMENTS.md §E18 counter-finding — the
        // voting window does not cover fault-confinement mode changes).
        let report = out.report.expect("checker was online");
        assert!(
            report.double_deliveries > 0,
            "the error-passive transit duplicates deliveries"
        );
    }

    #[test]
    fn attacked_soak_is_deterministic() {
        let job = Job::new(
            7,
            0xD00F,
            ProtocolSpec::StandardCan,
            FaultSpec::BusOffAttack {
                victim: 1,
                budget: 2_000,
            },
            WorkloadSpec::SustainedTraffic {
                load: 0.5,
                frames: 100,
                sporadic_permille: 250,
            },
            4,
            100,
        );
        let spec = SoakSpec::for_job(&job);
        assert_eq!(
            spec.attack,
            Some(AttackSpec {
                victim: 1,
                budget: 2_000
            })
        );
        let a = run_soak(&spec, None).unwrap().to_result(&job);
        let b = run_soak(&spec, None).unwrap().to_result(&job);
        assert_eq!(a, b, "same attacked spec, same counters");
        assert!(a.counters.get("attack_spent") > 0, "the attacker fired");
    }

    #[test]
    #[should_panic(expected = "victim 9 outside")]
    fn for_job_rejects_out_of_bus_victims() {
        let job = Job::new(
            0,
            1,
            ProtocolSpec::StandardCan,
            FaultSpec::BusOffAttack {
                victim: 9,
                budget: 100,
            },
            WorkloadSpec::SustainedTraffic {
                load: 0.5,
                frames: 10,
                sporadic_permille: 0,
            },
            3,
            10,
        );
        SoakSpec::for_job(&job);
    }

    #[test]
    #[should_panic(expected = "SustainedTraffic")]
    fn for_job_rejects_other_workloads() {
        let job = Job::new(
            0,
            1,
            ProtocolSpec::StandardCan,
            FaultSpec::None,
            WorkloadSpec::SingleBroadcast,
            3,
            1,
        );
        SoakSpec::for_job(&job);
    }

    #[test]
    fn online_checker_never_steers_the_simulation() {
        let clean = SoakSpec::new(ProtocolSpec::MajorCan { m: 5 }, 4, 0.6, 120, 0xA1);
        let mut bursty = SoakSpec::new(ProtocolSpec::StandardCan, 4, 0.7, 200, 0xB0);
        bursty.burst = Some(BurstSpec {
            period: 1_500,
            len: 40,
            ber_star: 0.5,
        });
        let unchecked_fields = |o: &SoakOutcome| {
            (
                [
                    o.released,
                    o.attempts,
                    o.successes,
                    o.retransmissions,
                    o.deliveries,
                    o.arb_losses,
                    o.errors,
                    o.bits,
                    o.unmatched,
                ],
                o.drained,
                o.delivery_latency.clone(),
                o.commit_latency.clone(),
                o.residency.clone(),
            )
        };
        for mut spec in [clean, bursty] {
            let checked = run_soak(&spec, None).unwrap();
            spec.online_check = false;
            let unchecked = run_soak(&spec, None).unwrap();
            assert!(checked.report.is_some() && unchecked.report.is_none());
            assert_eq!(
                unchecked_fields(&checked),
                unchecked_fields(&unchecked),
                "burst {:?}",
                spec.burst
            );
        }
    }

    #[test]
    fn zero_frames_terminates_immediately() {
        let spec = SoakSpec::new(ProtocolSpec::MinorCan, 3, 0.5, 0, 9);
        let out = run_soak(&spec, None).unwrap();
        assert!(out.drained);
        assert_eq!(out.released, 0);
        assert_eq!(out.report.unwrap().messages, 0);
    }
}
