//! Job and result schemas.
//!
//! A [`Job`] is one independent unit of simulation work: a protocol
//! variant, a fault model, a workload, a bus size and a trial budget, plus
//! a per-job RNG seed derived deterministically from
//! `(campaign seed, job id)` — see [`derive_job_seed`]. Because every job
//! carries its whole random universe in that one seed, results are
//! bit-identical regardless of worker count or scheduling order, and a
//! failed job can be replayed in isolation from its recorded seed.
//!
//! A [`JobResult`] is an associative bag of counters: merging shard
//! results in any grouping or order produces the same totals.

use crate::json::Value;
use majorcan_can::Field;
use std::collections::BTreeMap;
use std::fmt;

/// SplitMix64's output mixing function: a bijective avalanche on `u64`.
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of job `job_id` within a campaign.
///
/// The derivation is a two-round SplitMix64 mix over the campaign seed and
/// the job id, so neighbouring ids map to statistically independent
/// streams and the mapping never changes with worker count, scheduling, or
/// resume boundaries.
pub fn derive_job_seed(campaign_seed: u64, job_id: u64) -> u64 {
    splitmix_mix(
        campaign_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(splitmix_mix(job_id.wrapping_mul(0xA24B_AED4_963E_E407))),
    )
}

/// Derives a per-trial seed inside a job (same construction, one level
/// down: executors use this to give every trial its own stream).
pub fn derive_trial_seed(job_seed: u64, trial: u64) -> u64 {
    derive_job_seed(job_seed, trial ^ 0x5851_F42D_4C95_7F2D)
}

/// Which protocol a job simulates: a link-layer variant, or one of the
/// FTCS'98 higher-level protocols layered over standard CAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Standard CAN.
    StandardCan,
    /// MinorCAN (the Primary_error rule).
    MinorCan,
    /// MajorCAN with EOF majority parameter `m`.
    MajorCan {
        /// The paper's `m` (tolerated disturbed views per frame).
        m: usize,
    },
    /// EDCAN over standard CAN (every receiver retransmits).
    EdCan,
    /// RELCAN over standard CAN (CONFIRM frames, timeout recovery).
    RelCan,
    /// TOTCAN over standard CAN (ACCEPT frames define the total order).
    TotCan,
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolSpec::StandardCan => f.write_str("CAN"),
            ProtocolSpec::MinorCan => f.write_str("MinorCAN"),
            ProtocolSpec::MajorCan { m } => write!(f, "MajorCAN_{m}"),
            ProtocolSpec::EdCan => f.write_str("EDCAN"),
            ProtocolSpec::RelCan => f.write_str("RELCAN"),
            ProtocolSpec::TotCan => f.write_str("TOTCAN"),
        }
    }
}

impl ProtocolSpec {
    /// Parses the names this type's `Display` produces. For the link-layer
    /// variants these are exactly the `Variant::name()` strings (`CAN`,
    /// `MinorCAN`, `MajorCAN_<m>`), so experiment code can map a variant to
    /// its spec; the higher-level protocols use their paper names
    /// (`EDCAN`, `RELCAN`, `TOTCAN`).
    pub fn from_name(name: &str) -> Option<ProtocolSpec> {
        match name {
            "CAN" => Some(ProtocolSpec::StandardCan),
            "MinorCAN" => Some(ProtocolSpec::MinorCan),
            "EDCAN" => Some(ProtocolSpec::EdCan),
            "RELCAN" => Some(ProtocolSpec::RelCan),
            "TOTCAN" => Some(ProtocolSpec::TotCan),
            _ => {
                let m = name.strip_prefix("MajorCAN_")?.parse().ok()?;
                Some(ProtocolSpec::MajorCan { m })
            }
        }
    }

    /// `true` for the higher-level protocols (EDCAN/RELCAN/TOTCAN), which
    /// run over a standard-CAN link layer rather than being one.
    pub fn is_hlp(&self) -> bool {
        matches!(
            self,
            ProtocolSpec::EdCan | ProtocolSpec::RelCan | ProtocolSpec::TotCan
        )
    }
}

/// Where a random channel is allowed to strike (mirrors the montecarlo
/// experiment's error domains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainSpec {
    /// Anywhere in the frame.
    FullFrame,
    /// Confined to the EOF bits.
    EofOnly,
}

impl DomainSpec {
    fn from_debug(text: &str) -> Option<DomainSpec> {
        match text {
            "FullFrame" => Some(DomainSpec::FullFrame),
            "EofOnly" => Some(DomainSpec::EofOnly),
            _ => None,
        }
    }
}

/// Splits a derived-`Debug` rendering `Name { k: v, k: v }` (or a bare
/// `Name`) into the variant name and its `(key, value)` fields. Commas
/// nested inside parentheses/braces/brackets do not split fields, so
/// tuple-struct values survive.
fn split_debug(text: &str) -> Option<(&str, Vec<(&str, &str)>)> {
    let text = text.trim();
    let Some(brace) = text.find(" { ") else {
        return Some((text, Vec::new()));
    };
    let name = &text[..brace];
    let body = text[brace + 3..].strip_suffix(" }")?;
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'(' | b'{' | b'[' => depth += 1,
            b')' | b'}' | b']' => depth = depth.checked_sub(1)?,
            b',' if depth == 0 => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    let mut pairs = Vec::with_capacity(fields.len());
    for field in fields {
        let field = field.trim();
        let colon = field.find(": ")?;
        pairs.push((&field[..colon], field[colon + 2..].trim()));
    }
    Some((name, pairs))
}

/// Looks up `key` among `split_debug` pairs and parses it with `parse`.
fn debug_field<'a, T>(
    pairs: &[(&str, &'a str)],
    key: &str,
    parse: impl FnOnce(&'a str) -> Option<T>,
) -> Option<T> {
    pairs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| parse(v))
}

fn field_from_debug(text: &str) -> Option<Field> {
    Field::ALL.into_iter().find(|f| format!("{f:?}") == text)
}

/// The fault model a job runs under.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// A clean bus.
    None,
    /// Independent per-view bit errors at `ber_star` (Eq. 3's product
    /// model), armed after bus integration.
    IndependentBitErrors {
        /// Per-view bit error probability.
        ber_star: f64,
        /// Where flips may land.
        domain: DomainSpec,
    },
    /// Charzinski's two-stage model: global events at `ber`, effective per
    /// node with probability `1/n_nodes`, EOF-confined.
    GlobalEventErrors {
        /// Global per-bit error-event probability.
        ber: f64,
    },
    /// Exactly `errors_per_frame` random tail-region view-flips per trial
    /// (the §5 sweep's adversary).
    RandomTail {
        /// Error budget per frame.
        errors_per_frame: usize,
    },
    /// One deterministic view-flip (the single-error atlas).
    SingleFlip {
        /// Victim node.
        node: usize,
        /// Disturbed field.
        field: Field,
        /// Bit index within the field.
        index: u16,
        /// `true` to hit the stuff bit after `index` instead.
        stuff: bool,
    },
    /// Adversarial schedule search: each trial synthesizes a fresh
    /// disturbance schedule of up to `max_errors` view-flips from the
    /// trial seed and hunts for Agreement/Validity violations. Interpreted
    /// by the `majorcan-falsify` crate's job executor, not by the standard
    /// experiment interpreter.
    AdversarialSearch {
        /// Maximum disturbances per synthesized schedule.
        max_errors: usize,
    },
    /// Periodic full-frame error bursts: `len` disturbed bits every
    /// `period` bits, flipping views at `ber_star` inside a burst — the
    /// clustered EMI shape that walks TEC/REC in sustained traffic.
    /// Interpreted by the `majorcan-traffic` soak executor, not by the
    /// standard experiment interpreter.
    ErrorBursts {
        /// Burst repetition period in bits.
        period: u64,
        /// Burst length in bits.
        len: u64,
        /// Per-view flip probability inside a burst.
        ber_star: f64,
    },
    /// Cost-aware attack search: each trial synthesizes a budgeted
    /// dominant-injection attack schedule from the trial seed, classifies
    /// the outcome (including victim bus-off), and shrinks findings to
    /// their cheapest form. Interpreted by the `majorcan-falsify` crate's
    /// attack-search executor, not by the standard experiment interpreter.
    AttackSearch {
        /// Maximum nominal schedule cost in budget units.
        max_cost: u64,
    },
    /// A sustained bus-off attack on one victim transmitter: the attacker
    /// hammers the victim's view of its CRC delimiter on every
    /// (re)transmission until `budget` injections are spent. Interpreted by
    /// the `majorcan-traffic` soak executor, not by the standard experiment
    /// interpreter.
    BusOffAttack {
        /// The victim transmitter.
        victim: usize,
        /// Total injection budget in cost units.
        budget: u64,
    },
}

impl FaultSpec {
    /// Parses the rendering `format!("{spec:?}")` produces — the encoding
    /// [`Job::to_json`] has always written into manifests and failure
    /// artifacts. This is what makes a [`JobFailure`] line (and a shard's
    /// job slice) replayable without the generating binary's job list.
    pub fn from_debug(text: &str) -> Option<FaultSpec> {
        let (name, f) = split_debug(text)?;
        let p_f64 = |v: &str| v.parse::<f64>().ok();
        let p_u64 = |v: &str| v.parse::<u64>().ok();
        let p_usize = |v: &str| v.parse::<usize>().ok();
        match name {
            "None" => Some(FaultSpec::None),
            "IndependentBitErrors" => Some(FaultSpec::IndependentBitErrors {
                ber_star: debug_field(&f, "ber_star", p_f64)?,
                domain: debug_field(&f, "domain", DomainSpec::from_debug)?,
            }),
            "GlobalEventErrors" => Some(FaultSpec::GlobalEventErrors {
                ber: debug_field(&f, "ber", p_f64)?,
            }),
            "RandomTail" => Some(FaultSpec::RandomTail {
                errors_per_frame: debug_field(&f, "errors_per_frame", p_usize)?,
            }),
            "SingleFlip" => Some(FaultSpec::SingleFlip {
                node: debug_field(&f, "node", p_usize)?,
                field: debug_field(&f, "field", field_from_debug)?,
                index: debug_field(&f, "index", |v| v.parse::<u16>().ok())?,
                stuff: debug_field(&f, "stuff", |v| v.parse::<bool>().ok())?,
            }),
            "AdversarialSearch" => Some(FaultSpec::AdversarialSearch {
                max_errors: debug_field(&f, "max_errors", p_usize)?,
            }),
            "ErrorBursts" => Some(FaultSpec::ErrorBursts {
                period: debug_field(&f, "period", p_u64)?,
                len: debug_field(&f, "len", p_u64)?,
                ber_star: debug_field(&f, "ber_star", p_f64)?,
            }),
            "AttackSearch" => Some(FaultSpec::AttackSearch {
                max_cost: debug_field(&f, "max_cost", p_u64)?,
            }),
            "BusOffAttack" => Some(FaultSpec::BusOffAttack {
                victim: debug_field(&f, "victim", p_usize)?,
                budget: debug_field(&f, "budget", p_u64)?,
            }),
            _ => None,
        }
    }
}

/// The traffic pattern a job drives.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Node 0 broadcasts one reference frame per trial on a fresh bus.
    SingleBroadcast,
    /// Streaming mixed periodic/sporadic traffic releasing `frames`
    /// frames at joint target `load`, with `sporadic_permille` ‰ of the
    /// load carried by Poisson senders and the rest by jittered periodic
    /// senders. One sustained run per job, checked online. Interpreted by
    /// the `majorcan-traffic` soak executor, not by the standard
    /// experiment interpreter.
    SustainedTraffic {
        /// Joint bus load in `(0, 1]`.
        load: f64,
        /// Frames to release before draining.
        frames: u64,
        /// Per-mille of senders that are sporadic (0–1000).
        sporadic_permille: u16,
    },
}

impl WorkloadSpec {
    /// Parses the rendering `format!("{spec:?}")` produces (the manifest /
    /// failure-artifact encoding). See [`FaultSpec::from_debug`].
    pub fn from_debug(text: &str) -> Option<WorkloadSpec> {
        let (name, f) = split_debug(text)?;
        match name {
            "SingleBroadcast" => Some(WorkloadSpec::SingleBroadcast),
            "SustainedTraffic" => Some(WorkloadSpec::SustainedTraffic {
                load: debug_field(&f, "load", |v| v.parse().ok())?,
                frames: debug_field(&f, "frames", |v| v.parse().ok())?,
                sporadic_permille: debug_field(&f, "sporadic_permille", |v| v.parse().ok())?,
            }),
            _ => None,
        }
    }
}

/// One independent unit of campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Campaign-unique id; also the resume key.
    pub id: u64,
    /// This job's whole random universe, derived via [`derive_job_seed`].
    pub seed: u64,
    /// Protocol variant under test.
    pub protocol: ProtocolSpec,
    /// Fault model.
    pub fault: FaultSpec,
    /// Traffic pattern.
    pub workload: WorkloadSpec,
    /// Bus size.
    pub n_nodes: usize,
    /// Trials (frames) this job runs.
    pub frames: u64,
}

impl Job {
    /// Builds a job, deriving its seed from `(campaign_seed, id)`.
    pub fn new(
        id: u64,
        campaign_seed: u64,
        protocol: ProtocolSpec,
        fault: FaultSpec,
        workload: WorkloadSpec,
        n_nodes: usize,
        frames: u64,
    ) -> Job {
        Job {
            id,
            seed: derive_job_seed(campaign_seed, id),
            protocol,
            fault,
            workload,
            n_nodes,
            frames,
        }
    }

    /// The job's JSON description (used for the manifest digest and for
    /// human inspection; resume keys on ids, not on this encoding).
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("id", Value::U64(self.id))
            .set("seed", Value::U64(self.seed))
            .set("protocol", Value::from(self.protocol.to_string()))
            .set("fault", Value::from(format!("{:?}", self.fault)))
            .set("workload", Value::from(format!("{:?}", self.workload)))
            .set("n_nodes", Value::from(self.n_nodes))
            .set("frames", Value::U64(self.frames));
        v
    }

    /// Parses a description written by [`Job::to_json`] back into a full
    /// `Job` — the inverse that makes failure artifacts and shard job
    /// slices self-contained repros. The recorded seed is taken verbatim
    /// (not re-derived), so a parsed job replays the exact random universe
    /// the original ran.
    pub fn from_json(v: &Value) -> Option<Job> {
        Some(Job {
            id: v.get("id")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
            protocol: ProtocolSpec::from_name(v.get("protocol")?.as_str()?)?,
            fault: FaultSpec::from_debug(v.get("fault")?.as_str()?)?,
            workload: WorkloadSpec::from_debug(v.get("workload")?.as_str()?)?,
            n_nodes: v.get("n_nodes")?.as_u64()? as usize,
            frames: v.get("frames")?.as_u64()?,
        })
    }
}

/// An associative, commutative bag of named `u64` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// An empty bag.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `by` to `key`.
    pub fn add(&mut self, key: &str, by: u64) {
        if by > 0 {
            *self.0.entry(key.to_string()).or_insert(0) += by;
        }
    }

    /// The count under `key` (0 when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Sums `other` into `self`. Associative and commutative, so shard
    /// merge order never matters.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Iterates `(key, count)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn to_json(&self) -> Value {
        Value::from(&self.0)
    }

    fn from_json(v: &Value) -> Option<Counters> {
        let mut out = BTreeMap::new();
        for (k, v) in v.pairs()? {
            out.insert(k.clone(), v.as_u64()?);
        }
        Some(Counters(out))
    }
}

/// The outcome of one completed job.
///
/// Deliberately **free of timing fields**: the JSONL artifact of a
/// campaign is byte-identical (after sorting by job id) for any worker
/// count. Wall-clock accounting lives in the runner's in-memory
/// [`WorkerStats`](crate::runner::WorkerStats) instead.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The finished job.
    pub job_id: u64,
    /// The job's seed, recorded for replay.
    pub seed: u64,
    /// Trials executed.
    pub frames: u64,
    /// Simulated bit times (drives the runner's bits/sec telemetry).
    pub bits: u64,
    /// Experiment-defined counters.
    pub counters: Counters,
}

impl JobResult {
    /// An empty result for `job`.
    pub fn for_job(job: &Job) -> JobResult {
        JobResult {
            job_id: job.id,
            seed: job.seed,
            frames: 0,
            bits: 0,
            counters: Counters::new(),
        }
    }

    /// One JSONL line.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("job_id", Value::U64(self.job_id))
            .set("seed", Value::U64(self.seed))
            .set("frames", Value::U64(self.frames))
            .set("bits", Value::U64(self.bits))
            .set("counters", self.counters.to_json());
        v
    }

    /// Parses a line written by [`JobResult::to_json`].
    pub fn from_json(v: &Value) -> Option<JobResult> {
        Some(JobResult {
            job_id: v.get("job_id")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
            frames: v.get("frames")?.as_u64()?,
            bits: v.get("bits")?.as_u64()?,
            counters: Counters::from_json(v.get("counters")?)?,
        })
    }
}

/// A job that panicked: recorded with its replay seed **and its full
/// payload**, never merged into totals.
///
/// The payload matters for schedule-searching campaigns (the
/// `majorcan-falsify` fuzzer): a crashing job must be replayable
/// standalone from the failures artifact alone — protocol, fault model,
/// workload, bus size and trial count included — without consulting the
/// (possibly regenerated) job list that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// The failed job.
    pub job_id: u64,
    /// Replay seed.
    pub seed: u64,
    /// The panic payload, if it was a string.
    pub message: String,
    /// Who was executing when the job died: `"<label>/worker<i>"` in fleet
    /// mode (e.g. `"shard3/worker0"`), `"pid<p>/worker<i>"` otherwise.
    /// Empty on artifacts predating fleet execution.
    pub origin: String,
    /// The failed job's full JSON description ([`Job::to_json`]), so the
    /// failure line is a standalone repro.
    pub job: Value,
}

impl JobFailure {
    /// Builds the failure record for `job`, capturing its full payload.
    pub fn for_job(job: &Job, message: String) -> JobFailure {
        JobFailure {
            job_id: job.id,
            seed: job.seed,
            message,
            origin: String::new(),
            job: job.to_json(),
        }
    }

    /// Stamps the worker/shard identity that hit the failure.
    pub fn with_origin(mut self, origin: impl Into<String>) -> JobFailure {
        self.origin = origin.into();
        self
    }

    /// Reconstructs the failed [`Job`] from the embedded payload, if the
    /// line carries one ([`Job::from_json`]).
    pub fn job_repro(&self) -> Option<Job> {
        Job::from_json(&self.job)
    }

    /// One JSONL line for the failures artifact.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("job_id", Value::U64(self.job_id))
            .set("seed", Value::U64(self.seed))
            .set("error", Value::from(self.message.as_str()))
            .set("origin", Value::from(self.origin.as_str()))
            .set("job", self.job.clone());
        v
    }

    /// Parses a line written by [`JobFailure::to_json`]. Lines from
    /// artifacts predating the embedded payload (no `"job"` key) or the
    /// origin stamp load with a `Null` payload / empty origin rather than
    /// failing.
    pub fn from_json(v: &Value) -> Option<JobFailure> {
        Some(JobFailure {
            job_id: v.get("job_id")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
            message: v.get("error")?.as_str()?.to_string(),
            origin: v
                .get("origin")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            job: v.get("job").cloned().unwrap_or(Value::Null),
        })
    }
}

/// Campaign-wide totals, built by associatively absorbing job results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Jobs merged in.
    pub jobs: u64,
    /// Total trials.
    pub frames: u64,
    /// Total simulated bit times.
    pub bits: u64,
    /// Merged counters.
    pub counters: Counters,
}

impl Totals {
    /// Merges one job result in.
    pub fn absorb(&mut self, result: &JobResult) {
        self.jobs += 1;
        self.frames += result.frames;
        self.bits += result.bits;
        self.counters.merge(&result.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_stable_and_spread_out() {
        // Pinned values: changing the derivation silently would break
        // resume compatibility of existing artifacts.
        assert_eq!(derive_job_seed(0, 0), derive_job_seed(0, 0));
        let a = derive_job_seed(42, 0);
        let b = derive_job_seed(42, 1);
        let c = derive_job_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Neighbouring ids differ in many bits (avalanche sanity).
        assert!((a ^ b).count_ones() > 10, "{a:#x} vs {b:#x}");
    }

    #[test]
    fn counters_merge_is_associative_and_commutative() {
        let mut a = Counters::new();
        a.add("imo", 2);
        a.add("retx", 7);
        let mut b = Counters::new();
        b.add("imo", 1);
        b.add("double", 5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("imo"), 3);
        assert_eq!(ab.get("double"), 5);
        assert_eq!(ab.get("missing"), 0);
    }

    #[test]
    fn protocol_specs_round_trip_including_hlps() {
        for spec in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MinorCan,
            ProtocolSpec::MajorCan { m: 3 },
            ProtocolSpec::EdCan,
            ProtocolSpec::RelCan,
            ProtocolSpec::TotCan,
        ] {
            assert_eq!(ProtocolSpec::from_name(&spec.to_string()), Some(spec));
        }
        assert!(!ProtocolSpec::StandardCan.is_hlp());
        assert!(ProtocolSpec::EdCan.is_hlp());
        assert_eq!(ProtocolSpec::from_name("FooCAN"), None);
    }

    #[test]
    fn failure_record_is_a_standalone_repro() {
        let job = Job::new(
            4,
            0xFA15,
            ProtocolSpec::MinorCan,
            FaultSpec::AdversarialSearch { max_errors: 4 },
            WorkloadSpec::SingleBroadcast,
            3,
            100,
        );
        let failure = JobFailure::for_job(&job, "boom".to_string());
        let line = failure.to_json().to_string();
        assert!(line.contains("\"protocol\":\"MinorCAN\""), "{line}");
        assert!(line.contains("AdversarialSearch"), "{line}");
        assert!(line.contains("\"frames\":100"), "{line}");
        let back = JobFailure::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, failure);
        assert_eq!(back.job.get("seed").and_then(Value::as_u64), Some(job.seed));
    }

    #[test]
    fn legacy_failure_lines_without_payload_still_parse() {
        let legacy = "{\"job_id\":5,\"seed\":9,\"error\":\"old\"}";
        let back = JobFailure::from_json(&crate::json::parse(legacy).unwrap()).unwrap();
        assert_eq!(back.job_id, 5);
        assert_eq!(back.job, Value::Null);
        assert_eq!(back.origin, "");
    }

    #[test]
    fn failure_origin_round_trips_and_yields_a_replayable_job() {
        let job = Job::new(
            11,
            0xFA15,
            ProtocolSpec::MajorCan { m: 5 },
            FaultSpec::AdversarialSearch { max_errors: 4 },
            WorkloadSpec::SingleBroadcast,
            3,
            50,
        );
        let failure = JobFailure::for_job(&job, "boom".to_string()).with_origin("shard2/worker1");
        let line = failure.to_json().to_string();
        assert!(line.contains("\"origin\":\"shard2/worker1\""), "{line}");
        let back = JobFailure::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, failure);
        // The embedded payload alone reconstructs the exact job — fleet
        // failures replay without the generating manifest.
        assert_eq!(back.job_repro(), Some(job));
    }

    #[test]
    fn every_fault_spec_round_trips_through_debug() {
        let specs = [
            FaultSpec::None,
            FaultSpec::IndependentBitErrors {
                ber_star: 0.02,
                domain: DomainSpec::EofOnly,
            },
            FaultSpec::IndependentBitErrors {
                ber_star: 1e-4,
                domain: DomainSpec::FullFrame,
            },
            FaultSpec::GlobalEventErrors { ber: 0.001 },
            FaultSpec::RandomTail {
                errors_per_frame: 3,
            },
            FaultSpec::SingleFlip {
                node: 2,
                field: Field::AckDelim,
                index: 0,
                stuff: true,
            },
            FaultSpec::AdversarialSearch { max_errors: 8 },
            FaultSpec::ErrorBursts {
                period: 1500,
                len: 30,
                ber_star: 0.5,
            },
            FaultSpec::AttackSearch { max_cost: 16 },
            FaultSpec::BusOffAttack {
                victim: 1,
                budget: 4000,
            },
        ];
        for spec in specs {
            let text = format!("{spec:?}");
            assert_eq!(FaultSpec::from_debug(&text), Some(spec), "{text}");
        }
        assert_eq!(FaultSpec::from_debug("Bogus { x: 1 }"), None);
        assert_eq!(FaultSpec::from_debug("GlobalEventErrors { }"), None);
    }

    #[test]
    fn every_workload_spec_round_trips_through_debug() {
        let specs = [
            WorkloadSpec::SingleBroadcast,
            WorkloadSpec::SustainedTraffic {
                load: 0.5,
                frames: 1000,
                sporadic_permille: 250,
            },
        ];
        for spec in specs {
            let text = format!("{spec:?}");
            assert_eq!(WorkloadSpec::from_debug(&text), Some(spec), "{text}");
        }
        assert_eq!(WorkloadSpec::from_debug("SustainedTraffic"), None);
    }

    #[test]
    fn job_json_round_trips_for_every_field_variant() {
        for (i, field) in Field::ALL.into_iter().enumerate() {
            let job = Job::new(
                i as u64,
                7,
                ProtocolSpec::MajorCan { m: 3 },
                FaultSpec::SingleFlip {
                    node: 1,
                    field,
                    index: 2,
                    stuff: false,
                },
                WorkloadSpec::SingleBroadcast,
                3,
                10,
            );
            let line = job.to_json().to_string();
            let back = Job::from_json(&crate::json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, job, "{line}");
        }
    }

    #[test]
    fn job_result_json_round_trips() {
        let job = Job::new(
            9,
            0xC0FFEE,
            ProtocolSpec::MajorCan { m: 5 },
            FaultSpec::IndependentBitErrors {
                ber_star: 0.02,
                domain: DomainSpec::EofOnly,
            },
            WorkloadSpec::SingleBroadcast,
            4,
            500,
        );
        let mut result = JobResult::for_job(&job);
        result.frames = 500;
        result.bits = 123_456;
        result.counters.add("imo", 3);
        let line = result.to_json().to_string();
        let back = JobResult::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(result, back);
    }
}
