//! Attack schedules, the attack oracle, and the cheapest-attack corpus.
//!
//! The benign falsifier asks "can any small error schedule break a
//! protocol?"; this module asks the security question instead: **what is
//! the cheapest thing an attacker with physical bus access can do?** An
//! [`AttackSchedule`] is an ordered list of budgeted
//! [`AttackAction`]s — dominant injections only, each with an explicit
//! nominal cost — and the [`AttackOracle`] classifies a run under attack
//! into the [`AttackOutcome`] vocabulary, which extends the benign one
//! with [`AttackOutcome::VictimBusOff`]: a node disconnected by a bus-off
//! attack is an availability loss the Atomic Broadcast checker alone
//! cannot see (a silenced node delivers nothing, violating nothing).
//!
//! Attack runs disable the paper's warning-shutoff policy: fail-silence at
//! the warning limit *prevents* the fault-confinement walk a bus-off
//! attack exploits (the victim crashes at TEC 96, twelve injections in,
//! long before TEC 256), so the policy itself is part of the measured
//! attack surface — see EXPERIMENTS.md §E18.
//!
//! Shrunk cheapest attacks are archived under `corpus/attack/` as
//! [`AttackCorpusEntry`] files carrying cost and strategy in provenance —
//! cheapest-attack certificates, replayed by CI like the benign corpus.

use crate::corpus::{read_entries, write_entries, Provenance};
use crate::oracle::OracleCore;
use crate::schedule::write_joined;
use majorcan_abcast::Verdict;
use majorcan_campaign::json::Value;
use majorcan_campaign::shard::result_line_hash;
use majorcan_campaign::ProtocolSpec;
use majorcan_can::{CanEvent, Field};
use majorcan_faults::{AttackAction, Attacker, Strategy};
use majorcan_testbed::{Outcome, Testbed, TestbedBuilder};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Bit budget for one attack evaluation: long enough for a sustained
/// bus-off hammer (~32 retransmissions) to reach TEC 256 and for the bus
/// to settle afterwards.
pub const ATTACK_BUDGET: u64 = 12_000;

/// An ordered, budgeted attack schedule — the unit the attack search
/// generates, evaluates, shrinks and archives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSchedule {
    actions: Vec<AttackAction>,
}

impl AttackSchedule {
    /// Wraps an action list.
    pub fn new(actions: Vec<AttackAction>) -> AttackSchedule {
        AttackSchedule { actions }
    }

    /// A schedule running one canned [`Strategy`].
    pub fn from_strategy(strategy: &Strategy) -> AttackSchedule {
        AttackSchedule::new(strategy.actions())
    }

    /// The attack actions, in order.
    pub fn actions(&self) -> &[AttackAction] {
        &self.actions
    }

    /// An owned copy of the action list (what
    /// [`Testbed::run_attack`](majorcan_testbed::Testbed::run_attack)
    /// consumes).
    pub fn to_vec(&self) -> Vec<AttackAction> {
        self.actions.clone()
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` for the empty schedule.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The schedule's nominal cost: the sum of its actions' costs. This is
    /// what the shrinker minimizes and what the cost-to-break table
    /// reports.
    pub fn cost(&self) -> u64 {
        self.actions.iter().map(AttackAction::cost).sum()
    }

    /// The strategy family this schedule belongs to, derived from its
    /// content (so the label survives shrinking): `flood` if any flood,
    /// else `busoff` if any CRC-delimiter hammer, else `counter` if any
    /// other hammer, else `pulse`.
    pub fn strategy_name(&self) -> &'static str {
        let mut hammer = None;
        for action in &self.actions {
            match action {
                AttackAction::Flood { .. } => return "flood",
                AttackAction::Hammer {
                    field: Field::CrcDelim,
                    ..
                } => return "busoff",
                AttackAction::Hammer { .. } => hammer = Some("counter"),
                AttackAction::Pulse { .. } => {}
            }
        }
        hammer.unwrap_or("pulse")
    }

    /// The schedule as a JSON array of tagged action objects.
    pub fn to_json(&self) -> Value {
        Value::Arr(self.actions.iter().map(action_to_json).collect())
    }

    /// Parses what [`AttackSchedule::to_json`] produced.
    pub fn from_json(v: &Value) -> Option<AttackSchedule> {
        let Value::Arr(items) = v else { return None };
        items
            .iter()
            .map(action_from_json)
            .collect::<Option<Vec<AttackAction>>>()
            .map(AttackSchedule::new)
    }

    /// Canonical serialization, used as a deduplication key.
    pub fn key(&self) -> String {
        self.to_json().to_string()
    }

    /// FNV-1a hash of [`AttackSchedule::key`] — stable across runs and
    /// platforms, used in corpus file names.
    pub fn fingerprint(&self) -> u64 {
        result_line_hash(&self.key())
    }
}

impl fmt::Display for AttackSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_joined(f, &self.actions, "(empty attack)")
    }
}

fn action_to_json(a: &AttackAction) -> Value {
    let mut v = Value::obj();
    match a {
        AttackAction::Flood { start, len } => {
            v.set("kind", Value::Str("flood".to_string()))
                .set("start", Value::U64(*start))
                .set("len", Value::U64(*len));
        }
        AttackAction::Pulse {
            node,
            field,
            index,
            occurrence,
        } => {
            v.set("kind", Value::Str("pulse".to_string()))
                .set("node", Value::U64(*node as u64))
                .set("field", Value::Str(field.to_string()))
                .set("index", Value::U64(u64::from(*index)))
                .set("occurrence", Value::U64(u64::from(*occurrence)));
        }
        AttackAction::Hammer {
            node,
            field,
            index,
            reps,
        } => {
            v.set("kind", Value::Str("hammer".to_string()))
                .set("node", Value::U64(*node as u64))
                .set("field", Value::Str(field.to_string()))
                .set("index", Value::U64(u64::from(*index)))
                .set("reps", Value::U64(u64::from(*reps)));
        }
    }
    v
}

fn action_from_json(v: &Value) -> Option<AttackAction> {
    match v.get("kind")?.as_str()? {
        "flood" => Some(AttackAction::Flood {
            start: v.get("start")?.as_u64()?,
            len: v.get("len")?.as_u64()?,
        }),
        "pulse" => Some(AttackAction::Pulse {
            node: v.get("node")?.as_u64()? as usize,
            field: Field::from_token(v.get("field")?.as_str()?)?,
            index: u16::try_from(v.get("index")?.as_u64()?).ok()?,
            occurrence: u32::try_from(v.get("occurrence")?.as_u64()?).ok()?,
        }),
        "hammer" => Some(AttackAction::Hammer {
            node: v.get("node")?.as_u64()? as usize,
            field: Field::from_token(v.get("field")?.as_str()?)?,
            index: u16::try_from(v.get("index")?.as_u64()?).ok()?,
            reps: u32::try_from(v.get("reps")?.as_u64()?).ok()?,
        }),
        _ => None,
    }
}

/// The classification of one run under attack.
///
/// Extends the benign [`Outcome`] vocabulary with victim bus-off — an
/// availability loss invisible to the Atomic Broadcast checker (a
/// disconnected node delivers nothing and violates nothing), yet exactly
/// what a bus-off attack buys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Every checked property held, no node was disconnected, and the
    /// whole schedule engaged the bus.
    Survived,
    /// Survived, but `unfired` actions never engaged the bus — the attack
    /// did not test what it claims to test.
    Vacuous {
        /// Number of armed actions that never fired an injection.
        unfired: usize,
    },
    /// A node was driven bus-off (TEC ≥ 256) by the attack.
    VictimBusOff {
        /// The disconnected node.
        node: usize,
    },
    /// A broken Atomic Broadcast property.
    Violation(Verdict),
    /// The simulator or checker panicked; the payload message is kept.
    Panic(String),
}

impl AttackOutcome {
    /// Stable token for counters and corpus files: `survived`, `vacuous`,
    /// `busoff`, the checker's verdict tokens (`double` / `omission` /
    /// `validity`), or `panic`.
    pub fn token(&self) -> &'static str {
        match self {
            AttackOutcome::Survived => "survived",
            AttackOutcome::Vacuous { .. } => "vacuous",
            AttackOutcome::VictimBusOff { .. } => "busoff",
            AttackOutcome::Violation(v) => v.token(),
            AttackOutcome::Panic(_) => "panic",
        }
    }

    /// `true` for the outcomes the attack search hunts: bus-off, property
    /// violations and panics.
    pub fn is_break(&self) -> bool {
        matches!(
            self,
            AttackOutcome::VictimBusOff { .. }
                | AttackOutcome::Violation(_)
                | AttackOutcome::Panic(_)
        )
    }

    /// `true` for Agreement/Validity breaks — the verdict classes the
    /// paper's `m`-tolerance argument covers. Bus-off and panics are
    /// breaks of a different kind (availability / harness).
    pub fn is_agreement_break(&self) -> bool {
        matches!(self, AttackOutcome::Violation(_))
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOutcome::VictimBusOff { node } => write!(f, "busoff(n{node})"),
            AttackOutcome::Panic(msg) => write!(f, "panic({msg})"),
            other => f.write_str(other.token()),
        }
    }
}

/// Folds a benign run classification and a scan of the event log into an
/// [`AttackOutcome`]. Bus-off outranks a property violation: a schedule
/// that disconnects a node *and* breaks a property certifies the bus-off
/// class (the cheaper pure-violation schedules certify the violation
/// classes on their own).
fn classify_attack(outcome: Outcome, bus_off_node: Option<usize>) -> AttackOutcome {
    match (bus_off_node, outcome) {
        (_, Outcome::CheckerPanic(msg)) => AttackOutcome::Panic(msg),
        (Some(node), _) => AttackOutcome::VictimBusOff { node },
        (None, Outcome::Violation(v)) => AttackOutcome::Violation(v),
        (None, Outcome::Vacuous { unfired }) => AttackOutcome::Vacuous { unfired },
        // A run the budget cut on a busy bus certifies nothing, exactly
        // like a vacuous one.
        (None, Outcome::Truncated { unfired }) => AttackOutcome::Vacuous { unfired },
        (None, Outcome::Consistent) => AttackOutcome::Survived,
    }
}

/// The attack oracle's testbed: a budget long enough for the bus-off
/// walk, and the warning-shutoff policy **off** so that walk is
/// reachable.
fn attack_settings(builder: TestbedBuilder) -> TestbedBuilder {
    builder.budget(ATTACK_BUDGET).shutoff_at_warning(false)
}

/// The attack oracle's run: `actions` armed, the run graded, and the
/// event log scanned for [`CanEvent::WentBusOff`].
fn attacked(actions: &[AttackAction]) -> impl FnOnce(&mut Testbed) -> AttackOutcome + '_ {
    move |testbed| {
        // The cost budget equals the schedule's nominal cost: the attacker
        // is granted exactly what the schedule claims to spend, so a
        // schedule cannot outspend its own certificate.
        let cost_budget = actions.iter().map(AttackAction::cost).sum();
        let outcome = testbed.run_attack(actions, cost_budget);
        let bus_off = testbed
            .can_events()
            .iter()
            .find(|e| matches!(e.event, CanEvent::WentBusOff))
            .map(|e| e.node.index());
        classify_attack(outcome, bus_off)
    }
}

/// A reusable attack evaluator with a cached testbed: the
/// [`Oracle`](crate::Oracle)'s core, building its clusters with the
/// warning shutoff off and running attacks instead of schedules.
///
/// Attack targets are link-layer protocols only: attacks address frame
/// positions of the CAN format itself. The verdicts
/// [`AttackOracle::judge`] records belong to the cached testbed and go
/// with it.
#[derive(Debug, Default)]
pub struct AttackOracle {
    core: OracleCore<Vec<AttackAction>, AttackOutcome>,
    /// The memo lookup key, refilled per lookup so a hit allocates nothing.
    key: Vec<AttackAction>,
}

impl AttackOracle {
    /// A fresh oracle with an empty testbed cache.
    pub fn new() -> AttackOracle {
        AttackOracle::default()
    }

    /// As [`AttackOracle::evaluate`] on the schedule `actions`, but an
    /// action list this oracle already judged on the cached testbed is
    /// not run again: the recorded verdict comes back instead. The attack
    /// shrinker judges every run, because the findings of one target
    /// converge on the same minima. The memo is cleared whenever the
    /// cached testbed is rebuilt, and an [`AttackOutcome::Panic`] is
    /// never recorded.
    pub fn judge(
        &mut self,
        target: ProtocolSpec,
        actions: &[AttackAction],
        n_nodes: usize,
    ) -> AttackOutcome {
        actions.clone_into(&mut self.key);
        self.core
            .judge(
                target,
                n_nodes,
                attack_settings,
                &self.key,
                attacked(actions),
            )
            .unwrap_or_else(AttackOutcome::Panic)
    }

    /// Simulator runs [`AttackOracle::judge`] has made over this oracle's
    /// life: the judgements its memo could not answer.
    pub(crate) fn judge_runs(&self) -> usize {
        self.core.judge_runs()
    }

    /// Evaluates `schedule` against `target` and classifies the run.
    /// Panics inside the simulator or checker are caught and reported as
    /// [`AttackOutcome::Panic`] — the oracle itself never unwinds.
    pub fn evaluate(
        &mut self,
        target: ProtocolSpec,
        schedule: &AttackSchedule,
        n_nodes: usize,
    ) -> AttackOutcome {
        self.core
            .run(
                target,
                n_nodes,
                attack_settings,
                attacked(schedule.actions()),
            )
            .unwrap_or_else(AttackOutcome::Panic)
    }
}

/// Evaluates `schedule` against `target` on a fresh testbed (see
/// [`AttackOracle::evaluate`]). Loops should hold an [`AttackOracle`].
pub fn evaluate_attack(
    target: ProtocolSpec,
    schedule: &AttackSchedule,
    n_nodes: usize,
) -> AttackOutcome {
    AttackOracle::new().evaluate(target, schedule, n_nodes)
}

/// Installs `schedule` on a scratch [`Attacker`] and reports its nominal
/// cost alongside the runtime charge after `bits` of a canonical run —
/// used by tests asserting the certificate cost is honest.
pub fn runtime_spend(target: ProtocolSpec, schedule: &AttackSchedule, n_nodes: usize) -> u64 {
    let mut testbed = attack_settings(Testbed::builder(target).nodes(n_nodes)).build();
    testbed.run_attack(schedule.actions(), schedule.cost());
    testbed
        .attacker()
        .map(Attacker::spent)
        .expect("run_attack installs an attack channel")
}

/// Where an attack corpus entry came from: the discovering search
/// coordinates plus the certificate payload — the strategy family and the
/// schedule's nominal cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackProvenance {
    /// Campaign seed of the discovering search.
    pub campaign_seed: u64,
    /// Job id within that campaign.
    pub job_id: u64,
    /// Trial index within that job.
    pub trial: u64,
    /// Strategy family of the shrunk schedule (see
    /// [`AttackSchedule::strategy_name`]).
    pub strategy: String,
    /// Nominal cost of the shrunk schedule in budget units.
    pub cost: u64,
}

/// One archived cheapest-attack certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCorpusEntry {
    /// Protocol the attack breaks.
    pub protocol: ProtocolSpec,
    /// Bus size of the repro.
    pub n_nodes: usize,
    /// Expected [`AttackOutcome::token`] on replay.
    pub expected: String,
    /// The (cost-shrunk) attack schedule.
    pub schedule: AttackSchedule,
    /// Discovery provenance, including strategy and cost.
    pub provenance: AttackProvenance,
}

impl AttackCorpusEntry {
    /// The entry's file name: an `attack-` prefix (so attack entries are
    /// recognizable at a glance), protocol, expected token and a schedule
    /// fingerprint — content-addressed like the benign corpus.
    pub fn file_name(&self) -> String {
        format!(
            "attack-{}-{}-{:08x}.json",
            self.protocol.to_string().to_lowercase(),
            self.expected,
            self.schedule.fingerprint() & 0xFFFF_FFFF
        )
    }

    /// The entry as one JSON document. The `kind` discriminator keeps
    /// attack entries from parsing as benign corpus entries (and vice
    /// versa); the `pretty` array is ignored on load.
    pub fn to_json(&self) -> Value {
        let p = &self.provenance;
        let mut prov = Provenance {
            campaign_seed: p.campaign_seed,
            job_id: p.job_id,
            trial: p.trial,
        }
        .to_json();
        prov.set("strategy", Value::Str(p.strategy.clone()))
            .set("cost", Value::U64(p.cost));
        let mut v = Value::obj();
        v.set("kind", Value::Str("attack".to_string()))
            .set("protocol", Value::Str(self.protocol.to_string()))
            .set("n_nodes", Value::U64(self.n_nodes as u64))
            .set("expected", Value::Str(self.expected.clone()))
            .set("attack", self.schedule.to_json())
            .set(
                "pretty",
                Value::Arr(
                    self.schedule
                        .actions()
                        .iter()
                        .map(|a| Value::Str(a.to_string()))
                        .collect(),
                ),
            )
            .set("provenance", prov);
        v
    }

    /// Parses what [`AttackCorpusEntry::to_json`] produced.
    pub fn from_json(v: &Value) -> Option<AttackCorpusEntry> {
        if v.get("kind")?.as_str()? != "attack" {
            return None;
        }
        let prov = v.get("provenance")?;
        let Provenance {
            campaign_seed,
            job_id,
            trial,
        } = Provenance::from_json(prov)?;
        Some(AttackCorpusEntry {
            protocol: ProtocolSpec::from_name(v.get("protocol")?.as_str()?)?,
            n_nodes: v.get("n_nodes")?.as_u64()? as usize,
            expected: v.get("expected")?.as_str()?.to_string(),
            schedule: AttackSchedule::from_json(v.get("attack")?)?,
            provenance: AttackProvenance {
                campaign_seed,
                job_id,
                trial,
                strategy: prov.get("strategy")?.as_str()?.to_string(),
                cost: prov.get("cost")?.as_u64()?,
            },
        })
    }

    /// Re-evaluates the entry's schedule against its target.
    pub fn replay(&self) -> AttackOutcome {
        evaluate_attack(self.protocol, &self.schedule, self.n_nodes)
    }
}

/// Writes `entries` into `dir` (created if missing), one file each, and
/// returns the paths written.
pub fn write_attack_corpus(dir: &Path, entries: &[AttackCorpusEntry]) -> io::Result<Vec<PathBuf>> {
    write_entries(dir, entries.iter().map(|e| (e.file_name(), e.to_json())))
}

/// Loads every `*.json` attack entry in `dir`, sorted by file name. A
/// missing `dir` is an error, as for [`load_corpus`](crate::load_corpus).
pub fn load_attack_corpus(dir: &Path) -> io::Result<Vec<AttackCorpusEntry>> {
    read_entries(dir, "an attack corpus entry", AttackCorpusEntry::from_json)
}

/// The repository's checked-in attack corpus directory
/// (`corpus/attack/` — a subdirectory, so the benign
/// [`load_corpus`](crate::load_corpus) never sees attack entries).
pub fn repo_attack_corpus_dir() -> PathBuf {
    crate::repo_corpus_dir().join("attack")
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_campaign::json::parse;

    fn busoff_schedule(reps: u32) -> AttackSchedule {
        AttackSchedule::from_strategy(&Strategy::BusOffAttack { victim: 0, reps })
    }

    fn fig1b_attack() -> AttackSchedule {
        // The attack twin of Fig. 1b: one dominant pulse into node 1's
        // view of the last-but-one EOF bit (0-based index 5 of 7).
        AttackSchedule::new(vec![AttackAction::Pulse {
            node: 1,
            field: Field::Eof,
            index: 5,
            occurrence: 1,
        }])
    }

    #[test]
    fn schedule_cost_sums_action_costs() {
        let s = AttackSchedule::new(vec![
            AttackAction::Pulse {
                node: 0,
                field: Field::Eof,
                index: 6,
                occurrence: 1,
            },
            AttackAction::Flood { start: 40, len: 9 },
            AttackAction::Hammer {
                node: 1,
                field: Field::CrcDelim,
                index: 0,
                reps: 5,
            },
        ]);
        assert_eq!(s.cost(), 1 + 9 + 5);
        assert_eq!(s.strategy_name(), "flood");
        assert_eq!(busoff_schedule(32).strategy_name(), "busoff");
        assert_eq!(fig1b_attack().strategy_name(), "pulse");
        assert_eq!(
            AttackSchedule::from_strategy(&Strategy::CounterManipulation {
                victim: 1,
                reps: 16
            })
            .strategy_name(),
            "counter"
        );
    }

    #[test]
    fn schedule_json_round_trips_every_action_kind() {
        let s = AttackSchedule::new(vec![
            AttackAction::Flood { start: 7, len: 3 },
            AttackAction::Pulse {
                node: 2,
                field: Field::Eof,
                index: 5,
                occurrence: 2,
            },
            AttackAction::Hammer {
                node: 0,
                field: Field::CrcDelim,
                index: 0,
                reps: 12,
            },
        ]);
        let text = s.to_json().to_string();
        assert!(text.contains("\"kind\":\"flood\""), "{text}");
        assert!(text.contains("\"field\":\"CRCDEL\""), "{text}");
        let back = AttackSchedule::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.fingerprint(), back.fingerprint());
    }

    #[test]
    fn pulse_attack_twin_of_fig1b_breaks_can_not_majorcan() {
        let s = fig1b_attack();
        assert_eq!(
            evaluate_attack(ProtocolSpec::StandardCan, &s, 3),
            AttackOutcome::Violation(Verdict::DoubleReception)
        );
        assert!(!evaluate_attack(ProtocolSpec::MajorCan { m: 5 }, &s, 3).is_break());
    }

    #[test]
    fn busoff_hammer_disconnects_the_victim_on_every_variant() {
        // 32 induced transmit errors walk TEC 0 → 256 (+8 each).
        let s = busoff_schedule(32);
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MinorCan,
            ProtocolSpec::MajorCan { m: 3 },
        ] {
            let outcome = evaluate_attack(target, &s, 3);
            assert_eq!(
                outcome,
                AttackOutcome::VictimBusOff { node: 0 },
                "{target}: {outcome}"
            );
        }
    }

    #[test]
    fn underfunded_busoff_hammer_does_not_disconnect() {
        // 8 strikes move TEC to 64: error-active throughout, and the frame
        // eventually goes through.
        let outcome = evaluate_attack(ProtocolSpec::StandardCan, &busoff_schedule(8), 3);
        assert!(!outcome.is_break(), "{outcome}");
    }

    #[test]
    fn runtime_spend_never_exceeds_the_nominal_cost() {
        for schedule in [fig1b_attack(), busoff_schedule(32), busoff_schedule(8)] {
            let spent = runtime_spend(ProtocolSpec::StandardCan, &schedule, 3);
            assert!(
                spent <= schedule.cost(),
                "{schedule}: spent {spent} > nominal {}",
                schedule.cost()
            );
        }
    }

    #[test]
    fn unengaged_actions_classify_as_vacuous() {
        // A flood far beyond the run budget never fires.
        let s = AttackSchedule::new(vec![AttackAction::Flood {
            start: ATTACK_BUDGET * 2,
            len: 5,
        }]);
        assert_eq!(
            evaluate_attack(ProtocolSpec::StandardCan, &s, 3),
            AttackOutcome::Vacuous { unfired: 1 }
        );
    }

    #[test]
    fn empty_attack_survives_everywhere() {
        let s = AttackSchedule::new(vec![]);
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MinorCan,
            ProtocolSpec::MajorCan { m: 5 },
        ] {
            assert_eq!(evaluate_attack(target, &s, 3), AttackOutcome::Survived);
        }
    }

    #[test]
    fn judge_agrees_with_evaluate_and_runs_a_repeated_schedule_once() {
        let mut oracle = AttackOracle::new();
        let schedules = [fig1b_attack(), busoff_schedule(32), busoff_schedule(8)];
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MajorCan { m: 5 },
            ProtocolSpec::StandardCan,
        ] {
            for s in &schedules {
                assert_eq!(
                    oracle.judge(target, s.actions(), 3),
                    evaluate_attack(target, s, 3),
                    "{target}: {s}"
                );
            }
        }
        assert_eq!(
            oracle.judge_runs(),
            9,
            "each target switch forgets the memo"
        );
        for s in &schedules {
            oracle.judge(ProtocolSpec::StandardCan, s.actions(), 3);
        }
        assert_eq!(oracle.judge_runs(), 9, "repeats are answered by the memo");
    }

    #[test]
    fn attack_judge_never_records_a_panic_and_recovers() {
        let mut oracle = AttackOracle::new();
        for _ in 0..2 {
            let bad = oracle.judge(ProtocolSpec::MajorCan { m: 2 }, fig1b_attack().actions(), 3);
            assert_eq!(bad.token(), "panic", "{bad}");
        }
        assert_eq!(oracle.judge_runs(), 2, "a panic verdict is never recorded");
        assert_eq!(
            oracle.judge(ProtocolSpec::StandardCan, fig1b_attack().actions(), 3),
            AttackOutcome::Violation(Verdict::DoubleReception)
        );
    }

    #[test]
    fn outcome_tokens_and_classes() {
        assert_eq!(AttackOutcome::Survived.token(), "survived");
        assert_eq!(AttackOutcome::Vacuous { unfired: 2 }.token(), "vacuous");
        assert_eq!(AttackOutcome::VictimBusOff { node: 1 }.token(), "busoff");
        assert_eq!(
            AttackOutcome::Violation(Verdict::Omission).token(),
            "omission"
        );
        assert_eq!(AttackOutcome::Panic("x".into()).token(), "panic");
        assert!(AttackOutcome::VictimBusOff { node: 0 }.is_break());
        assert!(!AttackOutcome::VictimBusOff { node: 0 }.is_agreement_break());
        assert!(AttackOutcome::Violation(Verdict::DoubleReception).is_agreement_break());
        assert!(!AttackOutcome::Survived.is_break());
    }

    #[test]
    fn attack_entry_round_trips_and_is_not_a_benign_entry() {
        let entry = AttackCorpusEntry {
            protocol: ProtocolSpec::StandardCan,
            n_nodes: 3,
            expected: "double".to_string(),
            schedule: fig1b_attack(),
            provenance: AttackProvenance {
                campaign_seed: 0xA77,
                job_id: 2,
                trial: 9,
                strategy: "pulse".to_string(),
                cost: 1,
            },
        };
        let text = entry.to_json().to_string();
        assert!(text.contains("\"kind\":\"attack\""), "{text}");
        assert!(text.contains("\"cost\":1"), "{text}");
        let back = AttackCorpusEntry::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, entry);
        assert_eq!(back.replay().token(), "double");
        assert!(
            crate::CorpusEntry::from_json(&parse(&text).unwrap()).is_none(),
            "attack entries must not parse as benign corpus entries"
        );
        assert!(entry.file_name().starts_with("attack-can-double-"));
    }

    #[test]
    fn attack_corpus_directory_round_trips_and_must_exist() {
        let dir = std::env::temp_dir().join(format!(
            "majorcan-falsify-attack-corpus-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_attack_corpus(&dir).is_err());
        let entry = AttackCorpusEntry {
            protocol: ProtocolSpec::MinorCan,
            n_nodes: 3,
            expected: "busoff".to_string(),
            schedule: busoff_schedule(32),
            provenance: AttackProvenance {
                campaign_seed: 1,
                job_id: 0,
                trial: 0,
                strategy: "busoff".to_string(),
                cost: 32,
            },
        };
        let written = write_attack_corpus(&dir, std::slice::from_ref(&entry)).unwrap();
        assert_eq!(written.len(), 1);
        let loaded = load_attack_corpus(&dir).unwrap();
        assert_eq!(loaded, vec![entry]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
