//! # majorcan-falsify — adversarial fault-schedule falsifier
//!
//! The figure reproductions show the paper's *named* scenarios behave as
//! printed. This crate asks the stronger question: **can any small
//! disturbance schedule we can synthesize break a protocol's Atomic
//! Broadcast properties?** It is a property-based fuzzer specialized to
//! the paper's fault model:
//!
//! * [`generate`] — a deterministic, seeded generator of adversarial
//!   [`Schedule`]s, biased toward the positions the paper's analysis
//!   turns on (last/last-but-one EOF bits, error-flag and delimiter
//!   boundaries, the CRC tail, the agreement window) plus mutations of
//!   the figure schedules themselves;
//! * [`evaluate`] — an oracle running a schedule against any protocol
//!   target (CAN, MinorCAN, MajorCAN, or the EDCAN/RELCAN/TOTCAN layers)
//!   and classifying the run as consistent, vacuous, a property
//!   violation, or a checker panic;
//! * [`shrink`] — a delta-debugging minimizer reducing a finding to its
//!   causal core (fewest disturbances, canonical positions);
//! * [`run_search`] — the campaign fan-out: thousands of schedules across
//!   the deterministic runner, bit-identical results for any worker
//!   count;
//! * [`CorpusEntry`]/[`write_corpus`]/[`load_corpus`] — the replayable
//!   regression corpus checked into `corpus/`, re-verified by CI;
//! * [`run_attack_search`] — the cost-aware **attacker** mode: budgeted
//!   dominant-injection [`AttackSchedule`]s against the link-layer
//!   variants, victim bus-off as its own [`AttackOutcome`] class, shrinks
//!   that minimize attack *cost*, and cheapest-attack certificates
//!   archived under `corpus/attack/`.
//!
//! The attack search is the benign search run on attacks, not a copy of
//! it: both build their job lists, cache and memoise their testbeds,
//! contain panics, drop and reorder shrink candidates, run the shrink
//! phase and write and read their corpora through the same code. Only
//! the generators, the run on the testbed and the per-kind shrink passes
//! (position normalisation for schedules, cost descent for attacks)
//! differ.
//!
//! The search space is confined to the frame tail — the domain of the
//! paper's analysis. The whole-frame single-error atlas (EXPERIMENTS.md
//! F1) already documents what lies outside it.
//!
//! ```
//! use majorcan_campaign::ProtocolSpec;
//! use majorcan_falsify::{evaluate, Outcome, Schedule, LINK_BUDGET};
//! use majorcan_faults::Scenario;
//!
//! // The paper's Fig. 3a schedule is a falsifying input for standard CAN…
//! let schedule = Schedule::new(Scenario::fig3a().disturbances);
//! let outcome = evaluate(ProtocolSpec::StandardCan, &schedule, 3, LINK_BUDGET);
//! assert!(outcome.is_finding());
//! // …and MajorCAN survives it.
//! let outcome = evaluate(ProtocolSpec::MajorCan { m: 5 }, &schedule, 3, LINK_BUDGET);
//! assert_eq!(outcome, Outcome::Consistent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod attack_search;
mod corpus;
mod generator;
mod oracle;
mod schedule;
mod search;
mod shrink;
mod shrink_phase;

pub use attack::{
    evaluate_attack, load_attack_corpus, repo_attack_corpus_dir, runtime_spend,
    write_attack_corpus, AttackCorpusEntry, AttackOracle, AttackOutcome, AttackProvenance,
    AttackSchedule, ATTACK_BUDGET,
};
pub use attack_search::{
    build_attack_jobs, execute_attack_search_job, generate_attack, run_attack_search,
    shrink_attack_with, AttackFinding, AttackSearchConfig, AttackSearchReport, ShrunkAttack,
    ATTACKS_PER_JOB, MAX_ATTACK_EVALUATIONS,
};
pub use corpus::{load_corpus, repo_corpus_dir, write_corpus, CorpusEntry, Provenance};
pub use generator::{generate, tail_disturbance, Geometry};
pub use oracle::{
    budget_for, classify, evaluate, Engine, Oracle, Outcome, HLP_BUDGET, LINK_BUDGET,
};
pub use schedule::Schedule;
pub use search::{
    build_jobs, execute_search_job, run_search, Finding, SearchConfig, SearchReport,
    SCHEDULES_PER_JOB,
};
pub use shrink::{shrink, shrink_with, Shrunk, MAX_EVALUATIONS};
