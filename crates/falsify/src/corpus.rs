//! The replayable regression corpus.
//!
//! Every shrunk counterexample is archived as one JSON file under the
//! repository's `corpus/` directory: the target protocol, bus size,
//! evaluation budget, expected outcome token, the schedule itself, and
//! the `(campaign seed, job id, trial)` provenance that synthesized it.
//! Files carry **no timestamps** and serialize through the campaign's
//! byte-stable JSON layer, so regenerating the corpus from the same seed
//! reproduces the same bytes. The `corpus_replay` integration test
//! re-evaluates every entry on every CI run: violations must keep
//! reproducing on their target, and MajorCAN must survive every archived
//! schedule. The cheapest-attack certificates under `corpus/attack/`
//! are written and read through the same directory writer and reader.

use crate::oracle::{evaluate, Outcome};
use crate::schedule::Schedule;
use majorcan_campaign::json::{parse, Value};
use majorcan_campaign::ProtocolSpec;
use std::io;
use std::path::{Path, PathBuf};

/// Where a corpus entry came from: the exact point of the search space
/// that synthesized its (pre-shrink) schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Campaign seed of the discovering search.
    pub campaign_seed: u64,
    /// Job id within that campaign.
    pub job_id: u64,
    /// Trial index within that job.
    pub trial: u64,
}

impl Provenance {
    /// The provenance as a JSON object.
    pub(crate) fn to_json(self) -> Value {
        let mut v = Value::obj();
        v.set("campaign_seed", Value::U64(self.campaign_seed))
            .set("job_id", Value::U64(self.job_id))
            .set("trial", Value::U64(self.trial));
        v
    }

    /// Parses the fields [`Provenance::to_json`] wrote.
    pub(crate) fn from_json(v: &Value) -> Option<Provenance> {
        Some(Provenance {
            campaign_seed: v.get("campaign_seed")?.as_u64()?,
            job_id: v.get("job_id")?.as_u64()?,
            trial: v.get("trial")?.as_u64()?,
        })
    }
}

/// One archived, replayable counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Protocol the schedule violates.
    pub protocol: ProtocolSpec,
    /// Bus size of the repro.
    pub n_nodes: usize,
    /// Evaluation bit budget.
    pub budget: u64,
    /// Expected [`Outcome::token`] on replay.
    pub expected: String,
    /// The (shrunk) disturbance schedule.
    pub schedule: Schedule,
    /// Discovery provenance.
    pub provenance: Provenance,
}

impl CorpusEntry {
    /// The entry's file name: protocol, expected token and a fingerprint
    /// of the schedule — content-addressed, so regeneration is idempotent
    /// and two distinct repros never collide.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{:08x}.json",
            self.protocol.to_string().to_lowercase(),
            self.expected,
            self.schedule.fingerprint() & 0xFFFF_FFFF
        )
    }

    /// The entry as one JSON document. The `pretty` array is a
    /// human-readable rendering of the schedule for reviewers; it is
    /// ignored on load.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("protocol", Value::Str(self.protocol.to_string()))
            .set("n_nodes", Value::U64(self.n_nodes as u64))
            .set("budget", Value::U64(self.budget))
            .set("expected", Value::Str(self.expected.clone()))
            .set("schedule", self.schedule.to_json())
            .set(
                "pretty",
                Value::Arr(
                    self.schedule
                        .disturbances()
                        .iter()
                        .map(|d| Value::Str(d.to_string()))
                        .collect(),
                ),
            )
            .set("provenance", self.provenance.to_json());
        v
    }

    /// Parses what [`CorpusEntry::to_json`] produced.
    pub fn from_json(v: &Value) -> Option<CorpusEntry> {
        Some(CorpusEntry {
            protocol: ProtocolSpec::from_name(v.get("protocol")?.as_str()?)?,
            n_nodes: v.get("n_nodes")?.as_u64()? as usize,
            budget: v.get("budget")?.as_u64()?,
            expected: v.get("expected")?.as_str()?.to_string(),
            schedule: Schedule::from_json(v.get("schedule")?)?,
            provenance: Provenance::from_json(v.get("provenance")?)?,
        })
    }

    /// Re-evaluates the entry's schedule against its target with its
    /// recorded budget.
    pub fn replay(&self) -> Outcome {
        evaluate(self.protocol, &self.schedule, self.n_nodes, self.budget)
    }
}

/// Writes `entries` into `dir` (created if missing), one file each, and
/// returns the paths written.
pub fn write_corpus(dir: &Path, entries: &[CorpusEntry]) -> io::Result<Vec<PathBuf>> {
    write_entries(dir, entries.iter().map(|e| (e.file_name(), e.to_json())))
}

/// Loads every `*.json` entry in `dir`, sorted by file name (so replay
/// order is stable). A missing `dir` is an error.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<CorpusEntry>> {
    read_entries(dir, "a corpus entry", CorpusEntry::from_json)
}

/// The corpus directory writer: one `<name>` file per `(name, document)`
/// pair, holding the document and a newline, in `dir` (created if
/// missing). Returns the paths written.
pub(crate) fn write_entries(
    dir: &Path,
    entries: impl Iterator<Item = (String, Value)>,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    entries
        .map(|(name, json)| {
            let path = dir.join(name);
            std::fs::write(&path, format!("{json}\n"))?;
            Ok(path)
        })
        .collect()
}

/// The corpus directory reader: parses every `*.json` file in `dir` with
/// `from_json`, sorted by file name. A file `from_json` rejects is an
/// error naming it as not `what`.
pub(crate) fn read_entries<E>(
    dir: &Path,
    what: &str,
    from_json: impl Fn(&Value) -> Option<E>,
) -> io::Result<Vec<E>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)?;
            let value = parse(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            from_json(&value).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: not {what}", path.display()),
                )
            })
        })
        .collect()
}

/// The repository's checked-in corpus directory (`corpus/` at the repo
/// root).
pub fn repo_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_faults::{Disturbance, Scenario};

    fn entry() -> CorpusEntry {
        CorpusEntry {
            protocol: ProtocolSpec::StandardCan,
            n_nodes: 3,
            budget: 5_000,
            expected: "double".to_string(),
            schedule: Schedule::new(vec![Disturbance::eof(1, 6)]),
            provenance: Provenance {
                campaign_seed: 0xFA15,
                job_id: 3,
                trial: 17,
            },
        }
    }

    #[test]
    fn entry_round_trips_and_replays() {
        let e = entry();
        let text = e.to_json().to_string();
        assert!(text.contains("\"pretty\""), "{text}");
        let back = CorpusEntry::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.replay().token(), "double");
    }

    #[test]
    fn file_names_are_content_addressed() {
        let e = entry();
        assert!(
            e.file_name().starts_with("can-double-"),
            "{}",
            e.file_name()
        );
        assert_eq!(e.file_name(), entry().file_name());
        let mut other = entry();
        other.schedule = Schedule::new(Scenario::fig3a().disturbances);
        assert_ne!(e.file_name(), other.file_name());
    }

    #[test]
    fn corpus_directory_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("majorcan-falsify-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut second = entry();
        second.protocol = ProtocolSpec::MinorCan;
        second.expected = "omission".to_string();
        second.schedule = Schedule::new(Scenario::fig3a().disturbances);
        let written = write_corpus(&dir, &[entry(), second.clone()]).unwrap();
        assert_eq!(written.len(), 2);
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains(&entry()));
        assert!(loaded.contains(&second));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
