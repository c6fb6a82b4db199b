//! Disturbance schedules as first-class, serializable values.
//!
//! A [`Schedule`] is an ordered list of scripted view-flips — the unit the
//! falsifier generates, evaluates, shrinks and archives. Serialization
//! goes through the campaign's byte-stable JSON layer so corpus files are
//! reproducible and diffable; field names round-trip through
//! [`Field`]'s `Display`/`from_token` pair.

use majorcan_campaign::json::Value;
use majorcan_campaign::shard::result_line_hash;
use majorcan_can::Field;
use majorcan_faults::Disturbance;
use std::fmt;

/// An ordered disturbance schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    disturbances: Vec<Disturbance>,
}

impl Schedule {
    /// Wraps a disturbance list.
    pub fn new(disturbances: Vec<Disturbance>) -> Schedule {
        Schedule { disturbances }
    }

    /// The scripted disturbances, in order.
    pub fn disturbances(&self) -> &[Disturbance] {
        &self.disturbances
    }

    /// An owned copy of the disturbance list (what
    /// [`ScriptedFaults::new`](majorcan_faults::ScriptedFaults::new)
    /// consumes).
    pub fn to_vec(&self) -> Vec<Disturbance> {
        self.disturbances.clone()
    }

    /// Number of disturbances.
    pub fn len(&self) -> usize {
        self.disturbances.len()
    }

    /// `true` for the empty schedule.
    pub fn is_empty(&self) -> bool {
        self.disturbances.is_empty()
    }

    /// The schedule as a JSON array of disturbance objects.
    pub fn to_json(&self) -> Value {
        Value::Arr(self.disturbances.iter().map(disturbance_to_json).collect())
    }

    /// Parses what [`Schedule::to_json`] produced.
    pub fn from_json(v: &Value) -> Option<Schedule> {
        let Value::Arr(items) = v else { return None };
        items
            .iter()
            .map(disturbance_from_json)
            .collect::<Option<Vec<Disturbance>>>()
            .map(Schedule::new)
    }

    /// Canonical serialization, used as a deduplication key.
    pub fn key(&self) -> String {
        self.to_json().to_string()
    }

    /// FNV-1a hash of [`Schedule::key`] — stable across runs and
    /// platforms, used in corpus file names.
    pub fn fingerprint(&self) -> u64 {
        result_line_hash(&self.key())
    }
}

/// Writes `items` joined by `"; "`, or `empty` when there are none — the
/// `Display` of both schedule kinds.
pub(crate) fn write_joined<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    items: &[T],
    empty: &str,
) -> fmt::Result {
    if items.is_empty() {
        return f.write_str(empty);
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str("; ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_joined(f, &self.disturbances, "(empty schedule)")
    }
}

fn disturbance_to_json(d: &Disturbance) -> Value {
    let mut v = Value::obj();
    v.set("node", Value::U64(d.node as u64))
        .set("field", Value::Str(d.field.to_string()))
        .set("index", Value::U64(u64::from(d.index)))
        .set("occurrence", Value::U64(u64::from(d.occurrence)))
        .set("stuff", Value::Bool(d.stuff));
    v
}

fn disturbance_from_json(v: &Value) -> Option<Disturbance> {
    Some(Disturbance {
        node: v.get("node")?.as_u64()? as usize,
        field: Field::from_token(v.get("field")?.as_str()?)?,
        index: u16::try_from(v.get("index")?.as_u64()?).ok()?,
        occurrence: u32::try_from(v.get("occurrence")?.as_u64()?).ok()?,
        stuff: v.get("stuff")?.as_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_campaign::json::parse;

    fn sample() -> Schedule {
        Schedule::new(vec![
            Disturbance::eof(1, 6),
            Disturbance::stuff_bit(0, Field::Crc, 12),
            Disturbance {
                node: 2,
                field: Field::AgreementHold,
                index: 13,
                occurrence: 2,
                stuff: false,
            },
        ])
    }

    #[test]
    fn json_round_trips_every_field() {
        let s = sample();
        let text = s.to_json().to_string();
        assert!(text.contains("\"field\":\"EOF\""), "{text}");
        assert!(text.contains("\"field\":\"HOLD\""), "{text}");
        assert!(text.contains("\"stuff\":true"), "{text}");
        let back = Schedule::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unknown_field_token_is_rejected() {
        let text = "[{\"node\":0,\"field\":\"NOPE\",\"index\":1,\"occurrence\":1,\"stuff\":false}]";
        assert!(Schedule::from_json(&parse(text).unwrap()).is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let s = sample();
        assert_eq!(s.fingerprint(), sample().fingerprint());
        let mut reversed = s.to_vec();
        reversed.reverse();
        assert_ne!(s.fingerprint(), Schedule::new(reversed).fingerprint());
    }

    #[test]
    fn display_joins_disturbances() {
        let text = sample().to_string();
        assert!(text.contains("n1 view of EOF6"), "{text}");
        assert!(text.contains("; "), "{text}");
        assert_eq!(Schedule::new(vec![]).to_string(), "(empty schedule)");
    }
}
