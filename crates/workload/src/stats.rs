//! Bus statistics derived from controller event logs: throughput,
//! occupation, retransmission counts and achieved load.

use majorcan_can::CanEvent;
use majorcan_sim::TimedEvent;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusStats {
    /// Transmission attempts started (retransmissions included).
    pub attempts: usize,
    /// Successfully committed transmissions.
    pub successes: usize,
    /// Retransmissions scheduled.
    pub retransmissions: usize,
    /// Receiver deliveries.
    pub deliveries: usize,
    /// Error-detection events.
    pub errors: usize,
    /// Overload conditions.
    pub overloads: usize,
    /// Bits spent between each successful transmission's SOF and commit.
    pub busy_bits: u64,
}

impl BusStats {
    /// Computes statistics from a controller event log.
    pub fn from_events(events: &[TimedEvent<CanEvent>]) -> BusStats {
        let mut stats = BusStats::default();
        let mut open: BTreeMap<usize, u64> = BTreeMap::new();
        for e in events {
            match &e.event {
                CanEvent::TxStarted { .. } => {
                    stats.attempts += 1;
                    open.insert(e.node.index(), e.at);
                }
                CanEvent::TxSucceeded { .. } => {
                    stats.successes += 1;
                    if let Some(start) = open.remove(&e.node.index()) {
                        stats.busy_bits += e.at - start + 1;
                    }
                }
                CanEvent::RetransmissionScheduled { .. } => stats.retransmissions += 1,
                CanEvent::Delivered { .. } => stats.deliveries += 1,
                CanEvent::ErrorDetected { .. } => stats.errors += 1,
                CanEvent::OverloadCondition => stats.overloads += 1,
                _ => {}
            }
        }
        stats
    }

    /// Mean bus bits consumed per successfully delivered message.
    pub fn bits_per_message(&self) -> f64 {
        self.busy_bits as f64 / self.successes.max(1) as f64
    }

    /// Fraction of `horizon` bits the bus spent inside successful frames.
    pub fn utilization(&self, horizon: u64) -> f64 {
        self.busy_bits as f64 / horizon.max(1) as f64
    }
}

impl fmt::Display for BusStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempts, {} successes, {} retransmissions, {} deliveries, \
             {} errors, {:.1} bits/message",
            self.attempts,
            self.successes,
            self.retransmissions,
            self.deliveries,
            self.errors,
            self.bits_per_message()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drive_source, plan_periodic_load, Workload};
    use majorcan_can::{Controller, StandardCan};
    use majorcan_sim::{NoFaults, Simulator};

    #[test]
    fn counts_clean_traffic() {
        let mut sim = Simulator::new(NoFaults);
        for _ in 0..3 {
            sim.attach(Controller::new(StandardCan));
        }
        let sources = plan_periodic_load(3, 0.4, 110);
        let mut releases = Vec::new();
        for s in &sources {
            releases.extend(s.releases(5_000));
        }
        let mut w = Workload::new(releases);
        let queued = drive_source(&mut sim, &mut w, 8_000);
        let stats = BusStats::from_events(sim.events());
        assert_eq!(stats.successes, queued);
        assert_eq!(stats.attempts, queued, "no retransmissions fault-free");
        assert_eq!(stats.deliveries, queued * 2);
        assert_eq!(stats.errors, 0);
        // ~110-bit frames plus tag payload variations.
        let bpm = stats.bits_per_message();
        assert!((80.0..140.0).contains(&bpm), "bits/message = {bpm}");
        // Utilization approximates the 40% offered load over the loaded
        // window (the drive horizon includes drain time, so below target).
        let util = stats.utilization(8_000);
        assert!((0.15..0.45).contains(&util), "utilization = {util}");
    }

    #[test]
    fn display_is_informative() {
        let stats = BusStats {
            attempts: 3,
            successes: 2,
            retransmissions: 1,
            deliveries: 4,
            errors: 1,
            overloads: 0,
            busy_bits: 200,
        };
        let text = stats.to_string();
        assert!(text.contains("3 attempts"));
        assert!(text.contains("100.0 bits/message"));
    }

    #[test]
    fn empty_log_is_zeroes() {
        let stats = BusStats::from_events(&[]);
        assert_eq!(stats, BusStats::default());
        assert_eq!(stats.bits_per_message(), 0.0);
        assert_eq!(stats.utilization(0), 0.0);
    }
}
