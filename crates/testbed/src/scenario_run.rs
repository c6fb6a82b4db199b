//! The owned result of one scripted link-layer run.

use crate::outcome::{classify, Outcome};
use majorcan_abcast::check_can_events;
use majorcan_can::{CanEvent, Frame};
use majorcan_faults::Disturbance;
use majorcan_sim::{BitTrace, NodeId, TimedEvent};

/// The outcome of a scenario execution.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Full controller event log.
    pub events: Vec<TimedEvent<CanEvent>>,
    /// Bit-level trace (always recorded for scenario runs).
    pub trace: BitTrace,
    /// The scripted disturbances that never fired, in script order (empty
    /// exactly when the run is [`fully_applied`](ScenarioRun::fully_applied)).
    /// A disturbance stays unfired when its position never exists under
    /// the variant's geometry, its node never reaches the position, or the
    /// requested occurrence count is never met — any of which makes a
    /// "consistent" verdict vacuous for schedule-searching callers.
    pub unfired: Vec<Disturbance>,
    /// Number of nodes in the run.
    pub n_nodes: usize,
    /// `true` when the budget ran out before the bus drained (the drain
    /// test of every testbed grade): the run is a prefix, and
    /// [`outcome`](ScenarioRun::outcome) grades a clean verdict on it
    /// truncated.
    pub truncated: bool,
}

impl ScenarioRun {
    /// Number of scripted disturbances that never fired.
    pub fn remaining(&self) -> usize {
        self.unfired.len()
    }

    /// `true` when every scripted disturbance fired, i.e. the run really
    /// exercised the schedule it claims to have exercised.
    pub fn fully_applied(&self) -> bool {
        self.unfired.is_empty()
    }

    /// Panics with the list of unfired disturbances unless the script
    /// fully applied. Scenario reproductions call this so a geometry
    /// mismatch (e.g. a MajorCAN-only position run under standard CAN)
    /// fails loudly instead of passing vacuously.
    pub fn assert_fully_applied(&self) {
        assert!(
            self.fully_applied(),
            "disturbance script did not fully apply; unfired: [{}]",
            self.unfired
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    /// Frames delivered by `node`, in order.
    pub fn deliveries(&self, node: usize) -> Vec<Frame> {
        self.events
            .iter()
            .filter(|e| e.node == NodeId(node))
            .filter_map(|e| match &e.event {
                CanEvent::Delivered { frame, .. } => Some(frame.clone()),
                _ => None,
            })
            .collect()
    }

    /// Number of successful transmissions committed by `node`.
    pub fn tx_successes(&self, node: usize) -> usize {
        self.events
            .iter()
            .filter(|e| e.node == NodeId(node) && matches!(e.event, CanEvent::TxSucceeded { .. }))
            .count()
    }

    /// Number of retransmissions scheduled by `node`.
    pub fn retransmissions(&self, node: usize) -> usize {
        self.events
            .iter()
            .filter(|e| {
                e.node == NodeId(node)
                    && matches!(e.event, CanEvent::RetransmissionScheduled { .. })
            })
            .count()
    }

    /// `true` if every non-crashed receiver delivered the frame at least
    /// once and no receiver delivered it twice — the quick per-scenario
    /// consistency check. [`ScenarioRun::outcome`] runs the full Atomic
    /// Broadcast checker instead.
    pub fn consistent_single_delivery(&self) -> bool {
        let crashed: Vec<usize> = self
            .events
            .iter()
            .filter(|e| matches!(e.event, CanEvent::Crashed))
            .map(|e| e.node.index())
            .collect();
        (1..self.n_nodes)
            .filter(|n| !crashed.contains(n))
            .all(|n| self.deliveries(n).len() == 1)
    }

    /// Grades the run with the Atomic Broadcast checker and classifies it
    /// into the shared [`Outcome`] vocabulary, demoting a clean verdict on
    /// a [`truncated`](ScenarioRun::truncated) run: the grade the
    /// falsifier's oracle applies.
    pub fn outcome(&self) -> Outcome {
        let verdict = check_can_events(&self.events, self.n_nodes).verdict();
        classify(verdict, self.remaining()).truncate_if(self.truncated)
    }
}
