//! Simulation event traces.
//!
//! [`crate::engine::run_traced`] records everything that happens in a run
//! as a time-ordered event list — the tool for debugging a policy, writing
//! fine-grained assertions in tests, or exporting a timeline for external
//! analysis. The hot experiment paths use [`crate::engine::run`], which
//! records nothing.

use serde::{Deserialize, Serialize};

/// One simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A slot boundary: rates were resampled for slot `slot`.
    SlotBoundary {
        /// Event time.
        time: f64,
        /// The slot that just started.
        slot: u64,
    },
    /// The policy replaced its pending plan. (Appending a plan's next
    /// window is not a replacement and records no event.)
    PlanReplaced {
        /// Event time.
        time: f64,
        /// Dispatches in the new plan as handed over — for a windowed
        /// plan, its first window.
        pending: usize,
    },
    /// A charging scheduling was executed.
    Dispatch {
        /// Event time.
        time: f64,
        /// Sensors covered.
        sensors: usize,
        /// Travel cost of the scheduling.
        cost: f64,
    },
    /// A sensor was charged to full.
    Charge {
        /// Event time (arrival time in travel-time mode).
        time: f64,
        /// The charged sensor.
        sensor: usize,
    },
    /// A sensor ran out of energy.
    Death {
        /// Estimated depletion instant.
        time: f64,
        /// The dead sensor.
        sensor: usize,
    },
    /// A charger broke down (fault injection).
    ChargerDown {
        /// Breakdown instant.
        time: f64,
        /// The failed charger (depot index).
        charger: usize,
    },
    /// A broken charger came back up.
    ChargerRepaired {
        /// Repair instant.
        time: f64,
        /// The repaired charger (depot index).
        charger: usize,
        /// Length of the ended down phase.
        downtime: f64,
    },
    /// A planned tour was skipped because its charger was down (mid-tour
    /// aborts of in-transit stops report the cancelled arrivals the same
    /// way).
    TourAborted {
        /// Abort instant.
        time: f64,
        /// The down charger (depot index).
        charger: usize,
        /// Sensors orphaned by the abort.
        orphans: usize,
    },
    /// The recovery planner executed an emergency scheduling over the
    /// surviving depots.
    EmergencyDispatch {
        /// Dispatch instant.
        time: f64,
        /// Urgent orphans served.
        sensors: usize,
        /// Travel cost of the degraded scheduling.
        cost: f64,
    },
    /// Recovery was deferred (no charger up); the next attempt waits an
    /// exponentially backed-off delay.
    RecoveryRetry {
        /// Evaluation instant.
        time: f64,
        /// Consecutive failed attempts so far (1-based).
        attempt: u32,
        /// Backoff delay until the next attempt.
        wait: f64,
    },
}

impl TraceEvent {
    /// The event's time stamp.
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::SlotBoundary { time, .. }
            | TraceEvent::PlanReplaced { time, .. }
            | TraceEvent::Dispatch { time, .. }
            | TraceEvent::Charge { time, .. }
            | TraceEvent::Death { time, .. }
            | TraceEvent::ChargerDown { time, .. }
            | TraceEvent::ChargerRepaired { time, .. }
            | TraceEvent::TourAborted { time, .. }
            | TraceEvent::EmergencyDispatch { time, .. }
            | TraceEvent::RecoveryRetry { time, .. } => time,
        }
    }
}

/// A full recorded run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimTrace {
    /// Events in emission order (non-decreasing time, except deaths which
    /// are stamped with their interpolated depletion instant inside the
    /// drain segment that detected them).
    pub events: Vec<TraceEvent>,
}

impl SimTrace {
    /// Number of events of each kind: `(slots, replans, dispatches,
    /// charges, deaths)`. Fault events are counted separately by
    /// [`SimTrace::fault_counts`].
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for e in &self.events {
            match e {
                TraceEvent::SlotBoundary { .. } => c.0 += 1,
                TraceEvent::PlanReplaced { .. } => c.1 += 1,
                TraceEvent::Dispatch { .. } => c.2 += 1,
                TraceEvent::Charge { .. } => c.3 += 1,
                TraceEvent::Death { .. } => c.4 += 1,
                TraceEvent::ChargerDown { .. }
                | TraceEvent::ChargerRepaired { .. }
                | TraceEvent::TourAborted { .. }
                | TraceEvent::EmergencyDispatch { .. }
                | TraceEvent::RecoveryRetry { .. } => {}
            }
        }
        c
    }

    /// Number of fault events of each kind: `(breakdowns, repairs,
    /// aborted tours, emergency dispatches, recovery retries)`.
    pub fn fault_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for e in &self.events {
            match e {
                TraceEvent::ChargerDown { .. } => c.0 += 1,
                TraceEvent::ChargerRepaired { .. } => c.1 += 1,
                TraceEvent::TourAborted { .. } => c.2 += 1,
                TraceEvent::EmergencyDispatch { .. } => c.3 += 1,
                TraceEvent::RecoveryRetry { .. } => c.4 += 1,
                _ => {}
            }
        }
        c
    }

    /// Events concerning one sensor (charges and deaths).
    pub fn sensor_events(&self, sensor: usize) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| {
                matches!(e,
                    TraceEvent::Charge { sensor: s, .. } |
                    TraceEvent::Death { sensor: s, .. } if *s == sensor)
            })
            .copied()
            .collect()
    }

    /// Renders the trace as one line per event — a timeline a human can
    /// diff.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let line = match *e {
                TraceEvent::SlotBoundary { time, slot } => {
                    format!("{time:>10.3}  slot     #{slot}")
                }
                TraceEvent::PlanReplaced { time, pending } => {
                    format!("{time:>10.3}  replan   {pending} pending dispatches")
                }
                TraceEvent::Dispatch { time, sensors, cost } => {
                    format!("{time:>10.3}  dispatch {sensors} sensors, {cost:.1} m")
                }
                TraceEvent::Charge { time, sensor } => {
                    format!("{time:>10.3}  charge   sensor {sensor}")
                }
                TraceEvent::Death { time, sensor } => {
                    format!("{time:>10.3}  DEATH    sensor {sensor}")
                }
                TraceEvent::ChargerDown { time, charger } => {
                    format!("{time:>10.3}  FAULT    charger {charger} down")
                }
                TraceEvent::ChargerRepaired { time, charger, downtime } => {
                    format!("{time:>10.3}  repair   charger {charger} up after {downtime:.3}")
                }
                TraceEvent::TourAborted { time, charger, orphans } => {
                    format!("{time:>10.3}  abort    charger {charger}, {orphans} orphans")
                }
                TraceEvent::EmergencyDispatch { time, sensors, cost } => {
                    format!("{time:>10.3}  rescue   {sensors} sensors, {cost:.1} m")
                }
                TraceEvent::RecoveryRetry { time, attempt, wait } => {
                    format!("{time:>10.3}  retry    attempt {attempt}, backoff {wait:.3}")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_filtering() {
        let trace = SimTrace {
            events: vec![
                TraceEvent::SlotBoundary { time: 1.0, slot: 1 },
                TraceEvent::Dispatch { time: 1.0, sensors: 2, cost: 10.0 },
                TraceEvent::Charge { time: 1.0, sensor: 0 },
                TraceEvent::Charge { time: 1.0, sensor: 1 },
                TraceEvent::Death { time: 2.5, sensor: 0 },
            ],
        };
        assert_eq!(trace.counts(), (1, 0, 1, 2, 1));
        let s0 = trace.sensor_events(0);
        assert_eq!(s0.len(), 2);
        assert_eq!(s0[1], TraceEvent::Death { time: 2.5, sensor: 0 });
    }

    #[test]
    fn render_is_line_per_event() {
        let trace = SimTrace {
            events: vec![
                TraceEvent::PlanReplaced { time: 0.0, pending: 7 },
                TraceEvent::Death { time: 3.25, sensor: 9 },
            ],
        };
        let text = trace.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("replan   7 pending"));
        assert!(text.contains("DEATH    sensor 9"));
    }

    #[test]
    fn fault_events_counted_and_rendered() {
        let trace = SimTrace {
            events: vec![
                TraceEvent::ChargerDown { time: 5.0, charger: 1 },
                TraceEvent::TourAborted { time: 6.0, charger: 1, orphans: 3 },
                TraceEvent::EmergencyDispatch { time: 6.0, sensors: 3, cost: 42.0 },
                TraceEvent::RecoveryRetry { time: 7.0, attempt: 1, wait: 0.5 },
                TraceEvent::ChargerRepaired { time: 9.0, charger: 1, downtime: 4.0 },
            ],
        };
        assert_eq!(trace.counts(), (0, 0, 0, 0, 0), "fault events are a separate tally");
        assert_eq!(trace.fault_counts(), (1, 1, 1, 1, 1));
        let text = trace.render();
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("FAULT    charger 1 down"));
        assert!(text.contains("rescue   3 sensors"));
        assert_eq!(trace.events[0].time(), 5.0);
    }

    #[test]
    fn event_time_accessor() {
        assert_eq!(TraceEvent::Charge { time: 4.5, sensor: 1 }.time(), 4.5);
        assert_eq!(TraceEvent::SlotBoundary { time: 10.0, slot: 1 }.time(), 10.0);
    }
}
