//! Per-run simulation results.

use serde::{Deserialize, Serialize};

/// A sensor running out of energy before its next charge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeathEvent {
    /// The sensor that died.
    pub sensor: usize,
    /// Estimated death time (linear interpolation inside the drain segment
    /// in which the battery hit zero).
    pub time: f64,
}

/// Degraded-mode accounting: what faults cost a run and how recovery
/// performed. All-zero (the `Default`) on fault-free runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Charger breakdowns observed inside the horizon.
    #[serde(default)]
    pub breakdowns: usize,
    /// Charger repairs observed inside the horizon.
    #[serde(default)]
    pub repairs: usize,
    /// Planned tours skipped because their charger was down at dispatch
    /// time (each orphans its covered sensors).
    #[serde(default)]
    pub aborted_tours: usize,
    /// Individual sensor stops lost to faults: sensors of skipped tours
    /// plus in-transit arrivals cancelled by a mid-tour breakdown.
    #[serde(default)]
    pub orphaned_charges: usize,
    /// Emergency schedulings executed by the recovery planner.
    #[serde(default)]
    pub emergency_dispatches: usize,
    /// Orphans served by emergency dispatches.
    #[serde(default)]
    pub recovered_orphans: usize,
    /// Summed orphaned-to-rescue latency over recovered orphans.
    #[serde(default)]
    pub total_recovery_latency: f64,
    /// Worst single orphaned-to-rescue latency.
    #[serde(default)]
    pub max_recovery_latency: f64,
    /// Recovery attempts deferred (with backoff) because no charger was
    /// up.
    #[serde(default)]
    pub recovery_retries: usize,
    /// Urgent orphans abandoned after the retry budget ran out.
    #[serde(default)]
    pub recovery_giveups: usize,
    /// Charges that arrived after their sensor had already depleted —
    /// missed deadlines per `τ_i` (the revival still counts as a charge).
    #[serde(default)]
    pub deadline_misses: usize,
    /// Total sensor-time spent dead (depletion to revival, plus the tail
    /// to the horizon for sensors that never recover).
    #[serde(default)]
    pub dead_sensor_time: f64,
    /// Accumulated down-phase time per charger (indexed by depot),
    /// clipped to the horizon.
    #[serde(default)]
    pub per_charger_downtime: Vec<f64>,
}

impl FaultStats {
    /// Summed downtime across all chargers.
    pub fn total_downtime(&self) -> f64 {
        // fold, not sum(): the float Sum identity is -0.0, which would leak
        // a "-0.0" into fault-free report tables.
        self.per_charger_downtime.iter().fold(0.0, |a, &b| a + b)
    }
}

/// Everything a simulation run measures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Total travelled distance of all chargers — the paper's objective
    /// (same length unit as the input coordinates; the experiment harness
    /// reports km).
    pub service_cost: f64,
    /// Number of executed charging schedulings.
    pub dispatches: usize,
    /// Total individual sensor charges.
    pub charges: usize,
    /// Sensor deaths (perpetual operation means this stays empty).
    pub deaths: Vec<DeathEvent>,
    /// Travelled distance per charger (indexed by depot).
    pub per_charger_distance: Vec<f64>,
    /// Plan replacements after initialisation (MinTotalDistance-var
    /// recomputations; 0 for offline plans).
    pub replans: usize,
    /// Longest single charger tour observed across all dispatches (m).
    /// Divided by the vehicle speed this bounds the duration of a charging
    /// task — the quantity the paper assumes is "several orders of
    /// magnitude less than the lifetime of a fully-charged sensor".
    pub max_tour_length: f64,
    /// Largest total per-dispatch travel (the busiest single scheduling).
    pub max_dispatch_cost: f64,
    /// Travel-time mode only: summed delay between dispatch and the
    /// charger actually reaching each sensor (0 under instant charging).
    pub total_charge_delay: f64,
    /// Travel-time mode only: the worst single charge delay.
    pub max_charge_delay: f64,
    /// Ascending charge times per sensor — ground truth for feasibility
    /// checking in tests.
    pub charge_log: Vec<Vec<f64>>,
    /// Degraded-mode accounting (all zero on fault-free runs).
    #[serde(default)]
    pub faults: FaultStats,
}

impl SimResult {
    /// True when every sensor survived the whole run.
    pub fn is_perpetual(&self) -> bool {
        self.deaths.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perpetual_iff_no_deaths() {
        let mut r = SimResult::default();
        assert!(r.is_perpetual());
        r.deaths.push(DeathEvent { sensor: 3, time: 12.5 });
        assert!(!r.is_perpetual());
    }

    #[test]
    fn fault_stats_default_is_all_zero() {
        let s = FaultStats::default();
        assert_eq!(s, FaultStats::default());
        assert_eq!(s.total_downtime(), 0.0);
    }

    #[test]
    fn fault_stats_latency_and_downtime() {
        let s = FaultStats {
            recovered_orphans: 4,
            total_recovery_latency: 6.0,
            per_charger_downtime: vec![1.5, 0.0, 2.5],
            ..Default::default()
        };
        assert!((s.total_downtime() - 4.0).abs() < 1e-12);
    }
}
