//! Schedule-series analysis: the operational numbers a WSN operator reads
//! off a plan before committing a charger fleet to it.

use crate::schedule::ScheduleSeries;
use serde::{Deserialize, Serialize};

/// Per-sensor and per-dispatch statistics of a schedule series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesStats {
    /// Charge count per sensor.
    pub charges_per_sensor: Vec<usize>,
    /// Largest charge gap per sensor, including the leading gap from
    /// `t = 0` and the trailing gap to the horizon (`horizon` itself when a
    /// sensor is never charged).
    pub max_gap_per_sensor: Vec<f64>,
    /// Mean inter-charge gap per sensor (`NaN`-free: sensors with fewer
    /// than two charges report the horizon-splitting gap mean).
    pub mean_gap_per_sensor: Vec<f64>,
    /// Total dispatches.
    pub dispatches: usize,
    /// Mean sensors covered per dispatch.
    pub mean_sensors_per_dispatch: f64,
    /// Cost of the cheapest and the most expensive dispatch.
    pub dispatch_cost_range: (f64, f64),
    /// Mean time between consecutive dispatches.
    pub mean_dispatch_gap: f64,
}

/// Computes [`SeriesStats`] for a series over `n` sensors and the given
/// horizon. The series' dispatches must be time-sorted (all planners emit
/// them sorted).
pub fn analyze(series: &ScheduleSeries, n: usize, horizon: f64) -> SeriesStats {
    let mut charges_per_sensor = vec![0usize; n];
    let mut max_gap = vec![0.0f64; n];
    let mut mean_gap = vec![0.0f64; n];

    for i in 0..n {
        let times = series.charge_times(i);
        charges_per_sensor[i] = times.len();
        // Gaps: 0 → t_1 → … → t_k → horizon.
        let mut prev = 0.0;
        let mut worst = 0.0f64;
        let mut total = 0.0;
        let mut count = 0usize;
        for &t in &times {
            worst = worst.max(t - prev);
            total += t - prev;
            count += 1;
            prev = t;
        }
        worst = worst.max(horizon - prev);
        total += horizon - prev;
        count += 1;
        max_gap[i] = worst;
        mean_gap[i] = total / count as f64;
    }

    let dispatches = series.dispatch_count();
    let mut min_cost = f64::INFINITY;
    let mut max_cost = 0.0f64;
    let mut covered = 0usize;
    let mut prev_time: Option<f64> = None;
    let mut gap_total = 0.0;
    let mut gap_count = 0usize;
    for d in series.dispatches() {
        let set = series.set_of(d);
        min_cost = min_cost.min(set.cost());
        max_cost = max_cost.max(set.cost());
        covered += set.sensors().len();
        if let Some(p) = prev_time {
            gap_total += d.time - p;
            gap_count += 1;
        }
        prev_time = Some(d.time);
    }
    if dispatches == 0 {
        min_cost = 0.0;
    }

    SeriesStats {
        charges_per_sensor,
        max_gap_per_sensor: max_gap,
        mean_gap_per_sensor: mean_gap,
        dispatches,
        mean_sensors_per_dispatch: if dispatches == 0 {
            0.0
        } else {
            covered as f64 / dispatches as f64
        },
        dispatch_cost_range: (min_cost, max_cost),
        mean_dispatch_gap: if gap_count == 0 { 0.0 } else { gap_total / gap_count as f64 },
    }
}

impl SeriesStats {
    /// True when every sensor's worst gap is within its cycle — the same
    /// check as [`crate::feasibility::check_series`], phrased on stats.
    #[cfg(test)]
    pub(crate) fn feasible_for(&self, cycles: &[f64]) -> bool {
        self.max_gap_per_sensor.iter().zip(cycles.iter()).all(|(&gap, &tau)| gap <= tau + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtd::{plan_min_total_distance, MtdConfig};
    use crate::network::{Instance, Network};
    use perpetuum_geom::Point2;

    fn instance() -> Instance {
        let sensors = vec![Point2::new(10.0, 0.0), Point2::new(20.0, 0.0), Point2::new(30.0, 0.0)];
        let depots = vec![Point2::ORIGIN];
        Instance::new(Network::new(sensors, depots), vec![1.0, 2.0, 8.0], 16.0)
    }

    #[test]
    fn stats_match_known_plan() {
        let inst = instance();
        let plan = plan_min_total_distance(&inst, &MtdConfig::default());
        let stats = analyze(&plan, 3, 16.0);
        // Sensor 0 (cycle 1): charged at 1..15 → 15 charges, gap 1.
        assert_eq!(stats.charges_per_sensor[0], 15);
        assert!((stats.max_gap_per_sensor[0] - 1.0).abs() < 1e-9);
        // Sensor 1 (cycle 2): 7 charges (2,4,…,14), max gap 2.
        assert_eq!(stats.charges_per_sensor[1], 7);
        assert!((stats.max_gap_per_sensor[1] - 2.0).abs() < 1e-9);
        // Sensor 2 (cycle 8): charged at 8, gaps 8 and 8.
        assert_eq!(stats.charges_per_sensor[2], 1);
        assert!((stats.max_gap_per_sensor[2] - 8.0).abs() < 1e-9);
        assert!((stats.mean_gap_per_sensor[2] - 8.0).abs() < 1e-9);
        assert_eq!(stats.dispatches, 15);
        assert!(stats.feasible_for(inst.cycles()));
        assert!(!stats.feasible_for(&[0.5, 2.0, 8.0]));
        assert!((stats.mean_dispatch_gap - 1.0).abs() < 1e-9);
        assert!(stats.dispatch_cost_range.0 > 0.0);
        assert!(stats.dispatch_cost_range.1 >= stats.dispatch_cost_range.0);
    }

    #[test]
    fn empty_series() {
        let stats = analyze(&ScheduleSeries::new(), 2, 10.0);
        assert_eq!(stats.dispatches, 0);
        assert_eq!(stats.mean_sensors_per_dispatch, 0.0);
        assert_eq!(stats.dispatch_cost_range, (0.0, 0.0));
        assert_eq!(stats.max_gap_per_sensor, vec![10.0, 10.0]);
        assert!(stats.feasible_for(&[10.0, 12.0]));
        assert!(!stats.feasible_for(&[9.0, 12.0]));
    }
}
