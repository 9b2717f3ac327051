//! Independent feasibility checking.
//!
//! A schedule series is feasible (Section III.C) when, for every sensor,
//! (i) the gap between consecutive charges never exceeds its maximum
//! charging cycle, and (ii) neither do the leading gap from `t = 0` (all
//! sensors start fully charged) nor the trailing gap to the end of the
//! period `T`. This module re-derives charge times from the series and
//! checks both conditions without trusting anything the planners computed —
//! it is the test oracle for every algorithm in the crate.

use crate::network::Instance;
use crate::schedule::ScheduleSeries;

/// A feasibility violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The gap `(from, to]` between two consecutive charges of `sensor`
    /// exceeds its cycle `tau`. `from == 0.0` covers the leading gap.
    GapExceeded {
        /// Offending sensor index.
        sensor: usize,
        /// Start of the gap (previous charge, or 0).
        from: f64,
        /// End of the gap (next charge).
        to: f64,
        /// The sensor's maximum charging cycle.
        tau: f64,
    },
    /// The gap from the last charge of `sensor` to the horizon exceeds
    /// `tau`.
    TailExceeded {
        /// Offending sensor index.
        sensor: usize,
        /// Time of the last charge (or 0 if never charged).
        last: f64,
        /// The monitoring period `T`.
        horizon: f64,
        /// The sensor's maximum charging cycle.
        tau: f64,
    },
}

impl Violation {
    /// The offending sensor.
    pub fn sensor(&self) -> usize {
        match *self {
            Violation::GapExceeded { sensor, .. } | Violation::TailExceeded { sensor, .. } => {
                sensor
            }
        }
    }

    /// Length of the offending charge gap (tail violations measure to the
    /// horizon).
    pub fn gap(&self) -> f64 {
        match *self {
            Violation::GapExceeded { from, to, .. } => to - from,
            Violation::TailExceeded { last, horizon, .. } => horizon - last,
        }
    }

    /// By how much the gap overshoots the sensor's cycle `τ_i` — the
    /// "how far from feasible" magnitude (always positive for a reported
    /// violation).
    pub(crate) fn excess(&self) -> f64 {
        match *self {
            Violation::GapExceeded { tau, .. } | Violation::TailExceeded { tau, .. } => {
                self.gap() - tau
            }
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::GapExceeded { sensor, from, to, tau } => write!(
                f,
                "sensor {sensor}: charge gap {from}..{to} ({} units) exceeds cycle {tau} by {}",
                to - from,
                self.excess()
            ),
            Violation::TailExceeded { sensor, last, horizon, tau } => write!(
                f,
                "sensor {sensor}: last charged at {last}, horizon {horizon} ({} units) exceeds cycle {tau} by {}",
                horizon - last,
                self.excess()
            ),
        }
    }
}

/// Numerical slack on gap comparisons: dispatch times are sums of `f64`
/// multiples of `τ_1`, so exact-`τ` gaps may overshoot by rounding noise.
const EPS: f64 = 1e-9;

/// Checks a series against the instance's cycles and horizon. Returns all
/// violations (empty `Ok` means every sensor survives the whole period).
///
/// Runs as a single inverted pass: one sweep over the dispatches builds
/// every sensor's charge times at once, so the whole check costs
/// `O(D log D + total charges)` instead of the `O(n · D)` per-sensor
/// membership scans it used to perform.
pub fn check_series(instance: &Instance, series: &ScheduleSeries) -> Result<(), Vec<Violation>> {
    let cycles = instance.cycles();
    let horizon = instance.horizon();
    let all = series.charge_times_all(cycles.len());
    let mut violations = Vec::new();
    for (i, &tau) in cycles.iter().enumerate() {
        check_sensor(i, tau, &all[i], horizon, &mut violations);
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Core checker over explicit charge times; `charges(i)` must return the
/// ascending charge times of sensor `i`. Exposed so the simulator can check
/// *executed* charges (ground truth) as well as planned ones.
pub fn check_with(
    cycles: &[f64],
    horizon: f64,
    charges: impl Fn(usize) -> Vec<f64>,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    for (i, &tau) in cycles.iter().enumerate() {
        check_sensor(i, tau, &charges(i), horizon, &mut violations);
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Gap/tail check for one sensor given its ascending charge times.
fn check_sensor(sensor: usize, tau: f64, times: &[f64], horizon: f64, out: &mut Vec<Violation>) {
    let mut prev = 0.0; // fully charged at t = 0
    for &t in times {
        if t - prev > tau + EPS {
            out.push(Violation::GapExceeded { sensor, from: prev, to: t, tau });
        }
        prev = t;
    }
    if horizon - prev > tau + EPS {
        out.push(Violation::TailExceeded { sensor, last: prev, horizon, tau });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_good() {
        let r = check_with(&[2.0, 5.0], 10.0, |i| match i {
            0 => vec![2.0, 4.0, 6.0, 8.0],
            _ => vec![5.0],
        });
        assert!(r.is_ok());
    }

    #[test]
    fn detects_mid_gap() {
        let r = check_with(&[2.0], 10.0, |_| vec![2.0, 6.0, 8.0]);
        let v = r.unwrap_err();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], Violation::GapExceeded { sensor: 0, from: 2.0, to: 6.0, tau: 2.0 });
    }

    #[test]
    fn detects_leading_gap() {
        let r = check_with(&[3.0], 10.0, |_| vec![4.0, 7.0, 10.0]);
        let v = r.unwrap_err();
        assert!(matches!(v[0], Violation::GapExceeded { from, .. } if from == 0.0));
    }

    #[test]
    fn detects_tail_gap() {
        let r = check_with(&[3.0], 10.0, |_| vec![3.0, 6.0]);
        let v = r.unwrap_err();
        assert_eq!(v[0], Violation::TailExceeded { sensor: 0, last: 6.0, horizon: 10.0, tau: 3.0 });
    }

    #[test]
    fn never_charged_but_long_cycle_ok() {
        assert!(check_with(&[10.0], 10.0, |_| vec![]).is_ok());
        assert!(check_with(&[9.0], 10.0, |_| vec![]).is_err());
    }

    #[test]
    fn exact_gap_equal_to_tau_allowed() {
        // |t2 - t1| ≤ τ is the paper's constraint — equality is fine.
        assert!(check_with(&[2.0], 8.0, |_| vec![2.0, 4.0, 6.0, 8.0 - 2.0]).is_ok());
    }

    #[test]
    fn reports_all_violations() {
        let r = check_with(&[1.0, 1.0], 3.0, |_| vec![]);
        let v = r.unwrap_err();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn display_is_informative() {
        let g = Violation::GapExceeded { sensor: 3, from: 1.0, to: 5.0, tau: 2.0 };
        let s = format!("{g}");
        assert!(s.contains("sensor 3") && s.contains("exceeds cycle 2") && s.contains("by 2"));
    }

    #[test]
    fn accessors_quantify_the_violation() {
        let g = Violation::GapExceeded { sensor: 3, from: 1.0, to: 5.0, tau: 2.0 };
        assert_eq!(g.sensor(), 3);
        assert_eq!(g.gap(), 4.0);
        assert_eq!(g.excess(), 2.0);

        let t = Violation::TailExceeded { sensor: 7, last: 6.0, horizon: 10.0, tau: 2.5 };
        assert_eq!(t.sensor(), 7);
        assert_eq!(t.gap(), 4.0);
        assert_eq!(t.excess(), 1.5);
        let s = format!("{t}");
        assert!(s.contains("sensor 7") && s.contains("by 1.5"));
    }
}
