//! Power-of-two cycle rounding (Section V.A).
//!
//! Given maximum charging cycles `τ_1 ≤ τ_2 ≤ … ≤ τ_n`, Algorithm 3 assigns
//! each sensor the rounded cycle `τ'_i = 2^k · τ_1` where `k` is the largest
//! integer with `2^k · τ_1 ≤ τ_i`. Equation (1) of the paper shows
//! `τ'_i > τ_i / 2`, so rounding costs at most a factor two of charging
//! frequency, and all rounded cycles divide each other — the property the
//! whole schedule construction rests on.
//!
//! The paper writes `K = ⌈log₂(τ_n/τ_1)⌉` but also `V_k ∋ v_i iff
//! 2^k τ_1 ≤ τ_i < 2^(k+1) τ_1` and `τ'_n = 2^K τ_1`; the two are only
//! consistent when `τ_n/τ_1` is a power of two. We take `K` to be the class
//! of the *largest* cycle (`K = ⌊log₂(τ_n/τ_1)⌋`), which keeps `V_K`
//! non-empty and `τ'_n = 2^K τ_1` exactly, and never weakens Lemma 3.

use serde::{Deserialize, Serialize};

// The class computation itself lives in `perpetuum-energy`'s `no_std`
// predictor module, so sensors (through `perpetuum-client`) and the base
// station share one definition; re-exported here to keep the historical
// public path.
pub use perpetuum_energy::predictor::power_class;

/// The sensor-class partition `V_0, …, V_K` and rounded cycles of
/// Section V.A.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CyclePartition {
    /// The smallest maximum charging cycle, `τ_1` (the base interval).
    pub tau1: f64,
    /// Class index per sensor: sensor `i` is in `V_{class_of[i]}`.
    pub class_of: Vec<usize>,
    /// Rounded cycle `τ'_i = 2^{class_of[i]} · τ_1` per sensor.
    pub rounded: Vec<f64>,
    /// `classes[k]` — sensors of `V_k`, ascending. Length `K + 1`.
    pub classes: Vec<Vec<usize>>,
}

impl CyclePartition {
    /// The largest class index `K`.
    pub fn k_max(&self) -> usize {
        self.classes.len() - 1
    }

    /// The largest rounded cycle `τ'_n = 2^K · τ_1` — the super-period of
    /// the schedule.
    pub fn super_period(&self) -> f64 {
        self.tau1 * 2f64.powi(self.k_max() as i32)
    }

    /// Cumulative class `D_k = V_0 ∪ … ∪ V_k` as sorted sensor indices —
    /// exactly the sensor set of a scheduling whose dispatch index is
    /// divisible by `2^k` (and no higher power of two ≤ `2^K`).
    pub fn cumulative(&self, k: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self.classes[..=k].iter().flatten().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Partitions `cycles` into the classes `V_0 … V_K` (Section V.A).
///
/// ```
/// let p = perpetuum_core::rounding::partition_cycles(&[1.0, 3.0, 5.0, 50.0]);
/// assert_eq!(p.rounded, vec![1.0, 2.0, 4.0, 32.0]); // τ' = 2^k τ_1
/// assert_eq!(p.k_max(), 5);
/// assert_eq!(p.super_period(), 32.0);
/// ```
///
/// # Panics
/// Panics on an empty slice or non-positive cycles.
pub fn partition_cycles(cycles: &[f64]) -> CyclePartition {
    assert!(!cycles.is_empty(), "cannot partition zero sensors");
    assert!(cycles.iter().all(|&t| t > 0.0 && t.is_finite()), "cycles must be positive and finite");
    let tau1 = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
    let class_of: Vec<usize> = cycles.iter().map(|&t| power_class(tau1, t)).collect();
    let k_max = class_of.iter().copied().max().unwrap();
    let mut classes = vec![Vec::new(); k_max + 1];
    for (i, &k) in class_of.iter().enumerate() {
        classes[k].push(i);
    }
    let rounded: Vec<f64> = class_of.iter().map(|&k| tau1 * 2f64.powi(k as i32)).collect();
    CyclePartition { tau1, class_of, rounded, classes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_class_basics() {
        assert_eq!(power_class(1.0, 1.0), 0);
        assert_eq!(power_class(1.0, 1.99), 0);
        assert_eq!(power_class(1.0, 2.0), 1);
        assert_eq!(power_class(1.0, 3.0), 1);
        assert_eq!(power_class(1.0, 4.0), 2);
        assert_eq!(power_class(1.0, 50.0), 5);
        assert_eq!(power_class(2.5, 10.0), 2);
    }

    #[test]
    fn power_class_exact_boundaries() {
        // 2^k multiples land exactly in class k, no floating-point slop.
        for k in 0..40usize {
            let tau = (1u64 << k) as f64;
            assert_eq!(power_class(1.0, tau), k, "tau = 2^{k}");
            assert_eq!(power_class(1.0, tau * 1.0000001), k);
        }
    }

    #[test]
    #[should_panic(expected = "tau1 <= tau")]
    fn power_class_rejects_small_tau() {
        power_class(2.0, 1.0);
    }

    #[test]
    fn partition_small_example() {
        // τ = [1, 1.5, 2, 3, 4, 50]: classes 0,0,1,1,2,5.
        let p = partition_cycles(&[1.0, 1.5, 2.0, 3.0, 4.0, 50.0]);
        assert_eq!(p.tau1, 1.0);
        assert_eq!(p.class_of, vec![0, 0, 1, 1, 2, 5]);
        assert_eq!(p.k_max(), 5);
        assert_eq!(p.rounded, vec![1.0, 1.0, 2.0, 2.0, 4.0, 32.0]);
        assert_eq!(p.classes[0], vec![0, 1]);
        assert_eq!(p.classes[1], vec![2, 3]);
        assert_eq!(p.classes[2], vec![4]);
        assert!(p.classes[3].is_empty());
        assert!(p.classes[4].is_empty());
        assert_eq!(p.classes[5], vec![5]);
        assert_eq!(p.super_period(), 32.0);
    }

    #[test]
    fn equation_1_bound_holds() {
        // τ'_i ≤ τ_i and τ'_i > τ_i / 2 for a spread of cycles.
        let cycles: Vec<f64> = (1..200).map(|i| 1.0 + (i as f64) * 0.37).collect();
        let p = partition_cycles(&cycles);
        for (i, &tau) in cycles.iter().enumerate() {
            assert!(p.rounded[i] <= tau + 1e-12, "sensor {i}");
            assert!(p.rounded[i] > tau / 2.0 - 1e-12, "sensor {i}");
        }
    }

    #[test]
    fn rounded_cycles_divide_each_other() {
        let cycles = [3.0, 7.0, 12.0, 30.0, 95.0];
        let p = partition_cycles(&cycles);
        let mut r = p.rounded.clone();
        r.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in r.windows(2) {
            let ratio = w[1] / w[0];
            assert!((ratio - ratio.round()).abs() < 1e-12, "{} / {}", w[1], w[0]);
            assert!((ratio.round() as u64).is_power_of_two() || ratio == 1.0);
        }
    }

    #[test]
    fn uniform_cycles_single_class() {
        let p = partition_cycles(&[5.0; 8]);
        assert_eq!(p.k_max(), 0);
        assert_eq!(p.classes[0].len(), 8);
        assert_eq!(p.super_period(), 5.0);
        assert!(p.rounded.iter().all(|&r| r == 5.0));
    }

    #[test]
    fn cumulative_sets_grow() {
        let p = partition_cycles(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(p.cumulative(0), vec![0]);
        assert_eq!(p.cumulative(1), vec![0, 1]);
        assert_eq!(p.cumulative(2), vec![0, 1, 2]);
        assert_eq!(p.cumulative(3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_sensor() {
        let p = partition_cycles(&[7.5]);
        assert_eq!(p.k_max(), 0);
        assert_eq!(p.rounded, vec![7.5]);
        assert_eq!(p.super_period(), 7.5);
    }

    #[test]
    #[should_panic(expected = "zero sensors")]
    fn rejects_empty() {
        partition_cycles(&[]);
    }
}
