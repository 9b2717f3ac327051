//! Consumption-rate processes: how a sensor's drain rate evolves over time.
//!
//! Rates are piecewise constant over *slots* of length `ΔT` (Section VII.A:
//! "the maximum charging cycle τ_i(t) of each sensor does not change within
//! each time slot ΔT"). A [`ConsumptionProcess`] yields the rate for each
//! slot; the simulator integrates energy exactly between slot boundaries.

use crate::cycles::CycleDistribution;
use rand::Rng;

/// A per-sensor consumption-rate process, sampled once per slot.
pub trait ConsumptionProcess {
    /// Drain rate (energy per time unit) during slot `slot` (0-based).
    ///
    /// Must be deterministic given the process state and `rng` stream —
    /// the simulator calls it exactly once per sensor per slot, in slot
    /// order.
    fn rate_for_slot<R: Rng + ?Sized>(&mut self, slot: u64, rng: &mut R) -> f64;

    /// True when the rate can change between slots (drives whether the
    /// variable-cycle machinery is needed at all).
    fn is_variable(&self) -> bool;
}

/// A constant drain rate — the fixed-maximum-charging-cycle setting of
/// Section V. With a normalised battery (`B = 1`) a cycle `τ` gives rate
/// `1/τ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRate(pub f64);

impl FixedRate {
    /// Rate corresponding to maximum charging cycle `tau` for a battery of
    /// capacity `capacity`.
    pub fn from_cycle(capacity: f64, tau: f64) -> Self {
        assert!(tau > 0.0, "cycle must be positive");
        FixedRate(capacity / tau)
    }
}

impl ConsumptionProcess for FixedRate {
    fn rate_for_slot<R: Rng + ?Sized>(&mut self, _slot: u64, _rng: &mut R) -> f64 {
        self.0
    }

    fn is_variable(&self) -> bool {
        false
    }
}

/// Variable rates: each slot, the realised maximum charging cycle is
/// redrawn from the sensor's cycle distribution around its mean `τ̄`, and
/// the rate is `B/τ`. This is the Section VI / Figures 3–6 workload.
#[derive(Debug, Clone)]
pub struct SlottedResample {
    /// Battery capacity `B` (rate = `B / τ`).
    pub capacity: f64,
    /// Mean cycle `τ̄` of this sensor.
    pub mean_cycle: f64,
    /// Cycle distribution (carries σ for the linear case).
    pub dist: CycleDistribution,
    /// Global cycle clamp `[τ_min, τ_max]`.
    pub tau_min: f64,
    /// See `tau_min`.
    pub tau_max: f64,
    last_cycle: f64,
}

impl SlottedResample {
    /// Creates the process; the slot-0 cycle is drawn on first use.
    pub fn new(
        capacity: f64,
        mean_cycle: f64,
        dist: CycleDistribution,
        tau_min: f64,
        tau_max: f64,
    ) -> Self {
        assert!(tau_min > 0.0 && tau_max >= tau_min);
        Self { capacity, mean_cycle, dist, tau_min, tau_max, last_cycle: f64::NAN }
    }

    /// The cycle realised for the most recently sampled slot.
    pub fn current_cycle(&self) -> f64 {
        self.last_cycle
    }
}

impl ConsumptionProcess for SlottedResample {
    fn rate_for_slot<R: Rng + ?Sized>(&mut self, _slot: u64, rng: &mut R) -> f64 {
        let tau = self.dist.sample(self.mean_cycle, self.tau_min, self.tau_max, rng);
        self.last_cycle = tau;
        self.capacity / tau
    }

    fn is_variable(&self) -> bool {
        true
    }
}

/// Bursty consumption: a two-state Markov chain (calm / burst) sampled per
/// slot. In *calm* slots the cycle sits at `mean_cycle` (with the usual
/// jitter); in *burst* slots — a detected event, a storm, a tracked target
/// — the cycle collapses by `burst_factor`. Models event-detection WSNs,
/// whose load is neither fixed (Section V) nor i.i.d. per slot
/// (Section VII.A); used by the burst-robustness extension experiment.
#[derive(Debug, Clone)]
pub struct MarkovBurst {
    /// Battery capacity `B` (rate = `B / τ`).
    pub capacity: f64,
    /// Calm-state cycle `τ̄`.
    pub mean_cycle: f64,
    /// Cycle divisor during a burst (`≥ 1`).
    pub burst_factor: f64,
    /// P(calm → burst) per slot.
    pub p_enter: f64,
    /// P(burst → calm) per slot.
    pub p_exit: f64,
    /// Global cycle clamp.
    pub tau_min: f64,
    /// See `tau_min`.
    pub tau_max: f64,
    bursting: bool,
    last_cycle: f64,
}

impl MarkovBurst {
    /// Creates the process, starting calm.
    pub fn new(
        capacity: f64,
        mean_cycle: f64,
        burst_factor: f64,
        p_enter: f64,
        p_exit: f64,
        tau_min: f64,
        tau_max: f64,
    ) -> Self {
        assert!(burst_factor >= 1.0, "a burst shortens cycles");
        assert!((0.0..=1.0).contains(&p_enter) && (0.0..=1.0).contains(&p_exit));
        assert!(tau_min > 0.0 && tau_max >= tau_min);
        Self {
            capacity,
            mean_cycle,
            burst_factor,
            p_enter,
            p_exit,
            tau_min,
            tau_max,
            bursting: false,
            last_cycle: f64::NAN,
        }
    }

    /// True while the sensor is in the burst state.
    #[cfg(test)]
    pub(crate) fn is_bursting(&self) -> bool {
        self.bursting
    }

    /// The cycle realised for the most recently sampled slot.
    pub fn current_cycle(&self) -> f64 {
        self.last_cycle
    }
}

impl ConsumptionProcess for MarkovBurst {
    fn rate_for_slot<R: Rng + ?Sized>(&mut self, _slot: u64, rng: &mut R) -> f64 {
        let roll: f64 = rng.gen();
        self.bursting = if self.bursting { roll >= self.p_exit } else { roll < self.p_enter };
        let raw = if self.bursting { self.mean_cycle / self.burst_factor } else { self.mean_cycle };
        let tau = raw.clamp(self.tau_min, self.tau_max);
        self.last_cycle = tau;
        self.capacity / tau
    }

    fn is_variable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::rng::derived_rng;

    #[test]
    fn fixed_rate_constant_across_slots() {
        let mut p = FixedRate::from_cycle(1.0, 4.0);
        let mut rng = derived_rng(0, 0);
        assert_eq!(p.rate_for_slot(0, &mut rng), 0.25);
        assert_eq!(p.rate_for_slot(99, &mut rng), 0.25);
        assert!(!p.is_variable());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fixed_rate_rejects_zero_cycle() {
        FixedRate::from_cycle(1.0, 0.0);
    }

    #[test]
    fn slotted_rates_within_clamped_range() {
        let mut p =
            SlottedResample::new(1.0, 25.0, CycleDistribution::Linear { sigma: 10.0 }, 1.0, 50.0);
        let mut rng = derived_rng(1, 0);
        for slot in 0..500 {
            let r = p.rate_for_slot(slot, &mut rng);
            let tau = p.current_cycle();
            assert!((1.0..=50.0).contains(&tau));
            assert!((r - 1.0 / tau).abs() < 1e-12);
        }
        assert!(p.is_variable());
    }

    #[test]
    fn slotted_rates_actually_vary() {
        let mut p =
            SlottedResample::new(1.0, 25.0, CycleDistribution::Linear { sigma: 5.0 }, 1.0, 50.0);
        let mut rng = derived_rng(1, 1);
        let r0 = p.rate_for_slot(0, &mut rng);
        let distinct = (1..50)
            .map(|s| p.rate_for_slot(s, &mut rng))
            .filter(|&r| (r - r0).abs() > 1e-15)
            .count();
        assert!(distinct > 40);
    }

    #[test]
    fn markov_burst_states_and_clamp() {
        let mut p = MarkovBurst::new(1.0, 40.0, 8.0, 0.3, 0.5, 1.0, 50.0);
        let mut rng = derived_rng(2, 0);
        let mut burst_slots = 0;
        let mut calm_slots = 0;
        for slot in 0..2000 {
            let r = p.rate_for_slot(slot, &mut rng);
            let tau = p.current_cycle();
            assert!((1.0..=50.0).contains(&tau));
            assert!((r - 1.0 / tau).abs() < 1e-12);
            if p.is_bursting() {
                assert_eq!(tau, 5.0); // 40 / 8
                burst_slots += 1;
            } else {
                assert_eq!(tau, 40.0);
                calm_slots += 1;
            }
        }
        // Stationary burst probability = p_enter / (p_enter + p_exit) = 0.375.
        let frac = burst_slots as f64 / (burst_slots + calm_slots) as f64;
        assert!((frac - 0.375).abs() < 0.05, "burst fraction {frac}");
    }

    #[test]
    fn markov_burst_never_bursts_with_zero_probability() {
        let mut p = MarkovBurst::new(1.0, 20.0, 4.0, 0.0, 1.0, 1.0, 50.0);
        let mut rng = derived_rng(2, 1);
        for slot in 0..100 {
            p.rate_for_slot(slot, &mut rng);
            assert!(!p.is_bursting());
            assert_eq!(p.current_cycle(), 20.0);
        }
    }

    #[test]
    #[should_panic(expected = "burst shortens")]
    fn markov_burst_rejects_sub_one_factor() {
        MarkovBurst::new(1.0, 20.0, 0.5, 0.1, 0.1, 1.0, 50.0);
    }

    #[test]
    fn sigma_zero_is_constant_cycle() {
        let mut p =
            SlottedResample::new(1.0, 10.0, CycleDistribution::Linear { sigma: 0.0 }, 1.0, 50.0);
        let mut rng = derived_rng(1, 2);
        for slot in 0..10 {
            assert_eq!(p.rate_for_slot(slot, &mut rng), 0.1);
        }
    }
}
